"""Anchor-quality metrics, anchor-set comparison, and report rendering.

Everything here scores how well a set of anchor shapes covers a box
distribution. These are shape-coverage proxies; they say nothing about
the precision of a trained detector.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .assign import RULES
from .cluster import best_iou
from .geometry import AnchorSet, shape_dist_matrix
from .ingest import CanonicalDataset, ParseError, _check_float_range, _integer, _read_json

PROXY_BANNER = "Anchor-quality proxy metrics (shape coverage); not detector accuracy."

_MAX_EXACT_MATCH = 20  # the subset table doubles with each anchor


def match_anchor_sets(a: AnchorSet, b: AnchorSet) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The best one-to-one pairing of two equal-size anchor sets, and the
    log-space distance of each matched pair (their mean is the sets' distance).

    The pairing, as (index in a, index in b) pairs in a's order, minimizes
    the summed Euclidean distance between matched log shapes, found
    exactly by dynamic programming over subsets of b (up to 20 anchors).
    Of equal costs, a subset keeps the one placing its last row highest in b.
    """
    if len(a) != len(b):
        raise ValueError(f"anchor sets differ in size: {len(a)} vs {len(b)}")
    n = len(a)
    if n > _MAX_EXACT_MATCH:
        raise ValueError(f"exact matching supports up to {_MAX_EXACT_MATCH} anchors, got {n}")
    dist = np.sqrt(shape_dist_matrix(a.log_wh, b.log_wh))
    # best[mask]: rows 0 .. popcount(mask) - 1 of a placed on b's indices in mask. Layer i fills
    # the masks of i + 1 bits; a j outside the mask reads an unfilled inf, which never wins
    masks, bits = np.arange(1 << n), 1 << np.arange(n)
    popcount = sum((masks >> j) & 1 for j in range(n))
    best = np.full(1 << n, np.inf)
    best[0] = 0.0
    choice = np.zeros(1 << n, dtype=np.intp)
    for i in range(n):
        layer = masks[popcount == i + 1]
        cand = best[layer[:, None] ^ bits] + dist[i]
        # the first minimum of the reversed columns: a tie goes to the highest j
        j = n - 1 - np.argmin(cand[:, ::-1], axis=1)
        choice[layer], best[layer] = j, cand[np.arange(len(layer)), j]
    cols, mask = [0] * n, (1 << n) - 1
    for i in range(n - 1, -1, -1):
        cols[i] = int(choice[mask])
        mask ^= 1 << cols[i]
    return tuple(enumerate(cols)), dist[np.arange(n), cols]


@dataclass(frozen=True)
class AnchorReport:
    """Coverage metrics for one anchor set over one dataset."""

    canvas: int
    stride: int
    assignment_rule: str
    avg_best_iou: float
    recall_at: dict[float, float]
    utilization: tuple[int, ...]
    anchors_wh: tuple[tuple[float, float], ...]


def build_report(
    anchors: AnchorSet,
    ds: CanonicalDataset,
    assignment_rule: str = "yolo",
    taus: Sequence[float] = (0.5, 0.75),
    threshold_tau: float = 0.5,
) -> AnchorReport:
    """Score an anchor set; anchors are reported sorted by area.

    avg_best_iou is the mean over boxes of the best aligned IoU against
    any anchor, and recall_at the fraction of boxes whose best IoU
    reaches each tau. Utilization counts how many boxes each anchor is
    responsible for under the chosen rule. With the yolo rule the counts
    sum to the dataset size; the threshold rule may count a box more
    than once. threshold_tau and each tau must lie in (0, 1) under
    either rule.
    """
    if assignment_rule not in RULES:
        raise ValueError(f"unknown assignment rule {assignment_rule!r}")
    threshold = assignment_rule == "threshold"
    for t in (threshold_tau, *taus):
        if not 0.0 < t < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {t}")
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    ordered = anchors.sorted_by_area()
    anchors_wh = ordered.wh()
    best, winner, _, util = best_iou(ds.shapes(), anchors_wh, threshold_tau if threshold else None)
    if threshold:
        # each anchor takes every box that reaches tau with it; a box that
        # reaches tau with no anchor goes to its best one
        winner = winner[best < threshold_tau]
    util += np.bincount(winner, minlength=len(ordered))
    return AnchorReport(
        canvas=ds.canvas_size,
        stride=ordered.stride,
        assignment_rule=assignment_rule,
        avg_best_iou=float(best.mean()),
        recall_at={float(t): float(np.mean(best >= t)) for t in taus},
        utilization=tuple(int(u) for u in util),
        anchors_wh=tuple((w, h) for w, h in anchors_wh.tolist()),
    )


def render_text(report: AnchorReport) -> str:
    lines = [PROXY_BANNER, ""]
    lines.append(f"canvas {report.canvas}, stride {report.stride}, rule {report.assignment_rule}")
    lines.append(f"avg_best_iou: {report.avg_best_iou:.4f}")
    for tau in sorted(report.recall_at):
        lines.append(f"recall@{tau:g}: {report.recall_at[tau]:.4f}")
    lines.append("")
    lines.append(f"{'anchor (w x h)':>22}  {'boxes':>8}")
    for (w, h), u in zip(report.anchors_wh, report.utilization):
        lines.append(f"{w:10.2f} x {h:8.2f}  {u:8d}")
    return "\n".join(lines) + "\n"


def report_to_json(report: AnchorReport) -> str:
    """The report's fields in their order, after a kind/version header;
    recall_at is keyed by each tau's repr and anchors_wh is named anchors."""
    payload = {"kind": "anchorforge-report", "version": 1, **asdict(report)}
    payload["recall_at"] = {repr(float(t)): v for t, v in sorted(report.recall_at.items())}
    payload["anchors"] = payload.pop("anchors_wh")
    return json.dumps(payload, indent=2)


def write_anchors_json(path: "str | Path", anchors: AnchorSet, canvas: int) -> None:
    """Write anchors (sorted by area, linear pixels) with canvas and stride.
    A canvas or an anchor that read_anchors_json would refuse raises
    ValueError first."""
    canvas = _integer("canvas", canvas, positive=True)
    ordered = anchors.sorted_by_area()
    with np.errstate(over="ignore"):  # a side beyond float range is refused below
        wh = ordered.wh().tolist()
    AnchorSet.from_linear(wh)  # exp can overflow or reach 0, and the area can overflow
    payload = {
        "canvas": canvas,
        "stride": ordered.stride,
        "anchors": wh,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_anchors_json(path: "str | Path") -> tuple[AnchorSet, int]:
    """Read an anchors file; returns (anchors, canvas). Raises ParseError when malformed."""
    path = Path(path)
    doc = _read_json(path)
    try:
        canvas, stride, anchors = doc["canvas"], doc["stride"], doc["anchors"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"{path}: not a valid anchors file: {e}") from None
    if not isinstance(anchors, list):
        raise ParseError(f"{path}: anchors must be a list of [w, h] pairs, got {json.dumps(anchors)}")
    pairs = []
    for pair in anchors:
        # JSON numbers only: float() would also read "30" and true (bool is an int subclass)
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair)):
            raise ParseError(f"{path}: each anchor must be a pair of numbers [w, h], got {json.dumps(pair)}")
        try:
            pairs.append((float(pair[0]), float(pair[1])))
        except OverflowError:
            raise ParseError(f"{path}: anchor {json.dumps(pair)} has a side beyond float range") from None
    for key, value in (("canvas", canvas), ("stride", stride)):
        # bool is an int subclass: "canvas": true must not read as canvas 1
        if type(value) is not int or value < 1:
            raise ParseError(f"{path}: {key} must be an integer >= 1, got {json.dumps(value)}")
    if not pairs:
        raise ParseError(f"{path}: anchors list is empty")
    try:
        _check_float_range("canvas", canvas)
        _check_float_range("stride", stride)
        anchor_set = AnchorSet.from_linear(pairs, stride)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
    return anchor_set, canvas


def anchors_line(anchors: AnchorSet, units: str = "pixels") -> str:
    """Single-line export: "w1,h1, w2,h2, ..." sorted by area.

    units="cells" divides by the stride for detector configs that expect
    grid units.
    """
    ordered = anchors.sorted_by_area()
    div = float(ordered.stride) if units == "cells" else 1.0
    if units not in ("pixels", "cells"):
        raise ValueError(f"unknown units {units!r}")
    pairs = [f"{w / div:g},{h / div:g}" for w, h in ordered.wh().tolist()]
    return ", ".join(pairs)
