"""Anchor-quality metrics, anchor-set comparison, and report rendering.

Everything here scores how well a set of anchor shapes covers a box
distribution. These are shape-coverage proxies; they say nothing about
the precision of a trained detector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .assign import hard_assign_threshold, hard_assign_yolo, utilization_counts
from .geometry import AnchorSet, iou_aligned_matrix
from .ingest import CanonicalDataset, ParseError

PROXY_BANNER = "Anchor-quality proxy metrics (shape coverage); not detector accuracy."

_MAX_EXACT_MATCH = 10


def coverage(anchors: AnchorSet, ds: CanonicalDataset, taus: Sequence[float]) -> tuple[float, dict[float, float]]:
    """avg_best_iou and recall_at each tau, from one best-IoU pass over the boxes."""
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    best = iou_aligned_matrix(ds.shapes(), np.exp(anchors.as_array())).max(axis=1)
    return float(best.mean()), {float(t): float(np.mean(best >= t)) for t in taus}


def avg_best_iou(anchors: AnchorSet, ds: CanonicalDataset) -> float:
    """Mean over boxes of the best aligned IoU against any anchor."""
    return coverage(anchors, ds, ())[0]


def recall_at(anchors: AnchorSet, ds: CanonicalDataset, tau: float) -> float:
    """Fraction of boxes whose best aligned IoU reaches tau."""
    return coverage(anchors, ds, (tau,))[1][float(tau)]


def _pairing_distances(a: AnchorSet, b: AnchorSet) -> tuple[list[int], np.ndarray]:
    if len(a) != len(b):
        raise ValueError(f"anchor sets differ in size: {len(a)} vs {len(b)}")
    n = len(a)
    if n > _MAX_EXACT_MATCH:
        raise ValueError(f"exact matching supports up to {_MAX_EXACT_MATCH} anchors, got {n}")
    la, lb = a.as_array(), b.as_array()
    dist = np.sqrt(np.sum((la[:, None, :] - lb[None, :, :]) ** 2, axis=2))
    # DP over subsets of b's indices; popcount(mask) rows of a are placed.
    full = (1 << n) - 1
    best = np.full(1 << n, np.inf)
    best[0] = 0.0
    choice = np.full(1 << n, -1, dtype=int)
    for mask in range(full):
        i = bin(mask).count("1")
        base = best[mask]
        if not np.isfinite(base):
            continue
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            cand = base + dist[i, j]
            if cand < best[mask | bit]:
                best[mask | bit] = cand
                choice[mask | bit] = j
    cols = [0] * n
    mask = full
    for i in range(n - 1, -1, -1):
        j = int(choice[mask])
        cols[i] = j
        mask ^= 1 << j
    return cols, dist


def match_pairing(a: AnchorSet, b: AnchorSet) -> tuple[tuple[int, int], ...]:
    """The one-to-one pairing (index in a, index in b) that minimizes the
    summed log-space distance between matched shapes."""
    cols, _ = _pairing_distances(a, b)
    return tuple((i, j) for i, j in enumerate(cols))


def match_anchor_sets(a: AnchorSet, b: AnchorSet) -> float:
    """Mean log-space distance between two equal-size anchor sets under
    the best one-to-one pairing.

    The pairing minimizes the summed Euclidean distance between matched
    log shapes, found exactly by dynamic programming over subsets (the
    sets are small; up to 10 anchors are supported).
    """
    cols, dist = _pairing_distances(a, b)
    return float(np.mean([dist[i, j] for i, j in enumerate(cols)]))


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

    Utilization counts how many boxes each anchor is responsible for
    under the chosen rule. With the yolo rule the counts sum to the
    dataset size; the threshold rule may count a box more than once.
    """
    ordered = anchors.sorted_by_area()
    log_s = ordered.as_array()
    if assignment_rule == "yolo":
        util = utilization_counts(hard_assign_yolo(ds.log_shapes(), log_s))
    elif assignment_rule == "threshold":
        util = utilization_counts(hard_assign_threshold(ds.log_shapes(), log_s, threshold_tau))
    else:
        raise ValueError(f"unknown assignment rule {assignment_rule!r}")
    avg, recall = coverage(ordered, ds, taus)
    return AnchorReport(
        canvas=ds.canvas_size,
        stride=ordered.stride,
        assignment_rule=assignment_rule,
        avg_best_iou=avg,
        recall_at=recall,
        utilization=tuple(int(u) for u in util),
        anchors_wh=tuple((w, h) for w, h in ordered.wh().tolist()),
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
    payload = {
        "kind": "anchorforge-report",
        "version": 1,
        "canvas": report.canvas,
        "stride": report.stride,
        "assignment_rule": report.assignment_rule,
        "avg_best_iou": report.avg_best_iou,
        "recall_at": {repr(float(t)): v for t, v in sorted(report.recall_at.items())},
        "utilization": list(report.utilization),
        "anchors": [[w, h] for w, h in report.anchors_wh],
    }
    return json.dumps(payload, indent=2)


def report_from_json(text: str) -> AnchorReport:
    doc = json.loads(text)
    if doc.get("kind") != "anchorforge-report" or doc.get("version") != 1:
        raise ValueError("not a v1 anchorforge report")
    return AnchorReport(
        canvas=int(doc["canvas"]),
        stride=int(doc["stride"]),
        assignment_rule=str(doc["assignment_rule"]),
        avg_best_iou=float(doc["avg_best_iou"]),
        recall_at={float(t): float(v) for t, v in doc["recall_at"].items()},
        utilization=tuple(int(u) for u in doc["utilization"]),
        anchors_wh=tuple((float(w), float(h)) for w, h in doc["anchors"]),
    )


def write_anchors_json(path: "str | Path", anchors: AnchorSet, canvas: int) -> None:
    """Write anchors (sorted by area, linear pixels) with canvas and stride."""
    ordered = anchors.sorted_by_area()
    payload = {
        "canvas": int(canvas),
        "stride": ordered.stride,
        "anchors": ordered.wh().tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_anchors_json(path: "str | Path") -> tuple[AnchorSet, int]:
    """Read an anchors file; returns (anchors, canvas). Raises ParseError when malformed."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: malformed JSON at byte {e.pos}: {e.msg}") from e
    try:
        canvas = int(doc["canvas"])
        stride = int(doc["stride"])
        pairs = [(float(w), float(h)) for w, h in doc["anchors"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: not a valid anchors file: {e}") from None
    if not pairs:
        raise ParseError(f"{path}: anchors list is empty")
    try:
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
