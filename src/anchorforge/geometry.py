"""Box-shape geometry: the anchor set, aligned IoU, and shape distances.

Widths and heights are pixel units on a square canvas. The log-space
encoding makes multiplicative size differences additive, which is the
representation the anchor optimizer trains in. Every conversion between
the two goes through numpy's ``exp`` and ``log``.

Values are validated once at construction; every operation below is a
pure function over immutable inputs and is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .ingest import _integer

Metric = Literal["one_minus_iou", "sq_l2_log"]

METRICS: tuple[str, ...] = get_args(Metric)


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """An ordered set of anchor shapes tied to a feature-map stride.

    log_wh is an (A, 2) array of (log w, log h) rows, kept as a read-only
    copy. The order is meaningful: assignment ties break toward the
    lowest index, and trajectories log anchors positionally.
    """

    log_wh: np.ndarray
    stride: int = 32

    def __post_init__(self) -> None:
        arr = np.array(self.log_wh, dtype=float)
        if arr.size == 0:
            raise ValueError("anchor set needs at least one shape")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (A, 2) array of log shapes, got shape {arr.shape}")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            lw, lh = arr[bad[0]].tolist()
            raise ValueError(f"log shape must be finite, got ({lw}, {lh})")
        stride = _integer("stride", self.stride, positive=True)  # a numpy integer would not write to JSON
        arr.flags.writeable = False
        object.__setattr__(self, "log_wh", arr)
        object.__setattr__(self, "stride", stride)

    def __len__(self) -> int:
        return self.log_wh.shape[0]

    def wh(self) -> np.ndarray:
        """Anchor shapes as a fresh (A, 2) float array of linear (w, h) rows."""
        return np.exp(self.log_wh)

    def sorted_by_area(self) -> "AnchorSet":
        """Same shapes reordered by ascending linear area (stable on ties)."""
        order = np.argsort(self.log_wh[:, 0] + self.log_wh[:, 1], kind="stable")
        return AnchorSet(self.log_wh[order], self.stride)

    @classmethod
    def from_array(cls, arr: np.ndarray, stride: int = 32) -> "AnchorSet":
        """Anchor set from an (A, 2) array of (log w, log h) rows; same as the constructor."""
        return cls(arr, stride)

    @classmethod
    def from_linear(cls, wh: np.ndarray, stride: int = 32) -> "AnchorSet":
        """Anchor set from an (A, 2) array of linear (w, h), each side finite
        and positive and each area w * h, which IoU reads, within float range."""
        arr = np.asarray(wh, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (A, 2) array of (w, h), got shape {arr.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN; the sides are refused first
            area = arr[:, 0] * arr[:, 1]
        for fault, bad in (("shape must be finite, got {}", ~np.isfinite(arr).all(axis=1)),
                           ("shape must be positive, got {}", (arr <= 0.0).any(axis=1)),
                           ("anchor {} has an area beyond float range", ~np.isfinite(area))):
            rows = np.flatnonzero(bad)
            if rows.size:
                w, h = arr[rows[0]].tolist()
                raise ValueError(fault.format(f"({w}, {h})"))
        return cls(np.log(arr), stride)


def iou_aligned_matrix(wh1: np.ndarray, wh2: np.ndarray) -> np.ndarray:
    """Pairwise aligned IoU between (n, 2) and (m, 2) arrays of linear (w, h).

    Aligned IoU is the IoU of two shapes placed at a shared center: the
    intersection is the smaller width times the smaller height. It is
    symmetric, in (0, 1], 1 iff the shapes match, and invariant to
    scaling both shapes by the same factor.
    """
    wh1 = np.asarray(wh1, dtype=float)
    wh2 = np.asarray(wh2, dtype=float)
    return _aligned_iou(wh1[:, None, 0], wh1[:, None, 1], wh2[None, :, 0], wh2[None, :, 1])


def _aligned_iou(w1: np.ndarray, h1: np.ndarray, w2: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Aligned IoU of shapes (w1, h1) and (w2, h2), elementwise under broadcasting."""
    inter = np.minimum(w1, w2) * np.minimum(h1, h2)
    return inter / (w1 * h1 + w2 * h2 - inter)


def shape_dist_matrix(log1: np.ndarray, log2: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distance between (n, 2) and (m, 2) log-shape arrays."""
    diff = np.asarray(log1, dtype=float)[:, None, :] - np.asarray(log2, dtype=float)[None, :, :]
    return np.sum(diff * diff, axis=2)
