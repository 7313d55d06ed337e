"""Box-shape geometry: shapes, aligned IoU, and log-space encodings.

Widths and heights are pixel units on a square canvas. The log-space
encoding makes multiplicative size differences additive, which is the
representation the anchor optimizer trains in.

Values are validated once at construction; every operation below is a
pure function over immutable inputs and is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

Metric = Literal["one_minus_iou", "sq_l2_log"]

METRICS: tuple[str, ...] = ("one_minus_iou", "sq_l2_log")


@dataclass(frozen=True)
class BoxShape:
    """Width/height of a box in pixels, independent of position.

    Both dimensions must be finite and strictly positive.
    """

    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError(f"shape must be finite, got ({self.w}, {self.h})")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"shape must be positive, got ({self.w}, {self.h})")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class LogShape:
    """Natural-log encoding of a box shape's width and height."""

    lw: float
    lh: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lw) and math.isfinite(self.lh)):
            raise ValueError(f"log shape must be finite, got ({self.lw}, {self.lh})")


def encode_log(shape: BoxShape) -> LogShape:
    """Map a linear shape to log space componentwise."""
    return LogShape(math.log(shape.w), math.log(shape.h))


def decode_log(log_shape: LogShape) -> BoxShape:
    """Inverse of :func:`encode_log`."""
    return BoxShape(math.exp(log_shape.lw), math.exp(log_shape.lh))


@dataclass(frozen=True)
class AnchorSet:
    """An ordered set of anchor shapes (log space) tied to a feature-map stride.

    The order is meaningful: assignment ties break toward the lowest
    index, and trajectories log anchors positionally.
    """

    shapes: tuple[LogShape, ...]
    stride: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "shapes", tuple(self.shapes))
        if len(self.shapes) < 1:
            raise ValueError("anchor set needs at least one shape")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise ValueError(f"stride must be a positive integer, got {self.stride!r}")

    def __len__(self) -> int:
        return len(self.shapes)

    def as_array(self) -> np.ndarray:
        """Anchor shapes as an (A, 2) float array of (lw, lh) rows."""
        return np.array([[s.lw, s.lh] for s in self.shapes], dtype=float)

    def linear_shapes(self) -> list[BoxShape]:
        return [decode_log(s) for s in self.shapes]

    def sorted_by_area(self) -> "AnchorSet":
        """Same shapes reordered by ascending linear area."""
        order = sorted(range(len(self.shapes)), key=lambda i: self.shapes[i].lw + self.shapes[i].lh)
        return AnchorSet(tuple(self.shapes[i] for i in order), self.stride)

    @classmethod
    def from_array(cls, arr: np.ndarray, stride: int = 32) -> "AnchorSet":
        arr = np.asarray(arr, dtype=float)
        return cls(tuple(LogShape(float(r[0]), float(r[1])) for r in arr), stride)

    @classmethod
    def from_linear(cls, shapes: Sequence[BoxShape], stride: int = 32) -> "AnchorSet":
        return cls(tuple(encode_log(s) for s in shapes), stride)


def iou_aligned_matrix(wh1: np.ndarray, wh2: np.ndarray) -> np.ndarray:
    """Pairwise aligned IoU between (n, 2) and (m, 2) arrays of linear (w, h).

    Aligned IoU is the IoU of two shapes placed at a shared center: the
    intersection is the smaller width times the smaller height. It is
    symmetric, in (0, 1], 1 iff the shapes match, and invariant to
    scaling both shapes by the same factor.
    """
    wh1 = np.asarray(wh1, dtype=float)
    wh2 = np.asarray(wh2, dtype=float)
    w1, h1 = wh1[:, None, 0], wh1[:, None, 1]
    w2, h2 = wh2[None, :, 0], wh2[None, :, 1]
    inter = np.minimum(w1, w2) * np.minimum(h1, h2)
    return inter / (w1 * h1 + w2 * h2 - inter)


def shape_dist_matrix(log1: np.ndarray, log2: np.ndarray, metric: Metric) -> np.ndarray:
    """Pairwise distance between (n, 2) and (m, 2) log-shape arrays.

    ``one_minus_iou`` is 1 - aligned IoU of the decoded shapes;
    ``sq_l2_log`` is the squared Euclidean distance in log space.
    """
    log1 = np.asarray(log1, dtype=float)
    log2 = np.asarray(log2, dtype=float)
    if metric == "sq_l2_log":
        diff = log1[:, None, :] - log2[None, :, :]
        return np.sum(diff * diff, axis=2)
    if metric == "one_minus_iou":
        return 1.0 - iou_aligned_matrix(np.exp(log1), np.exp(log2))
    raise ValueError(f"unknown metric {metric!r}")


def log_shapes_array(gts: "Sequence[LogShape] | np.ndarray") -> np.ndarray:
    """Coerce a sequence of LogShape (or an (n, 2) array) to an (n, 2) float array."""
    if isinstance(gts, np.ndarray):
        arr = np.asarray(gts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {arr.shape}")
        return arr
    return np.array([[g.lw, g.lh] for g in gts], dtype=float).reshape(-1, 2)
