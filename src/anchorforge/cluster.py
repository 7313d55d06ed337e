"""IoU k-means over box shapes, plus standard anchor initializations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import AnchorSet, iou_aligned_matrix
from .ingest import CanonicalDataset

UNIFORM_MULTIPLIERS = ((3.0, 3.0), (3.0, 9.0), (9.0, 9.0), (9.0, 3.0), (6.0, 6.0))
IDENTICAL_MULTIPLIER = (5.0, 5.0)


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Centroids as a (k, 2) array of linear (w, h), one cluster index per shape."""

    centroids: np.ndarray
    assignments: np.ndarray
    mean_best_iou: float
    iterations_run: int


ASSIGN_BLOCK = 4096  # rows per IoU block: its temporaries stay in cache


def _assign_step(wh: np.ndarray, cents: np.ndarray) -> np.ndarray:
    out = np.empty(wh.shape[0], dtype=np.intp)
    for start in range(0, wh.shape[0], ASSIGN_BLOCK):
        block = slice(start, start + ASSIGN_BLOCK)
        # argmax returns the first maximum, so exact ties go to the lowest cluster
        out[block] = np.argmax(iou_aligned_matrix(wh[block], cents), axis=1)
    return out


def _update_step(wh: np.ndarray, cents: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    k = cents.shape[0]
    counts = np.bincount(assignments, minlength=k)
    sums = np.stack([np.bincount(assignments, weights=wh[:, i], minlength=k) for i in (0, 1)], axis=1)
    new = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], cents)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # re-seed each empty cluster at the currently worst-covered shape
        best = iou_aligned_matrix(wh, new).max(axis=1)
        order = np.argsort(best, kind="stable")
        for c, idx in zip(empty, order):
            new[c] = wh[idx]
    return new


def _seed_plus_plus(wh: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-in-IoU seeding: sample new seeds with probability (1 - best IoU)^2."""
    n = wh.shape[0]
    chosen = [int(rng.integers(n))]
    best = np.zeros(n)  # every aligned IoU is > 0, so the first update sets it
    for _ in range(k - 1):
        # each IoU column depends only on its own seed: a running max is exact
        np.maximum(best, iou_aligned_matrix(wh, wh[chosen[-1:]])[:, 0], out=best)
        weight = (1.0 - best) ** 2
        weight[chosen] = 0.0
        total = weight.sum()
        if total <= 0.0:
            chosen.append(next(i for i in range(n) if i not in chosen))
        else:
            chosen.append(int(rng.choice(n, p=weight / total)))
    return wh[chosen].copy()


def kmeans_iou(
    shapes: np.ndarray,
    num_clusters: int,
    init: Optional[np.ndarray] = None,
    max_iter: int = 300,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd's alternation with aligned IoU as the similarity.

    shapes is an (n, 2) array of linear (w, h) and init, when given, a
    (num_clusters, 2) one. Assignment maximizes aligned IoU; the update
    is the arithmetic mean of member widths and heights. Stops when
    assignments stop changing or after max_iter rounds. Empty clusters
    are re-seeded at the shape the current centroids cover worst. When
    init is omitted, seeds are drawn by farthest-in-IoU sampling with the
    given seed, so the same seed always produces the same result.
    """
    wh = _shape_array(shapes, "shapes")
    n = wh.shape[0]
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    if n < num_clusters:
        raise ValueError(f"need at least {num_clusters} shapes, got {n}")
    if init is not None:
        cents = _shape_array(init, "init")
        if len(cents) != num_clusters:
            raise ValueError("init must provide exactly num_clusters shapes")
    else:
        cents = _seed_plus_plus(wh, num_clusters, np.random.default_rng(seed))

    assignments = _assign_step(wh, cents)
    iterations_run = 0
    for _ in range(max_iter):
        iterations_run += 1
        cents = _update_step(wh, cents, assignments)
        new_assignments = _assign_step(wh, cents)
        converged = bool(np.array_equal(new_assignments, assignments))
        assignments = new_assignments
        if converged:
            break

    mean_best = float(iou_aligned_matrix(wh, cents).max(axis=1).mean())
    return KMeansResult(cents, assignments, mean_best, iterations_run)


def _shape_array(shapes: np.ndarray, name: str) -> np.ndarray:
    wh = np.asarray(shapes, dtype=float)
    if wh.ndim != 2 or wh.shape[1] != 2 or not (np.isfinite(wh).all() and (wh > 0.0).all()):
        raise ValueError(f"{name} must be an (n, 2) array of finite, positive (w, h), got shape {wh.shape}")
    return wh


def anchors_from_centroids(centroids: np.ndarray, stride: int = 32) -> AnchorSet:
    """Centroid (w, h) rows as an anchor set, sorted by ascending area."""
    order = np.argsort(centroids[:, 0] * centroids[:, 1], kind="stable")
    return AnchorSet.from_linear(centroids[order], stride)


def init_uniform(stride: int = 32) -> AnchorSet:
    """Five hand-picked shapes spanning sizes and aspect ratios, in stride units."""
    return AnchorSet.from_linear(np.array(UNIFORM_MULTIPLIERS) * stride, stride)


def init_identical(stride: int = 32, num_anchors: int = 5) -> AnchorSet:
    """num_anchors copies of one square shape; training must break the tie."""
    if num_anchors < 1:
        raise ValueError("num_anchors must be >= 1")
    return AnchorSet.from_linear(np.tile(np.array(IDENTICAL_MULTIPLIER) * stride, (num_anchors, 1)), stride)


def init_kmeans(
    ds: CanonicalDataset,
    num_anchors: int = 5,
    seed: int = 0,
    stride: int = 32,
    max_iter: int = 300,
) -> AnchorSet:
    """Cluster the dataset's shapes and use the centroids, sorted by area."""
    if len(ds) == 0:
        raise ValueError("cannot cluster an empty dataset")
    result = kmeans_iou(ds.shapes(), num_anchors, init=None, max_iter=max_iter, seed=seed)
    return anchors_from_centroids(result.centroids, stride)
