"""IoU k-means over box shapes, plus standard anchor initializations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import AnchorSet, _aligned_iou, iou_aligned_matrix
from .ingest import CanonicalDataset, _integer

UNIFORM_MULTIPLIERS = ((3.0, 3.0), (3.0, 9.0), (9.0, 9.0), (9.0, 3.0), (6.0, 6.0))
IDENTICAL_MULTIPLIER = (5.0, 5.0)


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Centroids as a (k, 2) array of linear (w, h), one cluster index per shape."""

    centroids: np.ndarray
    assignments: np.ndarray
    mean_best_iou: float
    iterations_run: int


ASSIGN_BLOCK = 16384  # rows per scoring block: its column temporaries stay in cache

# a re-score is skipped only when the slack exceeds this, far above the
# rounding of the IoUs and movements it adds up
BOUND_MARGIN = 1e-9


def best_iou(wh: np.ndarray, cents: np.ndarray, tau: Optional[float] = None) -> tuple[np.ndarray, ...]:
    """Best aligned IoU, its winner and the second-best IoU of each (n, 2)
    linear shape against (k, 2) linear shapes, one column at a time, and
    the count of each column's IoUs >= tau (all 0 when tau is None).

    This is the package's one blocked scoring pass: k-means, eval and the
    optimize summary all score boxes with it, and no (n, k) matrix is
    built. A column takes the lead only with a strictly larger IoU, so
    exact ties go to the lowest index, as with np.argmax over the full
    matrix. With one column the second-best IoU is -inf.
    """
    n = wh.shape[0]
    best = np.full(n, -np.inf)
    arg = np.zeros(n, dtype=np.intp)
    second = np.full(n, -np.inf)
    hits = np.zeros(cents.shape[0], dtype=np.intp)
    for start in range(0, n, ASSIGN_BLOCK):
        rows = slice(start, start + ASSIGN_BLOCK)
        x, b, a, s = wh[rows], best[rows], arg[rows], second[rows]  # the views write through
        for j in range(cents.shape[0]):
            iou = iou_aligned_matrix(x, cents[j : j + 1])[:, 0]
            if tau is not None:
                hits[j] += np.count_nonzero(iou >= tau)
            if j:  # the first column only sets the best IoU
                np.maximum(s, np.minimum(b, iou), out=s)
                a[iou > b] = j
            np.maximum(b, iou, out=b)
    return best, arg, second, hits


def _update_step(wh: np.ndarray, cents: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    k = cents.shape[0]
    counts = np.bincount(assignments, minlength=k)
    sums = np.stack([np.bincount(assignments, weights=wh[:, i], minlength=k) for i in (0, 1)], axis=1)
    new = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], cents)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # re-seed each empty cluster at the currently worst-covered shape
        order = np.argsort(best_iou(wh, new)[0], kind="stable")
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
    (num_clusters, 2) one. Assignment maximizes aligned IoU (ties to the
    lowest cluster); the update is the arithmetic mean of member widths
    and heights. Stops when assignments stop changing or after max_iter
    rounds. Empty clusters are re-seeded at the shape the current
    centroids cover worst. When init is omitted, seeds are drawn by
    farthest-in-IoU sampling with the given seed, so the same seed always
    produces the same result. max_iter and seed must be integers of at
    least 0, as num_clusters must be a positive one.

    The assignment step bounds d = 1 - IoU, which is a metric: the
    Jaccard distance of two shapes sharing a center. Each shape keeps one
    slack, a lower bound on d to every other centroid less an upper bound
    on d to its own: its best less its second-best IoU when scored, then
    lowered after each update by its own centroid's movement d(old, new)
    plus the largest movement among the others. Only shapes whose slack
    falls to BOUND_MARGIN are re-scored; any other shape's IoU argmax
    cannot have moved, so the centroids, assignments, round count and mean
    best IoU are bit-identical to a full argmax over every shape in every
    round. Hamerly's second test (*Making k-means even faster*, SDM 2010),
    half the gap from the own centroid to the nearest other one, is left
    out: without it a shape is still skipped only when its argmax cannot
    move, and the re-scores it saved cost less than its per-round work.
    """
    wh = _shape_array(shapes, "shapes")
    n = wh.shape[0]
    num_clusters = _integer("num_clusters", num_clusters, positive=True)
    for name, value in (("max_iter", max_iter), ("seed", seed)):
        if _integer(name, value) < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if n < num_clusters:
        raise ValueError(f"need at least {num_clusters} shapes, got {n}")
    if init is not None:
        cents = _shape_array(init, "init")
        if len(cents) != num_clusters:
            raise ValueError("init must provide exactly num_clusters shapes")
    else:
        cents = _seed_plus_plus(wh, num_clusters, np.random.default_rng(seed))

    own = np.eye(num_clusters, dtype=bool)  # each centroid's own entry, left out of "the others"
    iou, assignments, second, _ = best_iou(wh, cents)
    slack = iou - second  # <= d to every other centroid less d to the own one
    iterations_run = 0
    for _ in range(max_iter):
        iterations_run += 1
        old, cents = cents, _update_step(wh, cents, assignments)
        moved = 1.0 - np.diagonal(iou_aligned_matrix(old, cents))
        slack -= (moved + np.where(own, 0.0, moved).max(axis=1))[assignments]
        stale = np.flatnonzero(slack <= BOUND_MARGIN)
        # np.take gathers rows several times faster than fancy indexing
        iou, nearest, second, _ = best_iou(np.take(wh, stale, axis=0), cents)
        converged = bool(np.array_equal(nearest, assignments[stale]))
        assignments[stale] = nearest
        slack[stale] = iou - second
        if converged:
            break

    # the slack keeps every shape assigned to its IoU argmax among the final
    # centroids, so its own centroid's IoU is its best one, bit for bit
    own = np.take(cents, assignments, axis=0)
    mean_best = float(_aligned_iou(wh[:, 0], wh[:, 1], own[:, 0], own[:, 1]).mean())
    return KMeansResult(cents, assignments, mean_best, iterations_run)


def _shape_array(shapes: np.ndarray, name: str) -> np.ndarray:
    wh = np.asarray(shapes, dtype=float)
    if wh.ndim != 2 or wh.shape[1] != 2 or not (np.isfinite(wh).all() and (wh > 0.0).all()):
        raise ValueError(f"{name} must be an (n, 2) array of finite, positive (w, h), got shape {wh.shape}")
    return wh


def anchors_from_centroids(centroids: np.ndarray, stride: int = 32) -> AnchorSet:
    """Centroid (w, h) rows as an anchor set, sorted by ascending area."""
    return AnchorSet.from_linear(centroids, stride).sorted_by_area()


def init_uniform(stride: int = 32) -> AnchorSet:
    """Five hand-picked shapes spanning sizes and aspect ratios, in stride units."""
    return AnchorSet.from_linear(np.array(UNIFORM_MULTIPLIERS) * stride, stride)


def init_identical(stride: int = 32, num_anchors: int = 5) -> AnchorSet:
    """num_anchors copies of one square shape; training must break the tie."""
    num_anchors = _integer("num_anchors", num_anchors, positive=True)
    return AnchorSet.from_linear(np.tile(np.array(IDENTICAL_MULTIPLIER) * stride, (num_anchors, 1)), stride)


def init_kmeans(ds: CanonicalDataset, num_anchors: int = 5, seed: int = 0, stride: int = 32) -> AnchorSet:
    """Cluster the dataset's shapes and use the centroids, sorted by area."""
    result = kmeans_iou(ds.shapes(), num_anchors, seed=seed)
    return anchors_from_centroids(result.centroids, stride)
