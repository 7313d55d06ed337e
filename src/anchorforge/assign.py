"""Responsibility assignment between ground-truth shapes and anchors.

Every rule returns a dense (n, A) weight matrix W over n ground truths
and A anchors (both given as log shapes). Hard rules pick winning
anchors per ground-truth box: the yolo rule is one-hot, the threshold
rule multi-hot. The soft rule spreads responsibility over all anchors
with a temperature-controlled softmax so that every anchor receives
gradient early in training; the temperature and the clustering-term
coefficient both decay linearly over a warm-up window, after which
training falls back to the hard rule.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import Metric, log_shapes_array, shape_dist_matrix

# the hard assignment rules, by the name that configs and reports use
RULES: tuple[str, ...] = ("yolo", "threshold")

# the warm-up's starting temperature, its floor and the starting clustering coefficient
TEMP_START = 2.0
TEMP_FLOOR = 1e-2
LAMBDA_START = 1.0


def temperature_at(t: int, warmup_iters: int) -> Optional[float]:
    """Soft-assignment temperature at iteration ``t``.

    Returns ``None`` once the warm-up window has passed (always, when
    ``warmup_iters`` is 0), which is the hard-mode sentinel: callers
    switch to their hard assignment rule.
    """
    if t < 0 or warmup_iters < 0:
        raise ValueError(f"iteration index and warmup_iters must be >= 0, got {t} and {warmup_iters}")
    if warmup_iters == 0 or t >= warmup_iters:
        return None
    return max(TEMP_FLOOR, TEMP_START * (1.0 - t / warmup_iters))


def cluster_weight_at(t: int, warmup_iters: int) -> float:
    """Clustering-term coefficient at iteration ``t`` (linear decay to 0;
    0 throughout when ``warmup_iters`` is 0)."""
    if t < 0 or warmup_iters < 0:
        raise ValueError(f"iteration index and warmup_iters must be >= 0, got {t} and {warmup_iters}")
    if warmup_iters == 0:
        return 0.0
    return LAMBDA_START * max(0.0, 1.0 - t / warmup_iters)


def hard_assign_yolo(
    gts: np.ndarray,
    anchors: np.ndarray,
    metric: Metric = "one_minus_iou",
) -> np.ndarray:
    """One-hot (n, A) weights: each ground truth goes to its nearest anchor.

    Exact distance ties break toward the lowest anchor index.
    """
    dist = shape_dist_matrix(log_shapes_array(gts), log_shapes_array(anchors), metric)
    winners = np.argmin(dist, axis=1)
    # the distance matrix is not needed again: reuse its memory for W
    w = dist
    w.fill(0.0)
    w[np.arange(w.shape[0]), winners] = 1.0
    return w


def hard_assign_threshold(
    gts: np.ndarray,
    anchors: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Multi-hot (n, A) weights: 1 for every anchor whose aligned IoU reaches ``tau``.

    Each ground truth additionally activates its best-IoU anchor, so no
    ground truth is left unassigned even when no anchor clears ``tau``.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    iou = shape_dist_matrix(log_shapes_array(gts), log_shapes_array(anchors), "one_minus_iou")
    np.subtract(1.0, iou, out=iou)
    best = np.argmax(iou, axis=1)
    w = np.greater_equal(iou, tau, out=iou)
    w[np.arange(w.shape[0]), best] = 1.0
    return w


def soft_assign(
    gts: np.ndarray,
    anchors: np.ndarray,
    metric: Metric,
    temperature: float,
) -> np.ndarray:
    """Softmax responsibilities (n, A) over all anchors per ground truth.

    Row weights are softmax(-distance / temperature) computed with the
    usual max subtraction, so they are finite for any positive
    temperature and sum to 1 per ground truth. At low temperatures some
    weights underflow to exactly 0; every pair still belongs to the soft
    assignment, so callers must not read membership off ``W > 0``.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = shape_dist_matrix(log_shapes_array(gts), log_shapes_array(anchors), metric)
    z /= -temperature
    if z.shape[0] == 0:
        return z
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z, out=z)
    w /= w.sum(axis=1, keepdims=True)
    return w


def utilization_counts(w: np.ndarray, soft: bool = False) -> np.ndarray:
    """Per-anchor counts of ground truths the (n, A) weights make it responsible for.

    Hard weights count every nonzero entry (the threshold rule may count
    a ground truth toward several anchors). Soft weights count only the
    highest-weight anchor per ground truth, ties toward the lowest
    anchor index.
    """
    if soft:
        return np.bincount(np.argmax(w, axis=1), minlength=w.shape[1])
    return (w != 0.0).sum(axis=0)
