"""Responsibility assignment between ground-truth shapes and anchors.

Every rule takes a batch of m ground truths and the A anchors as log
shapes (g, s) and as linear (w, h) shapes (g_wh, s_wh): the squared log
distance reads the first, the IoU the second, compared as IoU, as
``eval`` compares it. The training loop takes g_wh from the dataset's
own shapes and ``np.exp`` of the anchors once per step, so no rule
converts a shape. Each rule returns a dense (m, A) weight matrix W and
its winners, the anchor each ground truth counts toward, which
:func:`utilization_counts` tallies. Hard rules pick winning anchors per
ground-truth box: the yolo rule is one-hot, the threshold rule
multi-hot. The soft rule spreads responsibility over all anchors with a
temperature-controlled softmax so that every anchor receives gradient
early in training; the temperature and the clustering-term coefficient
both decay linearly over a warm-up window, after which training falls
back to the hard rule.

These functions run on every training step and check nothing: each
docstring states what its caller guarantees, as a checked
``TrainConfig``, ``AnchorSet`` and dataset provide it. The rules over
log shapes alone, which convert inside, are kept in ``tests/oracles.py``
as the reference these are tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import Metric, iou_aligned_matrix, shape_dist_matrix

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
    switch to their hard assignment rule. A temperature it returns is
    never below ``TEMP_FLOOR``. Needs ``t`` and ``warmup_iters`` >= 0.
    """
    if warmup_iters == 0 or t >= warmup_iters:
        return None
    return max(TEMP_FLOOR, TEMP_START * (1.0 - t / warmup_iters))


def cluster_weight_at(t: int, warmup_iters: int) -> float:
    """Clustering-term coefficient at iteration ``t`` (linear decay to 0;
    0 throughout when ``warmup_iters`` is 0). Needs ``t`` and
    ``warmup_iters`` >= 0."""
    if warmup_iters == 0:
        return 0.0
    return LAMBDA_START * max(0.0, 1.0 - t / warmup_iters)


def _distance(g: np.ndarray, g_wh: np.ndarray, s: np.ndarray, s_wh: np.ndarray, metric: Metric) -> np.ndarray:
    """(m, A) distances: minus the aligned IoU of the linear shapes, or the
    squared Euclidean distance of the log shapes. ``one_minus_iou`` drops
    the constant 1, which moves neither an argmin nor a softmax."""
    if metric == "sq_l2_log":
        return shape_dist_matrix(g, s)
    iou = iou_aligned_matrix(g_wh, s_wh)
    return np.negative(iou, out=iou)


def hard_assign_yolo(
    g: np.ndarray,
    g_wh: np.ndarray,
    s: np.ndarray,
    s_wh: np.ndarray,
    metric: Metric,
    eye: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One-hot (m, A) weights and the (m,) winners: each ground truth goes to its nearest anchor.

    Under ``one_minus_iou`` that is its highest-IoU anchor, the winner
    ``eval`` gives it. eye is ``np.eye(A)``, whose rows W is built from.
    Exact ties break toward the lowest anchor index.
    """
    winners = np.argmin(_distance(g, g_wh, s, s_wh, metric), axis=1)
    return eye[winners], winners


def hard_assign_threshold(g_wh: np.ndarray, s_wh: np.ndarray, tau: float) -> tuple[np.ndarray, None]:
    """Multi-hot (m, A) weights: 1 for every anchor whose aligned IoU reaches ``tau``.

    ``tau`` lies in (0, 1). Each ground truth additionally activates its
    best-IoU anchor (ties to the lowest index), so no ground truth is
    left unassigned even when no anchor clears ``tau``: the hits and the
    fallback ``build_report`` counts. A ground truth may have several
    winners, W's nonzeros, so None stands in their place.
    """
    iou = iou_aligned_matrix(g_wh, s_wh)
    best = np.argmax(iou, axis=1)
    w = np.greater_equal(iou, tau, out=iou)
    w[np.arange(w.shape[0]), best] = 1.0
    return w, None


def soft_assign(
    g: np.ndarray,
    g_wh: np.ndarray,
    s: np.ndarray,
    s_wh: np.ndarray,
    metric: Metric,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax responsibilities (m, A) over all anchors per ground truth, and the (m,) winners.

    The temperature is positive. Row weights are softmax(-distance /
    temperature) computed with the usual max subtraction, so they are
    finite and sum to 1 per ground truth. At low temperatures some
    weights underflow to exactly 0; every pair still belongs to the soft
    assignment, so callers must not read membership off ``W > 0``. A
    ground truth's winner is its highest-weight anchor, ties toward the
    lowest anchor index.
    """
    z = _distance(g, g_wh, s, s_wh, metric)
    z /= -temperature
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z, out=z)
    w /= w.sum(axis=1, keepdims=True)
    return w, np.argmax(w, axis=1)


def utilization_counts(w: np.ndarray, winners: Optional[np.ndarray]) -> np.ndarray:
    """Per-anchor counts of the ground truths an assignment makes each anchor responsible for.

    The counts of a rule's winners, or, where the rule returned None for
    them (the threshold rule may count a ground truth toward several
    anchors), the column sums of its 0/1 weights w.
    """
    if winners is None:
        return w.sum(axis=0, dtype=np.int64)
    return np.bincount(winners, minlength=w.shape[1])
