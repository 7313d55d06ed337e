"""Localization losses, the clustering pull, and their analytic gradients.

The trainable objective is a weighted sum of squared log-space size
residuals over (ground truth, anchor) pairs, weighted by the dense
(n, A) assignment matrix W, optionally augmented with a clustering term
that pulls anchors directly toward the shapes assigned to them:

    total = sum_jk W_jk * |delta_jk + s_k - g_j|^2
          + lam / (2 N) * sum_jk W_jk * |s_k - g_j|^2

with log anchors s, log ground truths g, head offsets delta and
N = sum_jk W_jk. Gradients are analytic. A small per-anchor affine
map stands in for a detector's offset-regression head; Gaussian feature
noise is its capacity knob, and an optional batch normalization (scale
only, no shift) can be applied to its outputs, each anchor's over the
pairs assigned to it in a batch.

Moment form. The head is affine and its batch normalization only shifts
and scales, so every residual is linear in the row x_j = (1, f_j, g_j)
of a ground truth's features and log shape: residual channel i of pair
(j, k) is a_ki . x_j for a coefficient vector a_ki of anchor k. The loss
is then sum_ki a_ki^T G_k a_ki with the per-anchor Gram
G_k = sum_j W_jk x_j x_j^T, and the batch-normalization statistics come
from the membership Gram in the same way. No stage touches an
(n, A, 2) array: :func:`batch_moments` reduces a batch to (A, 5, 5)
Grams, and everything after it is (A, 2, 5)-sized algebra. Rows are
centred by the batch mean before the Grams are built, so the variances
read off them keep their digits.

A training step runs four stages: :func:`batch_moments` (Grams),
:func:`head_outputs` (each anchor's coefficient map and a cache),
:func:`_loss_from_arrays` (loss, anchor gradient and coefficient
gradient) and :func:`grad_head` (head gradients from the coefficient
gradient and the cache). Like :func:`make_features` and the rules of
``anchorforge.assign``, they check nothing: each docstring states what
its caller guarantees, as a checked ``TrainConfig`` and ``AnchorSet``
provide it. One soft-assigned step, as ``run_training`` chains it:

>>> import numpy as np
>>> from anchorforge.assign import soft_assign
>>> from anchorforge.lossgrad import _loss_from_arrays, batch_moments, grad_head, head_outputs
>>> from anchorforge.lossgrad import initial_head, make_features
>>> rng = np.random.default_rng(0)
>>> g = np.log(rng.uniform(8.0, 300.0, size=(64, 2)))  # ground truths, log (w, h)
>>> s = np.log([[30.0, 30.0], [90.0, 60.0], [200.0, 200.0]])  # anchors, log (w, h)
>>> u, c, gamma = initial_head(len(s), init_scale=0.1, rng=rng)
>>> w = soft_assign(g, s, "one_minus_iou", temperature=1.0)  # (n, A) weights
>>> rows = np.vstack([np.ones(len(g)), make_features(g, 0.3, rng).T, g.T])  # columns (1, f_j, g_j)
>>> gram, member_gram, mean = batch_moments(rows, w, soft=True)
>>> coef, cache = head_outputs(u, c, gamma, member_gram, mean)
>>> loss, anchor_grad, dcoef = _loss_from_arrays(coef, gram, s, mean, 0.5)
>>> gu, gc, ggamma = grad_head(dcoef, cache, mean, gamma)
>>> gram.shape, coef.shape, anchor_grad.shape, (gu.shape, gc.shape, ggamma.shape)
((3, 5, 5), (3, 2, 5), (3, 2), ((3, 2, 2), (3, 2), (3, 2)))

Without a head the map is ``np.zeros((len(s), 2, 5))`` and
:func:`grad_head` is not called. ``tests/oracles.py`` keeps the dense
(n, A, 2) form of the stages as the reference they are tested against.

All functions are pure: they never mutate their inputs, and every
reduction runs over arrays of fixed shape in a fixed order, so results
for the same inputs are bitwise reproducible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

BN_EPS = 1e-5

# the residual's ground-truth part: channel i subtracts column 3 + i (log w, log h) of x
_MINUS_G = np.zeros((2, 5))
_MINUS_G[0, 3] = _MINUS_G[1, 4] = -1.0


def initial_head(
    num_anchors: int, init_scale: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting head parameters (u, c, gamma): random (A, 2, 2) linear maps
    of scale init_scale, zero (A, 2) biases and unit (A, 2) scales."""
    u = init_scale * rng.standard_normal((num_anchors, 2, 2))
    return u, np.zeros((num_anchors, 2)), np.ones((num_anchors, 2))


def make_features(gts: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Per-ground-truth features: the log shape plus Gaussian noise of scale sigma.

    gts is an (n, 2) log-shape array and sigma a finite nonnegative
    number, as a checked ``TrainConfig`` gives it. With sigma 0 the result
    is a copy of gts and rng draws nothing.
    """
    if sigma == 0.0:
        return gts.copy()
    return gts + sigma * rng.standard_normal(gts.shape)


def batch_moments(
    rows: np.ndarray, w: np.ndarray, soft: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centred Grams of one batch.

    rows is the (5, m) array whose column j is x_j = (1, f_j, g_j): a
    one, the features of :func:`make_features` and the log shape of
    ground truth j; w is the (m, A) assignment. Columns are centred as
    x_j - mean with mean = (0, f-bar, g-bar), the batch means of the
    features and log shapes. Returns

    - gram, the (A, 5, 5) stack G_k = sum_j w_jk x_j x_j^T of centred columns;
    - member_gram, the same sum over each anchor's batch-normalization
      group: gram itself under a hard rule, whose weights are 0 or 1,
      and the batch's own Gram for every anchor under the soft rule,
      which covers every pair;
    - mean, the (5,) vector the columns were centred by.
    """
    m = rows.shape[1]
    mean = rows.sum(axis=1) / max(m, 1)
    mean[0] = 0.0
    x = rows - mean[:, None]
    # (A, m) @ (m, 25): one product over the batch's outer products
    gram = (w.T @ (x[:, None, :] * x[None, :, :]).reshape(25, m).T).reshape(-1, 5, 5)
    member_gram = (x @ x.T)[None].repeat(len(gram), axis=0) if soft else gram
    return gram, member_gram, mean


def head_outputs(
    u: np.ndarray,
    c: np.ndarray,
    gamma: np.ndarray,
    member_gram: np.ndarray,
    mean: np.ndarray,
    bn: bool = True,
) -> tuple[np.ndarray, tuple]:
    """Head forward pass, as each anchor's coefficient map on centred rows.

    u, c and gamma are the head parameters of :func:`initial_head`: per
    anchor a (2, 2) linear map, a bias and a positive scale per output
    channel. member_gram and mean come from :func:`batch_moments`.
    Raw offsets are ``u[k] @ f_j + c[k]``. With ``bn``, the member
    pairs of each anchor form its normalization group; a group of at
    least 2 pairs is normalized per channel with its own mean and biased
    variance and scaled by ``gamma[k]``, and smaller groups pass through
    raw.

    Returns the (A, 2, 5) coefficient map, whose row [k, i] applied to
    the centred column x_j - mean gives the offset of pair (j, k) in
    channel i for every member pair, and the cache :func:`grad_head` reuses
    (None without BN).
    """
    coef = np.zeros(u.shape[:2] + (5,))
    # the raw map on (1, f - f-bar): the bias absorbs u f-bar
    coef[..., 0] = c + u @ mean[1:3]
    coef[..., 1:3] = u
    if not bn:
        return coef, None
    theta = coef[..., :3]
    m3 = member_gram[:, :3, :3]
    first = m3[:, None, 0]  # (A, 1, 3): each group's count and centred feature sums
    count = first[..., 0]
    mc = theta @ m3
    # mc[..., 0] is each channel's raw sum over the anchor's group; groups
    # too small to normalize keep a zero mean and a unit scale
    active = count >= 2.0
    # 1 / count over the groups that are normalized, 0 over the rest
    inv = active / np.maximum(count, 1.0)
    shift = mc[..., 0] * inv
    centred = theta.copy()
    centred[..., 0] -= shift
    mc -= shift[..., None] * first
    var = (mc * centred).sum(axis=2)
    istd = (var * inv + BN_EPS) ** -0.5
    scale = np.where(active, gamma * istd, 1.0)
    np.multiply(centred, scale[..., None], out=theta)
    istd *= active
    return coef, (centred, mc, first, istd, scale, inv)


def _loss_from_arrays(
    coef: np.ndarray,
    gram: np.ndarray,
    s: np.ndarray,
    mean: np.ndarray,
    cluster_weight: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted size loss plus the normalized clustering term, with gradients.

    coef is the (A, 2, 5) coefficient map of the offsets from
    :func:`head_outputs` (zeros without a head), gram and mean come from
    :func:`batch_moments` and s is the (A, 2) array of log anchors. The
    residual of anchor k in channel i has the coefficients
    a_ki = coef_ki + b_ki, with b_ki = (s_ki - g-bar_i, 0, 0, -e_i) those
    of the zero-offset gap s_k - g_j, so

        loss = sum_ki a_ki^T G_k a_ki
             + lam / (2 N) * sum_ki b_ki^T G_k b_ki,   N = sum_k G_k[0, 0]

    The clustering term is dropped when N is 0. Returns the loss, its
    (A, 2) gradient with respect to the anchors (offsets held constant:
    the head does not read the anchor shapes) and its (A, 2, 5) gradient
    2 G a with respect to coef, which :func:`grad_head` consumes. It runs
    every step and checks nothing: a checked ``TrainConfig`` or the annealing
    gave the cluster weight, and the stages before it built the arrays.
    """
    offset = s - mean[3:]
    resid = coef + _MINUS_G
    resid[..., 0] += offset
    dcoef = resid @ gram
    loss = float(np.vdot(dcoef, resid))
    dcoef *= 2.0
    grad = dcoef[..., 0].copy()
    if cluster_weight > 0.0:
        n_eff = float(gram[:, 0, 0].sum())
        if n_eff > 0.0:
            gap = np.empty_like(coef)
            gap[:] = _MINUS_G
            gap[..., 0] = offset
            pull = gap @ gram
            loss += cluster_weight / (2.0 * n_eff) * float(np.vdot(pull, gap))
            grad += cluster_weight / n_eff * pull[..., 0]
    return loss, grad, dcoef


def grad_head(
    dcoef: np.ndarray,
    cache: Optional[tuple],
    mean: np.ndarray,
    gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (gu, gc, ggamma) of the loss with respect to the head
    parameters u, c and gamma.

    Chain rule from the coefficient gradient ``dcoef`` of
    :func:`_loss_from_arrays` through the scale, the group mean and the
    group variance recorded in ``cache`` by :func:`head_outputs`, and
    through the affine map on the rows centred by ``mean``. The
    clustering term does not involve the head, so the result holds for
    any cluster weight. Anchors with no assigned pairs, and the scales of
    groups left raw, get zero gradients.
    """
    if cache is None:
        dtheta = dcoef[..., :3].copy()
        gg = np.zeros_like(gamma)
    else:
        centred, mc, first, istd, scale, inv = cache
        t = (centred * dcoef[..., :3]).sum(axis=2)
        gg = istd * t
        dtheta = scale[..., None] * dcoef[..., :3]
        # back through the group mean, then through the group variance, as
        # (gamma t)(istd^3 inv): another grouping changes the trained anchors' last bits
        dvar = gamma * t
        dvar *= istd**3 * inv
        dtheta -= (dtheta[..., 0] * inv)[..., None] * first + dvar[..., None] * mc
    gc = dtheta[..., 0]
    return dtheta[..., 1:] + gc[..., None] * mean[1:3], gc, gg
