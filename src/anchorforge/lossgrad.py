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
only, no shift) can be applied to its outputs per batch.

A training step runs three stages on one forward pass:
:func:`head_outputs` (offsets and a cache), :func:`_loss_from_arrays`
(loss, anchor gradient and offset gradient) and :func:`grad_head` (head
gradients from the offset gradient and the cache).

All functions are pure: they never mutate their inputs, and every
reduction runs over arrays of fixed shape in a fixed order, so results
for the same inputs are bitwise reproducible.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .geometry import log_shapes_array

BN_EPS = 1e-5


def initial_head(
    num_anchors: int, init_scale: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting head parameters (u, c, gamma): random (A, 2, 2) linear maps
    of scale init_scale, zero (A, 2) biases and unit (A, 2) scales."""
    u = init_scale * rng.standard_normal((num_anchors, 2, 2))
    return u, np.zeros((num_anchors, 2)), np.ones((num_anchors, 2))


def make_features(
    gts: np.ndarray,
    sigma: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-ground-truth features: the log shape plus Gaussian noise of scale sigma."""
    g = log_shapes_array(gts)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a nonnegative number, got {sigma}")
    if sigma == 0.0:
        return g.copy()
    if rng is None:
        raise ValueError("a random generator is required when sigma > 0")
    return g + sigma * rng.standard_normal(g.shape)


def head_outputs(
    u: np.ndarray,
    c: np.ndarray,
    gamma: np.ndarray,
    features: np.ndarray,
    member: np.ndarray,
    bn: bool = True,
    bn_per_anchor: bool = True,
) -> tuple[np.ndarray, Optional[tuple]]:
    """Head forward pass for every (ground truth, anchor) pair.

    u, c and gamma are the head parameters of :func:`initial_head`: per
    anchor a (2, 2) linear map, a bias and a positive scale per output
    channel. features is the
    (n, 2) array from :func:`make_features`; member is the (n, A)
    boolean mask of the pairs the assignment covers, which define the
    batch-normalization groups: one group per anchor column, or one
    joint group over all member pairs when ``bn_per_anchor`` is false.
    Raw offsets are ``u[k] @ features[j] + c[k]``; members of a group of
    at least 2 pairs are normalized with the group's statistics and
    scaled by ``gamma[k]``, everything else passes through raw.

    Returns the (n, A, 2) offsets and the cache :func:`grad_head` reuses
    (None without BN).
    """
    n, a = member.shape
    raw = (features @ u.reshape(2 * a, 2).T).reshape(n, a, 2) + c
    if not bn:
        return raw, None
    axes = 0 if bn_per_anchor else (0, 1)
    mask = member[:, :, None]
    count = mask.sum(axis=axes, keepdims=True)
    denom = np.maximum(count, 1)
    xc = raw - np.where(mask, raw, 0.0).sum(axis=axes, keepdims=True) / denom
    var = np.where(mask, xc * xc, 0.0).sum(axis=axes, keepdims=True) / denom
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = xc * istd
    active = mask & (count >= 2)
    return np.where(active, gamma * xhat, raw), (xhat, istd, count, denom, axes)


def _loss_from_arrays(
    out: np.ndarray,
    w: np.ndarray,
    s: np.ndarray,
    g: np.ndarray,
    cluster_weight: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted size loss plus the normalized clustering term, with gradients.

    out is the (n, A, 2) array of predicted offsets (zeros without a
    head), w the (n, A) assignment weights, s the (A, 2) log anchors and
    g the (n, 2) log ground truths:

        loss = sum_jk w_jk |out_jk + s_k - g_j|^2
             + lam / (2 N) * sum_jk w_jk |s_k - g_j|^2,   N = sum_jk w_jk

    The clustering term is dropped when N is 0. Returns the loss, its
    (A, 2) gradient with respect to the anchors (offsets held constant:
    the head does not read the anchor shapes) and its (n, A, 2) gradient
    with respect to out, which :func:`grad_head` consumes.
    """
    if not 0.0 <= cluster_weight <= 1.0:
        raise ValueError(f"cluster weight must lie in [0, 1], got {cluster_weight}")
    if out.shape != w.shape + (2,):
        raise ValueError(f"expected offsets of shape {w.shape + (2,)}, got {out.shape}")
    gap = s - g[:, None, :]
    r = out + gap
    w3 = w[:, :, None]
    dout = (2.0 * w3) * r
    loss = 0.5 * float(np.sum(dout * r))
    grad = dout.sum(axis=0)
    if cluster_weight > 0.0:
        n_eff = float(np.sum(w))
        if n_eff > 0.0:
            wgap = w3 * gap
            loss += cluster_weight / (2.0 * n_eff) * float(np.sum(wgap * gap))
            grad += cluster_weight / n_eff * wgap.sum(axis=0)
    return loss, grad, dout


def grad_head(
    dout: np.ndarray,
    cache,
    features: np.ndarray,
    member: np.ndarray,
    gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (gu, gc, ggamma) of the loss with respect to the head
    parameters u, c and gamma.

    Chain rule from the offset gradient ``dout`` of
    :func:`_loss_from_arrays` through the batch normalization (including
    its batch statistics) recorded in ``cache`` by :func:`head_outputs`
    and through the affine map. Pairs outside ``member`` must carry zero
    weight, hence zero ``dout``. The clustering term does not involve the
    head, so the result holds for any cluster weight. Anchors with no
    assigned pairs, and the scales of groups left raw, get zero gradients.
    """
    n, a = member.shape
    draw = dout
    if cache is None:
        gg = np.zeros_like(gamma)
    else:
        xhat, istd, count, denom, axes = cache
        active = member[:, :, None] & (count >= 2)
        dxhat = np.where(active, dout, 0.0)
        gg = (dxhat * xhat).sum(axis=0)
        dxhat *= gamma
        m1 = dxhat.sum(axis=axes, keepdims=True) / denom
        m2 = (dxhat * xhat).sum(axis=axes, keepdims=True) / denom
        draw = np.where(active, istd * (dxhat - m1 - xhat * m2), dout)
    gu = (draw.reshape(n, 2 * a).T @ features).reshape(a, 2, 2)
    return gu, draw.sum(axis=0), gg
