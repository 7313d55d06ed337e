"""Independent reference implementations the numerical tests check against.

Everything here is written directly on numpy, importing nothing from the
package, so a library bug cannot hide inside its own oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np


def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Fourth-order central finite differences of a scalar function of an array.

    The stencil (f(x - 2e) - 8 f(x - e) + 8 f(x + e) - f(x + 2e)) / (12 e)
    has truncation error O(eps^4), so a step of 1e-5 keeps it below the
    rounding error, which grows as 1/eps: the second-order difference at
    1e-6 read 1.2e-5 where a two-box batch-norm group's exact bias
    gradient is 0. A step of 1e-4 is too coarse for criterion 1's bound.
    An x of a float type wider than float64 keeps its type.
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float))
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        values = []
        for step in (-2.0, -1.0, 1.0, 2.0):
            xs = x.copy()
            xs[idx] += step * eps
            values.append(f(xs))
        grad[idx] = (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) / (12.0 * eps)
        it.iternext()
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case elementwise error, relative where the value is large."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def lloyd_log_l2(points: np.ndarray, init: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Plain Lloyd's with squared Euclidean distance (used in log space)."""
    pts = np.asarray(points, dtype=float)
    cents = np.asarray(init, dtype=float).copy()
    for _ in range(max_iter):
        d = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d, axis=1)
        new = cents.copy()
        for c in range(cents.shape[0]):
            members = labels == c
            if members.any():
                new[c] = pts[members].mean(axis=0)
        if np.array_equal(new, cents):
            break
        cents = new
    return cents


def lr_at(t: int, schedule) -> float:
    """Learning rate at iteration t of a step schedule of (start, lr)
    pairs: the rate of the last segment that starts at or before t."""
    lr = None
    for start, value in schedule:
        if start <= t:
            lr = value
    return lr


def sgd_step(p: float, g: float, v: float, lr: float, momentum: float) -> tuple[float, float]:
    """One heavy-ball update of a scalar parameter p with gradient g and
    velocity v: v <- momentum * v + g, p <- p - lr * v. Returns (p, v)."""
    v = momentum * v + g
    return p - lr * v, v


def iou_of_wh(a, b) -> float:
    """Aligned IoU of two (w, h) pairs, written out longhand."""
    inter = min(a[0], b[0]) * min(a[1], b[1])
    return inter / (a[0] * a[1] + b[0] * b[1] - inter)


def shape_dist(a, b, metric: str = "one_minus_iou") -> float:
    """Distance between two (log w, log h) pairs: 1 - aligned IoU of the
    decoded shapes, or the squared Euclidean distance in log space."""
    if metric == "one_minus_iou":
        return 1.0 - iou_of_wh((math.exp(a[0]), math.exp(a[1])), (math.exp(b[0]), math.exp(b[1])))
    if metric == "sq_l2_log":
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    raise ValueError(f"unknown metric {metric!r}")


def pair_loss(delta, anchor, gt) -> float:
    """Squared log-space size residual of one (ground truth, anchor) pair:
    |delta + anchor - gt|^2 for (dw, dh) offsets and (log w, log h) shapes."""
    rw = delta[0] + anchor[0] - gt[0]
    rh = delta[1] + anchor[1] - gt[1]
    return rw * rw + rh * rh


def cluster_term(anchor, gt) -> float:
    """Squared log-space distance between an anchor and a ground truth:
    the pair loss with zero offsets."""
    return pair_loss((0.0, 0.0), anchor, gt)


def iou_of_boxes(a, b) -> float:
    """IoU of two positioned (cx, cy, w, h) boxes; 0 when they do not overlap."""
    iw = min(a[0] + a[2] / 2, b[0] + b[2] / 2) - max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    ih = min(a[1] + a[3] / 2, b[1] + b[3] / 2) - max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def first_bad_image_id(ids):
    """Index of the first image id the canonical format cannot hold, or None:
    one holding a tab, LF, CR or a code point in U+D800-U+DFFF (a surrogate
    that UTF-8 cannot encode), looked for character by character."""
    for i, image_id in enumerate(ids):
        for ch in image_id:
            if ch in "\t\n\r" or 0xD800 <= ord(ch) <= 0xDFFF:
                return i
    return None


def canonical_text(canvas: int, rows) -> str:
    """The v1 canonical file for (image_id, cx, cy, w, h) rows, one line at a time."""
    lines = [f"anchorforge-dataset v1 S={canvas}"]
    for image_id, *numbers in rows:
        lines.append("\t".join([image_id] + [format(float(x), ".10g") for x in numbers]))
    return "\n".join(lines) + "\n"


def read_canonical_by_line(path, dataset, error):
    """A canonical dataset file read by checking each record line on its own:
    every line's tab count first, then the numbers of all lines at once and,
    only if they fail, line by line to name the first bad one.

    dataset(canvas, ids, cx, cy, w, h) builds the result, and its ValueError
    has its "record i" renamed line i + 2; error is the class raised for a
    malformed file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from None
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise error(f"{path}: empty file")
    m = re.fullmatch(r"anchorforge-dataset v(\d+) S=(\d+)", lines[0].strip())
    if m is None:
        raise error(f"{path}: line 1: not a canonical dataset header")
    try:
        version, canvas = int(m.group(1)), int(m.group(2))
    except ValueError as e:
        raise error(f"{path}: line 1: {e}") from None
    if version != 1:
        raise error(f"{path}: unsupported dataset version {version} (this reader handles v1)")
    ids = []
    for lineno, line in enumerate(lines[1:], start=2):
        tabs = line.count("\t")
        if tabs != 4:
            raise error(f"{path}: line {lineno}: expected 5 tab-separated fields, got {tabs + 1}")
        ids.append(line[:line.index("\t")])
    fields = functools.partial(np.loadtxt, delimiter="\t", usecols=(1, 2, 3, 4), comments=None, ndmin=2)
    values = np.empty((0, 4))
    if ids:
        try:
            values = fields(lines[1:])
        except ValueError as e:
            for lineno, line in enumerate(lines[1:], start=2):
                try:
                    fields([line])
                except ValueError:
                    raise error(f"{path}: line {lineno}: non-numeric field") from None
            raise error(f"{path}: {e}") from None
    try:
        return dataset(canvas, ids, *values.T)
    except ValueError as e:
        raise error(f"{path}: " + re.sub(r"^record (\d+)", lambda m: f"line {int(m[1]) + 2}", str(e))) from None


def iou_table(wh: np.ndarray, cents: np.ndarray) -> np.ndarray:
    out = np.zeros((len(wh), len(cents)))
    for i, a in enumerate(wh):
        for j, b in enumerate(cents):
            out[i, j] = iou_of_wh(a, b)
    return out


def lloyd_iou_round(wh: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One assign-then-update round of IoU k-means; empty clusters stay put."""
    labels = np.argmax(iou_table(wh, cents), axis=1)
    new = cents.copy()
    for c in range(cents.shape[0]):
        members = labels == c
        if members.any():
            new[c] = wh[members].mean(axis=0)
    return labels, new


def iou_matrix(wh1: np.ndarray, wh2: np.ndarray) -> np.ndarray:
    """Aligned IoU of every row of wh1 against every row of wh2, with the
    same floating-point operations in the same order as the package."""
    w1, h1 = wh1[:, None, 0], wh1[:, None, 1]
    w2, h2 = wh2[None, :, 0], wh2[None, :, 1]
    inter = np.minimum(w1, w2) * np.minimum(h1, h2)
    return inter / (w1 * h1 + w2 * h2 - inter)


def seed_plus_plus_full(wh: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-in-IoU seeding that rebuilds the full (n, j) IoU matrix
    against all j seeds chosen so far before drawing each new seed."""
    n = wh.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(k - 1):
        best = iou_matrix(wh, wh[chosen]).max(axis=1)
        weight = (1.0 - best) ** 2
        weight[chosen] = 0.0
        total = weight.sum()
        if total <= 0.0:
            chosen.append(next(i for i in range(n) if i not in chosen))
        else:
            chosen.append(int(rng.choice(n, p=weight / total)))
    return wh[chosen].copy()


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def head_loss_longhand(w, member, s, g, lam, head=None, features=None, bn=True, eps=1e-5):
    """The training objective written out pair by pair and group by group.

    w is the (n, A) assignment weight matrix and member the (n, A)
    boolean mask of the pairs the assignment covers; pairs outside it
    must have zero weight. head is None (all offsets zero) or a tuple
    (u, c, gamma) of per-anchor linear maps, biases and scales applied
    to the (n, 2) features. With bn, member pairs are grouped per anchor,
    each group of at least 2 pairs is normalized per channel with its own
    biased mean and variance and scaled by the anchor's scale; smaller
    groups stay raw.

    Returns (loss, offsets), offsets mapping each member pair (j, k) to
    its [dw, dh].
    """
    n, a = len(w), len(w[0]) if len(w) else 0
    pairs = [(j, k) for j in range(n) for k in range(a) if member[j][k]]
    for j in range(n):
        for k in range(a):
            if not member[j][k] and w[j][k] != 0.0:
                raise ValueError(f"pair ({j}, {k}) has weight outside the membership mask")
    offsets = {}
    for j, k in pairs:
        if head is None:
            offsets[(j, k)] = [0.0, 0.0]
            continue
        u, c, _ = head
        offsets[(j, k)] = [
            u[k][i][0] * features[j][0] + u[k][i][1] * features[j][1] + c[k][i]
            for i in (0, 1)
        ]
    if head is not None and bn:
        gamma = head[2]
        groups = {}
        for j, k in pairs:
            groups.setdefault(k, []).append((j, k))
        for members in groups.values():
            if len(members) < 2:
                continue
            for i in (0, 1):
                values = [offsets[p][i] for p in members]
                mean = sum(values) / len(values)
                var = sum((v - mean) ** 2 for v in values) / len(values)
                std = (var + eps) ** 0.5
                for (j, k), v in zip(members, values):
                    offsets[(j, k)][i] = gamma[k][i] * (v - mean) / std
    loss = 0.0
    cluster = 0.0
    total_weight = 0.0
    for j, k in pairs:
        weight = float(w[j][k])
        gap = [s[k][i] - g[j][i] for i in (0, 1)]
        loss += weight * sum((offsets[(j, k)][i] + gap[i]) ** 2 for i in (0, 1))
        cluster += weight * (gap[0] ** 2 + gap[1] ** 2)
        total_weight += weight
    if lam > 0.0 and total_weight > 0.0:
        loss += lam / (2.0 * total_weight) * cluster
    return loss, offsets


def moment_rows(features, g) -> np.ndarray:
    """The (5, n) rows x_j = (1, f_j, g_j) of a batch's features and log
    shapes, the column layout the moment-form training stages read."""
    features = np.asarray(features, dtype=float).reshape(-1, 2)
    g = np.asarray(g, dtype=float).reshape(-1, 2)
    return np.vstack([np.ones(len(g)), features.T, g.T])


def log_shape_iou(log1: np.ndarray, log2: np.ndarray) -> np.ndarray:
    """Aligned IoU between (n, 2) and (m, 2) log-shape arrays, each call
    converting both to linear shapes with numpy's exp."""
    return iou_matrix(np.exp(np.asarray(log1, dtype=float)), np.exp(np.asarray(log2, dtype=float)))


def sq_log_dist(log1: np.ndarray, log2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between (n, 2) and (m, 2) log-shape arrays."""
    diff = np.asarray(log1, dtype=float)[:, None, :] - np.asarray(log2, dtype=float)[None, :, :]
    return np.sum(diff * diff, axis=2)


def hard_assign_yolo(gts: np.ndarray, anchors: np.ndarray, metric: str = "one_minus_iou") -> np.ndarray:
    """The yolo rule on log shapes: one-hot (n, A) weights, each ground truth
    to its highest-IoU anchor (or, under sq_l2_log, its nearest in log
    space), exact ties to the lowest index."""
    if metric == "one_minus_iou":
        winners = np.argmax(log_shape_iou(gts, anchors), axis=1)
    else:
        winners = np.argmin(sq_log_dist(gts, anchors), axis=1)
    w = np.zeros((len(winners), len(anchors)))
    w[np.arange(w.shape[0]), winners] = 1.0
    return w


def hard_assign_threshold(gts: np.ndarray, anchors: np.ndarray, tau: float) -> np.ndarray:
    """The threshold rule on log shapes: 1 for every anchor whose IoU
    reaches tau, and for each ground truth's best-IoU anchor."""
    iou = log_shape_iou(gts, anchors)
    w = (iou >= tau).astype(float)
    w[np.arange(w.shape[0]), np.argmax(iou, axis=1)] = 1.0
    return w


def soft_assign(gts: np.ndarray, anchors: np.ndarray, metric: str, temperature: float) -> np.ndarray:
    """The soft rule on log shapes: the row softmax of IoU / temperature,
    or, under sq_l2_log, of -distance / temperature."""
    if metric == "one_minus_iou":
        z = log_shape_iou(gts, anchors) / temperature
    else:
        z = sq_log_dist(gts, anchors) / -temperature
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def utilization_counts(w: np.ndarray, soft: bool = False) -> np.ndarray:
    """Per-anchor counts read off the (n, A) weights: every nonzero of hard
    weights, the highest-weight anchor (ties to the lowest) of soft ones."""
    if soft:
        return np.bincount(np.argmax(w, axis=1), minlength=w.shape[1])
    return (w != 0.0).sum(axis=0)


def batch_moments(rows: np.ndarray, w: np.ndarray, soft: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centred Grams of one batch, its columns centred by the batch's own mean.

    rows is the (5, m) array of columns x_j = (1, f_j, g_j) and w the
    (m, A) assignment. Returns the (A, 5, 5) stack
    G_k = sum_j w_jk x_j x_j^T, the membership Grams (G itself under a
    hard rule, the batch's own Gram for every anchor under the soft one)
    and the (5,) mean (0, f-bar, g-bar) the columns were centred by.
    """
    m = rows.shape[1]
    mean = rows.sum(axis=1) / max(m, 1)
    mean[0] = 0.0
    x = rows - mean[:, None]
    gram = (w.T @ (x[:, None, :] * x[None, :, :]).reshape(25, m).T).reshape(-1, 5, 5)
    member_gram = (x @ x.T)[None].repeat(len(gram), axis=0) if soft else gram
    return gram, member_gram, mean


def dense_head_outputs(u, c, gamma, features, member, bn=True, eps=1e-5):
    """Head forward pass for every (ground truth, anchor) pair, on (n, A, 2) arrays.

    features is the (n, 2) feature array and member the (n, A) boolean
    mask of the pairs the assignment covers, which define the
    batch-normalization groups: one group per anchor column. Raw
    offsets are ``u[k] @ features[j] + c[k]``; members of a group of at
    least 2 pairs are normalized with the group's statistics and scaled by
    ``gamma[k]``, everything else passes through raw.

    Returns the (n, A, 2) offsets and the cache dense_grad_head reuses
    (None without BN).
    """
    n, a = member.shape
    raw = (features @ u.reshape(2 * a, 2).T).reshape(n, a, 2) + c
    if not bn:
        return raw, None
    mask = member[:, :, None]
    count = mask.sum(axis=0)
    denom = np.maximum(count, 1)
    xc = raw - np.where(mask, raw, 0.0).sum(axis=0) / denom
    var = np.where(mask, xc * xc, 0.0).sum(axis=0) / denom
    istd = 1.0 / np.sqrt(var + eps)
    xhat = xc * istd
    active = mask & (count >= 2)
    return np.where(active, gamma * xhat, raw), (xhat, istd, count, denom)


def dense_loss(out, w, s, g, cluster_weight):
    """Weighted size loss plus the normalized clustering term, on (n, A, 2) offsets:

        loss = sum_jk w_jk |out_jk + s_k - g_j|^2
             + lam / (2 N) * sum_jk w_jk |s_k - g_j|^2,   N = sum_jk w_jk

    Returns the loss, its (A, 2) anchor gradient and its (n, A, 2)
    gradient with respect to out.
    """
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


def dense_grad_head(dout, cache, features, member, gamma):
    """Head gradients (gu, gc, ggamma) from the offset gradient of
    dense_loss, through the normalization recorded by dense_head_outputs."""
    n, a = member.shape
    draw = dout
    if cache is None:
        gg = np.zeros_like(gamma)
    else:
        xhat, istd, count, denom = cache
        active = member[:, :, None] & (count >= 2)
        dxhat = np.where(active, dout, 0.0)
        gg = (dxhat * xhat).sum(axis=0)
        dxhat *= gamma
        m1 = dxhat.sum(axis=0) / denom
        m2 = (dxhat * xhat).sum(axis=0) / denom
        draw = np.where(active, istd * (dxhat - m1 - xhat * m2), dout)
    gu = (draw.reshape(n, 2 * a).T @ features).reshape(a, 2, 2)
    return gu, draw.sum(axis=0), gg


def lloyd_assign_step(wh: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Lloyd's assignment: the IoU argmax of every shape. argmax returns
    the first maximum, so exact ties go to the lowest cluster."""
    return np.argmax(iou_matrix(wh, cents), axis=1)


def lloyd_kmeans_iou(wh: np.ndarray, init: np.ndarray, max_iter: int, update_step) -> tuple:
    """IoU k-means by plain Lloyd's rounds: a full argmax over every shape
    in every round, around the given centroid update step.

    Returns (centroids, assignments, mean_best_iou, iterations_run).
    """
    cents = np.asarray(init, dtype=float)
    assignments = lloyd_assign_step(wh, cents)
    iterations_run = 0
    for _ in range(max_iter):
        iterations_run += 1
        cents = update_step(wh, cents, assignments)
        new_assignments = lloyd_assign_step(wh, cents)
        converged = bool(np.array_equal(new_assignments, assignments))
        assignments = new_assignments
        if converged:
            break
    mean_best = float(iou_matrix(wh, cents).max(axis=1).mean())
    return cents, assignments, mean_best, iterations_run


def full_matrix_report(wh: np.ndarray, anchors_wh: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each box's best aligned IoU, and the per-anchor utilization under the
    yolo and the threshold rule, from the full (n, A) IoU matrix.

    The winner is the IoU argmax (ties to the lowest anchor); the yolo rule
    counts winners, the threshold rule every pair with IoU >= tau plus each
    box's winner.
    """
    iou = iou_matrix(wh, anchors_wh)
    won = np.arange(iou.shape[1]) == np.argmax(iou, axis=1)[:, None]
    return iou.max(axis=1), won.sum(axis=0), ((iou >= tau) | won).sum(axis=0)


def subset_dp_match(la: np.ndarray, lb: np.ndarray) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The least-summed-distance one-to-one pairing of two equal-size (n, 2)
    log-shape arrays, by a DP over the subsets of lb's indices visited one
    mask at a time, and the Euclidean distance of each matched pair.

    Masks are visited in increasing order and a stored cost is replaced
    only by a strictly smaller one, so each subset keeps the candidate
    that adds the highest index of lb.
    """
    n = len(la)
    dist = np.sqrt(np.sum((la[:, None, :] - lb[None, :, :]) ** 2, axis=2))
    # DP over subsets of b's indices; popcount(mask) rows of a are placed.
    full = (1 << n) - 1
    best = np.full(1 << n, np.inf)
    best[0] = 0.0
    choice = np.full(1 << n, -1, dtype=int)
    for mask in range(full):
        i = bin(mask).count("1")
        base = best[mask]
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
    return tuple(enumerate(cols)), dist[np.arange(n), cols]


def sign_test_interval(ratios):
    """The narrowest pair of order statistics (k-th smallest, k-th largest)
    that holds the median with probability at least 95% whatever the
    distribution, or None, found by counting all 2**n equally likely patterns
    of which ratios fall below the median."""
    n, ordered = len(ratios), sorted(ratios)
    best = None
    for k in range(1, n // 2 + 1):
        # the median lies in [k-th smallest, k-th largest] when at least k
        # ratios fall below it and at least k above it
        covered = sum(1 for pattern in itertools.product((0, 1), repeat=n) if k <= sum(pattern) <= n - k)
        if covered >= 0.95 * 2**n:
            best = (ordered[k - 1], ordered[n - k])
    return best
