import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorforge.assign import TEMP_FLOOR
from anchorforge.lossgrad import (
    BN_EPS,
    _loss_from_arrays,
    grad_head,
    head_outputs,
    initial_head,
    make_features,
)
from oracles import (
    batch_moments,
    cluster_term,
    dense_grad_head,
    dense_head_outputs,
    dense_loss,
    fd_grad,
    hard_assign_threshold,
    hard_assign_yolo,
    head_loss_longhand,
    moment_rows,
    pair_loss,
    rel_err,
    soft_assign,
)

RULES = ("yolo", "threshold", "soft")


def assign(rule, g, s, metric="sq_l2_log", temperature=1.0):
    """(W, member) for one rule, as the trainer builds them."""
    if rule == "soft":
        w = soft_assign(g, s, metric, temperature)
        return w, np.ones(w.shape, dtype=bool)
    if rule == "threshold":
        w = hard_assign_threshold(g, s, 0.5)
    else:
        w = hard_assign_yolo(g, s, metric)
    return w, w > 0.0


def random_case(rng, n_gt=12, n_anchor=3, rule="yolo"):
    """A random assigned batch: (W, member, log anchors, log gts)."""
    g = rng.normal(3.0, 0.8, size=(n_gt, 2))
    s = rng.normal(3.0, 0.8, size=(n_anchor, 2))
    w, member = assign(rule, g, s)
    return w, member, s, g


def random_head(rng, n_anchor):
    u = rng.normal(0.0, 0.4, size=(n_anchor, 2, 2))
    c = rng.normal(0.0, 0.2, size=(n_anchor, 2))
    gamma = rng.uniform(0.5, 2.0, size=(n_anchor, 2))
    return u, c, gamma


def moments(w, member, g, features=None):
    """The trainer's Grams of a batch (features default to the log shapes).

    A mask that covers every pair is the soft rule's; under a hard rule
    it means every weight is 1, and the two Grams agree."""
    rows = moment_rows(g if features is None else features, g)
    return batch_moments(rows, w, bool(member.all()))


def apply_map(coef, mean, g, features=None):
    """(n, A, 2) offsets: the coefficient map applied to the rows centred by mean."""
    rows = moment_rows(g if features is None else features, g)
    return np.einsum("kic,cj->jki", coef, rows - mean[:, None])


def offsets(head, member, g, features, bn=True):
    """The head's (n, A, 2) offsets under the moment-form forward pass."""
    # the membership Gram of the mask's 0/1 weights, which is what the forward pass reads
    _, member_gram, mean = moments(member.astype(float), member, g, features)
    coef, _ = head_outputs(*head, member_gram, mean, bn=bn)
    return apply_map(coef, mean, g, features)


def const_map(out):
    """A coefficient map giving every pair of anchor k the constant
    offset out[k]: (A, 2) -> (A, 2, 5)."""
    coef = np.zeros(np.shape(out) + (5,))
    coef[..., 0] = out
    return coef


def kernel_loss(w, member, s, g, lam, head=None, features=None, bn=True):
    gram, member_gram, mean = moments(w, member, g, features)
    if head is None:
        coef = np.zeros((len(s), 2, 5))
    else:
        coef, _ = head_outputs(*head, member_gram, mean, bn=bn)
    return _loss_from_arrays(coef, gram, s, mean, lam)[0]


# The differences are taken of the longhand objective in np.longdouble, which
# is float64 where numpy has nothing wider: float64 rounding in the
# moment-form kernel read 1.8e-5 on the flat bias direction of a two-box BN
# group, whose exact gradient is 0, against 1e-13 from the 80-bit longhand
# and 1e-9 from the float64 longhand.
def head_fd_check(w, member, s, g, lam, head, features, bn):
    """Worst relative error of the head gradients against finite differences."""
    u, c, gamma = head
    gram, member_gram, mean = moments(w, member, g, features)
    coef, cache = head_outputs(u, c, gamma, member_gram, mean, bn=bn)
    _, _, dcoef = _loss_from_arrays(coef, gram, s, mean, lam)
    gu, gc, ggamma = grad_head(dcoef, cache, mean, gamma)
    s, g, features, u, c, gamma = (np.asarray(x, dtype=np.longdouble) for x in (s, g, features, u, c, gamma))

    def loss(head):
        return head_loss_longhand(w, member, s, g, lam, head, features, bn, eps=BN_EPS)[0]

    def f_u(x):
        return loss((x, c, gamma))

    def f_c(x):
        return loss((u, x, gamma))

    def f_gamma(x):
        return loss((u, c, x))

    return max(
        rel_err(gu, fd_grad(f_u, u)),
        rel_err(gc, fd_grad(f_c, c)),
        rel_err(ggamma, fd_grad(f_gamma, gamma)),
    )


def one_pair_loss(delta, anchor, gt, lam=0.0):
    """The kernel's loss for a single (ground truth, anchor) pair of weight 1."""
    g = np.array([gt], dtype=float)
    w = np.ones((1, 1))
    gram, _, mean = moments(w, w > 0.0, g)
    return _loss_from_arrays(const_map([delta]), gram, np.array([anchor], dtype=float), mean, lam)[0]


def zero_offset_loss(w, s, g, lam):
    """The kernel's (loss, anchor gradient, coefficient gradient) with no head."""
    gram, _, mean = moments(w, w > 0.0, g)
    return _loss_from_arrays(np.zeros((len(s), 2, 5)), gram, s, mean, lam)


class TestLossValues:
    def test_loss_wh_pinned(self):
        """Zero offsets between log(2,2) and log(4,4) leave 2 (ln 2)^2."""
        got = one_pair_loss((0.0, 0.0), (math.log(2), math.log(2)), (math.log(4), math.log(4)))
        assert math.isclose(got, 2.0 * math.log(2.0) ** 2, rel_tol=1e-14)

    def test_loss_wh_zero_at_match(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g = tuple(float(v) for v in rng.normal(0.0, 2.0, size=2))
            assert one_pair_loss((0.0, 0.0), g, g) == 0.0

    def test_loss_wh_offsets_close_gap(self):
        assert one_pair_loss((2.0, -1.0), (1.0, 2.0), (3.0, 1.0)) == 0.0

    def test_cluster_term_is_zero_offset_loss(self):
        """For one pair (N = 1) the clustering term adds lam / 2 times the
        zero-offset size loss."""
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = tuple(float(v) for v in rng.normal(0.0, 2.0, size=2))
            g = tuple(float(v) for v in rng.normal(0.0, 2.0, size=2))
            want = cluster_term(a, g)
            assert math.isclose(one_pair_loss((0.0, 0.0), a, g), want, rel_tol=1e-12)
            assert math.isclose(one_pair_loss((0.0, 0.0), a, g, 1.0), 1.5 * want, rel_tol=1e-12)

    def test_single_pair_with_cluster_weight(self):
        """One pair, zero offset, unit gap: 1 + (1/2) * 1 = 1.5."""
        w = np.ones((1, 1))
        loss, _, _ = zero_offset_loss(w, np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0)
        assert loss == 1.5

    def test_empty_assignment_is_zero(self):
        loss, grad, dcoef = zero_offset_loss(np.zeros((0, 1)), np.zeros((1, 2)), np.zeros((0, 2)), 1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)
        assert dcoef.shape == (1, 2, 5)
        np.testing.assert_array_equal(dcoef, 0.0)

    def test_all_zero_weights_is_zero(self):
        g = np.array([[1.0, 1.0], [2.0, 2.0]])
        loss, _, _ = zero_offset_loss(np.zeros((2, 1)), np.zeros((1, 2)), g, 1.0)
        assert loss == 0.0


class TestLossProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.integers(1, 6), st.sampled_from(RULES),
           st.floats(min_value=0.0, max_value=1.0), st.booleans())
    def test_never_negative(self, seed, n, a, rule, lam, with_head):
        """A sum of weighted squares stays >= 0 under every rule and every lam."""
        rng = np.random.default_rng(seed)
        g = rng.normal(3.0, 1.5, size=(n, 2))
        s = rng.normal(3.0, 1.5, size=(a, 2))
        w, member = assign(rule, g, s, temperature=float(rng.uniform(0.01, 2.0)))
        head = random_head(rng, a) if with_head else None
        loss = kernel_loss(w, member, s, g, lam, head, make_features(g, 0.3, rng))
        assert loss >= 0.0


class TestAnchorGradients:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("soft", [False, True])
    def test_matches_finite_differences(self, lam, soft):
        rng = np.random.default_rng(33)
        for _ in range(10):
            for rule in ("soft",) if soft else ("yolo", "threshold"):
                w, member, s, g = random_case(rng, rule=rule)
                gram, _, mean = moments(w, member, g)
                # an arbitrary affine map of each pair's (1, f, g) row as its offset
                coef = rng.normal(0.0, 0.3, size=(len(s), 2, 5))

                def f(arr):
                    return _loss_from_arrays(coef, gram, arr, mean, lam)[0]

                _, analytic, _ = _loss_from_arrays(coef, gram, s, mean, lam)
                assert rel_err(analytic, fd_grad(f, s)) < 1e-6

    def test_unassigned_anchor_row_is_zero(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        s = np.array([[0.0, 0.0], [9.0, 9.0]])
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, grad, _ = zero_offset_loss(w, s, g, 0.5)
        np.testing.assert_array_equal(grad[1], 0.0)
        assert np.any(grad[0] != 0.0)

    def test_hand_worked_single_pair(self):
        # residual (s - g) = (-1, 0); grad = 2 r + lam/N * r with N = 1
        _, grad, _ = zero_offset_loss(np.ones((1, 1)), np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(grad, [[-3.0, 0.0]], rtol=0, atol=1e-15)

    def test_identical_anchors(self):
        """Identical anchors: yolo sends every box to anchor 0, threshold to
        anchor 0 or to all of them, soft splits evenly, and the gradients
        still match finite differences."""
        rng = np.random.default_rng(46)
        g = rng.normal(3.0, 0.8, size=(15, 2))
        s = np.tile([[3.2, 2.9]], (4, 1))
        for rule in RULES:
            w, member = assign(rule, g, s, temperature=0.7)
            if rule == "soft":
                np.testing.assert_allclose(w, 0.25, rtol=0, atol=1e-15)
            else:
                np.testing.assert_array_equal(w[:, 0], 1.0)
                rest = w[:, 1:] if rule == "yolo" else w[:, 1:] != w[:, 1:2]
                np.testing.assert_array_equal(rest, 0.0)
            for lam in (0.0, 0.4):
                _, grad, _ = zero_offset_loss(w, s, g, lam)
                numeric = fd_grad(lambda arr: zero_offset_loss(w, arr, g, lam)[0], s)
                assert rel_err(grad, numeric) < 1e-6
                feats = make_features(g, 0.4, rng)
                for bn in (False, True):
                    head = random_head(rng, 4)
                    assert head_fd_check(w, member, s, g, lam, head, feats, bn) < 1e-6


def batch_norm(x, gamma):
    """A 1-D batch through the head's normalization: one anchor, identity
    map, zero bias, every value a member. Returns the output and istd."""
    features = np.column_stack([x, x])
    member = np.ones((len(x), 1), dtype=bool)
    _, member_gram, mean = moments(member.astype(float), member, features, features)
    coef, cache = head_outputs(np.eye(2)[None], np.zeros((1, 2)), np.full((1, 2), gamma),
                               member_gram, mean, bn=True)
    out = apply_map(coef, mean, features, features)
    return out[:, 0, 0], float(cache[3][0, 0])


class TestBatchNorm:
    def test_output_statistics(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 10.0), size=int(rng.integers(2, 200)))
            gamma = float(rng.uniform(0.2, 3.0))
            out, istd = batch_norm(x, gamma)
            assert abs(float(np.mean(out))) < 1e-12 * max(1.0, gamma)
            var = float(np.var(x))
            want_var = gamma * gamma * var / (var + BN_EPS)
            assert math.isclose(float(np.var(out)), want_var, rel_tol=1e-9)
            assert math.isclose(1.0 / istd, math.sqrt(var + BN_EPS), rel_tol=1e-12)

    def test_reconstruction(self):
        """out / gamma * std + mean recovers the input."""
        rng = np.random.default_rng(35)
        x = rng.normal(2.0, 3.0, size=64)
        out, istd = batch_norm(x, 1.7)
        np.testing.assert_allclose(out / 1.7 / istd + float(np.mean(x)), x, rtol=1e-12)

    def test_batch_of_one_passes_through(self):
        """A group of one has no batch statistics: its value stays raw and unscaled."""
        out, _ = batch_norm(np.array([1.5]), 2.0)
        np.testing.assert_array_equal(out, [1.5])

    def test_constant_batch_finite(self):
        out, _ = batch_norm(np.full(8, 3.0), 1.0)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, 0.0)


class TestHeadForward:
    def test_initial_params(self):
        u, c, gamma = initial_head(4, 0.2, np.random.default_rng(36))
        np.testing.assert_array_equal(u, 0.2 * np.random.default_rng(36).standard_normal((4, 2, 2)))
        np.testing.assert_array_equal(c, np.zeros((4, 2)))
        np.testing.assert_array_equal(gamma, np.ones((4, 2)))

    def test_make_features_sigma_zero_copies(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        feats = make_features(g, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(feats, g)
        assert feats is not g
        feats[0, 0] = 99.0
        assert g[0, 0] == 1.0

    def test_make_features_sigma_zero_draws_nothing(self):
        """Sigma 0 leaves the generator where it was; noise draws one normal per coordinate."""
        rng = np.random.default_rng(5)
        g = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        state = rng.bit_generator.state
        make_features(g, 0.0, rng)
        assert rng.bit_generator.state == state
        feats = make_features(g, 0.5, rng)
        np.testing.assert_array_equal(feats, g + 0.5 * np.random.default_rng(5).standard_normal((3, 2)))

    def test_make_features_needs_rng(self):
        with pytest.raises(TypeError):
            make_features(np.zeros((2, 2)), 0.0)

    def test_make_features_noise_scale(self):
        rng = np.random.default_rng(37)
        g = np.zeros((20_000, 2))
        feats = make_features(g, 2.5, rng)
        assert abs(float(np.std(feats)) - 2.5) < 0.05

    def test_head_forward_affine(self):
        """Without BN the offset of pair (j, k) is u[k] @ features[j] + c[k]."""
        rng = np.random.default_rng(38)
        u, _, gamma = initial_head(2, 0.3, rng)
        c = rng.normal(0.0, 0.5, size=(2, 2))
        feats = np.array([[1.5, -0.5], [0.25, 2.0]])
        member = np.ones((2, 2), dtype=bool)
        _, member_gram, mean = moments(member.astype(float), member, feats, feats)
        coef, cache = head_outputs(u, c, gamma, member_gram, mean, bn=False)
        assert cache is None
        out = apply_map(coef, mean, feats, feats)
        for j in range(2):
            for k in range(2):
                want = u[k] @ feats[j] + c[k]
                np.testing.assert_allclose(out[j, k], want, rtol=1e-12)

    def test_head_outputs_matches_single(self):
        """The batched forward pass equals the pair-at-a-time longhand oracle."""
        rng = np.random.default_rng(39)
        g = rng.normal(0.0, 1.0, size=(10, 2))
        s = rng.normal(0.0, 1.0, size=(3, 2))
        head = random_head(rng, 3)
        feats = make_features(g, 0.0, rng)
        for rule in RULES:
            w, member = assign(rule, g, s)
            for bn in (False, True):
                out = offsets(head, member, g, feats, bn)
                _, longhand = head_loss_longhand(w, member, s, g, 0.0, head, feats, bn)
                for (j, k), want in longhand.items():
                    np.testing.assert_allclose(out[j, k], want, rtol=1e-9, atol=1e-12)

    def test_bn_groups_normalize_each_anchor(self):
        rng = np.random.default_rng(40)
        head = initial_head(2, 1.0, rng)
        g = rng.normal(0.0, 1.0, size=(40, 2))
        feats = make_features(g, 0.0, rng)
        member = np.zeros((40, 2), dtype=bool)
        member[:25, 0] = True
        member[25:, 1] = True
        out = offsets(head, member, g, feats, bn=True)
        raw = offsets(head, member, g, feats, bn=False)
        for k, rows in ((0, slice(0, 25)), (1, slice(25, 40))):
            for ch in (0, 1):
                assert abs(float(np.mean(out[rows, k, ch]))) < 1e-10
                var = float(np.var(raw[rows, k, ch]))
                assert math.isclose(float(np.var(out[rows, k, ch])), var / (var + BN_EPS), rel_tol=1e-9)

    def test_bn_sub2_group_passes_through(self):
        """A lone pair for an anchor is left raw rather than normalized to 0,
        and its scale gets no gradient."""
        rng = np.random.default_rng(41)
        u, c, gamma = initial_head(2, 1.0, rng)
        g = rng.normal(0.0, 1.0, size=(5, 2))
        feats = make_features(g, 0.0, rng)
        w = np.zeros((5, 2))
        w[:4, 0] = 1.0
        w[4, 1] = 1.0
        member = w > 0.0
        s = rng.normal(0.0, 1.0, size=(2, 2))
        gram, member_gram, mean = moments(w, member, g, feats)
        coef, cache = head_outputs(u, c, gamma, member_gram, mean, bn=True)
        raw_last = u[1] @ feats[4] + c[1]
        np.testing.assert_allclose(apply_map(coef, mean, g, feats)[4, 1], raw_last, rtol=1e-12)
        _, _, dcoef = _loss_from_arrays(coef, gram, s, mean, 0.0)
        ggamma = grad_head(dcoef, cache, mean, gamma)[2]
        np.testing.assert_array_equal(ggamma[1], 0.0)
        assert np.all(ggamma[0] != 0.0)
        assert head_fd_check(w, member, s, g, 0.0, (u, c, gamma), feats, True) < 1e-6


class TestLonghandOracle:
    """The kernel against a pair-by-pair, group-by-group reference. Finite
    differences cannot see a membership mask that is consistently wrong;
    this comparison can."""

    @pytest.mark.parametrize("rule", RULES)
    def test_matches_kernel(self, rule):
        rng = np.random.default_rng(47)
        for _ in range(8):
            n = int(rng.integers(1, 25))
            a = int(rng.integers(1, 6))
            g = rng.uniform(np.log(8.0), np.log(300.0), size=(n, 2))
            s = rng.uniform(np.log(8.0), np.log(300.0), size=(a, 2))
            metric = ("one_minus_iou", "sq_l2_log")[int(rng.integers(2))]
            w, member = assign(rule, g, s, metric, float(rng.uniform(0.05, 2.0)))
            feats = make_features(g, 0.3, rng)
            head = random_head(rng, a)
            for lam in (0.0, 0.4):
                want, _ = head_loss_longhand(w, member, s, g, lam)
                assert math.isclose(kernel_loss(w, member, s, g, lam), want, rel_tol=1e-9)
                for bn in (False, True):
                    want, _ = head_loss_longhand(w, member, s, g, lam, head, feats, bn)
                    got = kernel_loss(w, member, s, g, lam, head, feats, bn)
                    assert math.isclose(got, want, rel_tol=1e-9)

    def test_soft_floor_zero_weights_stay_in_groups(self):
        """At the temperature floor with sq_l2_log some softmax weights are
        exactly 0. Those pairs still belong to their anchor's BN group: the
        normalization statistics are taken over every ground truth."""
        rng = np.random.default_rng(48)
        g = rng.uniform(np.log(8.0), np.log(300.0), size=(20, 2))
        s = rng.uniform(np.log(8.0), np.log(300.0), size=(5, 2))
        w, member = assign("soft", g, s, "sq_l2_log", TEMP_FLOOR)
        assert np.any(w == 0.0) and np.all(member)
        feats = make_features(g, 0.3, rng)
        head = random_head(rng, 5)
        want, longhand = head_loss_longhand(w, member, s, g, 0.3, head, feats, True)
        out = offsets(head, member, g, feats, bn=True)
        assert math.isclose(kernel_loss(w, member, s, g, 0.3, head, feats, True), want, rel_tol=1e-9)
        for (j, k), value in longhand.items():
            np.testing.assert_allclose(out[j, k], value, rtol=1e-9, atol=1e-12)
        # membership read off w > 0 would change the groups and the loss
        wrong, _ = head_loss_longhand(w, w > 0.0, s, g, 0.3, head, feats, True)
        assert not math.isclose(wrong, want, rel_tol=1e-9)
        assert head_fd_check(w, member, s, g, 0.3, head, feats, True) < 1e-6


def largest(*arrays):
    """The largest magnitude in the arrays, or 1 if that is smaller."""
    return max([1.0] + [float(np.max(np.abs(x), initial=0.0)) for x in arrays])


def close(got, want, scale=None):
    """Agreement to 1e-8 of scale (by default, of want's largest magnitude)."""
    diff = np.abs(np.asarray(got, dtype=float) - want)
    return float(np.max(diff, initial=0.0)) <= 1e-8 * (largest(want) if scale is None else scale)


class TestDenseOracle:
    """The moment-form stages against the dense (n, A, 2) stages they
    replaced, kept in oracles.py. The Grams sum in another order than the
    dense arrays, and the batch-normalization variances are read off them,
    so agreement is to 1e-8 of each quantity's largest magnitude rather
    than bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from((0, 1, 2, 3, 6)), min_size=1, max_size=15),
           st.sampled_from(RULES), st.booleans(),
           st.sampled_from((0.0, 0.5, 1.0)))
    def test_matches_dense_stages(self, seed, sizes, rule, bn, lam):
        """Anchors spaced 0.8 apart in log w and log h (aligned IoU about
        0.2 between neighbours), with sizes[k] boxes drawn close to anchor
        k: the hard rules then give anchor k a group of exactly sizes[k]
        members, so groups of 0, 1 and several members all occur."""
        rng = np.random.default_rng(seed)
        a = len(sizes)
        s = np.log(8.0) + 0.8 * np.arange(a)[:, None] + rng.uniform(-0.05, 0.05, size=(a, 2))
        g = np.repeat(s, sizes, axis=0) + rng.normal(0.0, 0.05, size=(sum(sizes), 2))
        w, member = assign(rule, g, s, temperature=float(rng.uniform(0.05, 2.0)))
        if rule != "soft":
            assert member.sum(axis=0).tolist() == sizes
        head = random_head(rng, a)
        features = make_features(g, 0.3, rng)

        out, cache = dense_head_outputs(*head, features, member, bn)
        loss, grad, dout = dense_loss(out, w, s, g, lam)
        head_grads = dense_grad_head(dout, cache, features, member, head[2])

        gram, member_gram, mean = moments(w, member, g, features)
        coef, mcache = head_outputs(*head, member_gram, mean, bn=bn)
        mloss, mgrad, dcoef = _loss_from_arrays(coef, gram, s, mean, lam)
        mhead_grads = grad_head(dcoef, mcache, mean, head[2])

        assert close(apply_map(coef, mean, g, features)[member], out[member])
        assert math.isclose(mloss, loss, rel_tol=1e-8, abs_tol=1e-8)
        assert close(mgrad, grad)
        # the bias gradient of a normalized group is rounding noise around 0
        # in both forms, so all three are held to the head gradients' scale
        for got, want in zip(mhead_grads, head_grads):
            assert close(got, want, largest(*head_grads))


class TestHeadGradients:
    @pytest.mark.parametrize("bn", [False, True])
    @pytest.mark.parametrize("soft", [False, True])
    def test_matches_finite_differences(self, bn, soft):
        rng = np.random.default_rng(43)
        for _ in range(5):
            for rule in ("soft",) if soft else ("yolo", "threshold"):
                w, member, s, g = random_case(rng, n_gt=14, n_anchor=3, rule=rule)
                head = random_head(rng, 3)
                feats = make_features(g, 0.6, rng)
                for lam in (0.0, 0.5):
                    assert head_fd_check(w, member, s, g, lam, head, feats, bn) < 1e-6

    def test_cluster_term_never_touches_head(self):
        rng = np.random.default_rng(44)
        w, member, s, g = random_case(rng)
        u, c, gamma = random_head(rng, 3)
        feats = make_features(g, 0.0, rng)
        gram, member_gram, mean = moments(w, member, g, feats)
        coef, cache = head_outputs(u, c, gamma, member_gram, mean)
        _, _, d0 = _loss_from_arrays(coef, gram, s, mean, 0.0)
        _, _, d1 = _loss_from_arrays(coef, gram, s, mean, 1.0)
        np.testing.assert_array_equal(d0, d1)
        a = grad_head(d0, cache, mean, gamma)
        b = grad_head(d1, cache, mean, gamma)
        np.testing.assert_array_equal(a[0], b[0])

    def test_empty_assignment_zero_grads(self):
        u, c, gamma = random_head(np.random.default_rng(49), 2)
        member = np.zeros((0, 2), dtype=bool)
        feats = np.zeros((0, 2))
        w = np.zeros((0, 2))
        gram, member_gram, mean = moments(w, member, feats, feats)
        coef, cache = head_outputs(u, c, gamma, member_gram, mean)
        _, _, dcoef = _loss_from_arrays(coef, gram, np.zeros((2, 2)), mean, 0.5)
        gu, gc, ggamma = grad_head(dcoef, cache, mean, gamma)
        np.testing.assert_array_equal(gu, 0.0)
        np.testing.assert_array_equal(gc, 0.0)
        np.testing.assert_array_equal(ggamma, 0.0)

    def test_pure_noise_features_give_no_descent_direction(self):
        """Features that are pure noise, independent of the residuals,
        offer the linear maps nothing to learn: at u = 0 the u-gradient
        is a sum of zero-mean terms. A large sample must stay within a
        few standard errors of zero, and batch-centered noise cancels
        it exactly."""
        rng = np.random.default_rng(45)
        n = 20_000
        s = np.array([[3.0, 3.0]])
        g = np.tile([[3.4, 2.6]], (n, 1))
        w = np.ones((n, 1))
        member = w > 0.0
        u, c, gamma = np.zeros((1, 2, 2)), np.full((1, 2), 0.1), np.ones((1, 2))
        sigma = 4.0
        noise = sigma * rng.standard_normal((n, 2))

        def u_grad(feats):
            gram, member_gram, mean = moments(w, member, g, feats)
            coef, cache = head_outputs(u, c, gamma, member_gram, mean, bn=False)
            _, _, dcoef = _loss_from_arrays(coef, gram, s, mean, 0.0)
            return grad_head(dcoef, cache, mean, gamma)[0]

        # residual per channel is the constant c + s - g
        r = np.array([0.1 + 3.0 - 3.4, 0.1 + 3.0 - 2.6])
        se = 2.0 * np.abs(r)[:, None] * sigma * math.sqrt(n)
        assert np.all(np.abs(u_grad(noise)) < 4.0 * se)

        centered = noise - noise.mean(axis=0, keepdims=True)
        assert np.all(np.abs(u_grad(centered)) < 1e-7)


class TestGradientsAtRandomPoints:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6), st.sampled_from(RULES),
           st.sampled_from(("no head", "bn off", "bn per anchor")),
           st.floats(min_value=0.0, max_value=1.0), st.sampled_from(("one_minus_iou", "sq_l2_log")))
    # two-box BN groups, whose exact bias gradient is 0: the second-order
    # difference at eps 1e-6 read 1.2e-5 to 3.8e-5 there
    @example(625945107, 15, 4, "yolo", "bn per anchor", 0.0, "one_minus_iou")
    @example(2825252959, 24, 4, "yolo", "bn per anchor", 0.92633254300947, "one_minus_iou")
    @example(3654366265, 15, 4, "threshold", "bn per anchor", 0.15510643481692188, "one_minus_iou")
    # a two-box group whose float64 kernel read a c-gradient error of 1.8e-5
    @example(30000, 8, 5, "yolo", "bn per anchor", 0.0, "one_minus_iou")
    def test_match_finite_differences(self, seed, n, a, rule, mode, lam, metric):
        """Criterion 1's bound at drawn points: the anchor gradient of
        _loss_from_arrays and the head gradients of grad_head against
        central differences, under every rule, with and without the head."""
        rng = np.random.default_rng(seed)
        g = rng.uniform(np.log(8.0), np.log(300.0), size=(n, 2))
        s = rng.uniform(np.log(8.0), np.log(300.0), size=(a, 2))
        w, member = assign(rule, g, s, metric, temperature=float(rng.uniform(0.05, 2.0)))
        gram, _, mean = moments(w, member, g)
        coef = np.zeros((a, 2, 5))
        if mode != "no head":
            head = random_head(rng, a)
            features = make_features(g, 0.3, rng)
            bn = mode != "bn off"
            gram, member_gram, mean = moments(w, member, g, features)
            coef, _ = head_outputs(*head, member_gram, mean, bn=bn)
            assert head_fd_check(w, member, s, g, lam, head, features, bn) < 1e-5
        _, analytic, _ = _loss_from_arrays(coef, gram, s, mean, lam)
        numeric = fd_grad(lambda x: _loss_from_arrays(coef, gram, x, mean, lam)[0], s)
        assert rel_err(analytic, numeric) < 1e-5


class TestDeltaPlumbing:
    def test_zero_deltas_cover_assignment(self):
        """Zero offsets on every pair leave the weighted clustering distances."""
        rng = np.random.default_rng(50)
        for rule in RULES:
            w, _, s, g = random_case(rng, rule=rule)
            loss, _, _ = zero_offset_loss(w, s, g, 0.0)
            want = sum(
                w[j, k] * cluster_term(s[k], g[j])
                for j in range(w.shape[0]) for k in range(w.shape[1])
            )
            assert math.isclose(loss, want, rel_tol=1e-12)

    def test_deltas_from_array_alignment(self):
        """out[j, k] is the offset of ground truth j against anchor k."""
        s = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = np.array([[1.0, 0.0], [0.0, 2.0]])
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        # each anchor has one pair, so a constant map per anchor sets its offset
        out = np.array([[3.0, 4.0], [1.0, 2.0]])
        gram, _, mean = moments(w, w > 0.0, g)
        loss, _, _ = _loss_from_arrays(const_map(out), gram, s, mean, 0.0)
        want = (pair_loss((1.0, 2.0), (1.0, 1.0), (1.0, 0.0))
                + pair_loss((3.0, 4.0), (0.0, 0.0), (0.0, 2.0)))
        assert loss == want
