import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from anchorforge import (
    BN_EPS,
    HeadParams,
    WarmupSchedule,
    grad_head,
    hard_assign_threshold,
    hard_assign_yolo,
    head_outputs,
    make_features,
    soft_assign,
)
from anchorforge.lossgrad import _loss_from_arrays
from oracles import cluster_term, fd_grad, head_loss_longhand, pair_loss, rel_err

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


def kernel_loss(w, member, s, g, lam, head=None, features=None, bn=True, per_anchor=True):
    if head is None:
        out = np.zeros(w.shape + (2,))
    else:
        out, _ = head_outputs(*head, features, member, bn=bn, bn_per_anchor=per_anchor)
    return _loss_from_arrays(out, w, s, g, lam)[0]


def head_fd_check(w, member, s, g, lam, head, features, bn, per_anchor):
    """Worst relative error of the head gradients against finite differences."""
    u, c, gamma = head
    out, cache = head_outputs(u, c, gamma, features, member, bn=bn, bn_per_anchor=per_anchor)
    _, _, dout = _loss_from_arrays(out, w, s, g, lam)
    analytic = grad_head(dout, cache, features, member, gamma)

    def f_u(x):
        return kernel_loss(w, member, s, g, lam, (x, c, gamma), features, bn, per_anchor)

    def f_c(x):
        return kernel_loss(w, member, s, g, lam, (u, x, gamma), features, bn, per_anchor)

    def f_gamma(x):
        return kernel_loss(w, member, s, g, lam, (u, c, x), features, bn, per_anchor)

    return max(
        rel_err(analytic.u, fd_grad(f_u, u)),
        rel_err(analytic.c, fd_grad(f_c, c)),
        rel_err(analytic.gamma, fd_grad(f_gamma, gamma)),
    )


def one_pair_loss(delta, anchor, gt, lam=0.0):
    """The kernel's loss for a single (ground truth, anchor) pair of weight 1."""
    out = np.array([[delta]], dtype=float)
    return _loss_from_arrays(out, np.ones((1, 1)), np.array([anchor], dtype=float),
                             np.array([gt], dtype=float), lam)[0]


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
        loss, _, _ = _loss_from_arrays(np.zeros((1, 1, 2)), w, np.zeros((1, 2)),
                                       np.array([[1.0, 0.0]]), 1.0)
        assert loss == 1.5

    def test_empty_assignment_is_zero(self):
        loss, grad, dout = _loss_from_arrays(np.zeros((0, 1, 2)), np.zeros((0, 1)),
                                             np.zeros((1, 2)), np.zeros((0, 2)), 1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)
        assert dout.shape == (0, 1, 2)

    def test_all_zero_weights_is_zero(self):
        g = np.array([[1.0, 1.0], [2.0, 2.0]])
        loss, _, _ = _loss_from_arrays(np.zeros((2, 1, 2)), np.zeros((2, 1)),
                                       np.zeros((1, 2)), g, 1.0)
        assert loss == 0.0

    def test_cluster_weight_validation(self):
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError):
                _loss_from_arrays(np.zeros((1, 1, 2)), np.ones((1, 1)), np.zeros((1, 2)),
                                  np.array([[1.0, 0.0]]), lam)


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
                w, _, s, g = random_case(rng, rule=rule)
                out = rng.normal(0.0, 0.3, size=w.shape + (2,))

                def f(arr):
                    return _loss_from_arrays(out, w, arr, g, lam)[0]

                _, analytic, _ = _loss_from_arrays(out, w, s, g, lam)
                assert rel_err(analytic, fd_grad(f, s)) < 1e-6

    def test_unassigned_anchor_row_is_zero(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        s = np.array([[0.0, 0.0], [9.0, 9.0]])
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, grad, _ = _loss_from_arrays(np.zeros((2, 2, 2)), w, s, g, 0.5)
        np.testing.assert_array_equal(grad[1], 0.0)
        assert np.any(grad[0] != 0.0)

    def test_hand_worked_single_pair(self):
        # residual (s - g) = (-1, 0); grad = 2 r + lam/N * r with N = 1
        _, grad, _ = _loss_from_arrays(np.zeros((1, 1, 2)), np.ones((1, 1)), np.zeros((1, 2)),
                                       np.array([[1.0, 0.0]]), 1.0)
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
                _, grad, _ = _loss_from_arrays(np.zeros(w.shape + (2,)), w, s, g, lam)
                numeric = fd_grad(lambda arr: _loss_from_arrays(
                    np.zeros(w.shape + (2,)), w, arr, g, lam)[0], s)
                assert rel_err(grad, numeric) < 1e-6
                feats = make_features(g, 0.4, rng)
                for bn, per_anchor in ((False, True), (True, True), (True, False)):
                    head = random_head(rng, 4)
                    assert head_fd_check(w, member, s, g, lam, head, feats, bn, per_anchor) < 1e-6


def batch_norm(x, gamma):
    """A 1-D batch through the head's normalization: one anchor, identity
    map, zero bias, every value a member. Returns the output and istd."""
    features = np.column_stack([x, x])
    member = np.ones((len(x), 1), dtype=bool)
    out, cache = head_outputs(np.eye(2)[None], np.zeros((1, 2)), np.full((1, 2), gamma),
                              features, member, bn=True, bn_per_anchor=True)
    return out[:, 0, 0], float(cache[1][0, 0, 0])


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
        rng = np.random.default_rng(36)
        p = HeadParams.initial(4, sigma=0.5, init_scale=0.2, rng=rng)
        assert p.u.shape == (4, 2, 2)
        np.testing.assert_array_equal(p.c, 0.0)
        np.testing.assert_array_equal(p.gamma, 1.0)
        assert p.sigma == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadParams(np.zeros((2, 2, 2)), np.zeros((3, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            HeadParams(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            HeadParams(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.ones((2, 2)), sigma=-1.0)

    def test_make_features_sigma_zero_copies(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        feats = make_features(g, 0.0)
        np.testing.assert_array_equal(feats, g)
        assert feats is not g
        feats[0, 0] = 99.0
        assert g[0, 0] == 1.0

    def test_make_features_needs_rng_when_noisy(self):
        with pytest.raises(ValueError):
            make_features(np.zeros((2, 2)), 1.0)

    def test_make_features_noise_scale(self):
        rng = np.random.default_rng(37)
        g = np.zeros((20_000, 2))
        feats = make_features(g, 2.5, rng)
        assert abs(float(np.std(feats)) - 2.5) < 0.05

    def test_head_forward_affine(self):
        """Without BN the offset of pair (j, k) is u[k] @ features[j] + c[k]."""
        rng = np.random.default_rng(38)
        p = HeadParams.initial(2, sigma=0.0, init_scale=0.3, rng=rng)
        p.c = rng.normal(0.0, 0.5, size=(2, 2))
        feats = np.array([[1.5, -0.5], [0.25, 2.0]])
        out, cache = head_outputs(p.u, p.c, p.gamma, feats, np.ones((2, 2), dtype=bool), bn=False)
        assert cache is None
        for j in range(2):
            for k in range(2):
                want = p.u[k] @ feats[j] + p.c[k]
                np.testing.assert_allclose(out[j, k], want, rtol=1e-12)

    def test_head_outputs_matches_single(self):
        """The batched forward pass equals the pair-at-a-time longhand oracle."""
        rng = np.random.default_rng(39)
        g = rng.normal(0.0, 1.0, size=(10, 2))
        s = rng.normal(0.0, 1.0, size=(3, 2))
        head = random_head(rng, 3)
        feats = make_features(g, 0.0)
        for rule in RULES:
            w, member = assign(rule, g, s)
            for bn, per_anchor in ((False, True), (True, True), (True, False)):
                out, _ = head_outputs(*head, feats, member, bn=bn, bn_per_anchor=per_anchor)
                _, offsets = head_loss_longhand(w, member, s, g, 0.0, head, feats, bn, per_anchor)
                for (j, k), want in offsets.items():
                    np.testing.assert_allclose(out[j, k], want, rtol=1e-9, atol=1e-12)

    def test_bn_groups_normalize_per_anchor(self):
        rng = np.random.default_rng(40)
        p = HeadParams.initial(2, sigma=0.0, init_scale=1.0, rng=rng)
        g = rng.normal(0.0, 1.0, size=(40, 2))
        feats = make_features(g, 0.0)
        member = np.zeros((40, 2), dtype=bool)
        member[:25, 0] = True
        member[25:, 1] = True
        out, _ = head_outputs(p.u, p.c, p.gamma, feats, member, bn=True, bn_per_anchor=True)
        raw, _ = head_outputs(p.u, p.c, p.gamma, feats, member, bn=False)
        for k, rows in ((0, slice(0, 25)), (1, slice(25, 40))):
            for ch in (0, 1):
                assert abs(float(np.mean(out[rows, k, ch]))) < 1e-10
                var = float(np.var(raw[rows, k, ch]))
                assert math.isclose(float(np.var(out[rows, k, ch])), var / (var + BN_EPS), rel_tol=1e-9)

    def test_bn_sub2_group_passes_through(self):
        """A lone pair for an anchor is left raw rather than normalized to 0,
        and its scale gets no gradient."""
        rng = np.random.default_rng(41)
        p = HeadParams.initial(2, sigma=0.0, init_scale=1.0, rng=rng)
        g = rng.normal(0.0, 1.0, size=(5, 2))
        feats = make_features(g, 0.0)
        w = np.zeros((5, 2))
        w[:4, 0] = 1.0
        w[4, 1] = 1.0
        member = w > 0.0
        s = rng.normal(0.0, 1.0, size=(2, 2))
        for per_anchor in (True, False):
            out, cache = head_outputs(p.u, p.c, p.gamma, feats, member, bn=True,
                                      bn_per_anchor=per_anchor)
            if per_anchor:
                raw_last = p.u[1] @ feats[4] + p.c[1]
                np.testing.assert_allclose(out[4, 1], raw_last, rtol=1e-12)
            _, _, dout = _loss_from_arrays(out, w, s, g, 0.0)
            grads = grad_head(dout, cache, feats, member, p.gamma)
            if per_anchor:
                np.testing.assert_array_equal(grads.gamma[1], 0.0)
            assert np.all(grads.gamma[0] != 0.0)
            assert head_fd_check(w, member, s, g, 0.0, (p.u, p.c, p.gamma), feats,
                                 True, per_anchor) < 1e-6

    def test_bn_joint_mode_shares_statistics(self):
        rng = np.random.default_rng(42)
        p = HeadParams.initial(2, sigma=0.0, init_scale=1.0, rng=rng)
        g = rng.normal(0.0, 1.0, size=(30, 2))
        feats = make_features(g, 0.0)
        member = np.zeros((30, 2), dtype=bool)
        member[np.arange(30), np.tile([0, 1], 15)] = True
        out, _ = head_outputs(p.u, p.c, p.gamma, feats, member, bn=True, bn_per_anchor=False)
        raw, _ = head_outputs(p.u, p.c, p.gamma, feats, member, bn=False)
        for ch in (0, 1):
            x = raw[member][:, ch]
            want = (x - x.mean()) / math.sqrt(x.var() + BN_EPS)
            np.testing.assert_allclose(out[member][:, ch], want, rtol=1e-9, atol=1e-12)
            # gamma is 1 everywhere initially, so the joint batch has zero mean
            assert abs(float(np.mean(out[member][:, ch]))) < 1e-10


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
                for bn, per_anchor in ((False, True), (True, True), (True, False)):
                    want, _ = head_loss_longhand(w, member, s, g, lam, head, feats, bn, per_anchor)
                    got = kernel_loss(w, member, s, g, lam, head, feats, bn, per_anchor)
                    assert math.isclose(got, want, rel_tol=1e-9)

    def test_soft_floor_zero_weights_stay_in_groups(self):
        """At the temperature floor with sq_l2_log some softmax weights are
        exactly 0. Those pairs still belong to their anchor's BN group: the
        normalization statistics are taken over every ground truth."""
        rng = np.random.default_rng(48)
        g = rng.uniform(np.log(8.0), np.log(300.0), size=(20, 2))
        s = rng.uniform(np.log(8.0), np.log(300.0), size=(5, 2))
        floor = WarmupSchedule().temp_floor
        w, member = assign("soft", g, s, "sq_l2_log", floor)
        assert np.any(w == 0.0) and np.all(member)
        feats = make_features(g, 0.3, rng)
        head = random_head(rng, 5)
        for per_anchor in (True, False):
            want, offsets = head_loss_longhand(w, member, s, g, 0.3, head, feats, True, per_anchor)
            out, _ = head_outputs(*head, feats, member, bn=True, bn_per_anchor=per_anchor)
            assert math.isclose(_loss_from_arrays(out, w, s, g, 0.3)[0], want, rel_tol=1e-9)
            for (j, k), value in offsets.items():
                np.testing.assert_allclose(out[j, k], value, rtol=1e-9, atol=1e-12)
            # membership read off w > 0 would change the groups and the loss
            wrong, _ = head_loss_longhand(w, w > 0.0, s, g, 0.3, head, feats, True, per_anchor)
            assert not math.isclose(wrong, want, rel_tol=1e-9)
            assert head_fd_check(w, member, s, g, 0.3, head, feats, True, per_anchor) < 1e-6


class TestHeadGradients:
    @pytest.mark.parametrize("bn,per_anchor", [(False, True), (True, True), (True, False)])
    @pytest.mark.parametrize("soft", [False, True])
    def test_matches_finite_differences(self, bn, per_anchor, soft):
        rng = np.random.default_rng(43)
        for _ in range(5):
            for rule in ("soft",) if soft else ("yolo", "threshold"):
                w, member, s, g = random_case(rng, n_gt=14, n_anchor=3, rule=rule)
                head = random_head(rng, 3)
                feats = make_features(g, 0.6, rng)
                for lam in (0.0, 0.5):
                    assert head_fd_check(w, member, s, g, lam, head, feats, bn, per_anchor) < 1e-6

    def test_cluster_term_never_touches_head(self):
        rng = np.random.default_rng(44)
        w, member, s, g = random_case(rng)
        u, c, gamma = random_head(rng, 3)
        feats = make_features(g, 0.0)
        out, cache = head_outputs(u, c, gamma, feats, member)
        _, _, d0 = _loss_from_arrays(out, w, s, g, 0.0)
        _, _, d1 = _loss_from_arrays(out, w, s, g, 1.0)
        np.testing.assert_array_equal(d0, d1)
        a = grad_head(d0, cache, feats, member, gamma)
        b = grad_head(d1, cache, feats, member, gamma)
        np.testing.assert_array_equal(a.u, b.u)

    def test_empty_assignment_zero_grads(self):
        u, c, gamma = random_head(np.random.default_rng(49), 2)
        member = np.zeros((0, 2), dtype=bool)
        feats = np.zeros((0, 2))
        out, cache = head_outputs(u, c, gamma, feats, member)
        _, _, dout = _loss_from_arrays(out, np.zeros((0, 2)), np.zeros((2, 2)), feats, 0.5)
        grads = grad_head(dout, cache, feats, member, gamma)
        np.testing.assert_array_equal(grads.u, 0.0)
        np.testing.assert_array_equal(grads.c, 0.0)
        np.testing.assert_array_equal(grads.gamma, 0.0)

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
            out, cache = head_outputs(u, c, gamma, feats, member, bn=False)
            _, _, dout = _loss_from_arrays(out, w, s, g, 0.0)
            return grad_head(dout, cache, feats, member, gamma).u

        # residual per channel is the constant c + s - g
        r = np.array([0.1 + 3.0 - 3.4, 0.1 + 3.0 - 2.6])
        se = 2.0 * np.abs(r)[:, None] * sigma * math.sqrt(n)
        assert np.all(np.abs(u_grad(noise)) < 4.0 * se)

        centered = noise - noise.mean(axis=0, keepdims=True)
        assert np.all(np.abs(u_grad(centered)) < 1e-7)


class TestGradientsAtRandomPoints:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6), st.sampled_from(RULES),
           st.sampled_from(("no head", "bn off", "bn per anchor", "bn joint")),
           st.floats(min_value=0.0, max_value=1.0), st.sampled_from(("one_minus_iou", "sq_l2_log")))
    def test_match_finite_differences(self, seed, n, a, rule, mode, lam, metric):
        """Criterion 1's bound at drawn points: the anchor gradient of
        _loss_from_arrays and the head gradients of grad_head against
        central differences, under every rule, with and without the head."""
        rng = np.random.default_rng(seed)
        g = rng.uniform(np.log(8.0), np.log(300.0), size=(n, 2))
        s = rng.uniform(np.log(8.0), np.log(300.0), size=(a, 2))
        w, member = assign(rule, g, s, metric, temperature=float(rng.uniform(0.05, 2.0)))
        out = np.zeros(w.shape + (2,))
        if mode != "no head":
            head = random_head(rng, a)
            features = make_features(g, 0.3, rng)
            bn, per_anchor = mode != "bn off", mode != "bn joint"
            out, _ = head_outputs(*head, features, member, bn=bn, bn_per_anchor=per_anchor)
            assert head_fd_check(w, member, s, g, lam, head, features, bn, per_anchor) < 1e-5
        _, analytic, _ = _loss_from_arrays(out, w, s, g, lam)
        numeric = fd_grad(lambda x: _loss_from_arrays(out, w, x, g, lam)[0], s)
        assert rel_err(analytic, numeric) < 1e-5


class TestDeltaPlumbing:
    def test_zero_deltas_cover_assignment(self):
        """Zero offsets on every pair leave the weighted clustering distances."""
        rng = np.random.default_rng(50)
        for rule in RULES:
            w, _, s, g = random_case(rng, rule=rule)
            loss, _, _ = _loss_from_arrays(np.zeros(w.shape + (2,)), w, s, g, 0.0)
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
        out = np.zeros((2, 2, 2))
        out[0, 1] = [1.0, 2.0]
        out[1, 0] = [3.0, 4.0]
        loss, _, _ = _loss_from_arrays(out, w, s, g, 0.0)
        want = (pair_loss((1.0, 2.0), (1.0, 1.0), (1.0, 0.0))
                + pair_loss((3.0, 4.0), (0.0, 0.0), (0.0, 2.0)))
        assert loss == want

    def test_deltas_from_array_shape_check(self):
        with pytest.raises(ValueError, match=r"\(1, 1, 2\)"):
            _loss_from_arrays(np.zeros((2, 2)), np.ones((1, 1)), np.zeros((1, 2)),
                              np.zeros((1, 2)), 0.0)
