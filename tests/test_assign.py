import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorforge import AnchorSet
from anchorforge.assign import LAMBDA_START, TEMP_FLOOR, TEMP_START, cluster_weight_at, temperature_at
from anchorforge.lossgrad import _loss_from_arrays, grad_head, head_outputs
from oracles import (
    batch_moments,
    hard_assign_threshold,
    hard_assign_yolo,
    iou_of_wh,
    moment_rows,
    shape_dist,
    soft_assign,
    softmax_rows,
    utilization_counts,
)


def random_log_shapes(rng, n):
    return rng.normal(3.0, 1.0, size=(n, 2))


class TestAssignment:
    """The dense (n, A) weight matrix every rule returns."""

    RULES = (
        lambda g, s: hard_assign_yolo(g, s, "sq_l2_log"),
        lambda g, s: hard_assign_threshold(g, s, 0.4),
        lambda g, s: soft_assign(g, s, "one_minus_iou", 0.5),
    )

    def test_canonical_order(self):
        """Column k belongs to anchor k: reordering the anchors reorders W's columns
        (up to rounding, since a softmax row then sums in another order)."""
        rng = np.random.default_rng(20)
        for rule in self.RULES:
            g = rng.normal(3.0, 1.0, size=(12, 2))
            s = rng.normal(3.0, 1.0, size=(4, 2))
            perm = rng.permutation(4)
            np.testing.assert_allclose(rule(g, s[perm]), rule(g, s)[:, perm], rtol=1e-14, atol=0)

    def test_same_entries_any_order(self):
        """Row j belongs to ground truth j: reordering the gts reorders W's rows, bit for bit."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            g = rng.normal(3.0, 1.0, size=(m, 2))
            s = rng.normal(3.0, 1.0, size=(int(rng.integers(1, 6)), 2))
            perm = rng.permutation(m)
            for rule in self.RULES:
                np.testing.assert_array_equal(rule(g[perm], s), rule(g, s)[perm])

    def test_arrays_are_read_only(self):
        """Neither the rules nor the training stages write to W or to their inputs."""
        rng = np.random.default_rng(19)
        g = rng.normal(3.0, 1.0, size=(10, 2))
        s = rng.normal(3.0, 1.0, size=(3, 2))
        u = rng.normal(0.0, 0.3, size=(3, 2, 2))
        c = np.zeros((3, 2))
        gamma = np.ones((3, 2))
        rows = moment_rows(g, g)
        for a in (g, s, u, c, gamma, rows):
            a.setflags(write=False)
        for soft, rule in zip((False, False, True), self.RULES):
            w = rule(g, s)
            w.setflags(write=False)
            moments = batch_moments(rows, w, soft)
            for a in moments:
                a.setflags(write=False)
            gram, member_gram, mean = moments
            coef, cache = head_outputs(u, c, gamma, member_gram, mean, bn=True)
            coef.setflags(write=False)
            _, _, dcoef = _loss_from_arrays(coef, gram, s, mean, 0.5)
            dcoef.setflags(write=False)
            grad_head(dcoef, cache, mean, gamma)
            utilization_counts(w, soft)

    def test_empty_ok(self):
        for rule in self.RULES:
            w = rule(np.zeros((0, 2)), np.zeros((3, 2)))
            assert w.shape == (0, 3)
            np.testing.assert_array_equal(utilization_counts(w), [0, 0, 0])


class TestHardYolo:
    def test_each_gt_once_with_weight_one(self):
        rng = np.random.default_rng(22)
        s = rng.normal(3.0, 1.0, size=(4, 2))
        for _ in range(20):
            gts = random_log_shapes(rng, int(rng.integers(1, 40)))
            w = hard_assign_yolo(gts, s)
            assert w.shape == (len(gts), 4)
            assert set(np.unique(w)) <= {0.0, 1.0}
            np.testing.assert_array_equal(w.sum(axis=1), 1.0)

    def test_picks_nearest(self):
        rng = np.random.default_rng(23)
        anchors = AnchorSet.from_array(rng.normal(3.0, 1.0, size=(5, 2)))
        for metric in ("one_minus_iou", "sq_l2_log"):
            gts = random_log_shapes(rng, 25)
            w = hard_assign_yolo(gts, anchors.log_wh, metric)
            for j, k in zip(*np.nonzero(w)):
                dists = [shape_dist(gts[j], s, metric) for s in anchors.log_wh]
                assert dists[k] == min(dists)

    def test_tie_goes_to_lowest_index(self):
        # two identical anchors: index 0 must win every time
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        w = hard_assign_yolo(np.array([[0.0, 0.0], [2.0, 2.0]]), s)
        np.testing.assert_array_equal(w, [[1.0, 0.0], [1.0, 0.0]])

    def test_empty_gts(self):
        assert hard_assign_yolo(np.zeros((0, 2)), np.zeros((1, 2))).shape == (0, 1)


class TestHardThreshold:
    def test_includes_all_above_tau_and_best(self):
        rng = np.random.default_rng(24)
        anchors = AnchorSet.from_array(rng.normal(3.0, 0.7, size=(5, 2)))
        shapes = anchors.wh()
        for _ in range(20):
            gts = random_log_shapes(rng, 30)
            tau = float(rng.uniform(0.3, 0.7))
            w = hard_assign_threshold(gts, anchors.log_wh, tau)
            for j, g in enumerate(gts):
                d = (math.exp(g[0]), math.exp(g[1]))
                ious = [iou_of_wh(d, s) for s in shapes]
                want = {k for k, v in enumerate(ious) if v >= tau}
                want.add(int(np.argmax(ious)))
                assert set(np.flatnonzero(w[j])) == want
            assert set(np.unique(w)) <= {0.0, 1.0}

    def test_no_gt_unassigned(self):
        """Even a gt below tau for every anchor gets its best anchor."""
        w = hard_assign_threshold(np.array([[5.0, 5.0]]), np.zeros((1, 2)), 0.9)
        np.testing.assert_array_equal(w, [[1.0]])

    def test_tau_near_bounds(self):
        """Near 0 every anchor clears tau; near 1 only the best one does,
        which is the yolo rule under the IoU metric."""
        rng = np.random.default_rng(27)
        g, s = random_log_shapes(rng, 40), random_log_shapes(rng, 5)
        np.testing.assert_array_equal(hard_assign_threshold(g, s, 1e-9), np.ones((40, 5)))
        np.testing.assert_array_equal(hard_assign_threshold(g, s, 1.0 - 1e-9), hard_assign_yolo(g, s, "one_minus_iou"))


class TestSoftAssign:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(25)
        s = rng.normal(3.0, 1.0, size=(6, 2))
        for _ in range(20):
            gts = random_log_shapes(rng, int(rng.integers(1, 30)))
            temp = float(rng.uniform(0.05, 5.0))
            w = soft_assign(gts, s, "sq_l2_log", temp)
            assert w.shape == (len(gts), 6)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 9),
           st.floats(min_value=1e-3, max_value=1e3), st.sampled_from(["one_minus_iou", "sq_l2_log"]))
    def test_rows_sum_to_one_any_temperature(self, seed, n, a, temp, metric):
        rng = np.random.default_rng(seed)
        g = rng.normal(3.0, 1.5, size=(n, 2))
        s = rng.normal(3.0, 1.5, size=(a, 2))
        w = soft_assign(g, s, metric, temp)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_known_two_anchor_weights(self):
        """Distances (0, ln 3) at temperature 1 give weights (3/4, 1/4)."""
        s = np.array([[0.0, 0.0], [math.sqrt(math.log(3.0)), 0.0]])
        w = soft_assign(np.zeros((1, 2)), s, "sq_l2_log", 1.0)
        assert math.isclose(w[0, 0], 0.75, rel_tol=1e-12)
        assert math.isclose(w[0, 1], 0.25, rel_tol=1e-12)

    def test_matches_reference_softmax(self):
        rng = np.random.default_rng(26)
        s = rng.normal(3.0, 1.0, size=(4, 2))
        from anchorforge.geometry import shape_dist_matrix

        for _ in range(20):
            g = rng.normal(3.0, 1.0, size=(8, 2))
            temp = float(rng.uniform(0.05, 3.0))
            want = softmax_rows(-shape_dist_matrix(g, s) / temp)
            np.testing.assert_allclose(soft_assign(g, s, "sq_l2_log", temp), want, rtol=0, atol=1e-12)

    def test_extreme_distances_stay_finite(self):
        s = np.array([[-50.0, -50.0], [50.0, 50.0]])
        w = soft_assign(np.array([[50.0, 50.0]]), s, "sq_l2_log", 0.01)
        assert np.all(np.isfinite(w))
        assert math.isclose(float(w.sum()), 1.0, abs_tol=1e-12)


class TestWarmupSchedules:
    def test_temperature_endpoints(self):
        assert temperature_at(0, 1500) == TEMP_START == 2.0
        assert temperature_at(750, 1500) == 1.0
        assert temperature_at(1500, 1500) is None
        assert temperature_at(10_000, 1500) is None

    def test_temperature_floor(self):
        assert temperature_at(999, 1000) == TEMP_FLOOR

    def test_temperature_monotone_nonincreasing(self):
        values = [temperature_at(t, 200) for t in range(200)]
        assert all(v is not None for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_warmup_disables_both(self):
        assert temperature_at(0, 0) is None
        assert cluster_weight_at(0, 0) == 0.0

    def test_cluster_weight_decay(self):
        assert cluster_weight_at(0, 1500) == LAMBDA_START == 1.0
        assert math.isclose(cluster_weight_at(750, 1500), 0.5)
        assert cluster_weight_at(1500, 1500) == 0.0
        assert cluster_weight_at(99_999, 1500) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))
    def test_temperature_between_floor_and_start(self, case):
        """Inside the warm-up the temperature is positive, as soft_assign needs."""
        t, warmup_iters = case
        assert TEMP_FLOOR <= temperature_at(t, warmup_iters) <= TEMP_START

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**7), st.integers(0, 10**6))
    def test_cluster_weight_between_zero_and_start(self, t, warmup_iters):
        assert 0.0 <= cluster_weight_at(t, warmup_iters) <= LAMBDA_START


class TestUtilization:
    def test_hard_counts_every_entry(self):
        w = np.array([[1.0, 0, 0, 0], [1.0, 0, 1.0, 0], [0, 0, 1.0, 0]])
        np.testing.assert_array_equal(utilization_counts(w), [2, 0, 2, 0])

    def test_yolo_counts_sum_to_n(self):
        rng = np.random.default_rng(27)
        s = rng.normal(3.0, 1.0, size=(3, 2))
        gts = random_log_shapes(rng, 50)
        assert utilization_counts(hard_assign_yolo(gts, s)).sum() == 50

    def test_soft_counts_argmax_per_gt(self):
        w = np.array([[0.3, 0.7], [0.6, 0.4]])
        np.testing.assert_array_equal(utilization_counts(w, soft=True), [1, 1])

    def test_soft_tie_to_lowest_anchor(self):
        w = np.array([[0.5, 0.5]])
        np.testing.assert_array_equal(utilization_counts(w, soft=True), [1, 0])
