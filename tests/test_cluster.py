import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from anchorforge import (
    AnchorSet,
    anchors_from_centroids,
    init_identical,
    init_kmeans,
    init_uniform,
    kmeans_iou,
)
from anchorforge import cluster
from anchorforge.cluster import _seed_plus_plus, _update_step
from oracles import iou_matrix, iou_table, lloyd_assign_step, lloyd_iou_round, lloyd_kmeans_iou, seed_plus_plus_full


def shapes_from(wh):
    return np.array(wh, dtype=float).reshape(-1, 2)


def clustered_data(rng, modes, per_mode, spread=0.08):
    wh = []
    for mw, mh in modes:
        lw = rng.normal(math.log(mw), spread, size=per_mode)
        lh = rng.normal(math.log(mh), spread, size=per_mode)
        wh.append(np.exp(np.stack([lw, lh], axis=1)))
    return np.concatenate(wh)


class TestBestIou:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 8),
        tau=st.sampled_from([0.25, 0.5, 0.75]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_matrix(self, n, k, tau, seed):
        """Blocked column by column, with exact ties, the pass gives the full
        matrix's best, argmax, second best and per-column counts at tau."""
        rng = np.random.default_rng(seed)
        palette = np.clip(np.round(2.0 * np.exp(rng.normal(3.0, 1.0, size=(5, 2)))) / 2.0, 0.5, 416.0)
        wh, cents = palette[rng.integers(5, size=n)], palette[rng.integers(5, size=k)]
        # a box, or a box 2 or 4 times as wide: an IoU of exactly 1, 0.5 or 0.25 against it
        cents[0] = wh[rng.integers(n)] * (rng.choice([1.0, 2.0, 4.0]), 1.0)
        iou = iou_matrix(wh, cents)
        with mock.patch.object(cluster, "ASSIGN_BLOCK", 7):
            best, arg, second, hits = cluster.best_iou(wh, cents, tau)
            without_tau = cluster.best_iou(wh, cents)
        assert best.tobytes() == iou.max(axis=1).tobytes()
        np.testing.assert_array_equal(arg, iou.argmax(axis=1))
        np.testing.assert_array_equal(second, np.sort(iou, axis=1)[:, -2] if k > 1 else np.full(n, -np.inf))
        np.testing.assert_array_equal(hits, (iou >= tau).sum(axis=0))
        for got, want in zip(without_tau, (best, arg, second, np.zeros(k))):
            np.testing.assert_array_equal(got, want)


class TestKMeans:
    def test_single_cluster_mean(self):
        res = kmeans_iou(shapes_from([(2.0, 2.0), (4.0, 4.0)]), 1)
        np.testing.assert_array_equal(res.centroids, [[3.0, 3.0]])

    def test_validation(self):
        shapes = shapes_from([(2.0, 2.0), (4.0, 4.0)])
        with pytest.raises(ValueError):
            kmeans_iou(shapes, 0)
        with pytest.raises(ValueError):
            kmeans_iou(shapes, 3)
        with pytest.raises(ValueError):
            kmeans_iou(shapes, 2, init=shapes_from([(1.0, 1.0)]))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            kmeans_iou(np.ones((4, 3)), 2)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite, positive"):
                kmeans_iou(shapes_from([(2.0, 2.0), (4.0, bad)]), 1)

    @pytest.mark.parametrize("count", [True, 2.5, np.float64(2.0)])
    def test_cluster_count_must_be_an_integer(self, count):
        """num_clusters=True used to make one cluster and 2.5 to end in a bare TypeError."""
        with pytest.raises(ValueError) as info:
            kmeans_iou(shapes_from([(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)]), count)
        assert str(info.value) == f"num_clusters must be a positive integer, got {count!r}"

    def test_fixed_point_of_reference_lloyd(self):
        """One more assign/update round of an independent implementation
        must leave the returned centroids where they are."""
        rng = np.random.default_rng(51)
        for trial in range(10):
            wh = clustered_data(rng, [(20, 25), (70, 60), (180, 200)], 80)
            res = kmeans_iou(shapes_from(wh), 3, seed=trial)
            cents = res.centroids
            labels, new = lloyd_iou_round(wh, cents)
            np.testing.assert_allclose(new, cents, rtol=1e-9)
            np.testing.assert_array_equal(labels, res.assignments)

    def test_matches_reference_from_same_init(self):
        rng = np.random.default_rng(52)
        wh = clustered_data(rng, [(15, 18), (90, 70)], 120)
        init = shapes_from([(10.0, 10.0), (100.0, 100.0)])
        res = kmeans_iou(shapes_from(wh), 2, init=init)
        cents = init.copy()
        for _ in range(300):
            _, new = lloyd_iou_round(wh, cents)
            if np.array_equal(new, cents):
                break
            cents = new
        got = res.centroids
        np.testing.assert_allclose(got, cents, rtol=1e-12)

    def test_mean_best_iou_recomputed(self):
        rng = np.random.default_rng(53)
        wh = clustered_data(rng, [(30, 30), (120, 100)], 60)
        res = kmeans_iou(shapes_from(wh), 2, seed=1)
        cents = res.centroids
        want = float(iou_table(wh, cents).max(axis=1).mean())
        assert math.isclose(res.mean_best_iou, want, rel_tol=1e-12)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(54)
        wh = clustered_data(rng, [(25, 25), (60, 80), (150, 140)], 50)
        a = kmeans_iou(shapes_from(wh), 3, seed=9)
        b = kmeans_iou(shapes_from(wh), 3, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_empty_cluster_reseeded(self):
        """A degenerate seed that captures nothing gets moved onto data."""
        rng = np.random.default_rng(55)
        wh = clustered_data(rng, [(20, 20), (80, 80), (200, 220)], 40)
        init = shapes_from([(20.0, 20.0), (80.0, 80.0), (0.001, 0.001)])
        res = kmeans_iou(shapes_from(wh), 3, init=init)
        used = set(int(c) for c in res.assignments)
        assert used == {0, 1, 2}
        assert res.mean_best_iou > 0.8

    def test_more_clusters_cover_no_worse(self):
        rng = np.random.default_rng(56)
        wh = clustered_data(rng, [(20, 22), (60, 50), (140, 160), (300, 250)], 40)
        shapes = shapes_from(wh)
        scores = [kmeans_iou(shapes, k, seed=0).mean_best_iou for k in (1, 2, 4)]
        assert scores[0] < scores[1] < scores[2]

    def test_update_matches_loop_reference_exactly(self):
        """The vectorized centroid update sums members in the same order as
        a per-cluster masked mean, so one round lands on the same bits."""
        rng = np.random.default_rng(58)
        for trial in range(5):
            wh = clustered_data(rng, [(20, 25), (70, 60), (180, 200)], 200)
            cents = wh[rng.choice(len(wh), 3, replace=False)]
            res = kmeans_iou(wh, 3, init=cents, max_iter=1)
            labels, want = lloyd_iou_round(wh, cents)
            assert len(set(labels.tolist())) == 3
            np.testing.assert_array_equal(res.centroids, want)
            assert res.centroids.shape == (3, 2)

    def test_iterations_run_bounded(self):
        rng = np.random.default_rng(57)
        wh = clustered_data(rng, [(20, 20), (100, 100)], 30)
        res = kmeans_iou(shapes_from(wh), 2, max_iter=1, seed=0)
        assert res.iterations_run == 1


class TestMatchesLloyd:
    """The bounded assignment re-scores only shapes whose cluster can
    change, so every result must equal plain Lloyd's rounds bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 12),
        extra=st.integers(0, 150),
        distinct=st.integers(1, 40),
        max_iter=st.integers(0, 60),
        init_mode=st.sampled_from(["seeded", "drawn", "two_equal", "captures_nothing"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, k, extra, distinct, max_iter, init_mode, seed):
        rng = np.random.default_rng(seed)
        # few distinct shapes with sizes rounded to halves: many exact ties
        palette = np.maximum(np.round(2.0 * np.exp(rng.normal(3.0, 1.0, size=(distinct, 2)))) / 2.0, 0.5)
        wh = palette[rng.integers(distinct, size=k + extra)]
        init = None
        if init_mode != "seeded":
            init = wh[rng.integers(len(wh), size=k)]
            if k >= 2 and init_mode == "two_equal":
                init[1] = init[0]
            elif k >= 2 and init_mode == "captures_nothing":
                # IoU with any shape is below 1e-9, under any IoU between two shapes
                init[-1] = (wh[:, 0].min() * 1e-9, wh[:, 1].max() * 1e9)
                assert (lloyd_assign_step(wh, init) != k - 1).all()
        got = kmeans_iou(wh, k, init=init, max_iter=max_iter, seed=seed)
        start = init if init is not None else _seed_plus_plus(wh, k, np.random.default_rng(seed))
        cents, assignments, mean_best, iterations_run = lloyd_kmeans_iou(wh, start, max_iter, _update_step)
        np.testing.assert_array_equal(got.centroids, cents)
        np.testing.assert_array_equal(got.assignments, assignments)
        assert got.mean_best_iou == mean_best
        assert got.iterations_run == iterations_run

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 12),
        extra=st.integers(0, 150),
        distinct=st.integers(1, 40),
        max_iter=st.integers(0, 60),
        captures_nothing=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_best_iou_is_the_full_pass(self, k, extra, distinct, max_iter, captures_nothing, seed):
        """The mean best IoU, read from each shape's own centroid, equals a
        full best_iou pass over the final centroids bit for bit, also on
        exact ties and after an empty cluster is re-seeded."""
        rng = np.random.default_rng(seed)
        palette = np.maximum(np.round(2.0 * np.exp(rng.normal(3.0, 1.0, size=(distinct, 2)))) / 2.0, 0.5)
        wh = palette[rng.integers(distinct, size=k + extra)]
        init = None
        if captures_nothing:
            init = wh[rng.integers(len(wh), size=k)]
            init[-1] = (wh[:, 0].min() * 1e-9, wh[:, 1].max() * 1e9)
        got = kmeans_iou(wh, k, init=init, max_iter=max_iter, seed=seed)
        assert got.mean_best_iou == float(cluster.best_iou(wh, got.centroids)[0].mean())

    @pytest.mark.parametrize("k, max_iter", [(9, 40), (5, 300), (3, 2), (9, 0)])
    @pytest.mark.parametrize("dataset", ["mixture2", "mixture3", "pixel_corners"])
    def test_mean_best_iou_on_the_synthetic_sets(self, dataset, k, max_iter):
        wh = getattr(synth, dataset)().shapes()
        got = kmeans_iou(wh, k, max_iter=max_iter, seed=0)
        assert got.mean_best_iou == float(cluster.best_iou(wh, got.centroids)[0].mean())


class TestSeeding:
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_matches_full_matrix_seeding(self, k):
        """The running best IoU draws the same seeds, bit for bit, as
        rebuilding the IoU matrix against every seed chosen so far."""
        for seed in range(6):
            wh = np.exp(np.random.default_rng(100 + seed).normal(3.0, 1.0, size=(500, 2)))
            got = _seed_plus_plus(wh, k, np.random.default_rng(seed))
            want = seed_plus_plus_full(wh, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)

    def test_duplicates_fall_back_to_unchosen(self):
        """When every shape equals a chosen seed, the next seed is the first unchosen index."""
        wh = np.tile([[10.0, 20.0]], (6, 1))
        got = _seed_plus_plus(wh, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(got, seed_plus_plus_full(wh, 3, np.random.default_rng(0)))


class TestInits:
    def test_uniform_shapes(self):
        anchors = init_uniform(stride=32)
        got = anchors.wh()
        want = [(96.0, 96.0), (96.0, 288.0), (288.0, 288.0), (288.0, 96.0), (192.0, 192.0)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert anchors.stride == 32

    def test_uniform_scales_with_stride(self):
        got = init_uniform(stride=16).wh().tolist()
        assert got[0] == pytest.approx((48.0, 48.0), rel=1e-12)

    def test_identical_all_same(self):
        anchors = init_identical(stride=32, num_anchors=5)
        log_wh = anchors.log_wh
        assert (log_wh == log_wh[0]).all()
        assert tuple(anchors.wh()[0]) == pytest.approx((160.0, 160.0), rel=1e-12)
        assert len(anchors) == 5

    def test_identical_validation(self):
        with pytest.raises(ValueError):
            init_identical(num_anchors=0)

    @pytest.mark.parametrize("count", [True, 2.5, np.float64(2.0)])
    def test_identical_count_must_be_an_integer(self, count):
        """num_anchors=True used to build one anchor and 2.5 to end in a bare TypeError."""
        with pytest.raises(ValueError) as info:
            init_identical(32, count)
        assert str(info.value) == f"num_anchors must be a positive integer, got {count!r}"

    def test_centroids_sorted_as_anchor_sets_sort(self):
        """A pair whose products w * h are equal in floating point while
        their sums log w + log h order it the other way: ascending area
        has one definition, AnchorSet.sorted_by_area's."""
        centroids = np.array([[183.95755385131807, 220.20148549027954], [165.36937248229975, 244.95301649375287]])
        want = AnchorSet.from_linear(centroids).sorted_by_area().log_wh
        np.testing.assert_array_equal(anchors_from_centroids(centroids).log_wh, want)

    def test_kmeans_init_sorted_by_area(self, mixture3_ds):
        anchors = init_kmeans(mixture3_ds, num_anchors=3, seed=0)
        areas = np.prod(anchors.wh(), axis=1).tolist()
        assert areas == sorted(areas)
        assert len(anchors) == 3

    def test_kmeans_init_finds_modes(self, mixture3_ds):
        """On three tight clusters the centroids land near the means."""
        anchors = init_kmeans(mixture3_ds, num_anchors=3, seed=0)
        got = sorted(map(tuple, anchors.wh().tolist()))
        for (w, h), (mw, mh) in zip(got, [(20, 24), (72, 58), (190, 210)]):
            assert abs(math.log(w / mw)) < 0.05
            assert abs(math.log(h / mh)) < 0.05
