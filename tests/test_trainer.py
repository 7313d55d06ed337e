import dataclasses
import math

import numpy as np
import pytest

import synth
from anchorforge import (
    AnchorSet,
    CanonicalDataset,
    NonFiniteLossError,
    TrainConfig,
    run_training,
)
from anchorforge.assign import TEMP_START, soft_assign
from anchorforge.lossgrad import initial_head, make_features
from anchorforge.trainer import _RANGES
from oracles import head_loss_longhand, lr_at, sgd_step

VOC_SCHEDULE = ((0, 1e-4), (100, 1e-3), (15000, 1e-4), (27000, 1e-5))


def tiny_ds(seed=3):
    return synth.lognormal_mixture([(40.0, 50.0), (120.0, 100.0)], 0.15, [150, 150], seed=seed)


def small_cfg(**kw):
    base = dict(
        iters=300,
        batch_size=32,
        lr_schedule=((0, 1e-2), (150, 1e-3)),
        warmup_iters=60,
        metric="sq_l2_log",
        head=False,
        seed=0,
        log_every=25,
    )
    base.update(kw)
    return TrainConfig(**base)


def start_anchors():
    return AnchorSet.from_linear([[30.0, 30.0], [150.0, 150.0]])


class TestMomentumUpdate:
    @pytest.mark.parametrize("momentum, mult", [(0.0, 1.0), (0.9, 1.0), (0.0, 0.37), (0.9, 0.37), (0.9, 0.0)])
    def test_anchor_follows_heavy_ball_recurrence(self, momentum, mult):
        """One anchor, no head and no clustering term, on boxes of one shape
        g: every box in a batch of B has weight 1, so the anchor gradient is
        2 B (s - log g), and the logged anchor must follow v <- m v + grad,
        s <- s - lr_t mult v with lr_t from the schedule. Frozen anchors
        (mult 0) never get a gradient and stay put."""
        frozen = mult == 0.0
        n, batch, box = 8, 4, (30.0, 60.0)
        centers = np.full(n, 200.0)
        ds = CanonicalDataset(416, [f"b{i}" for i in range(n)], centers, centers,
                              np.full(n, box[0]), np.full(n, box[1]))
        cfg = TrainConfig(
            iters=12, batch_size=batch, momentum=momentum,
            lr_schedule=((0, 0.01), (3, 0.05), (7, 0.002)), warmup_iters=0,
            anchor_lr_mult=mult, cluster_weight=0.0,
            head=False, log_every=1,
        )
        s = [math.log(50.0), math.log(20.0)]
        res = run_training(ds, AnchorSet.from_array(np.array([s])), cfg)

        v = [0.0, 0.0]
        want = []
        for t in range(cfg.iters):
            for i in (0, 1):
                grad = 0.0 if frozen else 2.0 * batch * (s[i] - math.log(box[i]))
                s[i], v[i] = sgd_step(s[i], grad, v[i], lr_at(t, cfg.lr_schedule) * mult, momentum)
            want.append(list(s))
        assert [r.iteration for r in res.rows] == list(range(cfg.iters))
        got = np.log([r.anchors_wh[0] for r in res.rows])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        if frozen:
            np.testing.assert_array_equal(res.anchors.log_wh, [[math.log(50.0), math.log(20.0)]])


# out-of-range values of each field in TrainConfig's range table, NaN among them for each
# float field; a seed of -1 used to pass construction and fail only in run_training
OUT_OF_RANGE = {
    "iters": [-1],
    "batch_size": [0],
    "momentum": [1.0, -0.1, float("nan")],
    "warmup_iters": [-1],
    "anchor_lr_mult": [-0.5, float("inf"), float("nan")],
    "tau": [0.0, 1.0, float("nan")],
    "cluster_weight": [1.5, -0.1, float("nan")],
    "sigma": [-0.1, float("inf"), float("nan")],
    "init_scale": [-1.0, float("inf"), float("nan")],
    "seed": [-1],
    "log_every": [0],
}


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.iters == 30000
        assert cfg.lr_schedule == VOC_SCHEDULE
        assert cfg.batch_size == 64
        assert cfg.momentum == 0.9

    def test_schedule_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_schedule=((10, 1e-3),))

    def test_schedule_strictly_increasing(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_schedule=((0, 1e-3), (50, 1e-3), (50, 1e-4)))

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            TrainConfig(rule="nearest")

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            TrainConfig(metric="bogus")

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)

    def test_bad_anchor_lr_mult(self):
        for value in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="anchor_lr_mult must be a nonnegative number"):
                TrainConfig(anchor_lr_mult=value)
        # 0 is the frozen-anchor setting (test_frozen_anchors_do_not_move runs it)
        assert TrainConfig(anchor_lr_mult=0.0).anchor_lr_mult == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, value):
        """NaN passed the old `<= 0` checks and failed only as a non-finite loss."""
        with pytest.raises(ValueError, match="learning rates must be positive numbers"):
            TrainConfig(lr_schedule=((0, 1e-3), (10, value)))
        with pytest.raises(ValueError, match="anchor_lr_mult must be a nonnegative number"):
            TrainConfig(anchor_lr_mult=value)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a nonnegative number"):
            TrainConfig(sigma=sigma)

    @pytest.mark.parametrize("init_scale", [-1.0, float("nan"), float("inf")])
    def test_bad_init_scale(self, init_scale):
        """NaN and inf used to fail only as a non-finite loss at iteration 0,
        and -1.0 trained; the CLI refuses all three."""
        with pytest.raises(ValueError, match="init_scale must be a nonnegative number"):
            TrainConfig(init_scale=init_scale)

    def test_bad_threshold_tau(self):
        for tau in (0.0, 1.0, 1.5, -0.2, float("nan")):
            with pytest.raises(ValueError, match="tau must lie in"):
                TrainConfig(rule="threshold", tau=tau)

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_bad_cluster_weight(self, value):
        with pytest.raises(ValueError, match="cluster_weight must lie in"):
            TrainConfig(cluster_weight=value)

    def test_bad_warmup_iters(self):
        with pytest.raises(ValueError, match="warmup_iters must be >= 0"):
            TrainConfig(warmup_iters=-1)

    def test_range_table_names_fields(self):
        fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
        assert set(_RANGES) <= set(fields)
        assert set(OUT_OF_RANGE) == set(_RANGES)
        for name, values in OUT_OF_RANGE.items():
            if "float" in fields[name].type:
                assert any(math.isnan(v) for v in values), name

    @pytest.mark.parametrize("name, value", [(name, value) for name in _RANGES for value in OUT_OF_RANGE[name]])
    def test_range_table_checks_each_field(self, name, value):
        requirement, test = _RANGES[name]
        assert test(getattr(TrainConfig(), name))
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value) == f"{name} {requirement}, got {value}"


class TestRunTraining:
    def test_moves_anchors_toward_modes(self):
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg())
        got = sorted(res.anchors.wh().tolist())
        assert abs(math.log(got[0][0] / 40.0)) < 0.25
        assert abs(math.log(got[1][0] / 120.0)) < 0.25

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_training(CanonicalDataset(416, (), [], [], [], []), start_anchors(), small_cfg())

    def test_zero_iters_returns_init(self):
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg(iters=0))
        np.testing.assert_array_equal(res.anchors.log_wh, start_anchors().log_wh)
        assert res.rows == []
        assert res.final_smoothed_loss is None

    def test_deterministic_rerun(self):
        ds = tiny_ds()
        cfg = small_cfg(head=True, sigma=0.3)
        a = run_training(ds, start_anchors(), cfg)
        b = run_training(ds, start_anchors(), cfg)
        np.testing.assert_array_equal(a.anchors.log_wh, b.anchors.log_wh)
        assert a.final_smoothed_loss == b.final_smoothed_loss
        for ra, rb in zip(a.rows, b.rows):
            assert ra.loss == rb.loss
            np.testing.assert_array_equal(ra.anchors_wh, rb.anchors_wh)

    def test_seed_changes_run(self):
        ds = tiny_ds()
        a = run_training(ds, start_anchors(), small_cfg(seed=0))
        b = run_training(ds, start_anchors(), small_cfg(seed=1))
        assert not np.array_equal(a.anchors.log_wh, b.anchors.log_wh)

    def test_frozen_anchors_do_not_move(self):
        ds = tiny_ds()
        cfg = small_cfg(anchor_lr_mult=0.0, head=True, sigma=0.1)
        res = run_training(ds, start_anchors(), cfg)
        np.testing.assert_array_equal(res.anchors.log_wh, start_anchors().log_wh)

    def test_frozen_anchors_stay_put_when_their_rate_overflows(self):
        """A huge rate must not turn the frozen anchors' zero step into 0 * inf = NaN."""
        cfg = small_cfg(iters=5, lr_schedule=((0, 1e200),), anchor_lr_mult=0.0)
        res = run_training(tiny_ds(), start_anchors(), cfg)
        np.testing.assert_array_equal(res.anchors.log_wh, start_anchors().log_wh)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises_with_iteration(self):
        cfg = small_cfg(lr_schedule=((0, 1e6),), warmup_iters=0)
        with pytest.raises(NonFiniteLossError) as exc:
            run_training(tiny_ds(), start_anchors(), cfg)
        assert exc.value.iteration >= 0
        assert "iteration" in str(exc.value)

    def test_smoothed_loss_decreases(self):
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg())
        first = res.rows[0].loss
        assert res.final_smoothed_loss < first


class TestTrajectory:
    def test_rows_at_log_every_and_final(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=103, log_every=25))
        its = [r.iteration for r in res.rows]
        assert its == [0, 25, 50, 75, 100, 102]

    def test_temperature_and_lambda_columns(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg())
        rows = res.rows
        assert rows[0].temperature == 2.0
        assert rows[0].cluster_weight == 1.0
        late = [r for r in rows if r.iteration >= 60]
        assert all(r.temperature == 0.0 for r in late)
        assert all(r.cluster_weight == 0.0 for r in late)

    def test_epoch_utilization_complete_epochs(self):
        ds = tiny_ds()  # 300 boxes; batch 32 -> epoch boundary every 10 iters
        res = run_training(ds, start_anchors(), small_cfg(iters=95))
        util = res.epoch_utilization
        assert util.dtype == np.int64 and np.all(util >= 0)
        complete = [counts for counts in util if int(counts.sum()) == len(ds)]
        assert len(complete) >= 8

    @pytest.mark.parametrize("iters, batch_size", [(95, 32), (100, 32), (1, 32), (7, 400), (30, 1)])
    def test_epoch_utilization_shape(self, iters, batch_size):
        """One row per epoch begun: ceil(iters / ceil(n / batch_size)) rows."""
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg(iters=iters, batch_size=batch_size))
        per_epoch = -(-len(ds) // batch_size)
        assert res.epoch_utilization.shape == (-(-iters // per_epoch), 2)

    def test_epoch_utilization_without_iterations(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=0))
        assert res.epoch_utilization.shape == (0, 2)
        assert res.epoch_utilization.dtype == np.int64

    @pytest.mark.parametrize("rule, iters", [("yolo", 95), ("threshold", 103)])
    def test_epoch_utilization_totals_match_trajectory(self, rule, iters):
        """Both tables count every iteration once, so their per-anchor totals agree."""
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=iters, log_every=7, rule=rule))
        logged = np.sum([row.utilization for row in res.rows], axis=0)
        np.testing.assert_array_equal(res.epoch_utilization.sum(axis=0), logged)

    def test_csv_written_and_parses_back(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=60), trajectory_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,loss,lambda,T,w1,h1,w2,h2,util1,util2"
        assert len(lines) == 1 + len(res.rows)
        for line, row in zip(lines[1:], res.rows):
            parts = line.split(",")
            assert int(parts[0]) == row.iteration
            assert float(parts[1]) == row.loss
            assert float(parts[2]) == row.cluster_weight
            assert float(parts[3]) == row.temperature
            np.testing.assert_array_equal(
                np.array([float(v) for v in parts[4:8]]).reshape(2, 2), row.anchors_wh
            )
            np.testing.assert_array_equal([int(v) for v in parts[8:10]], row.utilization)

    def test_csv_bytes_identical_across_reruns(self, tmp_path):
        cfg = small_cfg(head=True, sigma=0.2, iters=80)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=p1)
        run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_anchor_shape_overflow_raises(self):
        """Log shapes past exp's range used to end the run as an OverflowError
        in AnchorSet.wh(), after a finite loss at every step."""
        cfg = small_cfg(lr_schedule=((0, 0.1),), warmup_iters=0, iters=20, log_every=50)
        with pytest.raises(NonFiniteLossError, match="at iteration 19") as exc:
            run_training(tiny_ds(), start_anchors(), cfg)
        # the loss itself is finite: the message must not call it non-finite
        assert str(exc.value).startswith("anchor shape overflowed to a non-finite or zero size (loss ")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_partial_file_kept_on_divergence(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        cfg = small_cfg(lr_schedule=((0, 1e6),), warmup_iters=0, iters=500)
        with pytest.raises(NonFiniteLossError):
            run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=path)
        assert path.exists()
        assert path.read_text().startswith("iter,loss")


class TestRules:
    def test_threshold_rule_runs(self):
        cfg = small_cfg(rule="threshold", tau=0.4,
                        metric="one_minus_iou")
        res = run_training(tiny_ds(), start_anchors(), cfg)
        assert np.all(np.isfinite(res.anchors.log_wh))

    def test_fixed_cluster_weight(self):
        cfg = small_cfg(cluster_weight=0.5, warmup_iters=0)
        res = run_training(tiny_ds(), start_anchors(), cfg)
        assert all(r.cluster_weight == 0.5 for r in res.rows)

    def test_anchor_lr_mult_scales_motion(self):
        ds = tiny_ds()
        cfg_slow = small_cfg(iters=20, anchor_lr_mult=1e-3)
        cfg_fast = small_cfg(iters=20, anchor_lr_mult=1.0)
        slow = run_training(ds, start_anchors(), cfg_slow)
        fast = run_training(ds, start_anchors(), cfg_fast)
        d_slow = np.abs(slow.anchors.log_wh - start_anchors().log_wh).sum()
        d_fast = np.abs(fast.anchors.log_wh - start_anchors().log_wh).sum()
        assert d_slow < d_fast

    def test_soft_membership_covers_zero_weight_pairs(self):
        """At the starting temperature with sq_l2_log, a softmax weight is
        exactly 0 only across a squared log-distance gap of about 1500. A
        far anchor at log shape (-30, -30) with a cluster of boxes around it
        gives every anchor column both nonzero weights and exact zeros. The
        trainer's first loss must still use every pair for the BN
        statistics, as the longhand oracle does; membership read off W > 0
        gives another loss."""
        base = tiny_ds()
        far = np.exp(np.random.default_rng(9).normal(-30.0, 0.15, size=(50, 2)))
        ds = CanonicalDataset(base.canvas_size, base.image_ids + tuple(f"far{i}" for i in range(50)),
                              np.r_[base.cx, np.full(50, 200.0)], np.r_[base.cy, np.full(50, 200.0)],
                              np.r_[base.w, far[:, 0]], np.r_[base.h, far[:, 1]])
        anchors = AnchorSet.from_array(np.log([[4.0, 4.0], [45.0, 45.0], [400.0, 400.0], [np.exp(-30.0)] * 2]))
        cfg = small_cfg(iters=1, warmup_iters=1, head=True, sigma=0.3, bn=True)
        res = run_training(ds, anchors, cfg)

        # replay the run's random draws: head init, epoch shuffle, features
        rng = np.random.default_rng(cfg.seed)
        params = initial_head(4, cfg.init_scale, rng)
        g = ds.log_shapes()[rng.permutation(len(ds))[:cfg.batch_size]]
        feats = make_features(g, cfg.sigma, rng)
        s = anchors.log_wh
        w = soft_assign(g, s, cfg.metric, TEMP_START)
        assert np.all(np.any(w == 0.0, axis=0) & np.any(w > 0.0, axis=0))
        want, _ = head_loss_longhand(w, np.ones(w.shape, dtype=bool), s, g, 1.0, params, feats)
        wrong, _ = head_loss_longhand(w, w > 0.0, s, g, 1.0, params, feats)
        assert math.isclose(res.rows[0].loss, want, rel_tol=1e-9)
        assert not math.isclose(wrong, want, rel_tol=1e-9)
