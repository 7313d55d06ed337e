import math

import numpy as np
import pytest

import synth
from anchorforge import (
    AnchorSet,
    HeadConfig,
    HeadParams,
    NonFiniteLossError,
    TrainConfig,
    WarmupSchedule,
    lr_at,
    make_features,
    run_training,
    sgd_step,
    soft_assign,
)
from oracles import head_loss_longhand

VOC_SCHEDULE = ((0, 1e-4), (100, 1e-3), (15000, 1e-4), (27000, 1e-5))


def tiny_ds(seed=3):
    return synth.lognormal_mixture([(40.0, 50.0), (120.0, 100.0)], 0.15, [150, 150], seed=seed)


def small_cfg(**kw):
    base = dict(
        iters=300,
        batch_size=32,
        lr_schedule=((0, 1e-2), (150, 1e-3)),
        warmup=WarmupSchedule(warmup_iters=60),
        metric="sq_l2_log",
        head=HeadConfig(enabled=False),
        seed=0,
        log_every=25,
    )
    base.update(kw)
    return TrainConfig(**base)


def start_anchors():
    return AnchorSet.from_linear([[30.0, 30.0], [150.0, 150.0]])


class TestLrSchedule:
    def test_step_boundaries(self):
        assert lr_at(0, VOC_SCHEDULE) == 1e-4
        assert lr_at(99, VOC_SCHEDULE) == 1e-4
        assert lr_at(100, VOC_SCHEDULE) == 1e-3
        assert lr_at(14999, VOC_SCHEDULE) == 1e-3
        assert lr_at(15000, VOC_SCHEDULE) == 1e-4
        assert lr_at(27000, VOC_SCHEDULE) == 1e-5
        assert lr_at(10**6, VOC_SCHEDULE) == 1e-5

    def test_negative_iteration(self):
        with pytest.raises(ValueError):
            lr_at(-1, VOC_SCHEDULE)


class TestSgdStep:
    def test_two_steps_accumulate_momentum(self):
        """With momentum 0.9 the second velocity is g + 0.9 g = 1.9 g."""
        p = np.zeros(3)
        v = np.zeros(3)
        g = np.array([1.0, -2.0, 0.5])
        lr = 0.1
        p, v = sgd_step(p, g, v, lr, 0.9)
        np.testing.assert_allclose(v, g)
        np.testing.assert_allclose(p, -lr * g)
        p, v = sgd_step(p, g, v, lr, 0.9)
        np.testing.assert_allclose(v, 1.9 * g)
        np.testing.assert_allclose(p, -lr * g - lr * 1.9 * g)

    def test_zero_momentum_is_plain_sgd(self):
        rng = np.random.default_rng(71)
        p = rng.normal(size=4)
        g = rng.normal(size=4)
        new_p, _ = sgd_step(p, g, np.zeros(4), 0.01, 0.0)
        np.testing.assert_allclose(new_p, p - 0.01 * g)

    def test_inputs_not_mutated(self):
        p = np.ones(2)
        v = np.zeros(2)
        sgd_step(p, np.ones(2), v, 0.1, 0.9)
        np.testing.assert_array_equal(p, 1.0)
        np.testing.assert_array_equal(v, 0.0)


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
            TrainConfig(assignment_rule="nearest")

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            TrainConfig(metric="bogus")

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)

    def test_bad_anchor_lr_multiplier(self):
        with pytest.raises(ValueError):
            TrainConfig(anchor_lr_multiplier=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, value):
        """NaN passed the old `<= 0` checks and failed only as a non-finite loss."""
        with pytest.raises(ValueError, match="learning rates must be positive numbers"):
            TrainConfig(lr_schedule=((0, 1e-3), (10, value)))
        with pytest.raises(ValueError, match="anchor_lr_multiplier must be a positive number"):
            TrainConfig(anchor_lr_multiplier=value)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a nonnegative number"):
            HeadConfig(sigma=sigma)

    def test_bad_threshold_tau(self):
        for tau in (0.0, 1.0, 1.5, -0.2, float("nan")):
            with pytest.raises(ValueError, match="tau must lie in"):
                TrainConfig(assignment_rule="threshold", threshold_tau=tau)

    def test_bad_cluster_weight(self):
        with pytest.raises(ValueError):
            TrainConfig(cluster_weight_mode="fixed", cluster_weight_fixed=1.5)


class TestRunTraining:
    def test_moves_anchors_toward_modes(self):
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg())
        got = sorted(res.anchors.wh().tolist())
        assert abs(math.log(got[0][0] / 40.0)) < 0.25
        assert abs(math.log(got[1][0] / 120.0)) < 0.25

    def test_empty_dataset_rejected(self):
        from anchorforge import CanonicalDataset

        with pytest.raises(ValueError, match="empty"):
            run_training(CanonicalDataset(416, (), [], [], [], []), start_anchors(), small_cfg())

    def test_zero_iters_returns_init(self):
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg(iters=0))
        np.testing.assert_array_equal(res.anchors.as_array(), start_anchors().as_array())
        assert res.trajectory.rows == []
        assert res.trajectory.final_smoothed_loss is None

    def test_deterministic_rerun(self):
        ds = tiny_ds()
        cfg = small_cfg(head=HeadConfig(enabled=True, sigma=0.3))
        a = run_training(ds, start_anchors(), cfg)
        b = run_training(ds, start_anchors(), cfg)
        np.testing.assert_array_equal(a.anchors.as_array(), b.anchors.as_array())
        np.testing.assert_array_equal(a.head.u, b.head.u)
        assert a.trajectory.final_smoothed_loss == b.trajectory.final_smoothed_loss
        for ra, rb in zip(a.trajectory.rows, b.trajectory.rows):
            assert ra.loss == rb.loss
            np.testing.assert_array_equal(ra.anchors_wh, rb.anchors_wh)

    def test_seed_changes_run(self):
        ds = tiny_ds()
        a = run_training(ds, start_anchors(), small_cfg(seed=0))
        b = run_training(ds, start_anchors(), small_cfg(seed=1))
        assert not np.array_equal(a.anchors.as_array(), b.anchors.as_array())

    def test_frozen_anchors_do_not_move(self):
        ds = tiny_ds()
        cfg = small_cfg(train_anchors=False, head=HeadConfig(enabled=True, sigma=0.1))
        res = run_training(ds, start_anchors(), cfg)
        np.testing.assert_array_equal(res.anchors.as_array(), start_anchors().as_array())
        assert res.head is not None

    def test_head_disabled_result_has_no_head(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg())
        assert res.head is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises_with_iteration(self):
        cfg = small_cfg(lr_schedule=((0, 1e6),), warmup=WarmupSchedule(warmup_iters=0))
        with pytest.raises(NonFiniteLossError) as exc:
            run_training(tiny_ds(), start_anchors(), cfg)
        assert exc.value.iteration >= 0
        assert "iteration" in str(exc.value)

    def test_smoothed_loss_decreases(self):
        ds = tiny_ds()
        res = run_training(ds, start_anchors(), small_cfg())
        first = res.trajectory.rows[0].loss
        assert res.trajectory.final_smoothed_loss < first


class TestTrajectory:
    def test_rows_at_log_every_and_final(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=103, log_every=25))
        its = [r.iteration for r in res.trajectory.rows]
        assert its == [0, 25, 50, 75, 100, 102]

    def test_warmup_end_smoothed_loss_recorded(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg())
        traj = res.trajectory
        assert traj.smoothed_loss_at_warmup_end is not None
        assert traj.final_smoothed_loss < traj.smoothed_loss_at_warmup_end

    def test_warmup_zero_records_first_iteration(self):
        cfg = small_cfg(warmup=WarmupSchedule(warmup_iters=0))
        res = run_training(tiny_ds(), start_anchors(), cfg)
        assert res.trajectory.smoothed_loss_at_warmup_end == res.trajectory.rows[0].loss

    def test_temperature_and_lambda_columns(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg())
        rows = res.trajectory.rows
        assert rows[0].temperature == 2.0
        assert rows[0].cluster_weight == 1.0
        late = [r for r in rows if r.iteration >= 60]
        assert all(r.temperature == 0.0 for r in late)
        assert all(r.cluster_weight == 0.0 for r in late)

    def test_epoch_utilization_complete_epochs(self):
        ds = tiny_ds()  # 300 boxes; batch 32 -> epoch boundary every 10 iters
        res = run_training(ds, start_anchors(), small_cfg(iters=95))
        complete = [e for e in res.trajectory.epoch_utilization if int(e.counts.sum()) == len(ds)]
        assert len(complete) >= 8
        for e in complete:
            assert e.counts.shape == (2,)
            assert np.all(e.counts >= 0)

    def test_epoch_boundaries_cover_run(self):
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=95))
        epochs = res.trajectory.epoch_utilization
        assert epochs[0].start_iter == 0
        assert epochs[-1].end_iter == 94
        for a, b in zip(epochs, epochs[1:]):
            assert b.start_iter == a.end_iter + 1
            assert b.epoch == a.epoch + 1

    def test_csv_written_and_parses_back(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=60), trajectory_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,loss,lambda,T,w1,h1,w2,h2,util1,util2"
        assert len(lines) == 1 + len(res.trajectory.rows)
        for line, row in zip(lines[1:], res.trajectory.rows):
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
        cfg = small_cfg(head=HeadConfig(enabled=True, sigma=0.2), iters=80)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=p1)
        run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_anchor_shape_overflow_raises(self):
        """Log shapes past exp's range used to end the run as an OverflowError
        in AnchorSet.wh(), after a finite loss at every step."""
        cfg = small_cfg(lr_schedule=((0, 0.1),), warmup=WarmupSchedule(warmup_iters=0), iters=20, log_every=50)
        with pytest.raises(NonFiniteLossError, match="at iteration 19"):
            run_training(tiny_ds(), start_anchors(), cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_partial_file_kept_on_divergence(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        cfg = small_cfg(lr_schedule=((0, 1e6),), warmup=WarmupSchedule(warmup_iters=0), iters=500)
        with pytest.raises(NonFiniteLossError):
            run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=path)
        assert path.exists()
        assert path.read_text().startswith("iter,loss")


class TestRules:
    def test_threshold_rule_runs(self):
        cfg = small_cfg(assignment_rule="threshold", threshold_tau=0.4,
                        metric="one_minus_iou")
        res = run_training(tiny_ds(), start_anchors(), cfg)
        assert np.all(np.isfinite(res.anchors.as_array()))

    def test_fixed_cluster_weight_mode(self):
        cfg = small_cfg(cluster_weight_mode="fixed", cluster_weight_fixed=0.5,
                        warmup=WarmupSchedule(warmup_iters=0))
        res = run_training(tiny_ds(), start_anchors(), cfg)
        assert all(r.cluster_weight == 0.5 for r in res.trajectory.rows)

    def test_anchor_lr_multiplier_scales_motion(self):
        ds = tiny_ds()
        cfg_slow = small_cfg(iters=20, anchor_lr_multiplier=1e-3)
        cfg_fast = small_cfg(iters=20, anchor_lr_multiplier=1.0)
        slow = run_training(ds, start_anchors(), cfg_slow)
        fast = run_training(ds, start_anchors(), cfg_fast)
        d_slow = np.abs(slow.anchors.as_array() - start_anchors().as_array()).sum()
        d_fast = np.abs(fast.anchors.as_array() - start_anchors().as_array()).sum()
        assert d_slow < d_fast

    @pytest.mark.parametrize("per_anchor", [True, False])
    def test_soft_membership_covers_zero_weight_pairs(self, per_anchor):
        """At the temperature floor with sq_l2_log, far anchors get softmax
        weights of exactly 0. The trainer's first loss must still use every
        pair for the BN statistics, as the longhand oracle does; membership
        read off W > 0 gives another loss."""
        ds = tiny_ds()
        anchors = AnchorSet.from_linear([[4.0, 4.0], [45.0, 45.0], [400.0, 400.0]])
        head_cfg = HeadConfig(enabled=True, sigma=0.3, bn=True, bn_per_anchor=per_anchor)
        cfg = small_cfg(iters=1, warmup=WarmupSchedule(warmup_iters=1, temp_start=0.01, temp_floor=0.01),
                        head=head_cfg)
        res = run_training(ds, anchors, cfg)

        # replay the run's random draws: head init, epoch shuffle, features
        rng = np.random.default_rng(cfg.seed)
        head = HeadParams.initial(3, head_cfg.sigma, head_cfg.init_scale, rng)
        g = ds.log_shapes()[rng.permutation(len(ds))[:cfg.batch_size]]
        feats = make_features(g, head_cfg.sigma, rng)
        s = anchors.as_array()
        w = soft_assign(g, s, cfg.metric, 0.01)
        assert np.any(w == 0.0)
        params = (head.u, head.c, head.gamma)
        want, _ = head_loss_longhand(w, np.ones(w.shape, dtype=bool), s, g, 1.0, params, feats,
                                     True, per_anchor)
        wrong, _ = head_loss_longhand(w, w > 0.0, s, g, 1.0, params, feats, True, per_anchor)
        assert math.isclose(res.trajectory.rows[0].loss, want, rel_tol=1e-9)
        assert not math.isclose(wrong, want, rel_tol=1e-9)
