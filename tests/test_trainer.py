import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from anchorforge import (
    AnchorSet,
    CanonicalDataset,
    NonFiniteLossError,
    TrainConfig,
    build_report,
    run_training,
)
from anchorforge import trainer
from anchorforge.assign import RULES, TEMP_START
from anchorforge.lossgrad import initial_head, make_features
from anchorforge.trainer import _INTEGERS, _RANGES
from oracles import head_loss_longhand, iou_matrix, lr_at, sgd_step, soft_assign

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


def read_trajectory(path):
    """A trajectory.csv's columns: iter, loss, lambda and T by name, the
    anchors as wh, (rows, A, 2), and the util columns as util, (rows, A).
    float() reads back every repr the file holds exactly."""
    header, *lines = path.read_text().splitlines()
    a = header.count(",") // 3 - 1  # 4 + 3A columns
    cells = [line.split(",") for line in lines]
    floats = np.array([[float(v) for v in c[1 : 4 + 2 * a]] for c in cells]).reshape(-1, 3 + 2 * a)
    return {
        "iter": [int(c[0]) for c in cells],
        "loss": floats[:, 0],
        "lambda": floats[:, 1],
        "T": floats[:, 2],
        "wh": floats[:, 3:].reshape(-1, a, 2),
        "util": np.array([[int(v) for v in c[4 + 2 * a :]] for c in cells], dtype=np.int64).reshape(-1, a),
    }


class TestMomentumUpdate:
    @pytest.mark.parametrize("momentum, mult", [(0.0, 1.0), (0.9, 1.0), (0.0, 0.37), (0.9, 0.37), (0.9, 0.0)])
    def test_anchor_follows_heavy_ball_recurrence(self, tmp_path, momentum, mult):
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
        path = tmp_path / "trajectory.csv"
        res = run_training(ds, AnchorSet.from_array(np.array([s])), cfg, trajectory_path=path)
        logged = read_trajectory(path)

        v = [0.0, 0.0]
        want = []
        for t in range(cfg.iters):
            for i in (0, 1):
                grad = 0.0 if frozen else 2.0 * batch * (s[i] - math.log(box[i]))
                s[i], v[i] = sgd_step(s[i], grad, v[i], lr_at(t, cfg.lr_schedule) * mult, momentum)
            want.append(list(s))
        assert logged["iter"] == list(range(cfg.iters))
        got = np.log(logged["wh"][:, 0])
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

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0)])
    @pytest.mark.parametrize("name", _INTEGERS)
    def test_integer_fields_refuse_other_numbers(self, name, value):
        """At log_every=2.5 a run used to log at iterations 0, 5, 10 and 11,
        and iters=True ran one step."""
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("name", _INTEGERS)
    def test_integer_fields_refuse_integers_beyond_float_range(self, name):
        """iters=10**400 used to be accepted and to fail inside numpy with
        "Maximum allowed dimension exceeded"; so did the other counts."""
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: 10**400})
        assert str(info.value) == f"{name} must lie within float range, got a 401-digit integer"

    @pytest.mark.parametrize("name, value", [
        *((name, True) for name in ("sigma", "anchor_lr_mult", "init_scale", "cluster_weight", "lr_schedule")),
        ("sigma", "0.3"),
        *((name, 10**400) for name in ("sigma", "anchor_lr_mult", "init_scale", "lr_schedule")),
    ], ids=lambda v: "10**400" if v == 10**400 else None)
    def test_float_fields_refuse_bools_non_numbers_and_huge_integers(self, name, value):
        """True used to be stored as 1.0, a 401-digit integer to end in a bare
        OverflowError from float(), and "0.3" in a TypeError from the range
        test; a rate is named as its field, lr_schedule."""
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: ((0, value),) if name == "lr_schedule" else value})
        assert str(info.value) == (f"{name} must lie within float range, got a 401-digit integer"
                                   if value == 10**400 else f"{name} must be a number, got {value!r}")

    def test_integer_beyond_str_digit_limit_named(self):
        """The message's digit count used to come from str(), which refuses
        more than 4300 digits: Python's "Exceeds the limit" named no field."""
        with pytest.raises(ValueError, match=r"^sigma must lie within float range, got a 5001-digit integer$"):
            TrainConfig(sigma=10**5000)

    def test_schedule_starts_must_be_integers(self):
        """The breakpoint 100.5 used to be passed over: the run trained
        bit-identically to one without it."""
        for schedule in (((0, 1e-4), (100.5, 1e-1)), ((0, 1e-4), (True, 1e-1)), ((0.0, 1e-4),)):
            with pytest.raises(ValueError, match=r"^lr_schedule iterations must be integers, got \["):
                TrainConfig(lr_schedule=schedule)

    def test_schedule_start_beyond_float_range(self):
        """A 401-digit start used to be accepted, where the CLI refused it."""
        with pytest.raises(ValueError, match=r"^lr_schedule must lie within float range, got a 401-digit integer$"):
            TrainConfig(lr_schedule=((0, 1e-3), (10**400, 1e-4)))

    @pytest.mark.parametrize("value", ["no", 0, 1, 1.0, None])
    @pytest.mark.parametrize("name", ["head", "bn"])
    def test_switches_must_be_bools(self, name, value):
        """head="no" used to train the head as head=True does, and bn=0 was stored as given."""
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value) == f"{name} must be True or False, got {value!r}"
        assert getattr(TrainConfig(**{name: np.False_}), name) is False

    def test_numpy_integers_train_as_python_integers(self, tmp_path):
        """A numpy warmup_iters used to make the temperature and lambda numpy
        floats, which trajectory.csv wrote as np.float64(2.0)."""
        ints = dict(iters=40, batch_size=32, warmup_iters=20, seed=1, log_every=5)
        schedule = ((0, 1e-2), (30, 1e-3))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a = run_training(tiny_ds(), start_anchors(), small_cfg(**ints, lr_schedule=schedule), trajectory_path=pa)
        cfg = small_cfg(
            **{k: np.int64(v) for k, v in ints.items()},
            lr_schedule=tuple((np.int32(s), lr) for s, lr in schedule),
        )
        b = run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=pb)
        np.testing.assert_array_equal(a.anchors.log_wh, b.anchors.log_wh)
        assert read_trajectory(pa)["iter"] == read_trajectory(pb)["iter"]
        assert pa.read_bytes() == pb.read_bytes()
        assert all(type(getattr(cfg, name)) is int for name in _INTEGERS)
        assert all(type(start) is int for start, _ in cfg.lr_schedule)

    @pytest.mark.parametrize("cluster_weight", [np.float64(0.5), np.float32(0.5), 1], ids=["float64", "float32", "int"])
    def test_numpy_and_integer_floats_write_as_python_floats(self, tmp_path, cluster_weight):
        """A numpy cluster_weight used to write the loss and lambda columns as
        np.float64(...), and cluster_weight=1 wrote lambda as 1, not 1.0."""
        floats = dict(momentum=0.9, anchor_lr_mult=1.0, tau=0.5, sigma=0.3, init_scale=0.1)
        schedule = ((0, 1e-2), (30, 1e-3))
        base = dict(iters=40, warmup_iters=0, head=True, log_every=5)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        run_training(tiny_ds(), start_anchors(), small_cfg(
            **base, **floats, lr_schedule=schedule, cluster_weight=float(cluster_weight)), trajectory_path=pa)
        cfg = small_cfg(**base, **{k: np.float64(v) for k, v in floats.items()},
                        lr_schedule=tuple((s, np.float64(lr)) for s, lr in schedule), cluster_weight=cluster_weight)
        run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert all(type(getattr(cfg, name)) is float for name in (*floats, "cluster_weight"))
        assert all(type(lr) is float for _, lr in cfg.lr_schedule)

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

    def test_zero_iters_returns_init(self, tmp_path):
        ds = tiny_ds()
        path = tmp_path / "trajectory.csv"
        res = run_training(ds, start_anchors(), small_cfg(iters=0), trajectory_path=path)
        np.testing.assert_array_equal(res.anchors.log_wh, start_anchors().log_wh)
        assert path.read_text() == "iter,loss,lambda,T,w1,h1,w2,h2,util1,util2\n"
        assert res.final_loss is None
        assert res.final_smoothed_loss is None

    def test_deterministic_rerun(self, tmp_path):
        ds = tiny_ds()
        cfg = small_cfg(head=True, sigma=0.3)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a = run_training(ds, start_anchors(), cfg, trajectory_path=pa)
        b = run_training(ds, start_anchors(), cfg, trajectory_path=pb)
        np.testing.assert_array_equal(a.anchors.log_wh, b.anchors.log_wh)
        assert a.final_smoothed_loss == b.final_smoothed_loss
        ra, rb = read_trajectory(pa), read_trajectory(pb)
        np.testing.assert_array_equal(ra["loss"], rb["loss"])
        np.testing.assert_array_equal(ra["wh"], rb["wh"])

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

    def test_smoothed_loss_decreases(self, tmp_path):
        ds = tiny_ds()
        path = tmp_path / "trajectory.csv"
        res = run_training(ds, start_anchors(), small_cfg(), trajectory_path=path)
        first = read_trajectory(path)["loss"][0]
        assert res.final_smoothed_loss < first


class TestTrajectory:
    def test_rows_at_log_every_and_final(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        run_training(tiny_ds(), start_anchors(), small_cfg(iters=103, log_every=25), trajectory_path=path)
        its = read_trajectory(path)["iter"]
        assert its == [0, 25, 50, 75, 100, 102]

    def test_temperature_and_lambda_columns(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        run_training(tiny_ds(), start_anchors(), small_cfg(), trajectory_path=path)
        rows = read_trajectory(path)
        assert rows["T"][0] == 2.0
        assert rows["lambda"][0] == 1.0
        late = np.array(rows["iter"]) >= 60
        assert late.any()
        assert np.all(rows["T"][late] == 0.0)
        assert np.all(rows["lambda"][late] == 0.0)

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

    def test_epoch_utilization_grows_with_the_run(self, monkeypatch):
        """The table used to be allocated for every epoch of iters up front, so
        iters=10**15 ended in a MemoryError before the first step; now the run
        reaches its second step."""
        class SecondStep(Exception):
            pass

        def temperature_at(t, warmup_iters):
            if t == 1:
                raise SecondStep
            return real(t, warmup_iters)

        real = trainer.temperature_at
        monkeypatch.setattr(trainer, "temperature_at", temperature_at)
        with pytest.raises(SecondStep):
            run_training(tiny_ds(), start_anchors(), small_cfg(iters=10**15))

    @pytest.mark.parametrize("rule, iters", [("yolo", 95), ("threshold", 103)])
    def test_epoch_utilization_totals_match_trajectory(self, tmp_path, rule, iters):
        """Both tables count every iteration once, so their per-anchor totals agree."""
        path = tmp_path / "trajectory.csv"
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=iters, log_every=7, rule=rule),
                           trajectory_path=path)
        logged = read_trajectory(path)["util"].sum(axis=0)
        np.testing.assert_array_equal(res.epoch_utilization.sum(axis=0), logged)

    def test_csv_written_and_parses_back(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        res = run_training(tiny_ds(), start_anchors(), small_cfg(iters=60), trajectory_path=path)
        assert path.read_text().splitlines()[0] == "iter,loss,lambda,T,w1,h1,w2,h2,util1,util2"
        rows = read_trajectory(path)
        assert rows["iter"] == [0, 25, 50, 59]
        # the last row is the result's: its anchors bit for bit and its loss
        np.testing.assert_array_equal(rows["wh"][-1], res.anchors.wh())
        assert rows["loss"][-1] == res.final_loss
        np.testing.assert_array_equal(rows["util"].sum(axis=0), res.epoch_utilization.sum(axis=0))

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

    def test_anchor_area_overflow_raises(self):
        """Frozen sides of e^355 are finite, but their area is not: the run
        used to return them, and only write_anchors_json refused them."""
        cfg = TrainConfig(iters=2, anchor_lr_mult=0.0, head=False, warmup_iters=0, metric="sq_l2_log")
        with pytest.raises(NonFiniteLossError, match="at iteration 0;") as exc:
            run_training(synth.mixture2(1), AnchorSet(np.full((2, 2), 355.0)), cfg)
        assert str(exc.value).startswith("anchor shape overflowed to a non-finite or zero size (loss ")
        assert exc.value.iteration == 0

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

    def test_fixed_cluster_weight(self, tmp_path):
        cfg = small_cfg(cluster_weight=0.5, warmup_iters=0)
        path = tmp_path / "trajectory.csv"
        run_training(tiny_ds(), start_anchors(), cfg, trajectory_path=path)
        assert np.all(read_trajectory(path)["lambda"] == 0.5)

    def test_anchor_lr_mult_scales_motion(self):
        ds = tiny_ds()
        cfg_slow = small_cfg(iters=20, anchor_lr_mult=1e-3)
        cfg_fast = small_cfg(iters=20, anchor_lr_mult=1.0)
        slow = run_training(ds, start_anchors(), cfg_slow)
        fast = run_training(ds, start_anchors(), cfg_fast)
        d_slow = np.abs(slow.anchors.log_wh - start_anchors().log_wh).sum()
        d_fast = np.abs(fast.anchors.log_wh - start_anchors().log_wh).sum()
        assert d_slow < d_fast

    def test_soft_membership_covers_zero_weight_pairs(self, tmp_path):
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
        path = tmp_path / "trajectory.csv"
        run_training(ds, anchors, cfg, trajectory_path=path)

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
        assert math.isclose(read_trajectory(path)["loss"][0], want, rel_tol=1e-9)
        assert not math.isclose(wrong, want, rel_tol=1e-9)


def frozen_epoch_counts(wh, log_anchors, rule, tau=0.5, batch_size=4):
    """Utilization of one training epoch with frozen, area-sorted anchors and
    no warm-up, and that of ``build_report`` for the same anchors and tau."""
    wh = np.asarray(wh, dtype=float)
    n = len(wh)
    ds = CanonicalDataset(416, [f"b{i}" for i in range(n)], np.full(n, 208.0), np.full(n, 208.0), *wh.T)
    anchors = AnchorSet(log_anchors).sorted_by_area()
    cfg = TrainConfig(iters=-(-n // batch_size), batch_size=batch_size, warmup_iters=0, anchor_lr_mult=0.0,
                      rule=rule, tau=tau)
    trained = run_training(ds, anchors, cfg).epoch_utilization[0]
    return trained.tolist(), list(build_report(anchors, ds, rule, threshold_tau=tau).utilization)


class TestHardRulesCountAsEval:
    """Training's hard rules give each box the winner and the tau hits that
    ``eval`` gives it: the same IoU of the dataset's own shapes, compared
    as IoU. Both constructed cases disagreed when the step took ``np.exp``
    of the log shapes and compared 1 - IoU."""

    def test_yolo_winner_between_anchors_an_ulp_apart(self):
        log_anchors = [[2.4289049641462244, 3.1655727067762487], [2.428904964146225, 3.1655727067762487]]
        trained, evaluated = frozen_epoch_counts([(52.775619818828474, 59.10504533355089)], log_anchors, "yolo")
        assert trained == evaluated == [0, 1]

    def test_threshold_hit_at_exactly_tau(self):
        """A (10, 1) box has IoU exactly 0.1 with a (1, 1) anchor; 1 - (1 - 0.1)
        falls just below 0.1."""
        wh = [(10.0, 1.0)] * 3 + [(50.0, 50.0)]
        trained, evaluated = frozen_epoch_counts(wh, np.log([[1.0, 1.0], [10.0, 1.2]]), "threshold", tau=0.1)
        assert trained == evaluated == [3, 4]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 5), st.sampled_from(RULES),
           st.floats(0.01, 0.99), st.booleans())
    def test_hard_rules_count_as_eval(self, seed, n, a, rule, tau, tau_on_a_pair):
        """Anchors repeat or sit an ulp apart, some boxes sit on an anchor, and
        tau may be one pair's IoU exactly."""
        rng = np.random.default_rng(seed)
        log_anchors = rng.uniform(0.0, 6.0, size=(a, 2))
        copies = rng.integers(a, size=a)
        log_anchors[1:] = np.where(rng.random((a - 1, 1)) < 0.5, log_anchors[copies[1:]], log_anchors[1:])
        log_anchors[1:] = np.where(rng.random((a - 1, 1)) < 0.3, np.nextafter(log_anchors[1:], 7.0), log_anchors[1:])
        wh = np.minimum(np.exp(rng.uniform(0.0, np.log(416.0), size=(n, 2))), 416.0)
        on = rng.random(n) < 0.3
        wh[on] = np.exp(log_anchors[rng.integers(a, size=int(on.sum()))])
        if tau_on_a_pair:
            iou = iou_matrix(wh, AnchorSet(log_anchors).wh())
            inside = iou[(iou > 0.0) & (iou < 1.0)]
            if inside.size:
                tau = float(inside[rng.integers(inside.size)])
        trained, evaluated = frozen_epoch_counts(wh, log_anchors, rule, tau)
        assert trained == evaluated
