"""End-to-end acceptance checks for the anchor learning pipeline.

Each test prints one "[PASS] criterion N: ..." line so a verbose pytest
run doubles as a checklist (use -rP to see the lines for passing tests).
The clustering-equivalence run is shared through a session fixture
because three criteria look at it. Everything is seeded.
"""

import numpy as np
import pytest

import synth
from anchorforge import (
    AnchorSet,
    TrainConfig,
    build_report,
    init_identical,
    init_kmeans,
    init_uniform,
    match_anchor_sets,
    run_training,
    write_anchors_json,
)
from anchorforge.assign import (
    TEMP_FLOOR,
    cluster_weight_at,
    hard_assign_threshold,
    hard_assign_yolo,
    soft_assign,
    temperature_at,
)
from anchorforge.cli import main
from anchorforge.lossgrad import _loss_from_arrays, batch_moments, grad_head, head_outputs, initial_head, make_features
from oracles import fd_grad, lloyd_log_l2, moment_rows, rel_err, shape_dist


def report(passed, number, description):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


def three_inits(ds):
    return (
        ("uniform", init_uniform(stride=32)),
        ("identical", init_identical(stride=32, num_anchors=5)),
        ("kmeans", init_kmeans(ds, num_anchors=5, seed=4)),
    )


# ---------------------------------------------------------------------------
# shared clustering-equivalence run (criteria 2, 9 and 10)

MODES_INIT = np.log([[30.0, 30.0], [80.0, 80.0], [200.0, 200.0]])

CLUSTER_EQUIV_CFG = TrainConfig(
    iters=7000,
    batch_size=64,
    momentum=0.9,
    lr_schedule=((0, 1e-2), (1000, 1e-3), (2000, 1e-4), (3500, 1e-5), (5500, 1e-6)),
    warmup_iters=0,
    rule="yolo",
    metric="sq_l2_log",
    cluster_weight=1.0,
    head=False,
    seed=0,
)


@pytest.fixture(scope="session")
def cluster_equiv_run(mixture3_ds, tmp_path_factory):
    """Head off, hard assignment, pinned clustering weight, annealed lr."""
    path = tmp_path_factory.mktemp("acceptance") / "trajectory.csv"
    result = run_training(
        mixture3_ds, AnchorSet.from_array(MODES_INIT.copy()), CLUSTER_EQUIV_CFG,
        trajectory_path=path,
    )
    return result, path


# ---------------------------------------------------------------------------


class TestCriterion1:
    def test_gradients_match_finite_differences(self):
        """The stages the trainer runs (head_outputs, _loss_from_arrays,
        grad_head) against finite differences: every rule, the head off,
        on without BN and on with BN, and three clustering weights."""
        rng = np.random.default_rng(101)
        worst = 0.0
        instances = 0
        for _ in range(4):
            for lam in (0.0, 0.5, 1.0):
                for rule in ("yolo", "threshold", "soft"):
                    for mode in ("no head", "bn off", "bn on"):
                        n = int(rng.integers(5, 51))
                        gts = rng.uniform(np.log(8.0), np.log(300.0), size=(n, 2))
                        s = rng.uniform(np.log(8.0), np.log(300.0), size=(5, 2))
                        metric = ("one_minus_iou", "sq_l2_log")[int(rng.integers(2))]
                        if rule == "yolo":
                            w = hard_assign_yolo(gts, s, metric)
                        elif rule == "threshold":
                            w = hard_assign_threshold(gts, s, 0.5)
                        else:
                            w = soft_assign(gts, s, metric, temperature=1.0)
                        # the soft rule's groups cover every pair; a hard rule's, its nonzeros
                        soft = rule == "soft"

                        bn = mode != "bn off"
                        if mode == "no head":
                            gram, _, mean = batch_moments(moment_rows(gts, gts), w, soft)
                            coef = np.zeros((5, 2, 5))
                        else:
                            head = initial_head(5, init_scale=0.1, rng=rng)
                            features = make_features(gts, 0.3, rng)
                            gram, member_gram, mean = batch_moments(moment_rows(features, gts), w, soft)
                            coef, cache = head_outputs(*head, member_gram, mean, bn=bn)

                        _, analytic, dcoef = _loss_from_arrays(coef, gram, s, mean, lam)

                        def loss_of_anchors(arr, coef=coef, gram=gram, mean=mean, lam=lam):
                            return _loss_from_arrays(coef, gram, arr, mean, lam)[0]

                        numeric = fd_grad(loss_of_anchors, s.copy())
                        worst = max(worst, rel_err(analytic, numeric))

                        if mode != "no head":
                            hg = grad_head(dcoef, cache, mean, head[2])
                            nu, nc = head[0].size, head[1].size
                            packed = np.concatenate([p.ravel() for p in head])

                            def loss_of_head(vec, gram=gram, member_gram=member_gram, mean=mean,
                                             s=s, lam=lam, head=head, bn=bn, nu=nu, nc=nc):
                                o, _ = head_outputs(
                                    vec[:nu].reshape(head[0].shape),
                                    vec[nu:nu + nc].reshape(head[1].shape),
                                    vec[nu + nc:].reshape(head[2].shape),
                                    member_gram, mean, bn=bn,
                                )
                                return _loss_from_arrays(o, gram, s, mean, lam)[0]

                            analytic_h = np.concatenate([g.ravel() for g in hg])
                            worst = max(worst, rel_err(analytic_h, fd_grad(loss_of_head, packed)))
                        instances += 1
        report(instances >= 100 and worst < 1e-5, 1,
               f"analytic anchor and head gradients match finite differences over "
               f"{instances} random instances (worst relative error {worst:.2e})")


class TestCriterion2:
    def test_sgd_matches_log_space_kmeans_fixed_point(self, mixture3_ds, cluster_equiv_run):
        result, _ = cluster_equiv_run
        target = lloyd_log_l2(mixture3_ds.log_shapes(), MODES_INIT.copy())
        dist = match_anchor_sets(result.anchors, AnchorSet.from_array(target))[1].mean()
        report(dist < 1e-3, 2,
               f"SGD with the clustering term pinned lands on the log-space k-means "
               f"fixed point (mean matched distance {dist:.2e})")


class TestCriterion3:
    def _cfg(self, anchor_lr_mult, seed):
        return TrainConfig(
            iters=5000,
            batch_size=64,
            momentum=0.9,
            lr_schedule=((0, 1e-4), (100, 1e-3), (2500, 1e-4), (4200, 1e-5)),
            warmup_iters=1000,
            rule="yolo",
            metric="one_minus_iou",
            anchor_lr_mult=anchor_lr_mult,
            head=True, sigma=0.3, init_scale=0.1, bn=True,
            seed=seed,
        )

    def test_joint_training_dominates_fixed_anchors(self, mixture2_ds, voc_ds):
        margins = []
        for ds in (mixture2_ds, voc_ds):
            for _, init in three_inits(ds):
                joint = run_training(ds, init, self._cfg(1.0, seed=7))
                frozen = run_training(ds, init, self._cfg(0.0, seed=7))
                margins.append(frozen.final_smoothed_loss - joint.final_smoothed_loss)
        wins = sum(m >= 0.0 for m in margins)
        report(wins == len(margins), 3,
               f"joint anchor+head training ends at or below the fixed-anchor "
               f"baseline in {wins}/{len(margins)} runs (min margin {min(margins):.4f})")


class TestCriterion4:
    # anchor sets published from two large-scale detector training runs on
    # the same corpus: one learned end to end, one from IoU k-means
    REFERENCE_TRAINED = [(5.8, 6.7), (17.4, 20.1), (44.8, 45.8), (108.0, 99.2), (241.0, 237.0)]
    REFERENCE_KMEANS = [(5.7, 6.7), (16.9, 20.1), (43.8, 44.8), (104.0, 98.9), (241.0, 230.0)]

    def _cfg(self):
        return TrainConfig(
            iters=9000,
            batch_size=64,
            momentum=0.9,
            lr_schedule=((0, 1e-4), (100, 1e-3), (4500, 1e-4), (8100, 1e-5)),
            warmup_iters=1500,
            rule="yolo",
            metric="one_minus_iou",
            head=True, sigma=0.3, init_scale=0.1, bn=True,
            seed=40,
        )

    def test_final_anchors_robust_to_initialization(self, voc_ds, tmp_path, capsys):
        finals = []
        for _, init in three_inits(voc_ds):
            finals.append(run_training(voc_ds, init, self._cfg()).anchors)
        spread = max(
            match_anchor_sets(finals[a], finals[b])[1].mean()
            for a in range(3) for b in range(a + 1, 3)
        )

        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_anchors_json(a_path, AnchorSet.from_linear(self.REFERENCE_TRAINED), 416)
        write_anchors_json(b_path, AnchorSet.from_linear(self.REFERENCE_KMEANS), 416)
        rc = main(["compare", str(a_path), str(b_path)])
        out = capsys.readouterr().out
        mean_line = [ln for ln in out.splitlines() if ln.startswith("mean matched")]
        ref_dist = float(mean_line[0].split(":")[1])

        report(spread <= 0.15 and rc == 0 and ref_dist < 0.05, 4,
               f"three initializations converge to matching anchors (max pairwise "
               f"distance {spread:.4f}); reference trained-vs-clustered sets agree "
               f"({ref_dist:.4f})")


class TestCriterion5:
    def test_identical_init_anchors_all_activate(self, mixture2_ds):
        cfg = TrainConfig(
            iters=3000,
            batch_size=64,
            momentum=0.9,
            lr_schedule=((0, 1e-4), (100, 1e-3), (1500, 1e-4), (2700, 1e-5)),
            warmup_iters=1500,
            rule="yolo",
            metric="one_minus_iou",
            head=True, sigma=0.3, init_scale=0.1, bn=True,
            seed=17,
        )
        res = run_training(mixture2_ds, init_identical(stride=32, num_anchors=5), cfg)
        n = len(mixture2_ds)

        s = res.anchors.log_wh
        min_pair = min(
            shape_dist(s[i], s[j], "sq_l2_log")
            for i in range(5) for j in range(i + 1, 5)
        )
        per_epoch = -(-n // cfg.batch_size)
        epochs = [
            counts for e, counts in enumerate(res.epoch_utilization)
            if e * per_epoch >= cfg.warmup_iters and int(counts.sum()) == n
        ]
        all_used = bool(epochs) and all(int(counts.min()) >= 1 for counts in epochs)
        report(min_pair > 1e-6 and all_used, 5,
               f"all 5 anchors from an identical init separate (closest pair "
               f"{min_pair:.2e}) and win assignments in each of the "
               f"{len(epochs)} complete epochs after warm-up")


class TestCriterion6:
    def test_soft_assignment_suite(self):
        rng = np.random.default_rng(33)
        warmup_iters = 1500
        rows_ok = True
        floor_agrees = True
        for _ in range(50):
            n = int(rng.integers(2, 40))
            gts = rng.uniform(np.log(8.0), np.log(300.0), size=(n, 2))
            s = rng.uniform(np.log(8.0), np.log(300.0), size=(5, 2))
            metric = ("one_minus_iou", "sq_l2_log")[int(rng.integers(2))]
            w = soft_assign(gts, s, metric, temperature=float(rng.uniform(0.05, 3.0)))
            rows_ok &= bool(np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-9))

            at_floor = soft_assign(gts, s, metric, temperature=TEMP_FLOOR)
            hard = hard_assign_yolo(gts, s, metric)
            floor_agrees &= bool(np.array_equal(np.argmax(at_floor, axis=1),
                                                np.argmax(hard, axis=1)))

        schedules_ok = (
            temperature_at(0, warmup_iters) == 2.0
            and cluster_weight_at(0, warmup_iters) == 1.0
            and temperature_at(warmup_iters, warmup_iters) is None
            and cluster_weight_at(warmup_iters, warmup_iters) == 0.0
        )
        report(rows_ok and floor_agrees and schedules_ok, 6,
               "soft assignment rows sum to 1, the temperature floor matches hard "
               "argmax, and both schedules hit their endpoints exactly")


class TestCriterion7:
    def test_batchnorm_no_shift_statistics(self):
        rng = np.random.default_rng(12)
        worst_mean = 0.0
        worst_var = 0.0
        for _ in range(40):
            size = int(rng.integers(16, 500))
            x = rng.normal(rng.uniform(-100.0, 100.0), rng.uniform(50.0, 400.0), size)
            gamma = float(rng.uniform(0.2, 3.0))
            # the trainer's normalization: one anchor whose group is the
            # whole batch, identity map and zero bias, so raw offsets are x
            rows = moment_rows(np.column_stack([x, x]), np.zeros((size, 2)))
            _, member_gram, mean = batch_moments(rows, np.ones((size, 1)), True)
            coef, _ = head_outputs(np.eye(2)[None], np.zeros((1, 2)), np.full((1, 2), gamma),
                                   member_gram, mean, bn=True)
            # the offsets: the exposed coefficient map applied to the centred batch
            out = coef[0] @ (rows - mean[:, None])
            pre = out.T / gamma
            worst_mean = max(worst_mean, abs(float(np.mean(pre))))
            worst_var = max(worst_var, abs(float(np.var(pre)) - 1.0))
        report(worst_mean < 1e-7 and worst_var < 1e-6, 7,
               f"batch normalization without shift gives zero-mean unit-variance "
               f"pre-scale outputs (max |mean| {worst_mean:.1e}, max |var-1| "
               f"{worst_var:.1e})")


class TestCriterion8:
    def test_kmeans_anchors_beat_uniform_coverage(self, mixture3_ds):
        km = init_kmeans(mixture3_ds, num_anchors=5, seed=2)
        uni = init_uniform(stride=32)
        km_iou = build_report(km, mixture3_ds, taus=()).avg_best_iou
        uni_iou = build_report(uni, mixture3_ds, taus=()).avg_best_iou
        report(km_iou > uni_iou, 8,
               f"k-means initialization covers the data better than the uniform "
               f"fallback ({km_iou:.4f} vs {uni_iou:.4f} average best IoU)")


class TestCriterion9:
    def _cfg(self, sigma):
        return TrainConfig(
            iters=4000,
            batch_size=64,
            momentum=0.9,
            lr_schedule=((0, 3e-5),),
            warmup_iters=0,
            rule="yolo",
            metric="sq_l2_log",
            cluster_weight=0.0,
            head=True, sigma=sigma, init_scale=0.1, bn=False,
            seed=23,
        )

    def test_head_capacity_steers_anchor_adaptation(self, mixture3_ds, cluster_equiv_run):
        target = cluster_equiv_run[0].anchors
        perfect = run_training(mixture3_ds, AnchorSet.from_array(MODES_INIT.copy()),
                               self._cfg(sigma=0.0))
        useless = run_training(mixture3_ds, AnchorSet.from_array(MODES_INIT.copy()),
                               self._cfg(sigma=10.0))
        d_perfect = match_anchor_sets(perfect.anchors, target)[1].mean()
        d_useless = match_anchor_sets(useless.anchors, target)[1].mean()
        loss_ordered = perfect.final_smoothed_loss < useless.final_smoothed_loss
        report(loss_ordered and d_useless < d_perfect, 9,
               f"with noise-only features the anchors drift toward the clustering "
               f"solution (distance {d_useless:.4f}) while an informative head keeps "
               f"them near their init (distance {d_perfect:.4f}) at a lower loss")


class TestCriterion10:
    def test_training_is_byte_reproducible(self, mixture3_ds, cluster_equiv_run, tmp_path):
        first, first_path = cluster_equiv_run
        repeat_path = tmp_path / "trajectory.csv"
        repeat = run_training(
            mixture3_ds, AnchorSet.from_array(MODES_INIT.copy()), CLUSTER_EQUIV_CFG,
            trajectory_path=repeat_path,
        )
        same_bytes = first_path.read_bytes() == repeat_path.read_bytes()
        same_anchors = bool(np.array_equal(first.anchors.log_wh,
                                           repeat.anchors.log_wh))
        report(same_bytes and same_anchors, 10,
               "rerunning the clustering-equivalence configuration reproduces the "
               "trajectory file byte for byte")
