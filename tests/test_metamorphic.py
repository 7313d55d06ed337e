"""Metamorphic relations of the no-head trainer and of scoring.

Finite-difference oracles check each gradient on its own; these check
that a whole run respects the problem's symmetries, which catches wiring
faults the oracles miss (a swapped w/h column, anchors reordered on the
way out).

- Scale. Multiply box widths by fx and heights by fy, grow the canvas to
  hold them and shift the initial log anchors by (log fx, log fy). IoU is
  invariant under a per-axis scaling and the log-space metric only
  shifts, so the trained anchors scale by (fx, fy) and the loss does not
  change. An anisotropic pair is needed to see a swapped w/h column:
  uniform scaling cannot tell the two apart.
- Anchor order. Permuting the initial anchors permutes the trained
  anchors, bit for bit.

With the head on neither relation holds: its features carry noise of a
fixed level, and its coefficients are drawn per anchor index. On the
same grid the scaled anchors then move by 1% to 12% relative and a
permuted start ends up to 2.2 apart in log space.

Bounds. Over the grid below (both hard rules, both metrics, warm-up 0
and 300, 2000 iterations on synth.mixture2(1) from its k-means start)
the measured worst deviations were 1.7e-15 relative for the scaled
anchors and 5.6e-16 relative for the smoothed loss, under every scaling;
the bounds are about six times these. Feeding the rules the w/h columns
swapped moves the anisotropic anchors by up to 6.9 relative, and uniform
scaling sees nothing of it (1.4e-15).

Scoring is checked on seeded sets (synth.mixture2 and synth.mixture3,
seeds 1-5), not random data: a box whose IoU lands within an ulp of a
tau could flip a recall count.

- eval scale. Scaling the boxes and the k-means anchors by the same
  factors leaves recall and utilization exactly equal under both rules
  and avg_best_iou equal to rounding.
- cluster scale. IoU k-means on scaled boxes finds the same assignments
  in the same number of rounds, its centroids scale by (fx, fy) and its
  mean best IoU is unchanged.
- compare. The matched distance of two anchor sets is symmetric and
  does not depend on the order of either set.

Bounds. Over that grid (SCORE_FACTORS, in 0.5 s) the worst deviations
measured were 2.2e-16 relative for avg_best_iou and mean_best_iou,
2.9e-15 relative for the centroids, and 1.1e-16 absolute for the mean
matched distance (about 1); the bounds are about seven to nine times
these. A w/h swap in build_report's best_iou call moves anisotropic
avg_best_iou by up to 0.88 relative and utilization by up to 793 boxes,
and swapped width and height sums in cluster._update_step move
anisotropic centroids by up to 20 relative; isotropic factors see
neither.
"""

import itertools
import math

import numpy as np
import pytest

import synth
from anchorforge import AnchorSet, CanonicalDataset, TrainConfig, build_report, init_kmeans, kmeans_iou, run_training
from anchorforge.report import match_anchor_sets

ANCHOR_RTOL = 1e-14
LOSS_RTOL = 3e-15
FACTORS = [(2.0, 2.0), (0.5, 0.5), (2.0, 0.5), (0.5, 3.0)]
PERMUTATION = [3, 0, 4, 1, 2]

SCORE_RTOL = 1.5e-15
CENTROID_RTOL = 2e-14
MATCH_ATOL = 1e-15
SCORE_FACTORS = [(3.0, 3.0), (0.7, 0.7), (1.3, 0.6), (0.5, 3.0)]
SCORE_SETS = [(make, seed) for make in (synth.mixture2, synth.mixture3) for seed in range(1, 6)]


@pytest.fixture(scope="module")
def start():
    ds = synth.mixture2(1)
    return ds, init_kmeans(ds, num_anchors=5, seed=0)


def scaled(ds, fx, fy):
    """ds with widths times fx and heights times fy, on a canvas that holds them."""
    canvas = math.ceil(ds.canvas_size * max(fx, fy))
    return CanonicalDataset(canvas, ds.image_ids, ds.cx * fx, ds.cy * fy, ds.w * fx, ds.h * fy)


@pytest.mark.parametrize("rule, metric, warmup_iters", itertools.product(
    ["yolo", "threshold"], ["one_minus_iou", "sq_l2_log"], [0, 300]))
def test_scale_and_anchor_order(start, rule, metric, warmup_iters):
    ds, anchors0 = start
    cfg = TrainConfig(iters=2000, head=False, rule=rule, metric=metric, warmup_iters=warmup_iters)
    base = run_training(ds, anchors0, cfg)

    for fx, fy in FACTORS:
        moved = AnchorSet(anchors0.log_wh + np.log([fx, fy]), anchors0.stride)
        result = run_training(scaled(ds, fx, fy), moved, cfg)
        np.testing.assert_allclose(result.anchors.wh(), base.anchors.wh() * [fx, fy], rtol=ANCHOR_RTOL, atol=0,
                                   err_msg=f"scale ({fx}, {fy})")
        np.testing.assert_allclose(result.final_smoothed_loss, base.final_smoothed_loss, rtol=LOSS_RTOL, atol=0,
                                   err_msg=f"scale ({fx}, {fy})")

    permuted = run_training(ds, AnchorSet(anchors0.log_wh[PERMUTATION], anchors0.stride), cfg)
    np.testing.assert_array_equal(permuted.anchors.log_wh, base.anchors.log_wh[PERMUTATION])


@pytest.mark.parametrize("make, seed", SCORE_SETS, ids=[f"{m.__name__}-{s}" for m, s in SCORE_SETS])
def test_scoring_scale(make, seed):
    ds = make(seed)
    anchors = init_kmeans(ds, num_anchors=5, seed=0)
    base_reports = {rule: build_report(anchors, ds, assignment_rule=rule) for rule in ("yolo", "threshold")}
    base_kmeans = kmeans_iou(ds.shapes(), 5, seed=0)

    for fx, fy in SCORE_FACTORS:
        where = f"scale ({fx}, {fy})"
        sds = scaled(ds, fx, fy)
        moved = AnchorSet(anchors.log_wh + np.log([fx, fy]), anchors.stride)
        for rule, base in base_reports.items():
            report = build_report(moved, sds, assignment_rule=rule)
            assert report.recall_at == base.recall_at, (where, rule)
            assert report.utilization == base.utilization, (where, rule)
            np.testing.assert_allclose(report.avg_best_iou, base.avg_best_iou, rtol=SCORE_RTOL, atol=0,
                                       err_msg=f"{where}, {rule}")

        result = kmeans_iou(sds.shapes(), 5, seed=0)
        np.testing.assert_array_equal(result.assignments, base_kmeans.assignments, err_msg=where)
        assert result.iterations_run == base_kmeans.iterations_run, where
        np.testing.assert_allclose(result.centroids, base_kmeans.centroids * [fx, fy], rtol=CENTROID_RTOL, atol=0,
                                   err_msg=where)
        np.testing.assert_allclose(result.mean_best_iou, base_kmeans.mean_best_iou, rtol=SCORE_RTOL, atol=0,
                                   err_msg=where)


@pytest.mark.parametrize("seed", range(1, 6))
def test_compare_symmetric_and_order_free(seed):
    a = init_kmeans(synth.mixture2(seed), num_anchors=5, seed=0)
    b = init_kmeans(synth.mixture3(seed), num_anchors=5, seed=0)
    distance = match_anchor_sets(a, b)[1].mean()
    np.testing.assert_allclose(match_anchor_sets(b, a)[1].mean(), distance, rtol=0, atol=MATCH_ATOL)
    rng = np.random.default_rng(seed)
    shuffled_a, shuffled_b = (AnchorSet(x.log_wh[rng.permutation(len(x))], x.stride) for x in (a, b))
    np.testing.assert_allclose(match_anchor_sets(shuffled_a, shuffled_b)[1].mean(), distance, rtol=0, atol=MATCH_ATOL)
