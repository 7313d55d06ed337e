"""Metamorphic relations of the no-head trainer.

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
"""

import itertools
import math

import numpy as np
import pytest

import synth
from anchorforge import AnchorSet, CanonicalDataset, TrainConfig, init_kmeans, run_training

ANCHOR_RTOL = 1e-14
LOSS_RTOL = 3e-15
FACTORS = [(2.0, 2.0), (0.5, 0.5), (2.0, 0.5), (0.5, 3.0)]
PERMUTATION = [3, 0, 4, 1, 2]


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
