"""The package root exports the pipeline, not the stages of one step.

The assignment rules, the warm-up schedules, the geometry arrays and the
moment-form stages are internals of ``run_training``: they are imported
from their modules. The step walkthrough lives in ``anchorforge.lossgrad``'s
docstring and runs here.
"""

import doctest

import anchorforge
import anchorforge.lossgrad

STEP_STAGES = (
    "moment_table", "table_grams", "TABLE_ROWS", "head_outputs", "grad_head", "initial_head", "make_features", "BN_EPS",
    "soft_assign", "hard_assign_yolo", "hard_assign_threshold", "utilization_counts",
    "temperature_at", "cluster_weight_at",
    "iou_aligned_matrix", "shape_dist_matrix",
)


def test_step_stages_are_not_at_the_package_root():
    assert [name for name in STEP_STAGES if hasattr(anchorforge, name)] == []
    assert set(STEP_STAGES).isdisjoint(anchorforge.__all__)


def test_lossgrad_walkthrough_runs():
    result = doctest.testmod(anchorforge.lossgrad)
    assert result.attempted > 0, "anchorforge.lossgrad's docstring holds no example"
    assert result.failed == 0
