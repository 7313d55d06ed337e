"""The benchmark traces each stage by the name its caller looks it up by.

perfbench/tracer.py wraps module-level bindings (``anchorforge.trainer.
head_outputs``, ``anchorforge.cli.parse_coco`` and so on) and
perfbench/selfcheck.py requires each stage in ``EXPECT_CALLED`` of every
workload to be traced. A refactor that renames or drops one of those
bindings fails here, in the unit tests, and not only in the benchmark's
own self-check. The two files are imported, never changed.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_modules():
    saved_path = list(sys.path)
    saved_flag = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        yield importlib.import_module("tracer"), importlib.import_module("selfcheck")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("tracer", "selfcheck", "run"):
            sys.modules.pop(name, None)


def _unresolved(tracer, names):
    missing = []
    for name in names:
        bindings = tracer.TRACED.get(name, ())
        hits = [tracer._resolve(module, attr) for module, attr in bindings]
        if not any(hit is not None and callable(hit[2]) for hit in hits):
            missing.append(f"{name} -> {bindings}")
    return missing


def test_train_stages_resolve_to_callables(bench_modules):
    tracer, selfcheck = bench_modules
    missing = _unresolved(tracer, selfcheck.EXPECT_CALLED["train"])
    assert not missing, "traced stages with no callable binding: " + "; ".join(missing)


def test_dataset_stages_resolve_to_callables(bench_modules):
    tracer, selfcheck = bench_modules
    missing = _unresolved(tracer, selfcheck.EXPECT_CALLED["dataset-300k"])
    assert not missing, "traced stages with no callable binding: " + "; ".join(missing)


def test_lloyd_counter_reads_iterations_run(bench_modules):
    """The tracer counts Lloyd rounds from KMeansResult.iterations_run."""
    tracer, _ = bench_modules
    from anchorforge import kmeans_iou

    result = kmeans_iou(np.array([[2.0, 2.0], [4.0, 4.0], [40.0, 30.0]]), 2, max_iter=1)
    counters = {"cluster.lloyd_iters": 0}
    tracer.OBSERVERS["cluster.kmeans_iou"](counters, (), result)
    assert counters["cluster.lloyd_iters"] == result.iterations_run == 1


def test_counted_bindings_resolve_to_classmethods(bench_modules):
    """The tracer counts calls only through a classmethod binding
    (``AnchorSet.from_array``) and reports anything else as absent."""
    tracer, _ = bench_modules
    assert tracer.COUNTED, "the tracer counts no bindings"
    for name, (module, attr) in tracer.COUNTED.items():
        hit = tracer._resolve(module, attr)
        assert hit is not None, f"{name}: {module}.{attr} does not exist"
        assert isinstance(hit[2], classmethod), f"{name}: {module}.{attr} is not a classmethod"


@pytest.mark.parametrize("rule", ["yolo", "threshold"])
def test_eval_scores_through_the_traced_iou_binding(monkeypatch, rule):
    """The tracer times eval's scoring as ``anchorforge.cluster.iou_aligned_matrix``,
    so build_report must reach the IoU through that binding."""
    import anchorforge.cluster
    from anchorforge import AnchorSet, CanonicalDataset, build_report

    calls = []
    iou = anchorforge.cluster.iou_aligned_matrix

    def counted(*args):
        calls.append(1)
        return iou(*args)

    monkeypatch.setattr(anchorforge.cluster, "iou_aligned_matrix", counted)
    center = np.full(3, 50.0)
    ds = CanonicalDataset(100, ("a", "b", "c"), center, center, np.array([5.0, 10.0, 40.0]), np.array([5.0, 20.0, 30.0]))
    build_report(AnchorSet.from_linear([[8.0, 8.0], [30.0, 30.0]]), ds, assignment_rule=rule)
    assert len(calls) >= 1
