"""The benchmark traces the training stages by the names the trainer calls.

perfbench/tracer.py wraps module-level bindings (``anchorforge.trainer.
head_outputs`` and so on) and perfbench/selfcheck.py requires each stage
in ``EXPECT_CALLED["train"]`` to be traced. A refactor that renames or
drops one of those bindings fails here, in the unit tests, and not only
in the benchmark's own self-check. The two files are imported, never
changed.
"""

import importlib
import sys
from pathlib import Path

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


def test_train_stages_resolve_to_callables(bench_modules):
    tracer, selfcheck = bench_modules
    missing = []
    for name in selfcheck.EXPECT_CALLED["train"]:
        bindings = tracer.TRACED.get(name, ())
        hits = [tracer._resolve(module, attr) for module, attr in bindings]
        if not any(hit is not None and callable(hit[2]) for hit in hits):
            missing.append(f"{name} -> {bindings}")
    assert not missing, "traced stages with no callable binding: " + "; ".join(missing)
