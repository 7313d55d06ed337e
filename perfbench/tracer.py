"""Spans around the calls one anchorforge command makes into its layers.

The tracer works from outside the program: it replaces module-level
names with timing wrappers before the command runs. A name is wrapped
in the namespace of the module that *calls* it (``trainer`` imports
``soft_assign`` from ``assign``, so ``anchorforge.trainer.soft_assign``
is the one replaced), because that is the binding the caller looks up.
A name that no longer exists is reported as absent, never as an error,
so the trace keeps working while the program is refactored.

Spans live in memory as ``[name, start, end, parent]`` and are written
once, when the command ends. ``summarize`` turns a command's spans into
per-name call counts, total time and self time (total minus the time of
the traced calls made directly inside it).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# metric prefix -> the (module, attribute) bindings that callers use
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "trainer.run_training": (("anchorforge.cli", "run_training"),),
    "trainer.sgd_step": (("anchorforge.trainer", "sgd_step"),),
    "assign.soft_assign": (("anchorforge.trainer", "soft_assign"),),
    "assign.hard_assign_yolo": (("anchorforge.trainer", "hard_assign_yolo"), ("anchorforge.report", "hard_assign_yolo")),
    "assign.hard_assign_threshold": (
        ("anchorforge.trainer", "hard_assign_threshold"),
        ("anchorforge.report", "hard_assign_threshold"),
    ),
    "assign.utilization_counts": (("anchorforge.trainer", "utilization_counts"), ("anchorforge.report", "utilization_counts")),
    "lossgrad.make_features": (("anchorforge.trainer", "make_features"),),
    "lossgrad.head_outputs": (("anchorforge.trainer", "head_outputs"),),
    "lossgrad.grad_head": (("anchorforge.trainer", "grad_head"),),
    "lossgrad.loss": (("anchorforge.trainer", "_loss_from_arrays"),),
    "lossgrad.grad_anchors": (("anchorforge.trainer", "_grad_anchors_from_arrays"),),
    "geometry.iou_aligned_matrix": (("anchorforge.cluster", "iou_aligned_matrix"), ("anchorforge.report", "iou_aligned_matrix")),
    "ingest.parse_coco": (("anchorforge.cli", "parse_coco"),),
    "ingest.normalize_to_canvas": (("anchorforge.cli", "normalize_to_canvas"),),
    "ingest.write_canonical": (("anchorforge.cli", "write_canonical"),),
    "ingest.read_canonical": (("anchorforge.cli", "read_canonical"),),
    "ingest.shapes": (("anchorforge.ingest", "CanonicalDataset.shapes"),),
    "cluster.kmeans_iou": (("anchorforge.cli", "kmeans_iou"), ("anchorforge.cluster", "kmeans_iou")),
    "cluster.init_kmeans": (("anchorforge.cli", "init_kmeans"),),
    "report.build_report": (("anchorforge.cli", "build_report"),),
    "report.avg_best_iou": (("anchorforge.cli", "avg_best_iou"), ("anchorforge.report", "avg_best_iou")),
    "report.recall_at": (("anchorforge.cli", "recall_at"), ("anchorforge.report", "recall_at")),
    "report.write_anchors_json": (("anchorforge.cli", "write_anchors_json"),),
}

# called once (sgd_step: once per parameter block) per training iteration;
# their per-call percentiles come from calls made directly by run_training
PER_ITERATION = (
    "trainer.sgd_step",
    "assign.soft_assign",
    "assign.hard_assign_yolo",
    "assign.hard_assign_threshold",
    "assign.utilization_counts",
    "lossgrad.make_features",
    "lossgrad.head_outputs",
    "lossgrad.grad_head",
    "lossgrad.loss",
    "lossgrad.grad_anchors",
)

# counted, not timed: each call is a few microseconds
COUNTED = {"geometry.anchorset_builds": ("anchorforge.geometry", "AnchorSet.from_array")}

SOFT_USEFUL_WEIGHT = 1e-3


def _count_entries(counters, args, result):
    counters["assign.entries"] += len(result)
    counters["assign.boxes"] += len(args[0])


def _count_soft_entries(counters, args, result):
    _count_entries(counters, args, result)
    counters["assign.soft_entries"] += len(result)
    counters["assign.soft_useful"] += int((result.weights >= SOFT_USEFUL_WEIGHT).sum())


def _count_lloyd(counters, args, result):
    counters["cluster.lloyd_iters"] += result.iterations_run


# work counts taken from a traced call's arguments and result
OBSERVERS = {
    "assign.soft_assign": _count_soft_entries,
    "assign.hard_assign_yolo": _count_entries,
    "assign.hard_assign_threshold": _count_entries,
    "cluster.kmeans_iou": _count_lloyd,
}


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Span recorder for one command process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._broken: set[str] = set()

    def wrap(self, name: str, func, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                self._observe(name, observe, args, result)
            return result

        return traced

    def _observe(self, name, observe, args, result) -> None:
        if name in self._broken:
            return
        try:
            observe(self.counters, args, result)
        except (AttributeError, TypeError, IndexError):
            # the arguments or result no longer have the shape this count reads
            self._broken.add(name)
            self.absent.append(f"{name}:counts")

    def _count(self, name: str, func):
        counters = self.counters

        @functools.wraps(func)
        def counted(*args, **kwargs):
            counters[name] += 1
            return func(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every traced binding that exists; record the rest as absent."""
        for name, bindings in TRACED.items():
            found = False
            for module_name, attr_path in bindings:
                hit = _resolve(module_name, attr_path)
                if hit is None:
                    continue
                owner, attr, value = hit
                setattr(owner, attr, self.wrap(name, value, OBSERVERS.get(name)))
                found = True
            if not found:
                self.absent.append(name)
        for name, (module_name, attr_path) in COUNTED.items():
            hit = _resolve(module_name, attr_path)
            if hit is None or not isinstance(hit[2], classmethod):
                self.absent.append(name)
                continue
            owner, attr, value = hit
            setattr(owner, attr, classmethod(self._count(name, value.__func__)))

    def dump(self, path) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "counters": dict(self.counters), "absent": self.absent}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, and the
    durations (seconds) of calls made directly by ``trainer.run_training``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "iter_durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if parent >= 0 and spans[parent][0] == "trainer.run_training":
            entry["iter_durations"].append(end - start)
    return out
