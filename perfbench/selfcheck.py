"""Self-check of the benchmark itself, at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, with 300 training
iterations and a 3000-box COCO file, and checks that:

- every run is correct, and prints each end-to-end metric of
  BENCHMARK.json by name with its unit, and as a nonzero value;
- the last line is the result JSON object, with exactly the
  end-to-end (untraced) or per-layer (traced) metrics and their units;
- in every traced command, the self times of all spans, the command's
  own ``cli.<cmd>.self_s`` included, add up to the command's traced wall
  time ``cli.<cmd>.s``, which is no longer than the process's wall time;
- the layers each workload is meant to exercise were actually traced.

Exits 1 after printing every failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys

import run
import tracer

TINY = run.Sizes(scale=0.01, coco_boxes=3000)

# traced names each workload must call at least once
EXPECT_CALLED = {
    "train": (
        "trainer.run_training", "assign.hard_assign_yolo", "lossgrad.head_outputs", "lossgrad.grad_head", "cluster.init_kmeans",
        "assign.soft_assign", "assign.hard_assign_threshold", "assign.utilization_counts", "lossgrad.loss",
    ),
    "dataset-300k": ("ingest.parse_coco", "ingest.write_canonical", "cluster.kmeans_iou", "report.build_report"),
}
# and must not call
EXPECT_IDLE = {
    "train": ("ingest.parse_coco",),
    "dataset-300k": ("trainer.run_training",),
}


def check_run(workload: str, trace: int, spec: dict, failures: list[str]) -> None:
    def fail(msg: str) -> None:
        failures.append(f"{workload} trace {trace}: {msg}")

    args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
    res, spans = run.execute(args, TINY)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(json.dumps(run.report(res, spec)))
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"not correct: {res['problems']}")

    for entry in spec["end_to_end"]:
        pattern = re.compile(rf"^  {re.escape(entry['name'])} = (\S+) {re.escape(entry['unit'])}$")
        values = [float(m.group(1)) for m in map(pattern.match, lines) if m]
        if len(values) != 1 or values[0] == 0.0:
            fail(f"end-to-end metric {entry['name']} not printed once, nonzero, in {entry['unit']}")

    key = "per_layer" if trace else "end_to_end"
    want = {entry["name"]: entry["unit"] for entry in spec[key]}
    got = {name: item["unit"] for name, item in result["metrics"].items()}
    if got != want:
        fail(f"JSON metrics differ from BENCHMARK.json {key}: {sorted(set(got) ^ set(want))}")
    if not trace:
        return

    per_layer = res["per_layer"]
    for name in EXPECT_CALLED[workload]:
        if not per_layer.get(f"{name}.calls"):
            fail(f"{name} was not traced")
    for name in EXPECT_IDLE[workload]:
        if per_layer.get(f"{name}.calls"):
            fail(f"{name} was called, expected idle")
    if res["absent"]:
        print(f"{workload}: absent from this program: {', '.join(res['absent'])}")

    for doc in spans:
        rep, cmd = doc["run_id"].split("/")
        summary = tracer.summarize(doc["spans"])
        # the command's root span is cli.<subcommand>: cli.optimize for optimize-head
        root = summary[f"cli.{cmd.split('-')[0]}"]
        total_self = sum(entry["self_s"] for entry in summary.values())
        process_wall = res["repetitions"][int(rep[3:])]["commands"][cmd]["wall_s"]
        if abs(total_self - root["s"]) > 1e-6:
            fail(f"{doc['run_id']}: self times add up to {total_self:.9f} s, command took {root['s']:.9f} s")
        if not 0.0 < root["s"] <= process_wall:
            fail(f"{doc['run_id']}: traced wall {root['s']:.6f} s outside (0, process wall {process_wall:.6f} s]")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec, failures)
            print(f"checked {workload} trace {trace}", flush=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
