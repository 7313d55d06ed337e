"""Time two source trees against each other, in alternating pinned pairs.

    python tests/bench_reader.py PARENT_SRC CHANGE_SRC OUT [--measure read|pipeline|train] [--pairs 12]
                                 [--boxes 300000] [--scale 0.1]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
For ``--pairs`` pairs, the script runs fresh processes for each side, the
side that goes first alternating between pairs. The measures:

- ``read`` (the default): the script writes the benchmark's COCO file of
  ``--boxes`` boxes (seed 31, ``perfbench/inputs.write_coco``), and each
  side turns it into a canonical file with its own ``ingest`` command, so
  that what a side's writer leaves beside the file (a sidecar) is what its
  reader finds; the two canonical files must be byte-identical. Each side
  then runs the benchmark's set-up probe, ``perfbench/run.py``'s
  ``SETUP_CODE`` (one ``read_canonical``), on its own file, timed from
  outside, and an in-process timing: one untimed read, then the median of
  three timed ``read_canonical`` calls.
- ``pipeline``: the commands of the benchmark's ``dataset-300k`` workload
  on the same COCO file, each timed from outside: ``ingest``, ``cluster
  --num-anchors 9 --max-iter 40`` and ``eval``, and their sum; then the
  ``cluster`` command in one process four times with
  ``anchorforge.cli.kmeans_iou`` timed: the median of the last three. The
  two sides' ``dataset.canonical``, ``anchors.json`` and ``report.json``
  must be byte-identical.
- ``train``: the commands of the benchmark's ``train`` workload, each
  ``optimize --scale`` with the flags of ``perfbench/run.py``'s
  ``WORKLOADS`` on its ``tests/synth.py`` mixture (seed 1). Each side runs
  every command once, timed from outside (and their sum, a repetition of
  the workload), then the same command in one process four times with
  ``anchorforge.cli.run_training`` timed: the median of the last three.

Every process of a pair runs pinned to the same CPU, the next pair on the
next CPU, with one BLAS thread. The caller's ``PYTHONDONTWRITEBYTECODE``
is kept, as perfbench keeps it: when it is set, every process compiles
the package from source, else the package's bytecode is compiled
beforehand into a cache outside the source trees. OUT is a JSON file: the machine facts,
each tree's sha256, and for each measure both sides' runs, medians and
quartiles, the number of pairs the change won, the per-pair ratios
(change over parent), their median with a 95% interval for it, and a
verdict: faster or slower when the interval excludes 1, else unresolved.
The interval is the sign test's: the order statistics that cover the
median with at least 95% probability whatever the ratios' distribution.
Below 6 pairs no such interval exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402  (perfbench/inputs.py, read-only)
import run as perfbench_run  # noqa: E402  (perfbench/run.py, read-only)

SEED = 31
TRAIN_SEED = 1  # the mixtures of tests/reference_runs.py
INGEST = ["ingest", "--format", "coco", "--input", "../coco.json", "--out-dir", "ingest"]  # run in a side's directory
IN_PROCESS_CODE = """
import statistics, sys, time
from anchorforge import read_canonical
read_canonical(sys.argv[1])
times = []
for _ in range(3):
    start = time.perf_counter()
    read_canonical(sys.argv[1])
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
# runs the command argv[2] (JSON) four times in one process, timing the
# anchorforge.cli binding named argv[1]; prints the median of the last three
COMMAND_IN_PROCESS_CODE = """
import contextlib, io, json, statistics, sys, time
import anchorforge.cli as cli
times = []
inner = getattr(cli, sys.argv[1])
def timed(*args, **kwargs):
    start = time.perf_counter()
    result = inner(*args, **kwargs)
    times.append(time.perf_counter() - start)
    return result
setattr(cli, sys.argv[1], timed)
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(4):
        cli.main(json.loads(sys.argv[2]))
print(statistics.median(times[1:]))
"""
SIDES = ("parent", "change")


def source_sha256(src: Path) -> str:
    """sha256 over the package's .py files in path order, each as its path
    relative to src, a NUL byte and its content."""
    digest = hashlib.sha256()
    for path in sorted((src / "anchorforge").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "platform": platform.platform()}


def child_env(src: Path, cache: Path) -> dict:
    """The caller's environment, as perfbench passes it, with one BLAS thread
    and src first on the path. Bytecode goes to ``cache``, outside the source
    trees, unless PYTHONDONTWRITEBYTECODE is set: then nothing is written, and
    a cache prefix would only hide the installed bytecode of numpy and the
    standard library, so that every process compiled them too."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if not env.get("PYTHONDONTWRITEBYTECODE"):
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def run(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Wall seconds and stdout of a Python child; a failing child ends the script."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv[:2])} failed (exit {proc.returncode}):\n{proc.stderr}")
    return wall, proc.stdout


def median_interval(ratios: list[float]) -> "tuple[float, float] | None":
    """The sign test's 95% interval for the median of ``ratios``: the j-th
    smallest and j-th largest, for the largest j with P(Binomial(n, 1/2) < j)
    <= 2.5%; None when even the extremes cover less than 95% (n < 6)."""
    n, ordered = len(ratios), sorted(ratios)
    j = 0
    while 40 * sum(math.comb(n, i) for i in range(j + 1)) <= 2**n:
        j += 1
    return (ordered[j - 1], ordered[n - j]) if j else None


def verdict(interval: "tuple[float, float] | None") -> str:
    """Faster or slower when the interval excludes 1, else unresolved."""
    low, high = interval or (1, 1)
    return "faster" if high < 1 else "slower" if low > 1 else "unresolved"


def summary(parent: list[float], change: list[float]) -> dict:
    """Each side's runs, median and quartiles, the pairs the change took less
    time in, and the per-pair ratios, their median, its interval and the verdict."""
    out = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
        out[side] = {"runs_s": [round(x, 6) for x in runs], "median": round(median, 6),
                     "q1": round(q1, 6), "q3": round(q3, 6)}
    out["change_won"] = sum(c < p for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change)]
    interval = median_interval(ratios)
    out.update(ratios=[round(r, 6) for r in ratios], ratio_median=round(statistics.median(ratios), 6),
               ratio_interval_95=None if interval is None else [round(x, 6) for x in interval],
               verdict=verdict(interval))
    return out


def prepare(srcs: dict[str, Path], work: Path) -> dict[str, dict]:
    """Each side's child environment; compiles each tree's bytecode, unless
    the caller's PYTHONDONTWRITEBYTECODE is set, and checks that each side
    imports its own tree."""
    envs = {side: child_env(src, work / f"pycache-{side}") for side, src in srcs.items()}
    for side, src in srcs.items():
        _, where = run(["-c", "import anchorforge.cli; print(anchorforge.__file__)"], envs[side], work)
        if not Path(where.strip()).resolve().is_relative_to(src):
            sys.exit(f"error: the {side} side imports anchorforge from {where.strip()}, not from {src}")
    return envs


def paired(pairs: int, measure_side) -> dict[str, dict]:
    """The summary of each measure that ``measure_side(side)`` returns as a
    {name: seconds} dict, over alternating pairs pinned one CPU per pair."""
    cpus = sorted(os.sched_getaffinity(0))
    runs: dict[str, dict[str, list[float]]] = {}
    try:
        for i in range(pairs):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                for name, seconds in measure_side(side).items():
                    runs.setdefault(name, {s: [] for s in SIDES})[side].append(seconds)
    finally:
        os.sched_setaffinity(0, cpus)
    return {name: summary(r["parent"], r["change"]) for name, r in runs.items()}


def same_outputs(work: Path, names: list[str]) -> None:
    """End the script unless each named file is byte-identical in the two sides' directories."""
    for name in names:
        if (work / "parent" / name).read_bytes() != (work / "change" / name).read_bytes():
            sys.exit(f"error: the two sides wrote different {name}")


def run_in_side(side: str, argv: list[str], envs: dict, work: Path) -> float:
    """Wall seconds of one side's anchorforge command, run in its own directory <side>."""
    (work / side).mkdir(exist_ok=True)
    return run(["-m", "anchorforge", *argv], envs[side], work / side)[0]


def bench_read(srcs: dict[str, Path], pairs: int, args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """The input facts and the measures of ``--measure read``."""
    envs = prepare(srcs, work)
    inputs.write_coco(work / "coco.json", args.boxes, SEED)
    for side in SIDES:
        run_in_side(side, INGEST, envs, work)
    same_outputs(work, ["ingest/dataset.canonical"])

    def measure_side(side: str) -> dict[str, float]:
        canonical = str(work / side / "ingest" / "dataset.canonical")
        return {"setup_probe_s": run(["-c", perfbench_run.SETUP_CODE, canonical], envs[side], work)[0],
                "read_canonical_in_process_s": float(run(["-c", IN_PROCESS_CODE, canonical], envs[side], work)[1])}

    facts = {"coco_boxes": args.boxes, "seed": SEED,
             "canonical_bytes": (work / "parent" / "ingest" / "dataset.canonical").stat().st_size}
    return facts, paired(pairs, measure_side)


def bench_pipeline(srcs: dict[str, Path], pairs: int, args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """The input facts and the measures of ``--measure pipeline``."""
    envs = prepare(srcs, work)
    inputs.write_coco(work / "coco.json", args.boxes, SEED)
    canonical = "ingest/dataset.canonical"
    commands = {
        "ingest": INGEST,
        "cluster": ["cluster", "--dataset", canonical, "--num-anchors", "9", "--max-iter", str(perfbench_run.LLOYD_ROUNDS),
                    "--out-dir", "cluster"],
        "eval": ["eval", "--dataset", canonical, "--anchors", "cluster/anchors.json", "--out-dir", "eval"],
    }

    def measure_side(side: str) -> dict[str, float]:
        out = {f"{name}_s": run_in_side(side, argv, envs, work) for name, argv in commands.items()}
        out["pipeline_s"] = sum(out.values())
        code = ["-c", COMMAND_IN_PROCESS_CODE, "kmeans_iou", json.dumps(commands["cluster"])]
        out["cluster.kmeans_in_process_s"] = float(run(code, envs[side], work / side)[1])
        return out

    measures = paired(pairs, measure_side)
    same_outputs(work, [canonical, "cluster/anchors.json", "eval/report.json"])
    return {"coco_boxes": args.boxes, "seed": SEED, "commands": commands}, measures


def bench_train(srcs: dict[str, Path], pairs: int, args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """The input facts and the measures of ``--measure train``."""
    envs = prepare(srcs, work)
    commands = {}
    facts = {"seed": TRAIN_SEED, "scale": args.scale, "commands": {}}
    for t in perfbench_run.WORKLOADS["train"].trainings:
        dataset = f"{t.mixture}.canonical"
        boxes = inputs.write_mixture(work / dataset, t.mixture, TRAIN_SEED)
        commands[t.name] = ["optimize", "--dataset", dataset, "--scale", repr(args.scale), "--out-dir", t.name, *t.flags]
        facts["commands"][t.name] = {"argv": commands[t.name], "boxes": boxes}

    def measure_side(side: str) -> dict[str, float]:
        out = {f"{name}_s": run(["-m", "anchorforge", *argv], envs[side], work)[0] for name, argv in commands.items()}
        out["optimize_commands_s"] = sum(out.values())
        for name, argv in commands.items():
            code = ["-c", COMMAND_IN_PROCESS_CODE, "run_training", json.dumps(argv)]
            out[f"{name}.run_training_in_process_s"] = float(run(code, envs[side], work)[1])
        return out

    return facts, paired(pairs, measure_side)


MEASURES = {"read": bench_read, "pipeline": bench_pipeline, "train": bench_train}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the parent checkout's src directory")
    parser.add_argument("change_src", type=Path, help="the changed checkout's src directory")
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--measure", choices=sorted(MEASURES), default="read", help="what to time (default read)")
    parser.add_argument("--pairs", type=int, default=12, help="parent/change pairs (default 12)")
    parser.add_argument("--boxes", type=int, default=300_000, help="read and pipeline: boxes in the COCO file (default 300000)")
    parser.add_argument("--scale", type=float, default=perfbench_run.Sizes().scale,
                        help="train: optimize's --scale (default the benchmark's, %(default)s)")
    args = parser.parse_args()
    srcs = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for side, src in srcs.items():
        if not (src / "anchorforge" / "__init__.py").is_file():
            parser.error(f"{side} source {src} holds no anchorforge package")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        facts, measures = MEASURES[args.measure](srcs, args.pairs, args, Path(work))
    doc = {
        "machine": machine(),
        "sources": {side: {"sha256": source_sha256(src)} for side, src in srcs.items()},
        "measure": args.measure,
        "input": facts,
        "method": (f"{args.pairs} pairs of fresh processes, the first side alternating between pairs; both sides of a "
                   "pair pinned to one CPU, the next pair to the next; one BLAS thread; wall seconds, not calibrated; "
                   + ("bytecode compiled in every process (PYTHONDONTWRITEBYTECODE set)"
                      if os.environ.get("PYTHONDONTWRITEBYTECODE") else "bytecode cached beforehand")),
        "pairs": args.pairs,
        **measures,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, result in measures.items():
        parent, change = result["parent"]["median"], result["change"]["median"]
        print(f"{name}: parent {parent:.4f}, change {change:.4f} (median), change won {result['change_won']} of "
              f"{args.pairs}, ratio {result['ratio_median']:.4f} {result['ratio_interval_95']}: {result['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
