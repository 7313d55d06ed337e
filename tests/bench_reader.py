"""Time read_canonical from two source trees, in alternating pinned pairs.

    python tests/bench_reader.py PARENT_SRC CHANGE_SRC OUT [--pairs 12] [--boxes 300000]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
The script writes the benchmark's COCO file of ``--boxes`` boxes (seed 31,
``perfbench/inputs.write_coco``) and turns it into a canonical file with
PARENT_SRC's ``ingest`` command, in a temporary directory. Then, for
``--pairs`` pairs, it runs two fresh processes per side, the side that
goes first alternating between pairs:

- the benchmark's set-up probe, ``import sys, anchorforge;
  anchorforge.read_canonical(sys.argv[1])``, timed from outside;
- an in-process timing: one untimed read, then the median of three timed
  ``read_canonical`` calls.

Every process of a pair runs pinned to the same CPU, the next pair on the
next CPU, with one BLAS thread and bytecode compiled beforehand into a
cache outside the source trees. OUT is a JSON file: the machine facts,
each tree's sha256, and for each measure both sides' runs, medians and
quartiles and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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

SEED = 31
PROBE_CODE = "import sys, anchorforge; anchorforge.read_canonical(sys.argv[1])"  # perfbench/run.py's SETUP_CODE
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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(cache),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Wall seconds and stdout of a Python child; a failing child ends the script."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv[:2])} failed (exit {proc.returncode}):\n{proc.stderr}")
    return wall, proc.stdout


def summary(parent: list[float], change: list[float]) -> dict:
    """Each side's runs, median and quartiles, and the pairs the change took less time in."""
    out = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
        out[side] = {"runs_s": [round(x, 6) for x in runs], "median": round(median, 6),
                     "q1": round(q1, 6), "q3": round(q3, 6)}
    out["change_won"] = sum(c < p for p, c in zip(parent, change))
    return out


def bench(srcs: dict[str, Path], pairs: int, boxes: int, work: Path) -> dict:
    envs = {side: child_env(src, work / f"pycache-{side}") for side, src in srcs.items()}
    inputs.write_coco(work / "coco.json", boxes, SEED)
    run(["-m", "anchorforge", "ingest", "--format", "coco", "--input", "coco.json", "--out-dir", "ingest"],
        envs["parent"], work)
    canonical = work / "ingest" / "dataset.canonical"
    for side, src in srcs.items():  # compile the bytecode, and check which tree each side imports
        _, where = run(["-c", "import anchorforge.cli; print(anchorforge.__file__)"], envs[side], work)
        if not Path(where.strip()).resolve().is_relative_to(src):
            sys.exit(f"error: the {side} side imports anchorforge from {where.strip()}, not from {src}")
    cpus = sorted(os.sched_getaffinity(0))
    probe = {side: [] for side in SIDES}
    in_process = {side: [] for side in SIDES}
    try:
        for i in range(pairs):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                probe[side].append(run(["-c", PROBE_CODE, str(canonical)], envs[side], work)[0])
                in_process[side].append(float(run(["-c", IN_PROCESS_CODE, str(canonical)], envs[side], work)[1]))
    finally:
        os.sched_setaffinity(0, cpus)
    return {
        "machine": machine(),
        "sources": {side: {"sha256": source_sha256(src)} for side, src in srcs.items()},
        "input": {"coco_boxes": boxes, "seed": SEED, "canonical_bytes": canonical.stat().st_size},
        "method": (f"{pairs} pairs of fresh processes, the first side alternating between pairs; both sides of a "
                   "pair pinned to one CPU, the next pair to the next; one BLAS thread; wall seconds, not calibrated"),
        "pairs": pairs,
        "setup_probe_s": summary(probe["parent"], probe["change"]),
        "read_canonical_in_process_s": summary(in_process["parent"], in_process["change"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the parent checkout's src directory")
    parser.add_argument("change_src", type=Path, help="the changed checkout's src directory")
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=12, help="parent/change pairs (default 12)")
    parser.add_argument("--boxes", type=int, default=300_000, help="boxes in the COCO file (default 300000)")
    args = parser.parse_args()
    srcs = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for side, src in srcs.items():
        if not (src / "anchorforge" / "__init__.py").is_file():
            parser.error(f"{side} source {src} holds no anchorforge package")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        doc = bench(srcs, args.pairs, args.boxes, Path(work))
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for measure in ("setup_probe_s", "read_canonical_in_process_s"):
        parent, change = doc[measure]["parent"]["median"], doc[measure]["change"]["median"]
        print(f"{measure}: parent {parent:.4f}, change {change:.4f} (median), "
              f"change won {doc[measure]['change_won']} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
