"""Rebuild the reference runs of ROADMAP.md in one directory.

    python tests/reference_runs.py OUT [--scale 0.1] [--coco-boxes 300000]

Writes the input files into OUT (a new or empty directory) and runs, in
this process and with OUT as the working directory:

- the four reference optimize runs: the default recipe on
  ``synth.mixture2(1)``, the benchmark's soft run on ``synth.mixture3(1)``,
  and ``--anchor-lr-mult 0`` and ``0.5`` on ``synth.mixture2(1)``, each at
  ``--scale``;
- ingest of a COCO file of ``--coco-boxes`` boxes (seed 31), cluster with
  9 anchors, and eval of those anchors under the yolo and threshold rules;
- compare of the frozen run's anchors (the k-means start) with the default
  run's learned ones.

Every path given to a command is relative, so two checkouts write the same
bytes; compare two output directories with ``diff -r``. Each command's
stdout goes to OUT/<name>.stdout and its errors to stderr; every command
but compare, which writes nothing else, also fills the run directory
OUT/<name>. The exit code is 1 if any command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py, read-only)
from anchorforge.cli import SEED_ENV_VAR, main  # noqa: E402


def commands(scale: float) -> list[tuple[str, list[str]]]:
    """Each command's name (its run directory and stdout file) and arguments."""
    optimize = [
        ("optimize-default", "mixture2", []),
        ("optimize-soft", "mixture3", ["--no-head", "--init", "identical", "--rule", "threshold",
                                       "--warmup-iters", "15000"]),
        ("optimize-frozen", "mixture2", ["--anchor-lr-mult", "0"]),
        ("optimize-half", "mixture2", ["--anchor-lr-mult", "0.5"]),
    ]
    dataset, anchors = "ingest/dataset.canonical", "cluster/anchors.json"
    return [
        *((name, ["optimize", "--dataset", f"{mixture}.canonical", "--scale", repr(scale), *flags])
          for name, mixture, flags in optimize),
        ("ingest", ["ingest", "--format", "coco", "--input", "coco.json"]),
        ("cluster", ["cluster", "--dataset", dataset, "--num-anchors", "9", "--max-iter", "40"]),
        *((f"eval-{rule}", ["eval", "--dataset", dataset, "--anchors", anchors, "--rule", rule])
          for rule in ("yolo", "threshold")),
        ("compare", ["compare", "optimize-frozen/anchors.json", "optimize-default/anchors.json"]),
    ]


def run(out: Path, scale: float, coco_boxes: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"error: {out} is not empty")
    os.chdir(out)
    os.environ.pop(SEED_ENV_VAR, None)  # every seed is the default
    inputs.write_mixture(Path("mixture2.canonical"), "mixture2", 1)
    inputs.write_mixture(Path("mixture3.canonical"), "mixture3", 1)
    inputs.write_coco(Path("coco.json"), coco_boxes, 31)
    failed = []
    for name, argv in commands(scale):
        with open(f"{name}.stdout", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            rc = main(argv if argv[0] == "compare" else [*argv, "--out-dir", name])
        if rc != 0:
            failed.append(f"{name} (exit {rc})")
    if failed:
        print(f"error: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory (new or empty)")
    parser.add_argument("--scale", type=float, default=0.1, help="optimize's --scale (default 0.1)")
    parser.add_argument("--coco-boxes", type=int, default=300_000, help="boxes in the COCO file (default 300000)")
    args = parser.parse_args()
    sys.exit(run(args.out, args.scale, args.coco_boxes))
