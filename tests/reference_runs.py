"""Rebuild the reference runs of ROADMAP.md in one directory.

    python tests/reference_runs.py OUT [--scale 0.1] [--coco-boxes 300000] [--write-digests]

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

``tests/reference_digests.json`` holds ``digests`` of the build at
``--scale 0.01 --coco-boxes 3000``, which ``tests/test_reference_runs.py``
checks; ``--write-digests`` rewrites it from this build. A change that
moves those outputs commits the new file and says so.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "reference_digests.json"
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py, read-only)
from anchorforge.cli import main  # noqa: E402


# each optimize run's name, dataset and flags
OPTIMIZE = [
    ("optimize-default", "mixture2", []),
    ("optimize-soft", "mixture3", ["--no-head", "--init", "identical", "--rule", "threshold",
                                   "--warmup-iters", "15000"]),
    ("optimize-frozen", "mixture2", ["--anchor-lr-mult", "0"]),
    ("optimize-half", "mixture2", ["--anchor-lr-mult", "0.5"]),
]


def commands(scale: float) -> list[tuple[str, list[str]]]:
    """Each command's name (its run directory and stdout file) and arguments."""
    dataset, anchors = "ingest/dataset.canonical", "cluster/anchors.json"
    return [
        *((name, ["optimize", "--dataset", f"{mixture}.canonical", "--scale", repr(scale), *flags])
          for name, mixture, flags in OPTIMIZE),
        ("ingest", ["ingest", "--format", "coco", "--input", "coco.json"]),
        ("cluster", ["cluster", "--dataset", dataset, "--num-anchors", "9", "--max-iter", "40"]),
        *((f"eval-{rule}", ["eval", "--dataset", dataset, "--anchors", anchors, "--rule", rule])
          for rule in ("yolo", "threshold")),
        ("compare", ["compare", "optimize-frozen/anchors.json", "optimize-default/anchors.json"]),
    ]


def digests(out: Path) -> dict:
    """The sha256 of each file in a build OUT but the optimize runs', whose
    effective.cfg alone is digested, and each optimize run's final anchors
    and avg_best_iou, kept as values: their last digits follow the host's
    SIMD and BLAS dispatch (ROADMAP item 4)."""
    runs = [name for name, _, _ in OPTIMIZE]
    sha256 = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        run = name.split("/")[0].removesuffix(".stdout")
        if path.is_file() and (run not in runs or name == f"{run}/effective.cfg"):
            sha256[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    values = {run: {"anchors": json.loads((out / run / "anchors.json").read_text())["anchors"],
                    "avg_best_iou": json.loads((out / run / "summary.json").read_text())["metrics_after"]["avg_best_iou"]}
              for run in runs}
    return {"sha256": sha256, "optimize": values}


def run(out: Path, scale: float, coco_boxes: int, write_digests: bool = False) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"error: {out} is not empty")
    os.chdir(out)
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
        return 1
    if write_digests:
        doc = {"scale": scale, "coco_boxes": coco_boxes, **digests(Path.cwd())}
        DIGESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory (new or empty)")
    parser.add_argument("--scale", type=float, default=0.1, help="optimize's --scale (default 0.1)")
    parser.add_argument("--coco-boxes", type=int, default=300_000, help="boxes in the COCO file (default 300000)")
    parser.add_argument("--write-digests", action="store_true", help=f"rewrite {DIGESTS.relative_to(ROOT)} from this build")
    args = parser.parse_args()
    sys.exit(run(args.out, args.scale, args.coco_boxes, args.write_digests))
