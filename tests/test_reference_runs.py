"""tests/reference_runs.py rebuilds the reference runs the same way twice,
and as tests/reference_digests.json records them."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent / "reference_runs.py"

saved = sys.dont_write_bytecode
import reference_runs  # noqa: E402  (sets dont_write_bytecode: it imports perfbench/inputs.py)

sys.dont_write_bytecode = saved


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """Two builds at the size the committed digests record."""
    outs = [tmp_path_factory.mktemp("reference") / name for name in ("a", "b")]
    for out in outs:
        proc = subprocess.run([sys.executable, str(SCRIPT), str(out), "--scale", "0.01", "--coco-boxes", "3000"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
    return outs


def test_two_runs_are_byte_identical_and_anchors_match_trajectory(builds):
    first, second = _files(builds[0]), _files(builds[1])
    assert "eval-threshold/report.json" in first and "optimize-half/trajectory.csv" in first
    assert b"mean matched log-space distance: " in first["compare.stdout"]
    assert first == second
    for run in ("optimize-default", "optimize-soft", "optimize-frozen", "optimize-half"):
        with open(builds[0] / run / "trajectory.csv", encoding="utf-8") as fh:
            header, *_, last = csv.reader(fh)
        row = dict(zip(header, map(float, last)))
        pairs = [[row[f"w{i}"], row[f"h{i}"]] for i in range(1, 6)]
        doc = json.loads((builds[0] / run / "anchors.json").read_text())
        # anchors.json prints the trajectory's last anchors, sorted by area
        assert doc["anchors"] == sorted(pairs, key=lambda p: p[0] * p[1]), run


def test_build_matches_committed_digests(builds):
    """An unintended change of output bytes fails here; an intended one
    commits the file that `reference_runs.py --write-digests` writes."""
    want = json.loads(reference_runs.DIGESTS.read_text(encoding="utf-8"))
    assert (want["scale"], want["coco_boxes"]) == (0.01, 3000)
    got = reference_runs.digests(builds[0])
    changed = sorted(k for k in want["sha256"].keys() | got["sha256"].keys()
                     if want["sha256"].get(k) != got["sha256"].get(k))
    assert changed == [], f"files whose sha256 changed: {changed}"
    assert got["optimize"].keys() == want["optimize"].keys()
    for run, values in want["optimize"].items():
        np.testing.assert_allclose(got["optimize"][run]["anchors"], values["anchors"], rtol=1e-12, atol=0, err_msg=run)
        assert math.isclose(got["optimize"][run]["avg_best_iou"], values["avg_best_iou"], rel_tol=0, abs_tol=1e-12), run
