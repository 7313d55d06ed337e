"""tests/reference_runs.py rebuilds the reference runs the same way twice."""

import csv
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "reference_runs.py"


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_are_byte_identical_and_anchors_match_trajectory(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        proc = subprocess.run([sys.executable, str(SCRIPT), str(out), "--scale", "0.01", "--coco-boxes", "3000"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
    first, second = _files(outs[0]), _files(outs[1])
    assert "eval-threshold/report.json" in first and "optimize-half/trajectory.csv" in first
    assert b"mean matched log-space distance: " in first["compare.stdout"]
    assert first == second
    for run in ("optimize-default", "optimize-soft", "optimize-frozen", "optimize-half"):
        with open(outs[0] / run / "trajectory.csv", encoding="utf-8") as fh:
            header, *_, last = csv.reader(fh)
        row = dict(zip(header, map(float, last)))
        pairs = [[row[f"w{i}"], row[f"h{i}"]] for i in range(1, 6)]
        doc = json.loads((outs[0] / run / "anchors.json").read_text())
        # anchors.json prints the trajectory's last anchors, sorted by area
        assert doc["anchors"] == sorted(pairs, key=lambda p: p[0] * p[1]), run
