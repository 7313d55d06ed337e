"""tests/bench_reader.py runs end to end on a small file."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_reader.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_one_tree_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(SRC), str(out), "--pairs", "2", "--boxes", "500"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["sources"]["parent"] == doc["sources"]["change"]
    assert (doc["input"]["coco_boxes"], doc["input"]["seed"], doc["pairs"]) == (500, 31, 2)
    for measure in ("setup_probe_s", "read_canonical_in_process_s"):
        for side in ("parent", "change"):
            runs = doc[measure][side]["runs_s"]
            assert len(runs) == 2 and all(x > 0 for x in runs)
            assert doc[measure][side]["q1"] <= doc[measure][side]["median"] <= doc[measure][side]["q3"]
        assert 0 <= doc[measure]["change_won"] <= 2
