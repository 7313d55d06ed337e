"""tests/bench_reader.py runs end to end at small sizes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import sign_test_interval

SCRIPT = Path(__file__).resolve().parent / "bench_reader.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def bench(tmp_path, *options):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(SRC), str(out), "--pairs", "2", *options],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["sources"]["parent"] == doc["sources"]["change"]
    assert doc["pairs"] == 2
    return doc


def check_measures(doc, measures):
    for measure in measures:
        for side in ("parent", "change"):
            runs = doc[measure][side]["runs_s"]
            assert len(runs) == 2 and all(x > 0 for x in runs)
            assert doc[measure][side]["q1"] <= doc[measure][side]["median"] <= doc[measure][side]["q3"]
        assert 0 <= doc[measure]["change_won"] <= 2


def test_one_tree_against_itself(tmp_path):
    doc = bench(tmp_path, "--boxes", "500")
    assert doc["measure"] == "read"
    assert (doc["input"]["coco_boxes"], doc["input"]["seed"]) == (500, 31)
    check_measures(doc, ("setup_probe_s", "read_canonical_in_process_s"))


def test_train_measure_runs_the_benchmark_commands(tmp_path):
    """The train measure runs perfbench's train workload commands with their
    flags, end to end and with run_training timed in-process."""
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(SCRIPT.parents[1] / "perfbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        import run as perfbench_run
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = saved
        sys.modules.pop("run", None)
    doc = bench(tmp_path, "--measure", "train", "--scale", "0.01")
    trainings = perfbench_run.WORKLOADS["train"].trainings
    assert doc["measure"] == "train" and doc["input"]["scale"] == 0.01
    assert list(doc["input"]["commands"]) == [t.name for t in trainings]
    for t in trainings:
        argv = doc["input"]["commands"][t.name]["argv"]
        assert argv[0] == "optimize" and argv[len(argv) - len(t.flags):] == list(t.flags)
        assert argv[argv.index("--scale") + 1] == "0.01"
    measures = [f"{t.name}{suffix}" for t in trainings for suffix in ("_s", ".run_training_in_process_s")]
    check_measures(doc, measures + ["optimize_commands_s"])
    for side in ("parent", "change"):
        total = doc["optimize_commands_s"][side]["runs_s"]
        parts = zip(*(doc[f"{t.name}_s"][side]["runs_s"] for t in trainings))
        assert total == pytest.approx([sum(p) for p in parts], abs=1e-5)


def test_pipeline_measure_runs_the_dataset_commands(tmp_path):
    """The pipeline measure times ingest, cluster and eval, and their sum,
    and k-means in-process."""
    doc = bench(tmp_path, "--measure", "pipeline", "--boxes", "500")
    assert doc["measure"] == "pipeline" and doc["input"]["coco_boxes"] == 500
    commands = doc["input"]["commands"]
    assert [argv[0] for argv in commands.values()] == list(commands) == ["ingest", "cluster", "eval"]
    assert commands["cluster"][commands["cluster"].index("--max-iter") + 1] == "40"
    check_measures(doc, ("ingest_s", "cluster_s", "eval_s", "pipeline_s", "cluster.kmeans_in_process_s"))
    for side in ("parent", "change"):
        parts = zip(*(doc[f"{name}_s"][side]["runs_s"] for name in commands))
        assert doc["pipeline_s"][side]["runs_s"] == pytest.approx([sum(p) for p in parts], abs=1e-5)


@pytest.fixture
def bench_reader():
    saved, path = sys.dont_write_bytecode, list(sys.path)
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import bench_reader  # puts src, tests and perfbench on sys.path, and leaves no __pycache__ there
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = saved
        for name in ("bench_reader", "run", "inputs"):
            sys.modules.pop(name, None)
    return bench_reader


def test_sides_that_write_different_files_end_the_script(tmp_path, bench_reader):
    for side, text in (("parent", "a"), ("change", "b")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "f").write_text(text)
    with pytest.raises(SystemExit, match="^error: the two sides wrote different f$"):
        bench_reader.same_outputs(tmp_path, ["f"])


# (ratios, the sign test's 95% interval, verdict)
RATIO_CASES = [
    ([0.9, 0.8, 0.85, 0.95, 0.9], None, "unresolved"),  # below 6 pairs, though every pair is faster
    ([0.9, 0.95, 0.97, 0.92, 0.91, 0.99], (0.9, 0.99), "faster"),  # 6 pairs: the extremes, 96.9%
    ([1.02, 0.98, 1.0, 1.0, 1.01, 0.97, 1.0, 1.03, 0.99, 1.0, 1.05], (0.98, 1.03), "unresolved"),  # odd, ties at 1
    ([1.1, 1.04, 1.04, 1.2, 1.04, 1.07, 1.3, 1.02, 1.04, 1.06, 1.01, 0.98], (1.02, 1.1), "slower"),  # ties inside
    ([0.97] * 7 + [1.0] * 7, (0.97, 1.0), "unresolved"),  # the interval reaches 1
]


@pytest.mark.parametrize("ratios, interval, verdict", RATIO_CASES)
def test_median_interval_matches_the_sign_test_longhand(bench_reader, ratios, interval, verdict):
    assert bench_reader.median_interval(ratios) == sign_test_interval(ratios) == interval
    assert bench_reader.verdict(interval) == verdict


def test_summary_judges_the_per_pair_ratios(bench_reader):
    parent = [2.0, 1.0, 4.0, 2.0, 1.0, 2.0, 3.0]
    change = [1.8, 0.95, 3.6, 1.9, 0.8, 1.9, 2.7]
    out = bench_reader.summary(parent, change)
    assert out["ratios"] == pytest.approx([0.9, 0.95, 0.9, 0.95, 0.8, 0.95, 0.9])
    assert out["ratio_median"] == pytest.approx(0.9)
    assert out["ratio_interval_95"] == pytest.approx([0.8, 0.95])
    assert (out["verdict"], out["change_won"]) == ("faster", 7)
