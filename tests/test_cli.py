import configparser
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorforge
from anchorforge.cli import _SPECS, main

REPO_ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("ingest", "cluster", "optimize", "eval", "compare")


def write_csv(path, n=120, seed=5):
    rng = np.random.default_rng(seed)
    lines = ["image_id,image_w,image_h,x_min,y_min,x_max,y_max"]
    for i in range(n):
        w = float(np.exp(rng.normal(np.log(60.0), 0.4)))
        h = float(np.exp(rng.normal(np.log(80.0), 0.4)))
        x0 = float(rng.uniform(0.0, 400.0 - w))
        y0 = float(rng.uniform(0.0, 400.0 - h))
        lines.append(f"im{i:04d},400,400,{x0:.2f},{y0:.2f},{x0 + w:.2f},{y0 + h:.2f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def dataset_file(tmp_path):
    csv_path = tmp_path / "boxes.csv"
    write_csv(csv_path)
    out = tmp_path / "ingested"
    rc = main(["ingest", "--format", "csv", "--input", str(csv_path), "--out-dir", str(out)])
    assert rc == 0
    return out / "dataset.canonical"


class TestIngest:
    def test_writes_dataset_and_config(self, tmp_path, dataset_file, capsys):
        assert dataset_file.exists()
        cfg = configparser.ConfigParser()
        cfg.read(dataset_file.parent / "effective.cfg")
        assert cfg["ingest"]["canvas"] == "416"
        assert cfg["ingest"]["format"] == "csv"

    def test_prints_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "boxes.csv"
        write_csv(csv_path, n=50)
        rc = main(["ingest", "--format", "csv", "--input", str(csv_path),
                   "--out-dir", str(tmp_path / "run")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parsed 50 boxes" in out
        assert "quantiles" in out

    def test_unknown_format(self, tmp_path, capsys):
        rc = main(["ingest", "--format", "csv", "--input", str(tmp_path / "x.csv"),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2

    @pytest.mark.parametrize("text, match", [
        ('[{"id": 1}]', "got a list"),
        ('{"images": [{"id": 1, "width": 10, "height": 10}], "annotations": [{"id": 4, "image_id": 1}]}',
         "annotation 4 needs a bbox"),
    ])
    def test_malformed_coco_exits_2(self, tmp_path, capsys, text, match):
        p = tmp_path / "ann.json"
        p.write_text(text)
        rc = main(["ingest", "--format", "coco", "--input", str(p), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(p) in err and match in err
        assert not (tmp_path / "run").exists()

    def test_infinite_image_size_exits_2(self, tmp_path, capsys):
        """An infinite image size used to drop its box as too small and exit 0."""
        p = tmp_path / "boxes.csv"
        p.write_text("image_id,image_w,image_h,x_min,y_min,x_max,y_max\nimg1,inf,480,10,20,110,70\n")
        rc = main(["ingest", "--format", "csv", "--input", str(p), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "line 2: image size inf" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_input_flag(self, tmp_path, capsys):
        rc = main(["ingest", "--format", "csv", "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "missing required option" in err


class TestCluster:
    def test_produces_anchor_files(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "clustered"
        rc = main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "3",
                   "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "anchors.json").read_text())
        assert len(doc["anchors"]) == 3
        assert (out / "anchors.txt").read_text().count(",") == 5
        assert "mean best IoU" in capsys.readouterr().out

    def test_too_few_boxes(self, tmp_path, capsys):
        csv_path = tmp_path / "boxes.csv"
        write_csv(csv_path, n=3)
        ing = tmp_path / "ing"
        main(["ingest", "--format", "csv", "--input", str(csv_path), "--out-dir", str(ing)])
        rc = main(["cluster", "--dataset", str(ing / "dataset.canonical"),
                   "--num-anchors", "5", "--out-dir", str(tmp_path / "c")])
        assert rc == 2
        assert "3 boxes but 5 clusters" in capsys.readouterr().err


class TestOptionChoices:
    """A config value outside an option's choices stops the command before
    its run directory exists: the choices argparse checks for the flag."""

    @pytest.mark.parametrize("command, extra", [
        ("cluster", []),
        ("optimize", ["--iters", "5", "--no-head"]),
    ])
    def test_bad_units_in_config_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, command, extra):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{command}]\ndataset = {dataset_file}\nnum_anchors = 2\nunits = furlongs\n")
        out = tmp_path / "run"
        rc = main([command, "--config", str(cfg_file), *extra, "--out-dir", str(out)])
        assert rc == 2
        assert "unknown units 'furlongs' (expected pixels, cells)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("ingest", "format"), ("optimize", "init"), ("optimize", "rule"), ("eval", "rule"),
    ])
    def test_config_and_flag_share_choices(self, tmp_path, capsys, command, key):
        from anchorforge.cli import _SPECS

        choices = _SPECS[command][key].choices
        with pytest.raises(SystemExit) as info:
            main([command, f"--{key}", "bogus"])
        assert info.value.code == 2
        assert "choose from " + ", ".join(f"'{c}'" for c in choices) in capsys.readouterr().err
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{command}]\n{key} = bogus\n")
        rc = main([command, "--config", str(cfg_file), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert f"unknown {key} 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestOptimize:
    def test_end_to_end_outputs(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "opt"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--num-anchors", "2",
            "--iters", "200", "--batch-size", "16",
            "--lr-schedule", "0:1e-2,100:1e-3", "--warmup-iters", "40",
            "--metric", "sq_l2_log", "--no-head", "--out-dir", str(out),
        ])
        assert rc == 0
        assert (out / "anchors.json").exists()
        assert (out / "anchors.txt").exists()
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 200
        assert "avg_best_iou" in summary["metrics_before"]
        assert "avg_best_iou" in summary["metrics_after"]

    def test_scale_shrinks_run(self, tmp_path, dataset_file):
        out = tmp_path / "opt"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--num-anchors", "2",
            "--iters", "1000", "--scale", "0.05", "--no-head",
            "--lr-schedule", "0:1e-2,500:1e-3", "--warmup-iters", "200",
            "--metric", "sq_l2_log", "--out-dir", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 50
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["optimize"]["iters"] == "50"
        assert cfg["optimize"]["lr_schedule"] == "0:0.01,25:0.001"
        assert cfg["optimize"]["warmup_iters"] == "10"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path, dataset_file, capsys):
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--num-anchors", "2",
            "--iters", "500", "--lr-schedule", "0:1e6", "--warmup-iters", "0",
            "--metric", "sq_l2_log", "--no-head", "--no-bn",
            "--out-dir", str(tmp_path / "opt"),
        ])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_anchor_overflow_exit_code(self, tmp_path, dataset_file, capsys):
        """Anchors past exp's range with a finite loss used to end in an OverflowError traceback."""
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "20",
                   "--lr-schedule", "0:0.1", "--no-head", "--out-dir", str(tmp_path / "opt")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_uniform_init_rejects_other_counts(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "opt"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", "uniform",
            "--num-anchors", "3", "--iters", "20", "--no-head", "--out-dir", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "provides 5 anchors" in err and "num_anchors is 3" in err
        assert not out.exists()

    def test_scale_merging_breakpoints_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--scale", "0.004",
                   "--no-head", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scale 0.004" in err and "breakpoints 0 and 100" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,match", [
        ("--iters", "-5", "iters must be >= 0, got -5"),
        ("--warmup-iters", "-20", "warmup_iters must be >= 0, got -20"),
        ("--scale", "0", "scale must be a positive number, got 0.0"),
        ("--scale", "-0.5", "scale must be a positive number, got -0.5"),
        ("--scale", "inf", "scale must be a positive number, got inf"),
    ])
    def test_negative_budget_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, flag, value, match):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), flag, value, "--no-head", "--out-dir", str(out)])
        assert rc == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iters_scores_initial_anchors(self, tmp_path, dataset_file, capsys):
        """--iters 0 used to train one iteration."""
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "0",
                   "--no-head", "--out-dir", str(out)])
        assert rc == 0
        assert "final smoothed loss: none" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 0
        assert summary["final_loss"] is None and summary["final_smoothed_loss"] is None
        assert summary["metrics_after"] == summary["metrics_before"]
        assert (out / "trajectory.csv").read_text().splitlines() == ["iter,loss,lambda,T,w1,h1,w2,h2,util1,util2"]

    def test_scale_rounding_iters_to_zero_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--iters", "5", "--scale", "0.01",
                   "--no-head", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scale 0.01" in err and "iters 5" in err
        assert not out.exists()

    def test_effective_cfg_reproduces_run(self, tmp_path, dataset_file):
        """The recorded counts are already scaled and the rates keep every digit."""
        first, second = tmp_path / "first", tmp_path / "second"
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "1000",
                   "--scale", "0.05", "--lr-schedule", "0:0.0123456789,500:0.00123456789",
                   "--warmup-iters", "200", "--batch-size", "16", "--out-dir", str(first)])
        assert rc == 0
        rc = main(["optimize", "--config", str(first / "effective.cfg"), "--out-dir", str(second)])
        assert rc == 0
        for name in ("anchors.json", "trajectory.csv", "effective.cfg"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_threshold_tau_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        """A bad tau fails at startup, not after the warm-up has been trained."""
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--rule", "threshold", "--tau", "1.5",
                   "--warmup-iters", "100", "--iters", "200", "--no-head", "--out-dir", str(out)])
        assert rc == 2
        assert "tau must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_init_file_round_trip(self, tmp_path, dataset_file):
        cluster_out = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--out-dir", str(cluster_out)])
        opt_out = tmp_path / "o"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", "file",
            "--init-file", str(cluster_out / "anchors.json"), "--num-anchors", "2",
            "--iters", "10", "--no-head", "--out-dir", str(opt_out),
        ])
        assert rc == 0

    def test_init_file_rejects_other_counts(self, tmp_path, dataset_file, capsys):
        cluster_out = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--out-dir", str(cluster_out)])
        opt_out = tmp_path / "o"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", "file",
            "--init-file", str(cluster_out / "anchors.json"), "--num-anchors", "3",
            "--iters", "10", "--no-head", "--out-dir", str(opt_out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "holds 2 anchors" in err and "num_anchors is 3" in err
        assert not opt_out.exists()


class TestEvalAndCompare:
    def test_eval_writes_reports(self, tmp_path, dataset_file, capsys):
        c = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir", str(c)])
        e = tmp_path / "e"
        rc = main(["eval", "--dataset", str(dataset_file), "--anchors",
                   str(c / "anchors.json"), "--out-dir", str(e)])
        assert rc == 0
        assert (e / "report.txt").exists()
        doc = json.loads((e / "report.json").read_text())
        assert doc["kind"] == "anchorforge-report"
        out = capsys.readouterr().out
        assert "avg_best_iou" in out

    def test_eval_custom_taus(self, tmp_path, dataset_file):
        c = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir", str(c)])
        e = tmp_path / "e"
        rc = main(["eval", "--dataset", str(dataset_file), "--anchors",
                   str(c / "anchors.json"), "--taus", "0.3,0.6", "--out-dir", str(e)])
        assert rc == 0
        doc = json.loads((e / "report.json").read_text())
        assert set(doc["recall_at"]) == {"0.3", "0.6"}

    @pytest.mark.parametrize("flag,value", [("--taus", "0.5,1.5"), ("--tau", "1.5"), ("--tau", "0")])
    def test_bad_tau_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, flag, value):
        c = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir", str(c)])
        e = tmp_path / "e"
        rc = main(["eval", "--dataset", str(dataset_file), "--anchors", str(c / "anchors.json"),
                   "--rule", "threshold", flag, value, "--out-dir", str(e)])
        assert rc == 2
        assert "tau must lie in (0, 1)" in capsys.readouterr().err
        assert not e.exists()

    def test_compare_prints_mean_distance(self, tmp_path, dataset_file, capsys):
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--seed", "0", "--out-dir", str(c1)])
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--seed", "1", "--out-dir", str(c2)])
        capsys.readouterr()
        rc = main(["compare", str(c1 / "anchors.json"), str(c2 / "anchors.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean matched log-space distance" in out

    def test_compare_size_mismatch(self, tmp_path, dataset_file, capsys):
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir", str(c1)])
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "3", "--out-dir", str(c2)])
        rc = main(["compare", str(c1 / "anchors.json"), str(c2 / "anchors.json")])
        assert rc == 2


class TestOptionChecks:
    """Each option's range check comes from the option table. It holds a
    flag and a config value alike, before any run directory exists."""

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value, match", [
        ("cluster", "num_anchors", "0", "num_anchors must be >= 1, got 0"),
        ("cluster", "stride", "0", "stride must be >= 1, got 0"),
        ("cluster", "max_iter", "-1", "max_iter must be >= 0, got -1"),
        ("cluster", "seed", "-1", "seed must be >= 0, got -1"),
        ("ingest", "min_size", "nan", "min_size must be a nonnegative number, got nan"),
        ("optimize", "anchor_lr_mult", "nan", "anchor_lr_mult must be a positive number, got nan"),
        ("optimize", "sigma", "nan", "sigma must be a nonnegative number, got nan"),
        ("optimize", "init_scale", "inf", "init_scale must be a nonnegative number, got inf"),
        ("optimize", "lr_schedule", "0:nan", "learning rates must be positive numbers"),
        ("optimize", "lr_schedule", "0:1e-4,10:inf", "learning rates must be positive numbers"),
    ])
    def test_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, command, key, value, match, via):
        section = {
            "ingest": {"format": "csv", "input": tmp_path / "boxes.csv"},
            "cluster": {"dataset": dataset_file, "num_anchors": 2},
            "optimize": {"dataset": dataset_file, "num_anchors": 2, "iters": 20},
        }[command]
        argv = []
        if via == "flag":
            argv = [f"--{key.replace('_', '-')}={value}"]
        else:
            section[key] = value
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in section.items()))
        out = tmp_path / "run"
        rc = main([command, "--config", str(cfg_file), *argv, "--out-dir", str(out)])
        assert rc == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_seed_env_held_to_the_check(self, tmp_path, dataset_file, monkeypatch, capsys):
        monkeypatch.setenv("ANCHORFORGE_SEED", "-3")
        out = tmp_path / "c"
        rc = main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir", str(out)])
        assert rc == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "eval"])
    def test_no_seed_where_nothing_is_random(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--seed", "1"])
        assert info.value.code == 2
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{command}]\nseed = 1\n")
        rc = main([command, "--config", str(cfg_file), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert f"unknown keys in [{command}]: seed" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, dataset_file):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "[optimize]\n"
            f"dataset = {dataset_file}\n"
            "num_anchors = 2\n"
            "iters = 20\n"
            "head = false\n"
            "metric = sq_l2_log\n"
        )
        out = tmp_path / "o"
        rc = main(["optimize", "--config", str(cfg_file), "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 20

    def test_cli_flag_overrides_config(self, tmp_path, dataset_file):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[optimize]\ndataset = {dataset_file}\niters = 20\nhead = false\n")
        out = tmp_path / "o"
        rc = main(["optimize", "--config", str(cfg_file), "--iters", "35", "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 35

    def test_unknown_config_key_rejected(self, tmp_path, dataset_file, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[optimize]\ndataset = {dataset_file}\nlearning_rate = 5\n")
        rc = main(["optimize", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["optimize", "--config", str(tmp_path / "nope.cfg"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, dataset_file, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[optimize]\ndataset = {dataset_file}\niters = soon\n")
        rc = main(["optimize", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_percent_sign_is_literal(self, tmp_path, dataset_file, capsys):
        """A '%' used to escape as a configparser interpolation traceback."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[optimize]\ndataset = {dataset_file}\niters = 5%\n")
        out = tmp_path / "o"
        rc = main(["optimize", "--config", str(cfg_file), "--out-dir", str(out)])
        assert rc == 2
        assert "config [optimize] iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--rule", "threshold", "--warmup-iters", "0"]])
    def test_bad_metric_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, extra):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[optimize]\ndataset = {dataset_file}\nmetric = bogus\niters = 20\n")
        out = tmp_path / "o"
        rc = main(["optimize", "--config", str(cfg_file), "--no-head", *extra, "--out-dir", str(out)])
        assert rc == 2
        assert "unknown metric 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_env_fallback(self, tmp_path, dataset_file, monkeypatch):
        monkeypatch.setenv("ANCHORFORGE_SEED", "77")
        out = tmp_path / "c"
        rc = main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
                   "--out-dir", str(out)])
        assert rc == 0
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["cluster"]["seed"] == "77"

    def test_bad_seed_env_exits_2(self, tmp_path, dataset_file, monkeypatch, capsys):
        monkeypatch.setenv("ANCHORFORGE_SEED", "abc")
        out = tmp_path / "c"
        rc = main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir", str(out)])
        assert rc == 2
        assert "ANCHORFORGE_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_beats_env(self, tmp_path, dataset_file, monkeypatch):
        monkeypatch.setenv("ANCHORFORGE_SEED", "77")
        out = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--seed", "5", "--out-dir", str(out)])
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["cluster"]["seed"] == "5"


class TestArgparseBehavior:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--bogus", "1"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_runs(self, tmp_path):
        # Run the console script that pyproject.toml declares the way the
        # launcher pip generates for it does, so no install is needed.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["anchorforge"]
        module, _, attr = target.partition(":")
        launcher = (
            "import sys\n"
            f"from {module} import {attr.split('.')[0]}\n"
            "sys.argv[0] = 'anchorforge'\n"
            f"sys.exit({attr}())\n"
        )
        # The child imports the same anchorforge this suite imported.
        src_dir = str(Path(anchorforge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", launcher, "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert_cli_help(proc)

    @pytest.mark.skipif(shutil.which("anchorforge") is None,
                        reason="no anchorforge executable on PATH; install the package to run this")
    def test_installed_console_script_runs(self):
        proc = subprocess.run(["anchorforge", "--help"], capture_output=True, text=True)
        assert_cli_help(proc)


def assert_cli_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: anchorforge "), proc.stdout
    # The subcommand choices as argparse lists them; a bare substring check
    # would let "eval" match "evaluate" in the description.
    choices = re.search(r"\{([\w,]+)\}", proc.stdout)
    assert choices is not None, proc.stdout
    assert set(SUBCOMMANDS) <= set(choices.group(1).split(","))


_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "0", "1e-9", "0.3", "0.75", "1", "2"])
_RATES = st.sampled_from(["nan", "inf", "-1e-3", "0", "1e-4", "1e-3"])


def _value_texts(key, spec):
    """Values for one option: mostly outside its type, check or choices.

    Budgets stay small (ints below 7, no float above 2, no rate above
    1e-3) so a value that passes runs in milliseconds and cannot diverge;
    a divergent run's exit 3 has tests of its own."""
    if spec.kind != "value":
        return st.one_of(st.sampled_from(["true", "False", "1", "off"]), _TEXT)
    if spec.choices:
        return st.one_of(st.sampled_from(spec.choices), st.sampled_from([c.upper() for c in spec.choices]), _TEXT)
    if spec.parse is int:
        return st.one_of(st.integers(-3, 6).map(str), _FLOATS, _TEXT)
    if spec.parse is float:
        return st.one_of(_FLOATS, _TEXT)
    if key == "lr_schedule":
        pairs = st.tuples(st.integers(-1, 4), _RATES).map(lambda p: f"{p[0]}:{p[1]}")
        return st.one_of(st.lists(pairs, max_size=3).map(",".join), _TEXT)
    if key == "taus":
        return st.one_of(st.lists(_FLOATS, max_size=3).map(",".join), _TEXT)
    if key == "cluster_weight":
        return st.one_of(st.sampled_from(["anneal", "ANNEAL"]), _FLOATS, _TEXT)
    return _TEXT  # a path


@st.composite
def _option_cases(draw):
    command = draw(st.sampled_from(sorted(_SPECS)))
    key = draw(st.sampled_from(sorted(_SPECS[command])))
    return command, key, draw(st.sampled_from(["flag", "config"])), draw(_value_texts(key, _SPECS[command][key]))


def _refused(spec, via, text):
    """Whether the option table itself must refuse this value."""
    if spec.kind != "value":
        if via == "flag":
            return text != ""  # only the bare flag takes no value
        return text.strip().lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off")
    try:
        value = (str if via == "flag" and spec.choices else spec.parse)(text if via == "flag" else text.strip())
    except ValueError:
        return True
    return bool(spec.choices) and value not in spec.choices or spec.check is not None and not spec.check[1](value)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_csv(root / "boxes.csv")
    assert main(["ingest", "--format", "csv", "--input", str(root / "boxes.csv"), "--out-dir", str(root / "i")]) == 0
    dataset = root / "i" / "dataset.canonical"
    assert main(["cluster", "--dataset", str(dataset), "--num-anchors", "2", "--out-dir", str(root / "c")]) == 0
    return root, {
        "ingest": {"format": "csv", "input": root / "boxes.csv"},
        "cluster": {"dataset": dataset, "num_anchors": 2, "max_iter": 5},
        "optimize": {"dataset": dataset, "num_anchors": 2, "iters": 3, "batch_size": 8, "warmup_iters": 1},
        "eval": {"dataset": dataset, "anchors": root / "c" / "anchors.json"},
    }


class TestOptionFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_option_cases())
    def test_exit_code_and_run_dir(self, fuzz_inputs, case):
        """Any value of any option, as a flag or in --config, ends in exit 0
        or 2 with no traceback, and an exit 2 leaves no run directory."""
        command, key, via, text = case
        root, sections = fuzz_inputs
        work = Path(tempfile.mkdtemp(dir=root))
        section = dict(sections[command])
        argv = []
        if via == "flag":
            flag = "--" + key.replace("_", "-")
            argv = [flag if text == "" and _SPECS[command][key].kind != "value" else f"{flag}={text}"]
        else:
            section[key] = text
        (work / "run.cfg").write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in section.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main([command, "--config", str(work / "run.cfg"), *argv, "--out-dir", str(work / "run")])
            except SystemExit as e:
                rc = e.code
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert not (work / "run").exists()
        if _refused(_SPECS[command][key], via, text):
            assert rc == 2, (case, out.getvalue())
