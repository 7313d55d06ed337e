import configparser
import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorforge
import synth
from anchorforge.cli import _SPECS, _parse_bool, main
from anchorforge.trainer import _RANGES

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

    def test_prints_dropped_count(self, tmp_path, capsys):
        csv_path = tmp_path / "boxes.csv"
        write_csv(csv_path, n=50)
        out = tmp_path / "run"
        rc = main(["ingest", "--format", "csv", "--input", str(csv_path), "--min-size", "60", "--out-dir", str(out)])
        assert rc == 0
        kept = len((out / "dataset.canonical").read_text().splitlines()) - 1
        assert 0 < kept < 50
        assert f"kept {kept} after normalization to canvas 416 ({50 - kept} dropped below min size)" in (
            capsys.readouterr().out)

    def test_unknown_format(self, tmp_path, capsys):
        rc = main(["ingest", "--format", "csv", "--input", str(tmp_path / "x.csv"),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2

    @pytest.mark.parametrize("text, match", [
        ('[{"id": 1}]', "got a list"),
        ('{"images": [], "annotations": [5]}', "annotation 5 is not a JSON object"),
        ('{"images": [{"id": 1, "width": 10, "height": 10}], "annotations": [{"id": 4, "image_id": 1}]}',
         "annotation 4 needs a bbox"),
        ('{"images": [{"id": 1, "width": 10, "height": 10}], '
         '"annotations": [{"id": 4, "image_id": 1, "bbox": [1, 1, 5, 5], "iscrowd": "0"}]}',
         "annotation 4 needs an iscrowd of 0 or 1"),
        ('{"images": [{"id": "a\\tb", "width": 10, "height": 10}], '
         '"annotations": [{"id": 8, "image_id": "a\\tb", "bbox": [1, 1, 5, 5]}]}',
         "annotation 8: image id 'a\\tb' must not contain tabs or line breaks"),
        # json.loads reads an escaped lone surrogate, which UTF-8 cannot encode into the dataset file
        ('{"images": [{"id": "a\\ud800b", "width": 100, "height": 100}], '
         '"annotations": [{"id": 1, "image_id": "a\\ud800b", "bbox": [10, 10, 20, 30]}]}',
         "annotation 1: image id 'a\\ud800b' must not contain tabs or line breaks, "
         "nor surrogates that UTF-8 cannot encode"),
        # json.loads refuses an integer of more digits than int() reads with a bare ValueError
        pytest.param('{"images": [{"id": 1, "width": 1' + "0" * 5000 + ', "height": 10}], "annotations": []}',
                     "Exceeds the limit (4300 digits) for integer string conversion", id="5001-digit width"),
    ])
    def test_malformed_coco_exits_2(self, tmp_path, capsys, text, match):
        p = tmp_path / "ann.json"
        p.write_text(text)
        rc = main(["ingest", "--format", "coco", "--input", str(p), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(p) in err and match in err
        assert not (tmp_path / "run").exists()

    def test_voc_file_name_not_utf8_exits_2(self, tmp_path):
        """A file name that is not UTF-8 reads back with surrogate escapes,
        which the dataset file cannot hold: the run names the file and
        leaves no run directory (it used to leave an empty dataset.canonical)."""
        src = tmp_path / "ann"
        src.mkdir()
        xml = src / os.fsdecode(b"\xff\xfe.xml")
        try:
            xml.write_text("<annotation><size><width>100</width><height>100</height></size><object>"
                           "<bndbox><xmin>10</xmin><ymin>10</ymin><xmax>30</xmax><ymax>30</ymax></bndbox>"
                           "</object></annotation>")
        except (OSError, ValueError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        out, err = tmp_path / "run", io.StringIO()  # the message holds the name's surrogates, which a StringIO takes
        with contextlib.redirect_stderr(err):
            assert main(["ingest", "--format", "voc", "--input", str(src), "--out-dir", str(out)]) == 2
        assert err.getvalue() == (f"error: {xml}: image id '\\udcff\\udcfe' must not contain "
                                  "tabs or line breaks, nor surrogates that UTF-8 cannot encode\n")
        assert not out.exists()

    def test_infinite_image_size_exits_2(self, tmp_path, capsys):
        """An infinite image size used to drop its box as too small and exit 0."""
        p = tmp_path / "boxes.csv"
        p.write_text("image_id,image_w,image_h,x_min,y_min,x_max,y_max\nimg1,inf,480,10,20,110,70\n")
        rc = main(["ingest", "--format", "csv", "--input", str(p), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "line 2: image size inf" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_infinite_image_size_warns_nothing(self, tmp_path, capsys):
        """Clamping to a -inf image size used to subtract -inf from -inf and
        print numpy's invalid-value warning ahead of the error."""
        p = tmp_path / "boxes.csv"
        p.write_text("image_id,image_w,image_h,x_min,y_min,x_max,y_max\nimg1,-inf,480,10,20,110,70\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["ingest", "--format", "csv", "--input", str(p), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "line 2: image size -infx480.0" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_box_spanning_its_image_ingests(self, tmp_path):
        """(85 - 0) * (416 / 85) rounds to 416.00000000000006, just past the canvas."""
        p = tmp_path / "ann.json"
        p.write_text(json.dumps({
            "images": [{"id": 1, "width": 85, "height": 64}],
            "annotations": [{"id": 0, "image_id": 1, "bbox": [0, 0, 85, 30]}],
        }))
        out = tmp_path / "run"
        rc = main(["ingest", "--format", "coco", "--input", str(p), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "dataset.canonical").read_text().splitlines()[1] == "1\t208\t97.5\t416\t195"

    def test_missing_voc_directory_exits_2(self, tmp_path, capsys):
        """A missing VOC directory used to parse to zero boxes and exit 0."""
        missing = tmp_path / "no" / "such" / "dir"
        rc = main(["ingest", "--format", "voc", "--input", str(missing), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("size, obj, match", [
        ("<width>abc</width><height>10</height>", "", "<size> must contain numeric <width> and <height>"),
        ("<width>10</width><height>10</height>", "<object><name>dog</name></object>", "<object> without <bndbox>"),
    ])
    def test_malformed_voc_exits_2(self, tmp_path, capsys, size, obj, match):
        voc = tmp_path / "voc"
        voc.mkdir()
        (voc / "a.xml").write_text(f"<annotation><size>{size}</size>{obj}</annotation>")
        rc = main(["ingest", "--format", "voc", "--input", str(voc), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert f"{voc / 'a.xml'}: {match}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_input_flag(self, tmp_path, capsys):
        rc = main(["ingest", "--format", "csv", "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "missing required option" in err

    @pytest.mark.parametrize("fmt, key, kept_if_set", [("coco", "include_crowd", 2), ("voc", "exclude_difficult", 1)])
    @pytest.mark.parametrize("cfg_value, flag, expect_set", [
        (None, [], False), ("true", [], True), ("true", ["--no-{}"], False), ("false", ["--{}"], True),
    ], ids=["default", "config", "no-flag-over-config", "flag-over-config"])
    def test_boolean_flag_pair_overrides_config(self, tmp_path, fmt, key, kept_if_set, cfg_value, flag, expect_set):
        """Each boolean option is a --name/--no-name pair, so a flag sets it either way over the config file."""
        if fmt == "coco":
            src = tmp_path / "ann.json"
            src.write_text(json.dumps({
                "images": [{"id": 1, "width": 100, "height": 100}],
                "annotations": [{"id": 1, "image_id": 1, "bbox": [10, 10, 20, 20]},
                                {"id": 2, "image_id": 1, "bbox": [30, 30, 20, 20], "iscrowd": 1}],
            }))
        else:
            src = tmp_path / "voc"
            src.mkdir()
            (src / "a.xml").write_text(
                "<annotation><size><width>100</width><height>100</height></size>"
                + "".join(f"<object><difficult>{d}</difficult><bndbox><xmin>10</xmin><ymin>10</ymin>"
                          f"<xmax>{30 + d}</xmax><ymax>30</ymax></bndbox></object>" for d in (0, 1))
                + "</annotation>")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[ingest]\nformat = {fmt}\ninput = {src}\n"
                            + (f"{key} = {cfg_value}\n" if cfg_value else ""))
        out = tmp_path / "run"
        flags = [f.format(key.replace("_", "-")) for f in flag]
        assert main(["ingest", "--config", str(cfg_file), *flags, "--out-dir", str(out)]) == 0
        kept = len((out / "dataset.canonical").read_text().splitlines()) - 1
        assert kept == (kept_if_set if expect_set else 3 - kept_if_set)
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["ingest"][key] == str(expect_set)

    @pytest.mark.parametrize("key, fmt, only", [
        ("include_crowd", "csv", "coco"), ("include_crowd", "voc", "coco"),
        ("exclude_difficult", "csv", "voc"), ("exclude_difficult", "coco", "voc"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_format_only_option_with_other_format_exits_2(self, tmp_path, capsys, key, fmt, only, via):
        """ingest --format csv --include-crowd --exclude-difficult used to exit
        0, ignore both flags and record both as True in effective.cfg."""
        csv_path = tmp_path / "boxes.csv"
        write_csv(csv_path, n=5)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[ingest]\nformat = {fmt}\ninput = {csv_path}\n"
                            + (f"{key} = true\n" if via == "config" else ""))
        flags = ["--" + key.replace("_", "-")] if via == "flag" else []
        rc = main(["ingest", "--config", str(cfg_file), *flags, "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {key} applies only to format {only}, not {fmt}\n"
        assert not (tmp_path / "run").exists()

    def test_format_only_options_off_pass_with_any_format(self, tmp_path):
        csv_path = tmp_path / "boxes.csv"
        write_csv(csv_path, n=5)
        out = tmp_path / "run"
        assert main(["ingest", "--format", "csv", "--input", str(csv_path),
                     "--no-include-crowd", "--no-exclude-difficult", "--out-dir", str(out)]) == 0
        assert (out / "dataset.canonical").exists()


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

    @pytest.mark.parametrize("command, key, value", [
        ("ingest", "format", "bogus"), ("optimize", "rule", "bogus"), ("eval", "rule", "bogus"),
        ("ingest", "format", "CSV"),  # matched as typed, from the config file too
    ])
    def test_config_and_flag_share_choices(self, tmp_path, capsys, command, key, value):
        from anchorforge.cli import _SPECS

        choices = _SPECS[command][key].choices
        with pytest.raises(SystemExit) as info:
            main([command, f"--{key}", value])
        assert info.value.code == 2
        assert "choose from " + ", ".join(f"'{c}'" for c in choices) in capsys.readouterr().err
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{command}]\n{key} = {value}\n")
        rc = main([command, "--config", str(cfg_file), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert f"unknown {key} {value!r} (expected {', '.join(choices)})" in capsys.readouterr().err
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

    def test_final_loss_is_the_trajectory_last_loss(self, tmp_path, dataset_file):
        """The last logged row is iteration 36, between two log_every steps."""
        out = tmp_path / "opt"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--num-anchors", "2",
            "--iters", "37", "--batch-size", "16", "--log-every", "10", "--warmup-iters", "20",
            "--out-dir", str(out),
        ])
        assert rc == 0
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "36"
        assert json.loads((out / "summary.json").read_text())["final_loss"] == float(last[1])

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

    @pytest.mark.parametrize("flags,warmup,schedule", [
        # the recipe's ramp at 100 lies inside the scaled warm-up of 150 and stays
        (["--scale", "0.1"], "150", "0:0.0001,100:0.001,1500:0.0001,2700:1e-05"),
        # a warm-up longer than a breakpoint, or than the run, keeps only the
        # breakpoints before the scaled warm-up; the others still shrink
        (["--scale", "0.1", "--warmup-iters", "20000"], "2000", "0:0.0001,100:0.001,1500:0.0001,2700:1e-05"),
        (["--scale", "0.1", "--warmup-iters", "40000"], "4000", "0:0.0001,100:0.001,1500:0.0001,2700:1e-05"),
        # the scaled warm-up of 15 ends before 100, so the ramp shrinks with the rest
        (["--scale", "0.01"], "15", "0:0.0001,1:0.001,150:0.0001,270:1e-05"),
        # a scale above 1 moves every breakpoint
        (["--scale", "2"], "3000", "0:0.0001,200:0.001,30000:0.0001,54000:1e-05"),
    ])
    def test_scale_keeps_breakpoints_before_scaled_warmup(self, tmp_path, dataset_file, flags, warmup, schedule):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "100",
                   *flags, "--no-head", "--out-dir", str(out)])
        assert rc == 0
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert (cfg["optimize"]["warmup_iters"], cfg["optimize"]["lr_schedule"]) == (warmup, schedule)

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

    def test_non_finite_loss_exit_code(self, tmp_path, capsys):
        """A loss that overflows to inf while the anchors stay in range stops
        the run at the loss check, after the rows already logged."""
        dataset = tmp_path / "mixture2.canonical"
        anchorforge.write_canonical(synth.mixture2(1), dataset)
        out = tmp_path / "opt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["optimize", "--dataset", str(dataset), "--num-anchors", "2", "--iters", "500",
                       "--lr-schedule", "0:1", "--warmup-iters", "0", "--metric", "sq_l2_log", "--no-head",
                       "--no-bn", "--log-every", "1000", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        # the iteration depends on the host's SIMD level, so it is not pinned
        assert err.startswith("error: non-finite loss inf at iteration "), err
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in err
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        assert header == "iter,loss,lambda,T,w1,h1,w2,h2,util1,util2"
        assert len(rows) == 1 and rows[0].startswith("0,")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_anchor_overflow_exit_code(self, tmp_path, dataset_file, capsys):
        """Anchors past exp's range with a finite loss used to end in an OverflowError traceback."""
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "20",
                   "--lr-schedule", "0:0.1", "--no-head", "--out-dir", str(tmp_path / "opt")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_diverging_run_prints_no_numpy_warning(self, tmp_path, capsys):
        """The finite checks report a diverging run; numpy's overflow and
        invalid-value warnings used to reach stderr ahead of them."""
        dataset = tmp_path / "mixture2.canonical"
        anchorforge.write_canonical(synth.mixture2(1), dataset)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["optimize", "--dataset", str(dataset), "--scale", "0.1", "--no-bn", "--rule", "threshold",
                       "--out-dir", str(tmp_path / "opt")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: anchor shape overflowed to a non-finite or zero size (loss ")
        assert " at iteration 200; anchor log-shapes: " in err
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in err

    def test_anchor_area_overflow_exits_3(self, tmp_path, capsys):
        """Sides of about e^487 x e^485 are finite, but their area is not: the
        run used to train to the end and exit 2 when scoring refused it, after
        a numpy overflow warning."""
        dataset = tmp_path / "mixture2.canonical"
        anchorforge.write_canonical(synth.mixture2(1), dataset)
        out = tmp_path / "opt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["optimize", "--dataset", str(dataset), "--init", "uniform", "--stride", "1", "--no-head",
                       "--warmup-iters", "0", "--metric", "sq_l2_log", "--iters", "1", "--lr-schedule", "0:2",
                       "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: anchor shape overflowed to a non-finite or zero size (loss ")
        assert " at iteration 0; anchor log-shapes: " in err
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in err
        assert not (out / "anchors.json").exists() and not (out / "summary.json").exists()

    def test_empty_dataset_rejected_before_run_dir(self, tmp_path, capsys):
        dataset = tmp_path / "empty.canonical"
        dataset.write_text("anchorforge-dataset v1 S=416\n")
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset), "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {dataset}: dataset is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dataset_file_rejected_before_run_dir(self, tmp_path, capsys):
        dataset = tmp_path / "empty.canonical"
        dataset.write_text("")
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset), "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {dataset}: empty file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("init", ["kmean", "file"])
    def test_unknown_init_rejected_before_dataset_is_read(self, tmp_path, capsys, monkeypatch, via, init):
        """A value that is neither a keyword nor a file stops the run before
        the dataset is read, so the error names init, not the missing
        dataset. The keyword file is gone: it too names a path, of no file."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "opt"
        argv = ["optimize", "--dataset", "missing.canonical", "--out-dir", str(out)]
        if via == "flag":
            argv += ["--init", init]
        else:
            (tmp_path / "run.cfg").write_text(f"[optimize]\ninit = {init}\n")
            argv += ["--config", "run.cfg"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: init '{init}' is none of uniform, identical, kmeans and no such file exists\n"
        assert not out.exists()

    def test_trailing_comma_in_lr_schedule_runs(self, tmp_path, dataset_file):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "10",
                   "--lr-schedule", "0:1e-3,", "--no-head", "--out-dir", str(out)])
        assert rc == 0
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["optimize"]["lr_schedule"] == "0:0.001"

    @pytest.mark.parametrize("init", ["identical", "kmeans"])
    def test_more_anchors_than_boxes_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, init):
        """A huge --num-anchors used to end in a numpy allocation traceback."""
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--init", init,
                   "--num-anchors", "1000000000000", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{dataset_file}: dataset has 120 boxes but 1000000000000 anchors were requested" in err
        assert not out.exists()

    def test_uniform_init_rejects_other_counts(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "opt"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", "uniform",
            "--num-anchors", "3", "--iters", "20", "--no-head", "--out-dir", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: init uniform holds 5 anchors but num_anchors is 3\n"
        assert not out.exists()

    def test_scale_merging_breakpoints_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--scale", "0.004",
                   "--no-head", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scale 0.004" in err and "breakpoints 0 and 100" in err
        assert not out.exists()

    @pytest.mark.parametrize("mixture", [1, 11])
    def test_scaled_recipe_strands_no_anchor(self, tmp_path, monkeypatch, mixture):
        """The flag-free recipe at --scale 0.1 keeps its learning-rate ramp
        inside the warm-up, so every anchor wins at least 20 boxes in the last
        full epoch. With the ramp scaled to iteration 10 the full rate threw
        an anchor out of the data in most of these runs."""
        runs = []

        def capture(ds, anchors0, cfg, trajectory_path=None):
            runs.append((cfg, anchorforge.run_training(ds, anchors0, cfg, trajectory_path)))
            return runs[-1][1]

        monkeypatch.setattr("anchorforge.cli.run_training", capture)
        ds = synth.mixture2(mixture)
        dataset = tmp_path / "boxes.canonical"
        anchorforge.write_canonical(ds, dataset)
        least = []
        for seed in range(4):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["optimize", "--dataset", str(dataset), "--scale", "0.1", "--seed", str(seed),
                             "--out-dir", str(tmp_path / f"o{seed}")]) == 0
            cfg, result = runs[-1]
            full_epochs = cfg.iters // -(-len(ds) // cfg.batch_size)
            least.append(int(result.epoch_utilization[full_epochs - 1].min()))
        assert min(least) >= 20, f"least-used anchor's boxes in the last full epoch, seeds 0-3: {least}"

    @pytest.mark.parametrize("flags,match", [
        (["--iters", "-5"], "iters must be >= 0, got -5"),
        (["--warmup-iters", "-20"], "warmup_iters must be >= 0, got -20"),
        (["--scale", "0"], "scale must be a positive number, got 0.0"),
        (["--scale", "-0.5"], "scale must be a positive number, got -0.5"),
        (["--scale", "inf"], "scale must be a positive number, got inf"),
        # a count in float range that the scale takes beyond it used to end in an OverflowError traceback
        (["--iters", str(10**300), "--scale", "1e10"], "scale 1e+10 takes iters 1e+300 beyond float range"),
        (["--warmup-iters", str(10**300), "--scale", "1e10"], "scale 1e+10 takes warmup_iters 1e+300 beyond float range"),
        (["--lr-schedule", f"0:1e-3,{10**300}:1e-4", "--scale", "1e10"],
         "scale 1e+10 takes lr_schedule breakpoint 1e+300 beyond float range"),
    ])
    def test_negative_budget_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, flags, match):
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), *flags, "--no-head", "--out-dir", str(out)])
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

    def test_effective_cfg_reproduces_fixed_cluster_weight_run(self, tmp_path, dataset_file):
        first, second = tmp_path / "first", tmp_path / "second"
        rc = main(["optimize", "--dataset", str(dataset_file), "--num-anchors", "2", "--iters", "60",
                   "--warmup-iters", "20", "--batch-size", "16", "--metric", "sq_l2_log",
                   "--cluster-weight", "0.5", "--out-dir", str(first)])
        assert rc == 0
        cfg = configparser.ConfigParser()
        cfg.read(first / "effective.cfg")
        assert cfg["optimize"]["cluster_weight"] == "0.5"
        lambdas = [line.split(",")[2] for line in (first / "trajectory.csv").read_text().splitlines()[1:]]
        assert lambdas and set(lambdas) == {"0.5"}
        rc = main(["optimize", "--config", str(first / "effective.cfg"), "--out-dir", str(second)])
        assert rc == 0
        for name in ("anchors.json", "anchors.txt", "trajectory.csv", "summary.json", "effective.cfg"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["2", "-0.5", "nan", "bogus"])
    def test_bad_cluster_weight_rejected_before_dataset_is_read(self, tmp_path, capsys, via, value):
        """The dataset is missing: the error names cluster_weight only if the check runs first."""
        section = {"dataset": tmp_path / "missing.canonical", "iters": 20}
        argv = []
        if via == "flag":
            argv = [f"--cluster-weight={value}"]
        else:
            section["cluster_weight"] = value
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[optimize]\n" + "".join(f"{k} = {v}\n" for k, v in section.items()))
        out = tmp_path / "run"
        try:
            rc = main(["optimize", "--config", str(cfg_file), *argv, "--out-dir", str(out)])
        except SystemExit as e:  # argparse refuses a flag value that does not parse
            rc = e.code
        assert rc == 2
        err = capsys.readouterr().err
        assert "cluster_weight" in err and "missing.canonical" not in err
        assert not out.exists()

    def test_bad_learning_rate_rejected_before_dataset_is_read(self, tmp_path, capsys):
        """TrainConfig is built before the dataset is read, so its check of the rates comes first."""
        out = tmp_path / "run"
        rc = main(["optimize", "--dataset", str(tmp_path / "missing.canonical"), "--lr-schedule", "0:nan",
                   "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "learning rates must be positive numbers, got ((0, nan),)" in err and "missing.canonical" not in err
        assert not out.exists()

    def test_init_file_stride_beyond_float_range_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        """Such a stride used to train and then crash in anchors_line, leaving no anchors.txt or summary.json."""
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"canvas": 416, "stride": 10**400, "anchors": [[30.0, 40.0], [60.0, 50.0]]}))
        out = tmp_path / "o"
        rc = main(["optimize", "--dataset", str(dataset_file), "--init", str(init),
                   "--num-anchors", "2", "--units", "cells", "--iters", "20", "--no-head", "--out-dir", str(out)])
        assert rc == 2
        assert f"{init}: stride must lie within float range, got a 401-digit integer" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_tau_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        """A bad tau fails at startup, not after the warm-up has been trained."""
        out = tmp_path / "opt"
        rc = main(["optimize", "--dataset", str(dataset_file), "--rule", "threshold", "--tau", "1.5",
                   "--warmup-iters", "100", "--iters", "200", "--no-head", "--out-dir", str(out)])
        assert rc == 2
        assert "tau must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_init_file_round_trip(self, tmp_path, dataset_file):
        """cluster's anchors.json starts optimize; effective.cfg records the
        path as init and reproduces the run byte for byte."""
        cluster_out = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--out-dir", str(cluster_out)])
        start = cluster_out / "anchors.json"
        opt_out = tmp_path / "o"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", str(start), "--num-anchors", "2",
            "--iters", "10", "--no-head", "--out-dir", str(opt_out),
        ])
        assert rc == 0
        cfg = configparser.ConfigParser()
        cfg.read(opt_out / "effective.cfg")
        assert cfg["optimize"]["init"] == str(start)
        assert "init_file" not in cfg["optimize"]
        again = tmp_path / "again"
        assert main(["optimize", "--config", str(opt_out / "effective.cfg"), "--out-dir", str(again)]) == 0
        for name in ("trajectory.csv", "anchors.json", "summary.json"):
            assert (again / name).read_bytes() == (opt_out / name).read_bytes(), name

    def test_init_file_rejects_other_counts(self, tmp_path, dataset_file, capsys):
        cluster_out = tmp_path / "c"
        main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2",
              "--out-dir", str(cluster_out)])
        opt_out = tmp_path / "o"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", str(cluster_out / "anchors.json"),
            "--num-anchors", "3", "--iters", "10", "--no-head", "--out-dir", str(opt_out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: init {cluster_out / 'anchors.json'} holds 2 anchors but num_anchors is 3\n" == err
        assert not opt_out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_init_file_option_is_unknown(self, tmp_path, dataset_file, capsys, via):
        """--init names the start alone: a separate init_file used to be
        ignored unless init was file, and effective.cfg recorded both."""
        start = tmp_path / "init.json"
        anchorforge.write_anchors_json(start, anchorforge.init_uniform(), canvas=416)
        out = tmp_path / "o"
        argv = ["optimize", "--dataset", str(dataset_file), "--iters", "10", "--out-dir", str(out)]
        if via == "flag":
            with pytest.raises(SystemExit) as info:
                main(argv + ["--init-file", str(start)])
            assert info.value.code == 2
            assert "unrecognized arguments: --init-file" in capsys.readouterr().err
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"[optimize]\ninit_file = {start}\n")
            assert main(argv + ["--config", str(cfg_file)]) == 2
            assert f"{cfg_file}: unknown keys in [optimize]: init_file" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_free_run_trains_the_default_config(self, tmp_path, dataset_file, monkeypatch):
        """The default recipe is declared once: optimize without training
        flags hands run_training exactly TrainConfig()."""

        class Captured(Exception):
            pass

        def capture(ds, anchors0, cfg, trajectory_path=None):
            raise Captured(cfg)

        monkeypatch.setattr("anchorforge.cli.run_training", capture)
        with pytest.raises(Captured) as info:
            main(["optimize", "--dataset", str(dataset_file), "--out-dir", str(tmp_path / "o")])
        assert info.value.args[0] == anchorforge.TrainConfig()

    def test_optimize_reaches_every_train_config_field(self, tmp_path, dataset_file, monkeypatch):
        """TrainConfig holds only what optimize sets: across a run with every
        training option off its default and an --anchor-lr-mult 0 run, each
        field takes a value other than its default."""
        configs = []

        class Captured(Exception):
            pass

        def capture(ds, anchors0, cfg, trajectory_path=None):
            configs.append(cfg)
            raise Captured

        monkeypatch.setattr("anchorforge.cli.run_training", capture)
        base = ["optimize", "--dataset", str(dataset_file)]
        off_default = [
            "--iters", "123", "--batch-size", "7", "--momentum", "0.5", "--lr-schedule", "0:0.01,50:0.002",
            "--warmup-iters", "17", "--anchor-lr-mult", "0.5", "--rule", "threshold", "--tau", "0.6",
            "--metric", "sq_l2_log", "--cluster-weight", "0.25", "--no-head", "--sigma", "0.1",
            "--init-scale", "0.2", "--no-bn", "--seed", "9", "--log-every", "5",
        ]
        for n, flags in enumerate((off_default, ["--anchor-lr-mult", "0"])):
            with pytest.raises(Captured):
                main(base + flags + ["--out-dir", str(tmp_path / f"o{n}")])
        default = anchorforge.TrainConfig()
        assert configs[1].anchor_lr_mult == 0.0
        unreached = [f.name for f in dataclasses.fields(default)
                     if all(getattr(cfg, f.name) == getattr(default, f.name) for cfg in configs)]
        assert unreached == []

    def test_init_file_for_other_canvas_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        init = tmp_path / "anchors608.json"
        anchorforge.write_anchors_json(init, anchorforge.init_uniform(), canvas=608)
        opt_out = tmp_path / "o"
        rc = main([
            "optimize", "--dataset", str(dataset_file), "--init", str(init),
            "--iters", "10", "--no-head", "--out-dir", str(opt_out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "canvas 608" in err and "canvas 416" in err
        assert not opt_out.exists()

    def test_zero_anchor_rate_writes_init_anchors_back(self, tmp_path, dataset_file):
        """--anchor-lr-mult 0 freezes the anchors: the head trains, the anchors do not move."""
        init = tmp_path / "init.json"
        wh = [(30.0, 40.0), (61.5, 33.25), (120.0, 150.0)]
        anchorforge.write_anchors_json(init, anchorforge.AnchorSet.from_linear(wh, stride=16), canvas=416)
        out = tmp_path / "o"
        rc = main(["optimize", "--dataset", str(dataset_file), "--init", str(init),
                   "--num-anchors", "3", "--stride", "16", "--iters", "60", "--anchor-lr-mult", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        frozen, canvas = anchorforge.read_anchors_json(init)
        doc = json.loads((out / "anchors.json").read_text())
        assert (doc["canvas"], doc["stride"]) == (canvas, 16)
        assert doc["anchors"] == frozen.sorted_by_area().wh().tolist()
        np.testing.assert_allclose(doc["anchors"], wh, rtol=1e-12)
        assert (out / "anchors.txt").read_text() == anchorforge.anchors_line(frozen) + "\n"

    def test_init_file_for_other_stride_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        """The file's stride used to replace --stride silently: anchors.json
        read stride 16 while effective.cfg read 32."""
        init = tmp_path / "init.json"
        anchorforge.write_anchors_json(init, anchorforge.init_uniform(16), canvas=416)
        out = tmp_path / "o"
        rc = main(["optimize", "--dataset", str(dataset_file), "--init", str(init),
                   "--iters", "20", "--no-head", "--out-dir", str(out)])
        assert rc == 2
        assert f"error: init {init} holds anchors for stride 16 but stride is 32\n" == capsys.readouterr().err
        assert not out.exists()

    def test_freeze_anchors_key_is_unknown(self, tmp_path, dataset_file, capsys):
        """An anchor learning-rate multiplier of 0 is the one way to freeze the anchors."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[optimize]\ndataset = {dataset_file}\nfreeze_anchors = true\n")
        out = tmp_path / "o"
        rc = main(["optimize", "--config", str(cfg_file), "--out-dir", str(out)])
        assert rc == 2
        assert f"{cfg_file}: unknown keys in [optimize]: freeze_anchors" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("command, message", [
        ("eval", "dataset is empty"),
        ("cluster", "dataset has 0 boxes but 5 clusters were requested"),
    ])
    def test_header_only_dataset_named(self, tmp_path, capsys, command, message):
        """Each command refuses a dataset of too few boxes by its file name;
        eval used to print 'dataset is empty' alone."""
        dataset = tmp_path / "empty.canonical"
        dataset.write_text("anchorforge-dataset v1 S=416\n")
        anchors = tmp_path / "anchors.json"
        anchorforge.write_anchors_json(anchors, anchorforge.init_uniform(), canvas=416)
        extra = ["--anchors", str(anchors)] if command == "eval" else []
        out = tmp_path / "run"
        assert main([command, "--dataset", str(dataset), *extra, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {dataset}: {message}\n"
        assert not out.exists()

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

    def test_eval_anchors_for_other_canvas_rejected_before_run_dir(self, tmp_path, dataset_file, capsys):
        anchors = tmp_path / "anchors608.json"
        anchorforge.write_anchors_json(anchors, anchorforge.init_uniform(), canvas=608)
        e = tmp_path / "e"
        rc = main(["eval", "--dataset", str(dataset_file), "--anchors", str(anchors), "--out-dir", str(e)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "canvas 608" in err and "canvas 416" in err
        assert not e.exists()

    def test_compare_files_for_other_canvases_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        anchorforge.write_anchors_json(a, anchorforge.init_uniform(), canvas=416)
        anchorforge.write_anchors_json(b, anchorforge.init_uniform(), canvas=608)
        rc = main(["compare", str(a), str(b)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "canvas 608" in captured.err and "canvas 416" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("canvas", 416.9), ("stride", 32.7), ("canvas", True), ("canvas", "416"), ("canvas", 0), ("stride", -32),
        # beyond float range: such a stride used to crash anchors_line at the end of a run
        pytest.param("canvas", 10**400, id="canvas-401 digits"), pytest.param("stride", 10**400, id="stride-401 digits"),
    ])
    def test_eval_anchors_file_needs_integer_canvas_and_stride(self, tmp_path, dataset_file, capsys, key, value):
        """416.9 used to read as canvas 416 and pass the canvas check; true read as canvas 1."""
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"canvas": 416, "stride": 32, "anchors": [[30.0, 40.0]], key: value}))
        e = tmp_path / "e"
        rc = main(["eval", "--dataset", str(dataset_file), "--anchors", str(anchors), "--out-dir", str(e)])
        assert rc == 2
        err = capsys.readouterr().err
        match = (f"{key} must lie within float range, got a 401-digit integer" if value == 10**400
                 else f"{key} must be an integer >= 1, got {json.dumps(value)}")
        assert str(anchors) in err and match in err
        assert not e.exists()

    @pytest.mark.parametrize("key, value", [("canvas", True), ("stride", 32.7)])
    def test_compare_anchors_file_needs_integer_canvas_and_stride(self, tmp_path, capsys, key, value):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        anchorforge.write_anchors_json(a, anchorforge.init_uniform(), canvas=416)
        doc = json.loads(a.read_text())
        doc[key] = value
        b.write_text(json.dumps(doc))
        for argv in ([a, b], [b, a]):
            rc = main(["compare", *map(str, argv)])
            assert rc == 2
            captured = capsys.readouterr()
            assert f"{b}: {key} must be an integer >= 1" in captured.err
            assert captured.out == ""

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

    @pytest.mark.parametrize("n", [15, 20])
    def test_compare_detector_sized_sets(self, tmp_path, capsys, n):
        rng = np.random.default_rng(n)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            wh = np.exp(rng.normal(4.0, 0.6, size=(n, 2)))
            anchorforge.write_anchors_json(p, anchorforge.AnchorSet.from_linear(wh), canvas=416)
        rc = main(["compare", *map(str, paths)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == n + 2
        assert sum("log-dist" in line for line in lines) == n
        assert lines[-1].startswith("mean matched log-space distance: ")

    def test_compare_above_the_exact_cap_exits_2(self, tmp_path, capsys):
        p = tmp_path / "a.json"
        wh = [(10.0 + i, 12.0 + i) for i in range(21)]
        anchorforge.write_anchors_json(p, anchorforge.AnchorSet.from_linear(wh), canvas=416)
        rc = main(["compare", str(p), str(p)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "exact matching supports up to 20 anchors, got 21" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "compare", "optimize"])
    def test_anchor_area_beyond_float_range_exits_2(self, tmp_path, dataset_file, capsys, command):
        """An anchor of 1e308 x 10 used to score with a numpy overflow warning on stderr."""
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"canvas": 416, "stride": 32, "anchors": [[30.0, 40.0], [1e308, 10.0]]}))
        argv = {
            "eval": ["eval", "--dataset", str(dataset_file), "--anchors", str(anchors)],
            "compare": ["compare", str(anchors), str(anchors)],
            "optimize": ["optimize", "--dataset", str(dataset_file), "--init", str(anchors), "--num-anchors", "2"],
        }[command]
        out = tmp_path / "run"
        rc = main(argv + (["--out-dir", str(out)] if command != "compare" else []))
        assert rc == 2
        assert f"{anchors}: anchor (1e+308, 10.0) has an area beyond float range" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_size_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        anchorforge.write_anchors_json(a, anchorforge.init_uniform(), canvas=416)
        anchorforge.write_anchors_json(b, anchorforge.init_identical(32, num_anchors=9), canvas=416)
        rc = main(["compare", str(a), str(b)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "anchor sets differ in size: 5 vs 9" in captured.err
        assert captured.out == ""

    def test_compare_size_mismatch_names_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        anchorforge.write_anchors_json(a, anchorforge.init_uniform(), canvas=416)
        anchorforge.write_anchors_json(b, anchorforge.init_identical(32, num_anchors=3), canvas=416)
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == f"error: {a} and {b}: anchor sets differ in size: 5 vs 3\n"


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
        ("optimize", "anchor_lr_mult", "nan", "anchor_lr_mult must be a nonnegative number, got nan"),
        ("optimize", "sigma", "nan", "sigma must be a nonnegative number, got nan"),
        ("optimize", "init_scale", "inf", "init_scale must be a nonnegative number, got inf"),
        ("optimize", "lr_schedule", "0:nan", "learning rates must be positive numbers"),
        ("optimize", "lr_schedule", "0:1e-4,10:inf", "learning rates must be positive numbers"),
        ("optimize", "lr_schedule", "-5:0.1,10:0.01", "lr_schedule breakpoints must be >= 0, got ((-5, 0.1), (10, 0.01))"),
        ("eval", "taus", "0.5,1.5", "taus list: each tau must lie in (0, 1), got (0.5, 1.5)"),
        ("optimize", "cluster_weight", "2", "cluster_weight must lie in [0, 1], got 2.0"),
        ("optimize", "lr_schedule", ",", "empty learning-rate schedule"),
    ])
    def test_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, command, key, value, match, via):
        out = self.run_with(tmp_path, dataset_file, command, key, value, via)
        assert match in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command, key", [
        *((command, key) for command, specs in _SPECS.items() for key, spec in specs.items() if spec.parse is int),
        ("optimize", "lr_schedule"),
    ])
    def test_integer_beyond_float_range_rejected(self, tmp_path, dataset_file, capsys, command, key, via):
        """An integer that no float holds used to end in an OverflowError
        traceback (exit 1), for some options after the run directory was made."""
        value = f"0:1e-3,{10**400}:1e-4" if key == "lr_schedule" else str(10**400)
        out = self.run_with(tmp_path, dataset_file, command, key, value, via)
        name = "breakpoint" if key == "lr_schedule" else key
        assert f"{name} must lie within float range, got a 401-digit integer" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def run_with(tmp_path, dataset_file, command, key, value, via):
        """Run command with key set to value by flag or config, the rest from a
        config file; assert exit 2 and return the run directory asked for."""
        section = {
            "ingest": {"format": "csv", "input": tmp_path / "boxes.csv"},
            "cluster": {"dataset": dataset_file, "num_anchors": 2},
            "optimize": {"dataset": dataset_file, "num_anchors": 2, "iters": 20},
            # both files are missing: the error names the bad value only if the check runs first
            "eval": {"dataset": tmp_path / "missing.canonical", "anchors": tmp_path / "missing.json"},
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
        return out

    @pytest.mark.parametrize("command", ["cluster", "optimize", "eval"])
    def test_dataset_canvas_beyond_float_range_rejected(self, tmp_path, capsys, command):
        dataset = tmp_path / "big.canonical"
        dataset.write_text(f"anchorforge-dataset v1 S={10**400}\na\t1\t2\t3\t4\n")
        anchors = tmp_path / "anchors.json"
        anchorforge.write_anchors_json(anchors, anchorforge.init_uniform(), canvas=416)
        out = tmp_path / "run"
        extra = ["--anchors", str(anchors)] if command == "eval" else ["--num-anchors", "1"]
        rc = main([command, "--dataset", str(dataset), *extra, "--out-dir", str(out)])
        assert rc == 2
        assert f"{dataset}: canvas_size must lie within float range, got a 401-digit integer" in capsys.readouterr().err
        assert not out.exists()

    def test_training_ranges_come_from_train_config(self):
        """An option that a TrainConfig field mirrors is held to the field's own range pair."""
        shared = [(command, key) for command, specs in _SPECS.items() for key in specs if key in _RANGES]
        assert ("cluster", "seed") in shared and ("eval", "tau") in shared
        assert {key for command, key in shared if command == "optimize"} == set(_RANGES)
        for command, key in shared:
            assert _SPECS[command][key].check is _RANGES[key], (command, key)

    @pytest.mark.parametrize("case", ["coco width", "eval canvas", "compare canvas", "header v", "header S"])
    def test_integer_beyond_digit_limit_names_the_file(self, tmp_path, dataset_file, capsys, case):
        """An integer of more digits than int() reads used to exit 2 with only int()'s message."""
        digits = "1" + "0" * 4999
        bad = tmp_path / "bad"
        anchors = tmp_path / "anchors.json"
        anchorforge.write_anchors_json(anchors, anchorforge.init_uniform(), canvas=416)
        bad.write_text({
            "coco width": f'{{"images": [{{"id": 1, "width": {digits}, "height": 10}}], "annotations": []}}',
            "eval canvas": anchors.read_text().replace("416", digits),
            "compare canvas": anchors.read_text().replace("416", digits),
            "header v": f"anchorforge-dataset v{digits} S=416\na\t1\t2\t3\t4\n",
            "header S": f"anchorforge-dataset v1 S={digits}\na\t1\t2\t3\t4\n",
        }[case])
        argv = {
            "coco width": ["ingest", "--format", "coco", "--input", str(bad)],
            "eval canvas": ["eval", "--dataset", str(dataset_file), "--anchors", str(bad)],
            "compare canvas": ["compare", str(anchors), str(bad)],
            "header v": ["eval", "--dataset", str(bad), "--anchors", str(anchors)],
            "header S": ["eval", "--dataset", str(bad), "--anchors", str(anchors)],
        }[case]
        out = tmp_path / "run"
        rc = main(argv + (["--out-dir", str(out)] if case != "compare canvas" else []))
        assert rc == 2
        prefix = f"{bad}: line 1: " if case.startswith("header") else f"{bad}: "
        assert f"error: {prefix}Exceeds the limit (4300 digits) for integer string conversion" in capsys.readouterr().err
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


    @pytest.mark.parametrize("command, flag, value, key", [
        ("optimize", "--iters", "x", "iters"),
        ("optimize", "--lr-schedule", "0:x", "lr_schedule"),
        ("optimize", "--cluster-weight", "bogus", "cluster_weight"),
        ("eval", "--taus", "", "taus"),
    ])
    def test_bad_flag_value_names_the_key(self, tmp_path, capsys, command, flag, value, key):
        """A flag value that does not parse takes the config value's error path,
        which names the option, not the function that parses it."""
        out = tmp_path / "run"
        rc = main([command, flag, value, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "_parse_" not in err, err
        assert not out.exists()


class TestRunDir:
    def test_default_run_dirs_do_not_collide(self, tmp_path, dataset_file, monkeypatch):
        """Commands started in the same second get runs/<command>-<timestamp>, -2, -3."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("anchorforge.cli.time.strftime", lambda fmt: "20260101-120000")
        for seed in (1, 2, 3):
            assert main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--seed", str(seed)]) == 0
        for name, seed in (("cluster-20260101-120000", 1), ("cluster-20260101-120000-2", 2),
                           ("cluster-20260101-120000-3", 3)):
            cfg = configparser.ConfigParser()
            cfg.read(tmp_path / "runs" / name / "effective.cfg")
            assert cfg["cluster"]["seed"] == str(seed)
        assert len(list((tmp_path / "runs").iterdir())) == 3

    def test_explicit_out_dir_is_reused(self, tmp_path, dataset_file):
        out = tmp_path / "run"
        for seed in (1, 2):
            assert main(["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--seed", str(seed),
                         "--out-dir", str(out)]) == 0
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["cluster"]["seed"] == "2"
        assert not (tmp_path / "run-2").exists()

    def test_failed_optimize_leaves_no_earlier_results(self, tmp_path, capsys):
        """An optimize run that fails in a reused run directory removes the
        anchors and summary an earlier run left there."""
        dataset, out = tmp_path / "m2.canonical", tmp_path / "run"
        anchorforge.write_canonical(synth.mixture2(1), dataset)
        assert main(["optimize", "--dataset", str(dataset), "--scale", "0.01", "--out-dir", str(out)]) == 0
        assert main(["optimize", "--dataset", str(dataset), "--iters", "40", "--no-head", "--lr-schedule", "0:1e4",
                     "--warmup-iters", "0", "--out-dir", str(out)]) == 3
        assert "at iteration 0;" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["effective.cfg", "trajectory.csv"]
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["optimize"]["iters"] == "40"
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1

    @pytest.mark.parametrize("command, step", [
        ("ingest", "write_canonical"), ("cluster", "kmeans_iou"), ("eval", "render_text"),
    ])
    def test_failed_run_leaves_no_earlier_results(self, tmp_path, dataset_file, monkeypatch, capsys, command, step):
        """A run that fails in a reused run directory removes the results an
        earlier run of the same command left there, as optimize's does."""
        anchors = tmp_path / "anchors.json"
        anchorforge.write_anchors_json(anchors, anchorforge.init_uniform(), canvas=416)
        argv = {
            "ingest": ["ingest", "--format", "csv", "--input", str(tmp_path / "boxes.csv")],
            "cluster": ["cluster", "--dataset", str(dataset_file), "--num-anchors", "2"],
            "eval": ["eval", "--dataset", str(dataset_file), "--anchors", str(anchors)],
        }[command] + ["--out-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        assert len(list((tmp_path / "run").iterdir())) > 1
        if command == "ingest":  # the sidecar goes with the file it belongs to
            assert (tmp_path / "run" / "dataset.canonical.cache").is_file()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(f"anchorforge.cli.{step}", fail)
        assert main(argv) == 2
        assert "disk full" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["effective.cfg"]


@pytest.mark.parametrize("kind", ["csv", "coco", "canonical", "anchors", "config"])
def test_non_utf8_file_named(tmp_path, dataset_file, capsys, kind):
    """A file that is not UTF-8 used to fail with only the codec's message."""
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    argv = {
        "csv": ["ingest", "--format", "csv", "--input", str(bad)],
        "coco": ["ingest", "--format", "coco", "--input", str(bad)],
        "canonical": ["eval", "--dataset", str(bad), "--anchors", str(bad)],
        "anchors": ["eval", "--dataset", str(dataset_file), "--anchors", str(bad)],
        "config": ["cluster", "--config", str(bad)],
    }[kind]
    rc = main(argv + ["--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("text, match", [
        ("[cluster]\nnum_anchors = 2\nnum_anchors = 3\n", "option 'num_anchors' in section 'cluster' already exists"),
        ("num_anchors = 2\n", "File contains no section headers"),
    ])
    def test_malformed_config_names_the_file(self, tmp_path, dataset_file, capsys, text, match):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "c"
        rc = main(["cluster", "--config", str(cfg_file), "--dataset", str(dataset_file), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_file}: ") and match in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [("cluster", "max_iter", "0"), ("optimize", "iters", "0")])
    @pytest.mark.parametrize("shape", ["alone", "beside-section", "bad-key"])
    def test_default_section_keys_rejected_before_run_dir(self, tmp_path, dataset_file, capsys, command, key,
                                                          value, shape):
        """configparser merges [DEFAULT] into every section: such a key used
        to be ignored without a [command] section, applied with one, and
        reported against [command] when unknown."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text({
            "alone": f"[DEFAULT]\n{key} = {value}\n",
            "beside-section": f"[DEFAULT]\n{key} = {value}\n[{command}]\n",
            "bad-key": f"[DEFAULT]\nbogus = 1\n[{command}]\n{key} = {value}\n",
        }[shape])
        out = tmp_path / "o"
        rc = main([command, "--config", str(cfg_file), "--dataset", str(dataset_file), "--num-anchors", "2",
                   "--out-dir", str(out)])
        assert rc == 2
        sets = "bogus" if shape == "bad-key" else key
        assert capsys.readouterr().err == (f"error: {cfg_file}: [DEFAULT] sets {sets}; "
                                           f"only the [{command}] section is read\n")
        assert not out.exists()

    def test_config_without_the_commands_section_runs_on_defaults(self, tmp_path, dataset_file):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[optimize]\nnum_anchors = 2\n")
        out = tmp_path / "c"
        rc = main(["cluster", "--config", str(cfg_file), "--dataset", str(dataset_file), "--out-dir", str(out)])
        assert rc == 0
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["cluster"]["num_anchors"] == "5" and cfg["cluster"]["max_iter"] == "300"

    def test_seed_environment_variable_is_not_read(self, tmp_path, dataset_file, monkeypatch):
        """A run's seed comes from its flag or config file, else 0; the
        ANCHORFORGE_SEED environment variable is not read."""
        argv = ["cluster", "--dataset", str(dataset_file), "--num-anchors", "2", "--out-dir"]
        assert main(argv + [str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("ANCHORFORGE_SEED", "77")
        out = tmp_path / "c"
        assert main(argv + [str(out)]) == 0
        cfg = configparser.ConfigParser()
        cfg.read(out / "effective.cfg")
        assert cfg["cluster"]["seed"] == "0"
        assert (out / "anchors.json").read_bytes() == (tmp_path / "plain" / "anchors.json").read_bytes()


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

    def test_python_dash_m_runs(self, tmp_path):
        src_dir = str(Path(anchorforge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "anchorforge", "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert_cli_help(proc)

    def test_python_dash_m_cli_module_runs(self, tmp_path):
        """``python -m anchorforge.cli`` runs the command line too: it used
        to exit 0 without running anything."""
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        anchorforge.write_anchors_json(good, anchorforge.init_uniform(), canvas=416)
        bad.write_text("{nope")
        proc = subprocess.run([sys.executable, "-m", "anchorforge.cli", "compare", str(good), str(bad)],
                              cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert f"{bad}: malformed JSON" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.skipif(shutil.which("anchorforge") is None,
                        reason="no anchorforge executable on PATH; install the package to run this")
    def test_installed_console_script_runs(self):
        proc = subprocess.run(["anchorforge", "--help"], capture_output=True, text=True)
        assert_cli_help(proc)


def child_env(**extra):
    """The environment of a child process that imports the anchorforge this suite imported."""
    src_dir = str(Path(anchorforge.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


class TestBlasThreads:
    def test_optimize_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Each training step builds its Grams with BLAS products (here on
        batches of 1024 boxes); anchors.json and trajectory.csv must come out
        byte for byte the same with one BLAS thread and with two."""
        data = tmp_path / "mixture2.canonical"
        anchorforge.write_canonical(synth.mixture2(3), data)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "anchorforge", "optimize", "--dataset", str(data), "--iters", "300",
                 "--warmup-iters", "100", "--batch-size", "1024", "--out-dir", str(out)],
                cwd=tmp_path, env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("anchors.json", "trajectory.csv")])
        assert outputs[0] == outputs[1]


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
    if spec.parse is _parse_bool:
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
    if spec.parse is _parse_bool:
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
            argv = [flag if text == "" and _SPECS[command][key].parse is _parse_bool else f"{flag}={text}"]
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


_JSON_VALUES = st.sampled_from([
    10**400, -(10**400), float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 1.7976931348623157e308,
    1e-300, 0, -0.0, -1, 1, 16, 32, 416, 30.5, "30", "", True, False, None, [], [30, 40], [[30, 40]], {},
])
_FIELD_TOKENS = st.sampled_from([
    "\t", "\r", "\n", "\r\n", " ", "", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "\x85", "\u2028", "\xa0",
    "5e-324", "1.7976931348623157e308", "0", "-0", "-1", "1_0", "0x10", "+5", "1e5", "#", "S=416", "é",
])


@st.composite
def _anchors_file_cases(draw):
    """A valid two-anchor file's text with one mutation, and where to read it."""
    doc = {"canvas": 416, "stride": 32, "anchors": [[30.0, 40.0], [120.0, 150.0]]}
    kind = draw(st.sampled_from(["canvas", "stride", "pair", "side", "anchors", "byte"]))
    if kind in ("canvas", "stride", "anchors"):
        doc[kind] = draw(_JSON_VALUES)
    elif kind == "pair":
        doc["anchors"][draw(st.integers(0, 1))] = draw(_JSON_VALUES)
    elif kind == "side":
        doc["anchors"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_JSON_VALUES)
    data = json.dumps(doc).encode()
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data, draw(st.sampled_from(["eval", "compare-a", "compare-b", "optimize"]))


@st.composite
def _canonical_cases(draw, text):
    """A valid canonical file's text with one mutation, and the command to read it."""
    lines = text.split("\n")[:-1]
    line = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["set", "insert", "append", "drop", "duplicate", "crlf"]))
    if kind in ("set", "insert", "append"):
        fields = lines[line].split("\t")
        i = draw(st.integers(0, len(fields) - 1))
        token = draw(_FIELD_TOKENS)
        at = draw(st.integers(0, len(fields[i])))
        fields[i] = {"set": token, "insert": fields[i][:at] + token + fields[i][at:], "append": fields[i] + token}[kind]
        lines[line] = "\t".join(fields)
    elif kind == "drop":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    ending = "\r\n" if kind == "crlf" else "\n"
    return "".join(line + ending for line in lines).encode(), draw(st.sampled_from(["eval", "cluster", "optimize"]))


_CSV_TOKENS = _FIELD_TOKENS | st.sampled_from([",", '"', '""', "'", "\x00", "1,2"])


@st.composite
def _csv_cases(draw, text):
    """A valid corner-format CSV's text with one mutation: of a field, the
    field count, the quoting, one byte or the line endings."""
    lines = text.split("\n")[:-1]
    line = draw(st.integers(0, len(lines) - 1))
    fields = lines[line].split(",")
    i = draw(st.integers(0, len(fields) - 1))
    kind = draw(st.sampled_from(["set", "insert", "quote", "drop", "add", "drop-line", "byte", "crlf"]))
    if kind == "set":
        fields[i] = draw(_CSV_TOKENS)
    elif kind == "insert":
        at = draw(st.integers(0, len(fields[i])))
        fields[i] = fields[i][:at] + draw(_CSV_TOKENS) + fields[i][at:]
    elif kind == "quote":
        fields[i] = '"' + fields[i] + '"'
    elif kind == "drop":
        del fields[i]
    elif kind == "add":
        fields.insert(i, draw(_CSV_TOKENS))
    lines[line] = ",".join(fields)
    if kind == "drop-line":
        del lines[line]
    data = "".join(line + ("\r\n" if kind == "crlf" else "\n") for line in lines).encode()
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data


_COCO_DOC = {
    "images": [{"id": 1, "width": 400, "height": 300}, {"id": "b", "width": 640, "height": 480}],
    "annotations": [
        {"id": 10, "image_id": 1, "bbox": [10.5, 20, 60, 80], "iscrowd": 0},
        {"id": 11, "image_id": "b", "bbox": [100, 50, 200, 120]},
        {"id": 12, "image_id": "b", "bbox": [0, 0, 640, 480], "iscrowd": 1},
    ],
}


# the image ids a file can name: what the canonical format cannot hold among them
_ID_TOKENS = _FIELD_TOKENS | st.sampled_from(["\ud800", "a\udcffb", "\U0001f600"])


@st.composite
def _coco_cases(draw):
    """A valid COCO file's bytes with one mutation: of a field's value or
    presence, an item, a list, the string image id everywhere it appears,
    one byte or the line endings."""
    doc = json.loads(json.dumps(_COCO_DOC))
    kind = draw(st.sampled_from(["image", "annotation", "side", "item", "list", "rename", "byte", "crlf"]))
    if kind == "rename":
        new_id = draw(_ID_TOKENS)
        for item in doc["images"] + doc["annotations"]:
            for key in ("id", "image_id"):
                if item.get(key) == "b":
                    item[key] = new_id
    elif kind in ("image", "annotation"):
        item = draw(st.sampled_from(doc[kind + "s"]))
        key = draw(st.sampled_from(sorted(item) + ["extra"]))
        if draw(st.booleans()):
            item.pop(key, None)
        else:
            item[key] = draw(_JSON_VALUES)
    elif kind == "side":
        draw(st.sampled_from(doc["annotations"]))["bbox"][draw(st.integers(0, 3))] = draw(_JSON_VALUES)
    elif kind == "item":
        items = doc[draw(st.sampled_from(["images", "annotations"]))]
        items[draw(st.integers(0, len(items) - 1))] = draw(_JSON_VALUES)
    elif kind == "list":
        doc[draw(st.sampled_from(["images", "annotations"]))] = draw(_JSON_VALUES)
    data = json.dumps(doc, indent=1).encode()
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    elif kind == "crlf":
        data = data.replace(b"\n", b"\r\n")
    return data, draw(st.booleans())


_VOC_XML = (
    "<annotation><filename>a.jpg</filename><size><width>640</width><height>480</height><depth>3</depth></size>"
    "<object><name>dog</name><difficult>0</difficult>"
    "<bndbox><xmin>10.5</xmin><ymin>20</ymin><xmax>200</xmax><ymax>220</ymax></bndbox></object>"
    "<object><name>cat</name><difficult>1</difficult>"
    "<bndbox><xmin>0</xmin><ymin>0</ymin><xmax>640</xmax><ymax>480</ymax></bndbox></object>"
    "</annotation>\n"
)
_XML_TOKENS = _FIELD_TOKENS | st.sampled_from(["<", ">", "&", "&amp;", "&#0;", "</object>", "<bndbox>", "<!--", "]]>"])


@st.composite
def _voc_cases(draw):
    """A valid VOC annotation file's bytes with one mutation (of an element's
    text, an element dropped or repeated, a token inserted, the bytes
    truncated or one byte flipped), and whether to exclude difficult boxes."""
    root = ET.fromstring(_VOC_XML)
    parents = [(parent, child) for parent in root.iter() for child in parent]
    parent, child = draw(st.sampled_from(parents))
    kind = draw(st.sampled_from(["text", "drop", "repeat", "insert", "truncate", "byte"]))
    if kind == "text":
        child.text = draw(_FIELD_TOKENS)
    elif kind == "drop":
        parent.remove(child)
    elif kind == "repeat":
        parent.insert(list(parent).index(child), copy.deepcopy(child))
    data = ET.tostring(root)
    at = draw(st.integers(0, len(data) - 1))
    if kind == "insert":
        data = data[:at] + draw(_XML_TOKENS).encode() + data[at:]
    elif kind == "truncate":
        data = data[:at]
    elif kind == "byte":
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data, draw(st.booleans())


_INI_TOKENS = _FIELD_TOKENS | st.sampled_from(["[", "]", "=", ":", ";", "%", "%(x)s", "[DEFAULT]", "[cluster]", "  "])


@st.composite
def _config_cases(draw, sections):
    """A valid config file's bytes for one command, with one mutation: of a
    value, a key, the section header, a line's presence, indentation or
    repetition, one byte or the line endings."""
    command = draw(st.sampled_from(sorted(sections)))
    lines = [f"[{command}]"] + [f"{k} = {v}" for k, v in sections[command].items()]
    line = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["value", "key", "insert", "drop", "duplicate", "indent", "section", "byte", "crlf"]))
    key, sep, value = lines[line].partition(" = ")
    if kind == "value" and sep:
        lines[line] = f"{key} = {draw(_INI_TOKENS)}"
    elif kind == "key" and sep:
        at = draw(st.integers(0, len(key)))
        lines[line] = f"{key[:at]}{draw(_INI_TOKENS)}{key[at:]} = {value}"
    elif kind == "insert":
        at = draw(st.integers(0, len(lines[line])))
        lines[line] = lines[line][:at] + draw(_INI_TOKENS) + lines[line][at:]
    elif kind == "drop":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    elif kind == "indent":
        lines[line] = "  " + lines[line]
    elif kind == "section":
        lines.insert(line, draw(st.sampled_from(["[DEFAULT]", "[DEFAULT]\nmax_iter = 0", f"[{command}]", "[other]"])))
    data = "".join(line + ("\r\n" if kind == "crlf" else "\n") for line in lines).encode()
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return command, data


def _run_quietly(argv, run_dir):
    """main(argv) with its output and warnings caught: it must exit 0 or 2
    with no traceback or warning, and an exit 2 leaves no run directory."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main([str(a) for a in argv])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    if rc == 2:
        assert run_dir is None or not run_dir.exists()


class TestReaderFuzz:
    """Mutated input files (anchors, canonical, CSV, COCO, VOC and config), read
    by every command that takes one."""

    @settings(max_examples=100, deadline=None)
    @given(_anchors_file_cases())
    def test_anchors_file(self, fuzz_inputs, case):
        data, reader = case
        root, sections = fuzz_inputs
        work = Path(tempfile.mkdtemp(dir=root))
        anchors, run = work / "anchors.json", work / "run"
        anchors.write_bytes(data)
        good, dataset = root / "c" / "anchors.json", sections["eval"]["dataset"]
        if reader == "eval":
            _run_quietly(["eval", "--dataset", dataset, "--anchors", anchors, "--out-dir", run], run)
        elif reader == "optimize":
            _run_quietly(["optimize", "--dataset", dataset, "--init", anchors, "--num-anchors", 2, "--iters", 3,
                          "--batch-size", 8, "--warmup-iters", 1, "--out-dir", run], run)
        else:
            _run_quietly(["compare", *((anchors, good) if reader == "compare-a" else (good, anchors))], None)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_canonical_file(self, fuzz_inputs, data):
        root, sections = fuzz_inputs
        text = Path(sections["eval"]["dataset"]).read_text(encoding="utf-8")
        content, reader = data.draw(_canonical_cases(text))
        work = Path(tempfile.mkdtemp(dir=root))
        dataset, run = work / "dataset.canonical", work / "run"
        dataset.write_bytes(content)
        argv = {
            "eval": ["--anchors", root / "c" / "anchors.json"],
            "cluster": ["--num-anchors", 2, "--max-iter", 5],
            "optimize": ["--num-anchors", 2, "--iters", 3, "--batch-size", 8, "--warmup-iters", 1],
        }[reader]
        _run_quietly([reader, "--dataset", dataset, *argv, "--out-dir", run], run)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_csv_file(self, fuzz_inputs, data):
        root, sections = fuzz_inputs
        content = data.draw(_csv_cases(sections["ingest"]["input"].read_text(encoding="utf-8")))
        work = Path(tempfile.mkdtemp(dir=root))
        boxes, run = work / "boxes.csv", work / "run"
        boxes.write_bytes(content)
        _run_quietly(["ingest", "--format", "csv", "--input", boxes, "--out-dir", run], run)

    @settings(max_examples=150, deadline=None)
    @given(_coco_cases())
    def test_coco_file(self, fuzz_inputs, case):
        data, include_crowd = case
        root, _ = fuzz_inputs
        work = Path(tempfile.mkdtemp(dir=root))
        coco, run = work / "ann.json", work / "run"
        coco.write_bytes(data)
        crowd = ["--include-crowd"] if include_crowd else []
        _run_quietly(["ingest", "--format", "coco", "--input", coco, *crowd, "--out-dir", run], run)

    @settings(max_examples=150, deadline=None)
    @given(_voc_cases())
    def test_voc_file(self, fuzz_inputs, case):
        data, exclude_difficult = case
        root, _ = fuzz_inputs
        work = Path(tempfile.mkdtemp(dir=root))
        (work / "ann").mkdir()
        (work / "ann" / "a.xml").write_bytes(data)
        difficult = ["--exclude-difficult"] if exclude_difficult else []
        _run_quietly(["ingest", "--format", "voc", "--input", work / "ann", *difficult, "--out-dir", work / "run"],
                     work / "run")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_config_file(self, fuzz_inputs, data):
        root, sections = fuzz_inputs
        command, content = data.draw(_config_cases(sections))
        work = Path(tempfile.mkdtemp(dir=root))
        cfg, run = work / "run.cfg", work / "run"
        cfg.write_bytes(content)
        _run_quietly([command, "--config", cfg, "--out-dir", run], run)
