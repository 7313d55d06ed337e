"""Command-line interface.

Subcommands: ingest, cluster, optimize, eval, compare. Options resolve
in order: command-line flag, then the matching key in the [command]
section of --config (a flat key=value INI), then the built-in default.
The merged configuration is echoed into the run directory so a run can
be reproduced from its outputs alone. The seed falls back to the
ANCHORFORGE_SEED environment variable when neither flag nor config sets
it.

Exit codes: 0 success, 2 bad input (unreadable or malformed files,
unknown flags or config keys), 3 numerical failure during optimization.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .assign import WarmupSchedule
from .cluster import anchors_from_centroids, init_identical, init_kmeans, init_uniform, kmeans_iou
from .geometry import METRICS, AnchorSet
from .ingest import (
    CanonicalDataset,
    ParseError,
    normalize_to_canvas,
    parse_coco,
    parse_csv,
    parse_voc,
    read_canonical,
    write_canonical,
)
from .report import (
    anchors_line,
    build_report,
    coverage,
    match_anchor_sets,
    match_pairing,
    read_anchors_json,
    render_text,
    report_to_json,
    write_anchors_json,
)
from .trainer import HeadConfig, NonFiniteLossError, TrainConfig, run_training

SEED_ENV_VAR = "ANCHORFORGE_SEED"


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_lr_schedule(text: str) -> tuple[tuple[int, float], ...]:
    segments = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        start_str, _, lr_str = part.partition(":")
        segments.append((int(start_str), float(lr_str)))
    if not segments:
        raise ValueError("empty learning-rate schedule")
    return tuple(segments)


def _parse_taus(text: str) -> tuple[float, ...]:
    taus = tuple(float(p) for p in text.split(",") if p.strip())
    if not taus:
        raise ValueError("empty tau list")
    return taus


class _Opt(NamedTuple):
    """Parser for a config value, default (None: required), allowed values (argparse's too)."""

    parse: Callable[[str], object]
    default: object
    choices: tuple[str, ...] = ()


_FORMATS = ("coco", "voc", "csv")
_INITS = ("uniform", "identical", "kmeans", "file")
_RULES = ("yolo", "threshold")
_UNITS = ("pixels", "cells")

_SPECS: dict[str, dict[str, _Opt]] = {
    "ingest": {
        "format": _Opt(str.lower, None, _FORMATS),
        "input": _Opt(str, None),
        "canvas": _Opt(int, 416),
        "min_size": _Opt(float, 1e-3),
        "include_crowd": _Opt(_parse_bool, False),
        "exclude_difficult": _Opt(_parse_bool, False),
        "seed": _Opt(int, None),
    },
    "cluster": {
        "dataset": _Opt(str, None),
        "num_anchors": _Opt(int, 5),
        "stride": _Opt(int, 32),
        "max_iter": _Opt(int, 300),
        "units": _Opt(str, "pixels", _UNITS),
        "seed": _Opt(int, None),
    },
    "optimize": {
        "dataset": _Opt(str, None),
        "init": _Opt(str, "kmeans", _INITS),
        "init_file": _Opt(str, ""),
        "num_anchors": _Opt(int, 5),
        "stride": _Opt(int, 32),
        "iters": _Opt(int, 30000),
        "scale": _Opt(float, 1.0),
        "batch_size": _Opt(int, 64),
        "momentum": _Opt(float, 0.9),
        "lr_schedule": _Opt(_parse_lr_schedule, ((0, 1e-4), (100, 1e-3), (15000, 1e-4), (27000, 1e-5))),
        "warmup_iters": _Opt(int, 1500),
        "metric": _Opt(str, "one_minus_iou", METRICS),
        "rule": _Opt(str, "yolo", _RULES),
        "tau": _Opt(float, 0.5),
        "cluster_weight": _Opt(str, "anneal"),
        "head": _Opt(_parse_bool, True),
        "sigma": _Opt(float, 0.3),
        "init_scale": _Opt(float, 0.1),
        "bn": _Opt(_parse_bool, True),
        "freeze_anchors": _Opt(_parse_bool, False),
        "anchor_lr_mult": _Opt(float, 1.0),
        "log_every": _Opt(int, 50),
        "units": _Opt(str, "pixels", _UNITS),
        "seed": _Opt(int, None),
    },
    "eval": {
        "dataset": _Opt(str, None),
        "anchors": _Opt(str, None),
        "taus": _Opt(_parse_taus, (0.5, 0.75)),
        "rule": _Opt(str, "yolo", _RULES),
        "tau": _Opt(float, 0.5),
        "seed": _Opt(int, None),
    },
}


def _load_config_section(path: str, command: str) -> dict[str, str]:
    if not Path(path).is_file():
        raise ParseError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise ParseError(f"{path}: {e}") from e
    if command not in cp:
        return {}
    section = dict(cp[command])
    unknown = sorted(set(section) - set(_SPECS[command]))
    if unknown:
        raise ParseError(f"{path}: unknown keys in [{command}]: {', '.join(unknown)}")
    return section


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Resolve every option: CLI flag, then config file, then default."""
    specs = _SPECS[command]
    effective: dict[str, object] = {}
    file_section: dict[str, str] = {}
    if getattr(args, "config", None):
        file_section = _load_config_section(args.config, command)
    for key, spec in specs.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            effective[key] = cli_value
        elif key in file_section:
            try:
                effective[key] = spec.parse(file_section[key])
            except ValueError as e:
                raise ParseError(f"config [{command}] {key}: {e}") from None
            if spec.choices and effective[key] not in spec.choices:
                raise ParseError(f"config [{command}]: unknown {key} {effective[key]!r} "
                                 f"(expected {', '.join(spec.choices)})")
        else:
            effective[key] = spec.default
    missing = [k for k, v in effective.items() if v is None and specs[k].default is None and k != "seed"]
    if missing:
        raise ParseError(f"{command}: missing required option(s): {', '.join(missing)}")
    if "seed" in specs and effective.get("seed") is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            effective["seed"] = int(env) if env else 0
        except ValueError:
            raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return effective


def _make_run_dir(args: argparse.Namespace, command: str) -> Path:
    out = getattr(args, "out_dir", None)
    if not out:
        out = f"runs/{command}-{time.strftime('%Y%m%d-%H%M%S')}"
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _echo_config(out_dir: Path, command: str, effective: dict) -> None:
    lines = [f"[{command}]"]
    for key in sorted(effective):
        value = effective[key]
        if key == "lr_schedule" and not isinstance(value, str):
            value = ",".join(f"{s}:{lr:g}" for s, lr in value)
        elif key == "taus" and not isinstance(value, str):
            value = ",".join(f"{t:g}" for t in value)
        lines.append(f"{key} = {value}")
    (out_dir / "effective.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _quantile_block(name: str, values: np.ndarray) -> str:
    qs = np.percentile(values, [5, 25, 50, 75, 95])
    cells = "  ".join(f"{q:10.3f}" for q in qs)
    return f"{name:>6}: {cells}"


def cmd_ingest(args: argparse.Namespace) -> int:
    opt = _merge_options("ingest", args)
    counters: dict = {}
    fmt = opt["format"]
    if fmt == "coco":
        boxes = parse_coco(opt["input"], skip_crowd=not opt["include_crowd"], counters=counters)
    elif fmt == "voc":
        boxes = parse_voc(opt["input"], include_difficult=not opt["exclude_difficult"], counters=counters)
    else:
        boxes = parse_csv(opt["input"], counters=counters)
    ds = normalize_to_canvas(boxes, int(opt["canvas"]), min_size=float(opt["min_size"]), source=str(opt["input"]))
    out_dir = _make_run_dir(args, "ingest")
    out_path = out_dir / "dataset.canonical"
    write_canonical(ds, out_path)
    _echo_config(out_dir, "ingest", opt)

    print(f"parsed {len(boxes)} boxes from {opt['input']} ({fmt})")
    for key in ("records", "skipped_crowd", "skipped_difficult"):
        if key in counters:
            print(f"  {key}: {counters[key]}")
    print(f"kept {len(ds)} after normalization to canvas {ds.canvas_size} "
          f"({ds.metadata.get('dropped', 0)} dropped below min size)")
    if len(ds):
        shapes = ds.shapes()
        print("shape quantiles (5/25/50/75/95):")
        print(_quantile_block("w", shapes[:, 0]))
        print(_quantile_block("h", shapes[:, 1]))
        print(_quantile_block("log w", np.log(shapes[:, 0])))
        print(_quantile_block("log h", np.log(shapes[:, 1])))
    print(f"wrote {out_path}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    opt = _merge_options("cluster", args)
    ds = read_canonical(opt["dataset"])
    num_anchors = int(opt["num_anchors"])
    if len(ds) < num_anchors:
        raise ParseError(f"dataset has {len(ds)} boxes but {num_anchors} clusters were requested")
    out_dir = _make_run_dir(args, "cluster")
    result = kmeans_iou(ds.shapes(), num_anchors, max_iter=int(opt["max_iter"]), seed=int(opt["seed"]))
    anchors = anchors_from_centroids(result.centroids, int(opt["stride"]))
    write_anchors_json(out_dir / "anchors.json", anchors, ds.canvas_size)
    (out_dir / "anchors.txt").write_text(anchors_line(anchors, str(opt["units"])) + "\n", encoding="utf-8")
    _echo_config(out_dir, "cluster", opt)
    print(f"clustered {len(ds)} boxes into {num_anchors} anchors "
          f"in {result.iterations_run} iterations")
    print(f"mean best IoU: {result.mean_best_iou:.4f}")
    print(f"anchors: {anchors_line(anchors, str(opt['units']))}")
    print(f"wrote {out_dir / 'anchors.json'}")
    return 0


def _initial_anchors(opt: dict, ds: CanonicalDataset) -> AnchorSet:
    mode = str(opt["init"])
    stride = int(opt["stride"])
    num_anchors = int(opt["num_anchors"])
    if mode == "uniform":
        anchors = init_uniform(stride)
        if len(anchors) != num_anchors:
            raise ParseError(
                f"init=uniform provides {len(anchors)} anchors but num_anchors is {num_anchors}; "
                f"use --init identical, kmeans or file for other counts"
            )
        return anchors
    if mode == "identical":
        return init_identical(stride, num_anchors)
    if mode == "kmeans":
        return init_kmeans(ds, num_anchors, seed=int(opt["seed"]), stride=stride)
    # mode == "file": the option's choices admit nothing else
    if not opt["init_file"]:
        raise ParseError("init=file requires init_file")
    anchors, _ = read_anchors_json(opt["init_file"])
    if len(anchors) != num_anchors:
        raise ParseError(f"init_file {opt['init_file']} holds {len(anchors)} anchors but num_anchors is {num_anchors}")
    return anchors


def _scaled(value: int, scale: float) -> int:
    return max(0, int(round(value * scale)))


def _scaled_schedule(schedule: tuple[tuple[int, float], ...], scale: float) -> tuple[tuple[int, float], ...]:
    """Scale the schedule's breakpoints; reject a scale that merges two of them."""
    scaled = tuple((_scaled(start, scale), lr) for start, lr in schedule)
    for (a, _), (b, _), (sa, _), (sb, _) in zip(schedule, schedule[1:], scaled, scaled[1:]):
        if a < b and sa >= sb:
            raise ParseError(
                f"scale {scale:g} maps lr_schedule breakpoints {a} and {b} "
                f"both to iteration {sb}; use a larger scale or fewer breakpoints"
            )
    return scaled


def _coverage_summary(anchors: AnchorSet, ds: CanonicalDataset) -> dict[str, float]:
    avg, recall = coverage(anchors, ds, (0.5, 0.75))
    return {"avg_best_iou": avg, "recall_at_0.5": recall[0.5], "recall_at_0.75": recall[0.75]}


def cmd_optimize(args: argparse.Namespace) -> int:
    opt = _merge_options("optimize", args)
    for key in ("iters", "warmup_iters"):
        if int(opt[key]) < 0:
            raise ParseError(f"{key} must be >= 0, got {opt[key]}")
    scale = float(opt["scale"])
    if not (math.isfinite(scale) and scale > 0.0):
        raise ParseError(f"scale must be a positive number, got {opt['scale']}")
    ds = read_canonical(opt["dataset"])
    if len(ds) == 0:
        raise ParseError(f"{opt['dataset']}: dataset is empty")

    iters = max(1, _scaled(int(opt["iters"]), scale))
    schedule = _scaled_schedule(opt["lr_schedule"], scale)
    warmup_iters = _scaled(int(opt["warmup_iters"]), scale)

    cw_text = str(opt["cluster_weight"]).strip().lower()
    if cw_text == "anneal":
        cw_mode, cw_fixed = "anneal", 0.0
    else:
        try:
            cw_mode, cw_fixed = "fixed", float(cw_text)
        except ValueError:
            raise ParseError(f"cluster_weight must be 'anneal' or a number, got {opt['cluster_weight']!r}") from None

    cfg = TrainConfig(
        iters=iters,
        batch_size=int(opt["batch_size"]),
        momentum=float(opt["momentum"]),
        lr_schedule=schedule,
        warmup=WarmupSchedule(warmup_iters=warmup_iters),
        anchor_lr_multiplier=float(opt["anchor_lr_mult"]),
        train_anchors=not bool(opt["freeze_anchors"]),
        assignment_rule=str(opt["rule"]),
        threshold_tau=float(opt["tau"]),
        metric=str(opt["metric"]),
        cluster_weight_mode=cw_mode,
        cluster_weight_fixed=cw_fixed,
        head=HeadConfig(
            enabled=bool(opt["head"]),
            sigma=float(opt["sigma"]),
            init_scale=float(opt["init_scale"]),
            bn=bool(opt["bn"]),
        ),
        seed=int(opt["seed"]),
        log_every=int(opt["log_every"]),
    )
    anchors0 = _initial_anchors(opt, ds)
    out_dir = _make_run_dir(args, "optimize")
    _echo_config(out_dir, "optimize", {**opt, "iters": iters, "lr_schedule": schedule, "warmup_iters": warmup_iters})

    before = _coverage_summary(anchors0, ds)
    result = run_training(ds, anchors0, cfg, trajectory_path=out_dir / "trajectory.csv")
    anchors = result.anchors
    after = _coverage_summary(anchors, ds)

    write_anchors_json(out_dir / "anchors.json", anchors, ds.canvas_size)
    (out_dir / "anchors.txt").write_text(anchors_line(anchors, str(opt["units"])) + "\n", encoding="utf-8")
    summary = {
        "iterations": iters,
        "final_loss": result.trajectory.rows[-1].loss if result.trajectory.rows else None,
        "final_smoothed_loss": result.trajectory.final_smoothed_loss,
        "metrics_before": before,
        "metrics_after": after,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    print(f"trained {len(anchors)} anchors for {iters} iterations on {len(ds)} boxes")
    print(f"final smoothed loss: {result.trajectory.final_smoothed_loss:.6g}")
    print(f"avg_best_iou: {before['avg_best_iou']:.4f} -> {after['avg_best_iou']:.4f}")
    print(f"anchors: {anchors_line(anchors, str(opt['units']))}")
    print(f"wrote {out_dir / 'anchors.json'}, trajectory.csv, summary.json")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    opt = _merge_options("eval", args)
    ds = read_canonical(opt["dataset"])
    anchors, _ = read_anchors_json(opt["anchors"])
    # build_report checks taus and tau: a rejected run leaves no directory
    report = build_report(
        anchors, ds,
        assignment_rule=str(opt["rule"]),
        taus=tuple(opt["taus"]),
        threshold_tau=float(opt["tau"]),
    )
    out_dir = _make_run_dir(args, "eval")
    text = render_text(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.json").write_text(report_to_json(report) + "\n", encoding="utf-8")
    _echo_config(out_dir, "eval", opt)
    print(text, end="")
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    a, _ = read_anchors_json(args.a)
    b, _ = read_anchors_json(args.b)
    if len(a) != len(b):
        raise ParseError(f"anchor sets differ in size: {len(a)} vs {len(b)}")
    a = a.sorted_by_area()
    b = b.sorted_by_area()
    mean_dist = match_anchor_sets(a, b)
    la, lb = a.as_array(), b.as_array()
    sa, sb = a.wh().tolist(), b.wh().tolist()
    print(f"comparing {args.a} against {args.b}")
    for i, j in match_pairing(a, b):
        d = float(np.sqrt(np.sum((la[i] - lb[j]) ** 2)))
        print(f"  ({sa[i][0]:8.2f}, {sa[i][1]:8.2f})  ->  ({sb[j][0]:8.2f}, {sb[j][1]:8.2f})  "
              f"log-dist {d:.4f}")
    print(f"mean matched log-space distance: {mean_dist:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorforge",
        description="Learn and evaluate object-detection anchor shapes from box statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI file with a [command] section of key=value options")
        p.add_argument("--out-dir", help="run directory for outputs (default: runs/<command>-<timestamp>)")
        p.add_argument("--seed", type=int, help=f"random seed (falls back to ${SEED_ENV_VAR}, then 0)")

    p = sub.add_parser("ingest", help="parse annotations and write a canonical dataset")
    add_common(p)
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--input", help="annotation file (coco, csv) or directory (voc)")
    p.add_argument("--canvas", type=int, help="square canvas size in pixels (default 416)")
    p.add_argument("--min-size", dest="min_size", type=float, help="drop boxes smaller than this after scaling")
    p.add_argument("--include-crowd", dest="include_crowd", action="store_const", const=True)
    p.add_argument("--exclude-difficult", dest="exclude_difficult", action="store_const", const=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="IoU k-means anchors from a canonical dataset")
    add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--num-anchors", dest="num_anchors", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--units", choices=_UNITS)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("optimize", help="train anchor shapes by SGD")
    add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--init", choices=_INITS)
    p.add_argument("--init-file", dest="init_file")
    p.add_argument("--num-anchors", dest="num_anchors", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--scale", type=float, help="scale iteration counts (schedule, warm-up) by this factor")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--momentum", type=float)
    p.add_argument("--lr-schedule", dest="lr_schedule", type=_parse_lr_schedule,
                   help="comma list of start:lr pairs, e.g. 0:1e-4,100:1e-3")
    p.add_argument("--warmup-iters", dest="warmup_iters", type=int)
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--rule", choices=_RULES)
    p.add_argument("--tau", type=float, help="IoU threshold for the threshold rule")
    p.add_argument("--cluster-weight", dest="cluster_weight",
                   help="'anneal' or a fixed coefficient in [0, 1]")
    p.add_argument("--head", dest="head", action=argparse.BooleanOptionalAction)
    p.add_argument("--sigma", type=float, help="feature noise level for the surrogate head")
    p.add_argument("--init-scale", dest="init_scale", type=float)
    p.add_argument("--bn", dest="bn", action=argparse.BooleanOptionalAction,
                   help="batch-normalize head outputs (scale only, no shift)")
    p.add_argument("--freeze-anchors", dest="freeze_anchors", action="store_const", const=True)
    p.add_argument("--anchor-lr-mult", dest="anchor_lr_mult", type=float)
    p.add_argument("--log-every", dest="log_every", type=int)
    p.add_argument("--units", choices=_UNITS)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="score an anchors file against a dataset")
    add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--anchors")
    p.add_argument("--taus", type=_parse_taus, help="comma list of recall thresholds")
    p.add_argument("--rule", choices=_RULES)
    p.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="matched log-space distance between two anchors files")
    p.add_argument("a", help="first anchors.json")
    p.add_argument("b", help="second anchors.json")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
