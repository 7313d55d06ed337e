"""Command-line interface.

Subcommands: ingest, cluster, optimize, eval, compare. Options resolve
in order: command-line flag, then the matching key in the [command]
section of --config (a flat key=value INI), then the built-in default.
No environment variable is read.

Every option is declared once, in the ``_SPECS`` table (cluster and
optimize share ``_SHARED``): its config parser, default, choices, flag
help and range check.
optimize's training settings read their defaults from ``TrainConfig()``,
and ``TrainConfig`` alone checks them, built from the options before
--scale touches the counts; ``build_report`` alone checks eval's taus.
``build_parser`` makes each subcommand's flags from the table, and
``main`` resolves them with ``_merge_options``, which holds each value
to the same choices and check whether it came from a flag, the config
file or the default, so a bad value stops the command before its run
directory exists. Each run directory is made holding the merged
configuration as ``effective.cfg``, which reproduces the run when passed
back as --config.

Exit codes: 0 success, 2 bad input (unreadable or malformed files,
unknown flags or config keys, values outside an option's range), 3
numerical failure during optimization.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .assign import RULES
from .cluster import anchors_from_centroids, init_identical, init_kmeans, init_uniform, kmeans_iou
from .geometry import METRICS, AnchorSet
from .ingest import (
    CanonicalDataset,
    ParseError,
    _check_float_range,
    _read_utf8,
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
    match_anchor_sets,
    read_anchors_json,
    render_text,
    report_to_json,
    write_anchors_json,
)
from .trainer import _AT_LEAST_0, _AT_LEAST_1, _NONNEGATIVE, NonFiniteLossError, TrainConfig, run_training


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


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


def _parse_cluster_weight(text: str) -> Optional[float]:
    value = text.strip().lower()
    return None if value == "anneal" else float(value)


def _parse_taus(text: str) -> tuple[float, ...]:
    taus = tuple(float(p) for p in text.split(",") if p.strip())
    if not taus:
        raise ValueError("empty tau list")
    return taus


_REQUIRED = object()  # the default of an option that has none


class _Opt(NamedTuple):
    """One option of a subcommand, for its flag and its config key alike.

    parse reads the text of the config key and of the flag; a value with
    choices must match one as typed. An option parsed by _parse_bool is a
    --name/--no-name flag pair instead. An option without a default is
    required. check is a (requirement, test) pair the resolved value must
    pass.
    """

    parse: Callable[[str], object]
    default: object = _REQUIRED
    choices: tuple[str, ...] = ()
    help: Optional[str] = None
    check: Optional[tuple[str, Callable[[object], bool]]] = None


_FORMATS = ("coco", "voc", "csv")
_INITS = ("uniform", "identical", "kmeans")
_UNITS = ("pixels", "cells")

_POSITIVE = ("must be a positive number", lambda v: 0.0 < v < math.inf)

_RECIPE = TrainConfig()

_SHARED = {
    "seed": _Opt(int, _RECIPE.seed, help=f"random seed (default {_RECIPE.seed})", check=_AT_LEAST_0),
    "dataset": _Opt(str),
    "num_anchors": _Opt(int, 5, check=_AT_LEAST_1),
    "stride": _Opt(int, 32, check=_AT_LEAST_1),
    "units": _Opt(str, "pixels", _UNITS),
}

_SPECS: dict[str, dict[str, _Opt]] = {
    "ingest": {
        "format": _Opt(str, choices=_FORMATS),
        "input": _Opt(str, help="annotation file (coco, csv) or directory (voc)"),
        "canvas": _Opt(int, 416, help="square canvas size in pixels (default 416)", check=_AT_LEAST_1),
        "min_size": _Opt(float, 1e-3, help="drop boxes smaller than this after scaling", check=_NONNEGATIVE),
        "include_crowd": _Opt(_parse_bool, False, help="keep iscrowd annotations (coco only)"),
        "exclude_difficult": _Opt(_parse_bool, False, help="drop objects marked difficult (voc only)"),
    },
    "cluster": {**_SHARED, "max_iter": _Opt(int, 300, check=_AT_LEAST_0)},
    "optimize": {
        **_SHARED,
        "seed": _SHARED["seed"]._replace(check=None),  # TrainConfig checks it
        "init": _Opt(str, "kmeans", help=f"{', '.join(_INITS)}, or an anchors.json to start from"),
        "iters": _Opt(int, _RECIPE.iters),
        "scale": _Opt(float, 1.0, check=_POSITIVE,
                      help="scale iteration counts by this factor (lr breakpoints before the scaled warm-up move no earlier)"),
        "batch_size": _Opt(int, _RECIPE.batch_size),
        "momentum": _Opt(float, _RECIPE.momentum),
        "lr_schedule": _Opt(_parse_lr_schedule, _RECIPE.lr_schedule,
                            help="comma list of start:lr pairs, e.g. 0:1e-4,100:1e-3"),
        "warmup_iters": _Opt(int, _RECIPE.warmup_iters),
        "metric": _Opt(str, _RECIPE.metric, METRICS),
        "rule": _Opt(str, _RECIPE.rule, RULES),
        "tau": _Opt(float, _RECIPE.tau, help="IoU threshold for the threshold rule"),
        "cluster_weight": _Opt(_parse_cluster_weight, _RECIPE.cluster_weight,
                               help="'anneal' or a fixed coefficient in [0, 1]"),
        "head": _Opt(_parse_bool, _RECIPE.head),
        "sigma": _Opt(float, _RECIPE.sigma, help="feature noise level for the surrogate head"),
        "init_scale": _Opt(float, _RECIPE.init_scale),
        "bn": _Opt(_parse_bool, _RECIPE.bn, help="batch-normalize head outputs (scale only, no shift)"),
        "anchor_lr_mult": _Opt(float, _RECIPE.anchor_lr_mult),
        "log_every": _Opt(int, _RECIPE.log_every),
    },
    "eval": {
        "dataset": _Opt(str),
        "anchors": _Opt(str),
        "taus": _Opt(_parse_taus, (0.5, 0.75), help="comma list of recall thresholds"),
        "rule": _Opt(str, "yolo", RULES),
        "tau": _Opt(float, 0.5),
    },
}


def _load_config_section(path: str, command: str) -> dict[str, str]:
    if not Path(path).is_file():
        raise ParseError(f"config file not found: {path}")
    # values are literal: "%" has no interpolation meaning
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(_read_utf8(path), source=path)
    except configparser.Error as e:
        raise ParseError(f"{path}: {e}") from e
    if cp.defaults():  # configparser would merge them into every section
        raise ParseError(f"{path}: [DEFAULT] sets {', '.join(cp.defaults())}; only the [{command}] section is read")
    if command not in cp:
        return {}
    section = dict(cp[command])
    unknown = sorted(set(section) - set(_SPECS[command]))
    if unknown:
        raise ParseError(f"{path}: unknown keys in [{command}]: {', '.join(unknown)}")
    return section


def _merge_options(args: argparse.Namespace) -> dict:
    """Resolve every option of args.command (CLI flag, then config file,
    then default) and hold each resolved value to its option's check."""
    command = args.command
    specs = _SPECS[command]
    effective: dict[str, object] = {}
    file_section = _load_config_section(args.config, command) if args.config else {}
    for key, spec in specs.items():
        cli_value = getattr(args, key)
        if cli_value is not None and spec.parse is _parse_bool:
            effective[key] = cli_value  # --name or --no-name
        elif cli_value is not None or key in file_section:
            from_flag = cli_value is not None
            try:
                effective[key] = spec.parse(cli_value if from_flag else file_section[key])
            except ValueError as e:
                where = f"option {key} (--{key.replace('_', '-')})" if from_flag else f"config [{command}] {key}"
                raise ParseError(f"{where}: {e}") from None
            if spec.choices and effective[key] not in spec.choices:
                raise ParseError(f"config [{command}]: unknown {key} {effective[key]!r} "
                                 f"(expected {', '.join(spec.choices)})")
        else:
            effective[key] = spec.default
    missing = [k for k, v in effective.items() if v is _REQUIRED]
    if missing:
        raise ParseError(f"{command}: missing required option(s): {', '.join(missing)}")
    for key, spec in specs.items():
        if spec.check and not spec.check[1](effective[key]):
            raise ParseError(f"{key} {spec.check[0]}, got {effective[key]}")
        if type(effective[key]) is int:
            _check_float_range(key, effective[key])
    return effective


def _start_run_dir(args: argparse.Namespace, effective: dict, results: tuple[str, ...]) -> Path:
    """Make the run directory of args.command and write the merged options
    into it as effective.cfg. It is the --out-dir directory, made if missing;
    by default a new runs/<command>-<timestamp> directory, suffixed -2, -3,
    ... when a run started in the same second already holds the name.
    The command's result files that an earlier run left in a reused
    directory are removed, so a run that fails leaves none of them beside
    its own effective.cfg."""
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        base = f"runs/{args.command}-{time.strftime('%Y%m%d-%H%M%S')}"
        for n in itertools.count(1):
            out_dir = Path(base if n == 1 else f"{base}-{n}")
            try:
                out_dir.mkdir(parents=True)  # refuses a name taken, even by a concurrent run
            except FileExistsError:
                continue
            break
    for name in results:
        (out_dir / name).unlink(missing_ok=True)
    lines = [f"[{args.command}]"]
    for key in sorted(effective):
        value = effective[key]
        # repr keeps every digit of a float, so the file reproduces the run
        if key == "lr_schedule":
            value = ",".join(f"{s}:{lr!r}" for s, lr in value)
        elif key == "taus":
            value = ",".join(map(repr, value))
        elif key == "cluster_weight" and value is None:
            value = "anneal"
        lines.append(f"{key} = {value}")
    (out_dir / "effective.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir


def _quantile_block(name: str, values: np.ndarray) -> str:
    qs = np.percentile(values, [5, 25, 50, 75, 95])
    cells = "  ".join(f"{q:10.3f}" for q in qs)
    return f"{name:>6}: {cells}"


def cmd_ingest(args: argparse.Namespace, opt: dict) -> None:
    fmt = opt["format"]
    for key, only in (("include_crowd", "coco"), ("exclude_difficult", "voc")):
        if opt[key] and fmt != only:
            raise ParseError(f"{key} applies only to format {only}, not {fmt}")
    if fmt == "coco":
        boxes = parse_coco(opt["input"], include_crowd=opt["include_crowd"])
    elif fmt == "voc":
        boxes = parse_voc(opt["input"], exclude_difficult=opt["exclude_difficult"])
    else:
        boxes = parse_csv(opt["input"])
    ds = normalize_to_canvas(boxes, opt["canvas"], min_size=opt["min_size"])
    out_path = _start_run_dir(args, opt, ("dataset.canonical", "dataset.canonical.cache")) / "dataset.canonical"
    write_canonical(ds, out_path)

    print(f"parsed {len(boxes)} boxes from {opt['input']} ({fmt})")
    for key, count in boxes.counts.items():
        print(f"  {key}: {count}")
    print(f"kept {len(ds)} after normalization to canvas {ds.canvas_size} "
          f"({len(boxes) - len(ds)} dropped below min size)")
    if len(ds):
        shapes = ds.shapes()
        print("shape quantiles (5/25/50/75/95):")
        print(_quantile_block("w", shapes[:, 0]))
        print(_quantile_block("h", shapes[:, 1]))
        print(_quantile_block("log w", np.log(shapes[:, 0])))
        print(_quantile_block("log h", np.log(shapes[:, 1])))
    print(f"wrote {out_path}")


def cmd_cluster(args: argparse.Namespace, opt: dict) -> None:
    ds = read_canonical(opt["dataset"])
    num_anchors = opt["num_anchors"]
    if len(ds) < num_anchors:
        raise ParseError(f"{opt['dataset']}: dataset has {len(ds)} boxes but {num_anchors} clusters were requested")
    out_dir = _start_run_dir(args, opt, ("anchors.json", "anchors.txt"))
    result = kmeans_iou(ds.shapes(), num_anchors, max_iter=opt["max_iter"], seed=opt["seed"])
    anchors = anchors_from_centroids(result.centroids, opt["stride"])
    write_anchors_json(out_dir / "anchors.json", anchors, ds.canvas_size)
    (out_dir / "anchors.txt").write_text(anchors_line(anchors, opt["units"]) + "\n", encoding="utf-8")
    print(f"clustered {len(ds)} boxes into {num_anchors} anchors "
          f"in {result.iterations_run} iterations")
    print(f"mean best IoU: {result.mean_best_iou:.4f}")
    print(f"anchors: {anchors_line(anchors, opt['units'])}")
    print(f"wrote {out_dir / 'anchors.json'}")


def _anchors_for_canvas(path: str, canvas: int, source: str) -> AnchorSet:
    """Read an anchors file, refusing one written for another canvas than source's."""
    anchors, file_canvas = read_anchors_json(path)
    if file_canvas != canvas:
        raise ParseError(f"{path} holds anchors for canvas {file_canvas} but {source} is on canvas {canvas}")
    return anchors


def _initial_anchors(opt: dict, ds: CanonicalDataset) -> AnchorSet:
    """The start named by init (a keyword, else an anchors file), held to stride and num_anchors."""
    init, stride, num_anchors = opt["init"], opt["stride"], opt["num_anchors"]
    if init == "uniform":
        anchors = init_uniform(stride)
    elif init == "identical":
        anchors = init_identical(stride, num_anchors)
    elif init == "kmeans":
        anchors = init_kmeans(ds, num_anchors, seed=opt["seed"], stride=stride)
    else:
        anchors = _anchors_for_canvas(init, ds.canvas_size, f"dataset {opt['dataset']}")
    if anchors.stride != stride:
        raise ParseError(f"init {init} holds anchors for stride {anchors.stride} but stride is {stride}")
    if len(anchors) != num_anchors:
        raise ParseError(f"init {init} holds {len(anchors)} anchors but num_anchors is {num_anchors}")
    return anchors


def _scaled(name: str, value: int, scale: float) -> int:
    """value * scale rounded; a product beyond float range, which int() refuses, exits 2."""
    if value * scale == math.inf:
        raise ParseError(f"scale {scale:g} takes {name} {value:g} beyond float range")
    return int(round(value * scale))


def _scaled_schedule(
    schedule: tuple[tuple[int, float], ...], scale: float, warmup_iters: int
) -> tuple[tuple[int, float], ...]:
    """Scale the breakpoints, but one before the already scaled warmup_iters moves no
    earlier, so a short run keeps the recipe's learning-rate ramp inside its soft warm-up
    at every scale. Reject a scale that merges or reorders two breakpoints."""
    def moved(start: int) -> int:
        scaled = _scaled("lr_schedule breakpoint", start, scale)
        return max(start, scaled) if start < warmup_iters else scaled

    scaled = tuple((moved(start), lr) for start, lr in schedule)
    for (a, _), (b, _), (sa, _), (sb, _) in zip(schedule, schedule[1:], scaled, scaled[1:]):
        if a < b and sa >= sb:
            raise ParseError(
                f"scale {scale:g} maps lr_schedule breakpoints {a} and {b} to iterations "
                f"{sa} and {sb}, which do not increase; use a larger scale or fewer breakpoints"
            )
    return scaled


def _coverage_summary(anchors: AnchorSet, ds: CanonicalDataset) -> dict[str, float]:
    report = build_report(anchors, ds, taus=(0.5, 0.75))
    recall = report.recall_at
    return {"avg_best_iou": report.avg_best_iou, "recall_at_0.5": recall[0.5], "recall_at_0.75": recall[0.75]}


def cmd_optimize(args: argparse.Namespace, opt: dict) -> None:
    cfg = TrainConfig(**{f.name: opt[f.name] for f in fields(TrainConfig)})  # checks the options before --scale
    if opt["init"] not in _INITS and not Path(opt["init"]).is_file():
        raise ParseError(f"init {opt['init']!r} is none of {', '.join(_INITS)} and no such file exists")
    scale = opt["scale"]
    iters = _scaled("iters", opt["iters"], scale)
    if iters == 0 < opt["iters"]:
        raise ParseError(f"scale {scale:g} turns iters {opt['iters']} into 0 iterations; "
                         f"use a larger scale, or iters 0 to score the initial anchors")
    warmup_iters = _scaled("warmup_iters", opt["warmup_iters"], scale)
    lr_schedule = _scaled_schedule(cfg.lr_schedule, scale, warmup_iters)
    cfg = replace(cfg, iters=iters, warmup_iters=warmup_iters, lr_schedule=lr_schedule)
    # the counts are recorded scaled, so the recorded scale is 1
    opt |= {"iters": iters, "lr_schedule": lr_schedule, "warmup_iters": warmup_iters, "scale": 1}
    ds = read_canonical(opt["dataset"])
    if len(ds) == 0:
        raise ParseError(f"{opt['dataset']}: dataset is empty")
    if len(ds) < opt["num_anchors"]:
        raise ParseError(f"{opt['dataset']}: dataset has {len(ds)} boxes "
                         f"but {opt['num_anchors']} anchors were requested")

    anchors0 = _initial_anchors(opt, ds)
    out_dir = _start_run_dir(args, opt, ("anchors.json", "anchors.txt", "summary.json", "trajectory.csv"))

    before = _coverage_summary(anchors0, ds)
    result = run_training(ds, anchors0, cfg, trajectory_path=out_dir / "trajectory.csv")
    anchors = result.anchors
    after = _coverage_summary(anchors, ds)

    write_anchors_json(out_dir / "anchors.json", anchors, ds.canvas_size)
    (out_dir / "anchors.txt").write_text(anchors_line(anchors, opt["units"]) + "\n", encoding="utf-8")
    summary = {
        "iterations": iters,
        "final_loss": result.final_loss,
        "final_smoothed_loss": result.final_smoothed_loss,
        "metrics_before": before,
        "metrics_after": after,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    print(f"trained {len(anchors)} anchors for {iters} iterations on {len(ds)} boxes")
    smoothed = result.final_smoothed_loss
    print(f"final smoothed loss: {'none (no iterations)' if smoothed is None else format(smoothed, '.6g')}")
    print(f"avg_best_iou: {before['avg_best_iou']:.4f} -> {after['avg_best_iou']:.4f}")
    print(f"anchors: {anchors_line(anchors, opt['units'])}")
    print(f"wrote {out_dir / 'anchors.json'}, trajectory.csv, summary.json")


def cmd_eval(args: argparse.Namespace, opt: dict) -> None:
    ds = read_canonical(opt["dataset"])
    if len(ds) == 0:
        raise ParseError(f"{opt['dataset']}: dataset is empty")
    anchors = _anchors_for_canvas(opt["anchors"], ds.canvas_size, f"dataset {opt['dataset']}")
    report = build_report(
        anchors, ds,
        assignment_rule=opt["rule"],
        taus=opt["taus"],
        threshold_tau=opt["tau"],
    )
    out_dir = _start_run_dir(args, opt, ("report.txt", "report.json"))
    text = render_text(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.json").write_text(report_to_json(report) + "\n", encoding="utf-8")
    print(text, end="")
    print(f"wrote {out_dir / 'report.json'}")


def cmd_compare(args: argparse.Namespace) -> None:
    a, canvas = read_anchors_json(args.a)
    b = _anchors_for_canvas(args.b, canvas, args.a)
    if len(a) != len(b):
        raise ParseError(f"{args.a} and {args.b}: anchor sets differ in size: {len(a)} vs {len(b)}")
    a, b = a.sorted_by_area(), b.sorted_by_area()
    pairing, dists = match_anchor_sets(a, b)
    sa, sb = a.wh().tolist(), b.wh().tolist()
    print(f"comparing {args.a} against {args.b}")
    for (i, j), d in zip(pairing, dists):
        print(f"  ({sa[i][0]:8.2f}, {sa[i][1]:8.2f})  ->  ({sb[j][0]:8.2f}, {sb[j][1]:8.2f})  "
              f"log-dist {d:.4f}")
    print(f"mean matched log-space distance: {dists.mean():.6f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorforge",
        description="Learn and evaluate object-detection anchor shapes from box statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary in (
        ("ingest", cmd_ingest, "parse annotations and write a canonical dataset"),
        ("cluster", cmd_cluster, "IoU k-means anchors from a canonical dataset"),
        ("optimize", cmd_optimize, "train anchor shapes by SGD"),
        ("eval", cmd_eval, "score an anchors file against a dataset"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="INI file with a [command] section of key=value options")
        p.add_argument("--out-dir", help="run directory for outputs (default: runs/<command>-<timestamp>)")
        for key, spec in _SPECS[command].items():
            # a value flag reaches _merge_options as text, for spec.parse
            how = ({"action": argparse.BooleanOptionalAction} if spec.parse is _parse_bool
                   else {"choices": spec.choices or None})
            p.add_argument("--" + key.replace("_", "-"), help=spec.help, **how)
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="matched log-space distance between two anchors files")
    p.add_argument("a", help="first anchors.json")
    p.add_argument("b", help="second anchors.json")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _SPECS:
            args.func(args, _merge_options(args))
        else:
            args.func(args)
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:  # ParseError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
