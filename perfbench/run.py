"""Outside-in benchmark of the anchorforge command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed makes the workload's
input files; each anchorforge command then runs in a fresh child process
with one BLAS thread, one at a time, exactly as a user runs it. The
workload repeats for about S seconds (and at least a minimum number of
times), every output is checked, and the last line of stdout
is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) named in BENCHMARK.json. A traced run
alternates untraced and traced repetitions, so the cost of tracing is
measured in the same run. Full results, the machine facts and the
merged spans go to .perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
REQUIRED = (ROOT / "BENCHMARK.json", ROOT / "src" / "anchorforge" / "cli.py", ROOT / "tests" / "synth.py")

RUN_LIMIT_S = 140.0  # start no repetition that would end past this: a run must end within 180 s
COMMAND_TIMEOUT_S = 170.0  # a command still running then is killed and fails
LOG_EVERY = 50  # optimize's default logging interval
IOU_TOL = 1e-9
LLOYD_ROUNDS = 40  # --max-iter for cluster: fewer rounds than any seed tried needs to converge
CLI_COMMANDS = ("ingest", "cluster", "optimize", "eval")

SETUP_CODE = "import sys, anchorforge; anchorforge.read_canonical(sys.argv[1])"
WARM_CODE = "import anchorforge.cli, tracer"
# Fixed work that does not touch anchorforge, in a fresh process like every
# command: start-up, the numpy import, and small-array numpy and dict work.
# Its time tracks the host's speed; see "Steadiness" in README.md.
CAL_CODE = """
import numpy as np
a = np.random.default_rng(0).random((2000, 5))
b = np.random.default_rng(1).random((5, 5))
d = {}
for i in range(1500):
    k = int(((np.exp(-a) * a) @ b).sum(axis=1).argmax())
    for j in range(40):
        d[j] = d.get(j, 0) + k
"""
CAL_REF_S = 0.38  # about the calibration's median time on a 2-core Xeon VM (0.37-0.40 s over sets of runs)

CHILD_ENV = {k: v for k, v in os.environ.items() if k not in ("ANCHORFORGE_SEED", "PYTHONPATH")}
CHILD_ENV.update(
    PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-check shrinks them."""

    scale: float = 0.1  # --scale for optimize: 3000 of 30000 iterations
    coco_boxes: int = 300_000


@dataclass(frozen=True)
class Training:
    """One optimize command of a training workload, on its own input."""

    name: str  # the command's name in the results: optimize-<kind>
    mixture: str  # tests/synth.py dataset
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    min_reps: int
    probes_per_rep: int  # set-up probes after each repetition
    trainings: tuple[Training, ...] = ()  # empty: the ingest/cluster/eval pipeline


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train",
            min_reps=4,
            probes_per_rep=3,
            trainings=(
                Training("optimize-head", "mixture2"),
                # warm-up over half of optimize's default 30000 iterations; --scale shrinks both alike
                Training("optimize-soft", "mixture3",
                         ("--no-head", "--init", "identical", "--rule", "threshold", "--warmup-iters", "15000")),
            ),
        ),
        # a probe reads 300k records here, about eight times the cost of one on train
        Workload("dataset-300k", min_reps=2, probes_per_rep=3),
    )
}


@dataclass
class Invocation:
    name: str
    exit_code: int
    wall_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Rep:
    traced: bool
    wall_s: float
    commands: dict[str, Invocation]
    program_iou: dict[str, float] = field(default_factory=dict)  # by command
    final_smoothed_loss: dict[str, float] = field(default_factory=dict)  # by optimize command
    iterations: dict[str, int] = field(default_factory=dict)  # optimize's own counts, from summary.json
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    absent: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Reference:
    """The benchmark's own numpy avg_best_iou, independent of anchorforge."""

    def __init__(self) -> None:
        self._shapes: dict[str, object] = {}

    def avg_best_iou(self, anchors_json: Path, canonical: Path) -> float:
        import numpy as np

        key = sha256_file(canonical)
        if key not in self._shapes:
            self._shapes[key] = np.loadtxt(canonical, delimiter="\t", skiprows=1, usecols=(3, 4), comments=None, ndmin=2)
        wh = self._shapes[key]
        anchors = np.array(json.loads(anchors_json.read_text(encoding="utf-8"))["anchors"], dtype=float)
        inter = np.minimum(wh[:, None, 0], anchors[None, :, 0]) * np.minimum(wh[:, None, 1], anchors[None, :, 1])
        union = (wh[:, 0] * wh[:, 1])[:, None] + (anchors[:, 0] * anchors[:, 1])[None, :] - inter
        return float((inter / union).max(axis=1).mean())


def expected_rows(iters: int) -> int:
    return sum(1 for t in range(iters) if t % LOG_EVERY == 0 or t == iters - 1)


class Runner:
    """One benchmark run: inputs, repetitions, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.work = work
        self.t_begin = time.monotonic()
        self.reference = Reference()
        self.first_hashes: dict[str, str] = {}
        self.inputs: list[dict] = []
        self.cut_short = ""
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turns: dict[str, int] = {}

    def spawn(self, argv: list[str], log_path: Path, name: str, turn_key: str = "") -> Invocation:
        """Run a child process to completion; wall time and peak RSS from os.wait4.

        Each vCPU of a shared host changes speed on its own, and a child
        otherwise tends to run where the one before it ran. So the
        successive runs of one name (or turn_key) are pinned to the allowed
        CPUs in turn, and a run samples all of them alike. The child
        inherits this thread's affinity at fork; the thread's own is restored.
        """
        key = turn_key or name
        turn = self.turns[key] = self.turns.get(key, -1) + 1
        os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen([sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT)
            finally:
                os.sched_setaffinity(0, self.cpus)
            timer = threading.Timer(max(0.0, self.t_begin + COMMAND_TIMEOUT_S - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(name, proc.returncode, wall, usage.ru_maxrss / 1024.0)
        if inv.exit_code != 0:
            inv.problems.append(f"exit code {inv.exit_code} (log {log_path.relative_to(ROOT)})")
        return inv

    # ---- inputs ----------------------------------------------------------

    def make_inputs(self) -> None:
        import inputs

        # the input of each command, by command name
        self.input_paths: dict[str, Path] = {}
        self.input_boxes: dict[str, int] = {}
        for t in self.workload.trainings:
            path = self.work / f"{t.mixture}.canonical"
            self.input_paths[t.name], self.input_boxes[t.name] = path, inputs.write_mixture(path, t.mixture, self.seed)
        if not self.workload.trainings:
            path = self.work / "input.coco.json"
            self.input_paths["ingest"], self.input_boxes["ingest"] = path, inputs.write_coco(path, self.sizes.coco_boxes, self.seed)
        for name, path in self.input_paths.items():
            self.inputs.append({"file": path.name, "boxes": self.input_boxes[name], "sha256": sha256_file(path)})

    # ---- one repetition ---------------------------------------------------

    def commands(self, rep_dir: Path) -> list[tuple[str, list[str]]]:
        if self.workload.trainings:
            return [
                (t.name, ["optimize", "--dataset", str(self.input_paths[t.name]), "--scale", repr(self.sizes.scale),
                          "--out-dir", str(rep_dir / t.name), *t.flags])
                for t in self.workload.trainings
            ]
        canonical = rep_dir / "ingest" / "dataset.canonical"
        anchors = rep_dir / "cluster" / "anchors.json"
        return [
            ("ingest", ["ingest", "--format", "coco", "--input", str(self.input_paths["ingest"]), "--out-dir", str(rep_dir / "ingest")]),
            ("cluster", ["cluster", "--dataset", str(canonical), "--num-anchors", "9",
                         "--max-iter", str(LLOYD_ROUNDS), "--out-dir", str(rep_dir / "cluster")]),
            ("eval", ["eval", "--dataset", str(canonical), "--anchors", str(anchors), "--out-dir", str(rep_dir / "eval")]),
        ]

    def run_rep(self, index: int, traced: bool) -> Rep:
        rep_dir = self.work / f"rep{index}"
        rep_dir.mkdir(parents=True)
        invocations: dict[str, Invocation] = {}
        t0 = time.perf_counter()
        for name, argv in self.commands(rep_dir):
            child = [str(BENCH_DIR / "child.py")]
            if traced:
                child += ["--trace", str(rep_dir / f"{name}.spans.json"), f"rep{index}/{name}"]
            # untraced and traced repetitions alternate, so each kind takes its own turns
            invocations[name] = self.spawn(child + argv, rep_dir / f"{name}.log", name, f"{name}/{traced}")
        rep = Rep(traced, time.perf_counter() - t0, invocations)
        self.check(rep, rep_dir)
        if traced:
            self.collect_trace(rep, rep_dir)
        return rep

    # ---- output checks ----------------------------------------------------

    def check(self, rep: Rep, rep_dir: Path) -> None:
        for name, inv in rep.commands.items():
            out = rep_dir / name
            try:
                # optimize-head and optimize-soft are both checked as optimize
                getattr(self, f"check_{name.split('-')[0]}")(rep, inv, out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                inv.problems.append(f"unreadable output: {type(e).__name__}: {e}")

    def same_bytes(self, inv: Invocation, path: Path) -> None:
        """Deterministic outputs must repeat byte for byte within a seed."""
        digest = sha256_file(path)
        key = f"{inv.name}/{path.name}"
        first = self.first_hashes.setdefault(key, digest)
        if digest != first:
            inv.problems.append(f"{key} differs from the first repetition")

    def anchors_ok(self, inv: Invocation, path: Path, count: int) -> None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if len(doc["anchors"]) != count or not all(len(a) == 2 for a in doc["anchors"]):
            inv.problems.append(f"{path.name} holds {len(doc['anchors'])} anchors, expected {count}")
        self.same_bytes(inv, path)

    def iou_matches(self, inv: Invocation, program: float, anchors: Path, canonical: Path) -> None:
        ref = self.reference.avg_best_iou(anchors, canonical)
        if not abs(program - ref) <= IOU_TOL:
            inv.problems.append(f"avg_best_iou {program!r} differs from the reference {ref!r}")

    def check_optimize(self, rep: Rep, inv: Invocation, out: Path) -> None:
        self.anchors_ok(inv, out / "anchors.json", 5)
        summary_path = out / "summary.json"
        self.same_bytes(inv, summary_path)
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        iters = rep.iterations[inv.name] = int(summary["iterations"])
        traj = out / "trajectory.csv"
        rows = traj.read_bytes().count(b"\n") - 1
        if rows != expected_rows(iters):
            inv.problems.append(f"trajectory.csv has {rows} rows, expected {expected_rows(iters)} for {iters} iterations")
        self.same_bytes(inv, traj)
        iou = rep.program_iou[inv.name] = float(summary["metrics_after"]["avg_best_iou"])
        rep.final_smoothed_loss[inv.name] = float(summary["final_smoothed_loss"])
        self.iou_matches(inv, iou, out / "anchors.json", self.input_paths[inv.name])

    def check_ingest(self, rep: Rep, inv: Invocation, out: Path) -> None:
        canonical = out / "dataset.canonical"
        records = canonical.read_bytes().count(b"\n") - 1
        if records != self.input_boxes["ingest"]:
            inv.problems.append(f"dataset.canonical has {records} records, expected {self.input_boxes['ingest']}")
        self.same_bytes(inv, canonical)

    def check_cluster(self, rep: Rep, inv: Invocation, out: Path) -> None:
        self.anchors_ok(inv, out / "anchors.json", 9)

    def check_eval(self, rep: Rep, inv: Invocation, out: Path) -> None:
        report_path = out / "report.json"
        self.same_bytes(inv, report_path)
        iou = rep.program_iou[inv.name] = float(json.loads(report_path.read_text(encoding="utf-8"))["avg_best_iou"])
        rep_dir = out.parent
        self.iou_matches(inv, iou, rep_dir / "cluster" / "anchors.json", rep_dir / "ingest" / "dataset.canonical")

    # ---- traced repetitions -----------------------------------------------

    def collect_trace(self, rep: Rep, rep_dir: Path) -> None:
        import numpy as np
        import tracer

        totals: dict[str, dict] = {}
        counters: dict[str, float] = {}
        for name, inv in rep.commands.items():
            try:
                doc = json.loads((rep_dir / f"{name}.spans.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                inv.problems.append(f"no spans: {e}")
                continue
            rep.spans.append({"run_id": doc["run_id"], "spans": doc["spans"]})
            rep.absent += [a for a in doc["absent"] if a not in rep.absent]
            for key, value in doc["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
            for fname, entry in tracer.summarize(doc["spans"]).items():
                total = totals.setdefault(fname, {"calls": 0, "s": 0.0, "self_s": 0.0, "iter_durations": []})
                for key in ("calls", "s", "self_s", "iter_durations"):
                    total[key] += entry[key]

        def get(fname: str, key: str):
            return totals.get(fname, {}).get(key, 0)

        m: dict[str, float] = {}
        for fname in tracer.TRACED:
            for key in ("calls", "s", "self_s"):
                m[f"{fname}.{key}"] = get(fname, key)
        for fname in tracer.PER_ITERATION:
            d = get(fname, "iter_durations") or [0.0]
            m[f"{fname}.p50_us"], m[f"{fname}.p99_us"] = (float(v) * 1e6 for v in np.percentile(d, [50, 99]))
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.s"] = get(f"cli.{cmd}", "s")
            m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}", "self_s")

        iterations = sum(rep.iterations.values())
        m["trainer.iter_us"] = get("trainer.run_training", "s") / iterations * 1e6 if iterations else 0.0
        m["trainer.loop_self_s"] = get("trainer.run_training", "self_s")
        trajs = [p for p in (rep_dir / t.name / "trajectory.csv" for t in self.workload.trainings) if p.exists()]
        m["trainer.traj_rows"] = sum(p.read_bytes().count(b"\n") - 1 for p in trajs)
        m["trainer.traj_bytes"] = sum(p.stat().st_size for p in trajs)

        def ratio(num: str, den: str) -> float:
            return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

        m["assign.entries_per_box"] = ratio("assign.entries", "assign.boxes")
        m["assign.soft_useful_frac"] = ratio("assign.soft_useful", "assign.soft_entries")
        m["geometry.anchorset_builds"] = counters.get("geometry.anchorset_builds", 0)

        canonical = rep_dir / "ingest" / "dataset.canonical"
        ingested = "ingest" in rep.commands and canonical.exists()
        m["ingest.bytes_in"] = self.input_paths["ingest"].stat().st_size if ingested else 0
        m["ingest.bytes_out"] = canonical.stat().st_size if ingested else 0
        ingest_s = get("cli.ingest", "s")
        m["ingest.records_per_s"] = self.input_boxes["ingest"] / ingest_s if ingested and ingest_s else 0.0

        lloyd = counters.get("cluster.lloyd_iters", 0)
        m["cluster.lloyd_iters"] = lloyd
        m["cluster.lloyd_iter_ms"] = get("cluster.kmeans_iou", "s") / lloyd * 1e3 if lloyd else 0.0
        rep.layers = m

    # ---- the whole run ----------------------------------------------------

    def setup_probe(self, rep_index: int, number: int) -> Invocation:
        """A fresh process that imports the package and reads the workload's dataset.

        On the training workload that is the first training's input, the larger one.
        """
        trainings = self.workload.trainings
        canonical = self.input_paths[trainings[0].name] if trainings else self.work / f"rep{rep_index}" / "ingest" / "dataset.canonical"
        return self.spawn(["-c", SETUP_CODE, str(canonical)], self.work / f"setup{number}.log", "setup")

    def run(self) -> tuple[dict, list]:
        self.work.mkdir(parents=True)
        self.make_inputs()
        # compile bytecode and fault in the libraries before anything is timed
        warm = self.spawn(["-c", WARM_CODE], self.work / "warm.log", "warm-up")

        # the set-up probes and calibrations after each repetition sample
        # the host's speed over the same stretch of time as the repetitions do
        reps: list[Rep] = []
        probes: list[Invocation] = []
        cals: list[Invocation] = []
        # a traced run counts its untraced and traced repetitions alike, in whole pairs
        min_reps = self.workload.min_reps + (self.workload.min_reps % 2 if self.trace else 0)
        measure_start = time.monotonic()
        steps: list[float] = []
        while True:
            step_start = time.monotonic()
            reps.append(self.run_rep(len(reps), traced=self.trace and len(reps) % 2 == 1))
            for _ in range(self.workload.probes_per_rep):
                probes.append(self.setup_probe(len(reps) - 1, len(probes)))
                cals.append(self.spawn(["-c", CAL_CODE], self.work / "cal.log", "calibration"))
            now = time.monotonic()
            steps.append(now - step_start)
            if self.trace and len(reps) % 2:
                continue
            # stop where the measured time lands nearest --seconds
            pair = statistics.mean(steps) * (2 if self.trace else 1)
            if len(reps) >= min_reps and now - measure_start + pair / 2 >= self.seconds:
                break
            if now - self.t_begin + max(steps) * (2 if self.trace else 1) > RUN_LIMIT_S:
                self.cut_short = (f"stopped after {len(reps)} repetitions and {now - measure_start:.1f} s "
                                  f"(asked for at least {min_reps} and {self.seconds:g} s) to end within {RUN_LIMIT_S:g} s")
                break
        return self.results(warm, reps, probes, cals)

    def results(self, warm: Invocation, reps: list[Rep], probes: list[Invocation], cals: list[Invocation]) -> tuple[dict, list]:
        """The results document, and the spans of every traced command."""
        invocations = [warm, *probes, *cals] + [inv for r in reps for inv in r.commands.values()]
        failed = [inv for inv in invocations if inv.problems]
        plain = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]

        def med(values) -> float:
            values = list(values)
            return statistics.median(values) if values else 0.0

        # Times are means, not medians. A shared host can switch between two
        # CPU speeds every few seconds; the median of samples from two modes
        # jumps from one to the other as their shares pass one half, while
        # the mean follows the share of time spent in each.
        wall = statistics.mean(r.wall_s for r in plain)
        setup = statistics.mean(p.wall_s for p in probes)
        cal = statistics.mean(c.wall_s for c in cals)
        # the gated times are in reference seconds: scaled to a host on which
        # the calibration takes CAL_REF_S
        end_to_end = {
            "wall_s": wall * CAL_REF_S / cal,
            "setup_s": setup * CAL_REF_S / cal,
            "peak_rss_mb": max(inv.rss_mb for r in plain for inv in r.commands.values()),
            # the mean over the workload's optimize commands, or eval's value
            "avg_best_iou": statistics.mean(plain[0].program_iou.values()),
        }
        extra = {"measured_wall_s": wall, "measured_setup_s": setup, "calibration_s": cal}
        extra.update({f"{name}_s": statistics.mean(r.commands[name].wall_s for r in plain) for name in plain[0].commands})
        if self.workload.trainings:
            extra.update({f"{name}.avg_best_iou": v for name, v in plain[0].program_iou.items()})
            extra.update({f"{name}.final_smoothed_loss": v for name, v in plain[0].final_smoothed_loss.items()})
        extra["failed_frac"] = len(failed) / len(invocations)
        per_layer: dict[str, float] = {}
        if traced:
            per_layer = {key: med(r.layers[key] for r in traced) for key in traced[0].layers}
            per_layer["trace_overhead_frac"] = statistics.mean(r.wall_s for r in traced) / wall - 1.0
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "machine": machine_facts(),
            "inputs": self.inputs,
            "correct": not failed,
            "attempted": len(invocations),
            "failed": len(failed),
            "problems": [f"{inv.name}: {p}" for inv in failed for p in inv.problems],
            "repetitions": [
                {"traced": r.traced, "wall_s": r.wall_s,
                 "commands": {n: {"exit": i.exit_code, "wall_s": i.wall_s, "rss_mb": i.rss_mb} for n, i in r.commands.items()}}
                for r in reps
            ],
            "setup_probes_s": [p.wall_s for p in probes],
            "calibrations_s": [c.wall_s for c in cals],
            "end_to_end": end_to_end,
            "extra": extra,
            "per_layer": per_layer,
            "absent": sorted({a for r in traced for a in r.absent}),
            "cut_short": self.cut_short,
        }, [s for r in traced for s in r.spans]


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        revision = proc.stdout.strip() or revision
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anchorforge").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "source_sha256": sources.hexdigest(),
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def report(res: dict, spec: dict) -> dict:
    """Print the human-readable summary; return the result line as a JSON-ready dict."""
    m = res["machine"]
    print(f"anchorforge benchmark: workload {res['workload']}, seed {res['seed']}, trace {int(res['trace'])}")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, numpy {m['numpy']}, "
          f"revision {m['git_revision']}, sources {m['source_sha256'][:16]}")
    for item in res["inputs"]:
        print(f"input {item['file']}: {item['boxes']} boxes, sha256 {item['sha256']}")
    plain = [r for r in res["repetitions"] if not r["traced"]]
    print(f"repetitions: {len(res['repetitions'])} ({len(plain)} untraced); wall_s {quartiles([r['wall_s'] for r in plain])}")
    print(f"setup probes: {quartiles(res['setup_probes_s'])}")
    print(f"calibrations: {quartiles(res['calibrations_s'])}")
    if res["cut_short"]:
        print(f"CUT SHORT: {res['cut_short']}")
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    extra_units = {"final_smoothed_loss": "loss", "avg_best_iou": "ratio", "failed_frac": "ratio"}
    for name, value in {**res["end_to_end"], **res["extra"]}.items():
        print(f"  {name} = {value:.6g} {units.get(name, extra_units.get(name.split('.')[-1], 's'))}")
    if res["absent"]:
        print(f"absent from this program (reported as 0): {', '.join(res['absent'])}")
    for problem in res["problems"]:
        print(f"FAILED {problem}")

    key, values = ("per_layer", res["per_layer"]) if res["trace"] else ("end_to_end", res["end_to_end"])
    if res["trace"]:
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units.get(name, '')}")
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in spec[key]}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args: argparse.Namespace, sizes: Sizes) -> tuple[dict, list]:
    """Run one workload in a fresh work directory; keep its results and spans files."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        raise SystemExit(f"error: not an anchorforge source checkout (missing {', '.join(missing)})")
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    work = WORK / f"work-{os.getpid()}"
    try:
        res, spans = Runner(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), sizes, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    if spans:
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return res, spans


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    res, _ = execute(args, Sizes())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(json.dumps(report(res, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
