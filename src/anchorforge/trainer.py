"""SGD training loop for anchor shapes (and the surrogate head).

Classic momentum SGD over the summed batch loss, on one flat vector p
of the anchors and (when enabled) the head, which the loop reads as views:

    v <- momentum * v + grad
    p <- p - lr * rate * v

The learning rate lr follows a step schedule; rate is the anchor
learning-rate multiplier on the anchors (0 freezes them) and 1 on the
head. During the warm-up window, responsibilities come from the
temperature-annealed soft rule and the clustering term is active;
afterwards training falls back to the configured hard rule with the
clustering coefficient at 0, unless the config pins it. Batches are
drawn from a seeded shuffle that reshuffles every epoch, and every
reduction runs in a fixed order, so a run is bitwise reproducible for a
given config and seed. Each epoch takes its boxes' linear shapes from
``ds.shapes()``, as ``eval`` does, and centres its rows by the epoch's
means; their outer-product table is built one block of whole batches (at
most ``TABLE_ROWS`` rows) at a time, so a step converts no ground truth
and builds no outer product itself.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .assign import (
    RULES,
    cluster_weight_at,
    hard_assign_threshold,
    hard_assign_yolo,
    soft_assign,
    temperature_at,
    utilization_counts,
)
from .geometry import METRICS, AnchorSet, Metric
from .ingest import CanonicalDataset, _check_float_range, _integer, _is_integer
from .lossgrad import TABLE_ROWS, _loss_from_arrays, grad_head, head_outputs, initial_head, make_features
from .lossgrad import moment_table, table_grams

SMOOTHING_WINDOW = 100


class NonFiniteLossError(RuntimeError):
    """Raised when training stops being finite: the loss, or (with
    shape_overflow) a linear anchor shape exp(s), from a finite log shape,
    that AnchorSet.from_linear refuses. Carries the iteration."""

    def __init__(self, iteration: int, loss: float, anchors: np.ndarray, shape_overflow: bool = False):
        self.iteration = iteration
        self.loss = loss
        self.anchors = anchors
        fault = (f"anchor shape overflowed to a non-finite or zero size (loss {loss!r})" if shape_overflow
                 else f"non-finite loss {loss!r}")
        super().__init__(f"{fault} at iteration {iteration}; anchor log-shapes: {anchors.tolist()!r}")


# (requirement, test) pairs; NaN fails every comparison, so each float test also rejects NaN
_AT_LEAST_0 = ("must be >= 0", lambda v: v >= 0)
_AT_LEAST_1 = ("must be >= 1", lambda v: v >= 1)
_NONNEGATIVE = ("must be a nonnegative number", lambda v: 0.0 <= v < math.inf)

# the TrainConfig fields that count iterations or boxes, or seed the draws; bools are refused
_INTEGERS = ("iters", "batch_size", "warmup_iters", "seed", "log_every")

# the range of each numeric TrainConfig field; optimize holds its options to the same pairs
_RANGES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "iters": _AT_LEAST_0,
    "batch_size": _AT_LEAST_1,
    "momentum": ("must lie in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "warmup_iters": _AT_LEAST_0,
    "anchor_lr_mult": _NONNEGATIVE,
    "tau": ("must lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "cluster_weight": ("must lie in [0, 1]", lambda v: v is None or 0.0 <= v <= 1.0),
    "sigma": _NONNEGATIVE,
    "init_scale": _NONNEGATIVE,
    "seed": _AT_LEAST_0,
    "log_every": _AT_LEAST_1,
}
# the float fields: the other ranged ones; cluster_weight may also be None
_FLOATS = tuple(name for name in _RANGES if name not in _INTEGERS)


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides data and init.

    The defaults are the recipe of a flag-free ``anchorforge optimize``,
    which sets every field, each named as its option and held to its
    range in ``_RANGES``; the counts in ``_INTEGERS`` and the schedule's
    starts must be integers, and the counts, the fields in ``_FLOATS`` and
    the rates numbers within float range, none a bool. Numpy scalars are
    stored as Python ``int`` and ``float``; an anchor_lr_mult of 0 freezes the anchors.
    """

    iters: int = 30000
    batch_size: int = 64
    momentum: float = 0.9
    lr_schedule: tuple[tuple[int, float], ...] = ((0, 1e-4), (100, 1e-3), (15000, 1e-4), (27000, 1e-5))
    warmup_iters: int = 1500
    anchor_lr_mult: float = 1.0
    rule: str = "yolo"
    tau: float = 0.5  # IoU threshold of the threshold rule
    metric: Metric = "one_minus_iou"
    cluster_weight: Optional[float] = None  # pinned for the whole run; None anneals it
    head: bool = True  # train the surrogate head alongside the anchors
    sigma: float = 0.3  # noise level of the head's features
    init_scale: float = 0.1
    bn: bool = True  # batch-normalize the head's outputs
    seed: int = 0
    log_every: int = 50

    def __post_init__(self) -> None:
        # numpy scalars are stored as Python ones, whose repr trajectory.csv writes
        for name in _INTEGERS:
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        floats = [(name, getattr(self, name)) for name in _FLOATS if getattr(self, name) is not None]
        for name, value in floats + [("lr_schedule", lr) for _, lr in self.lr_schedule]:
            # bool is an int subclass, and float() of a huge integer raises OverflowError
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if _is_integer(value):  # a float beyond range is inf, which the range tests refuse
                _check_float_range(name, value)
        for name, (requirement, test) in _RANGES.items():
            value = getattr(self, name)
            if not test(value):
                raise ValueError(f"{name} {requirement}, got {value}")
        if not self.lr_schedule or self.lr_schedule[0][0] != 0:
            raise ValueError("lr_schedule must be nonempty and start at iteration 0")
        starts = [s for s, _ in self.lr_schedule]
        if not all(map(_is_integer, starts)):
            raise ValueError(f"lr_schedule iterations must be integers, got {starts}")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("lr_schedule iterations must be strictly increasing")
        if not all(0.0 < lr < math.inf for _, lr in self.lr_schedule):
            raise ValueError(f"learning rates must be positive numbers, got {self.lr_schedule}")
        if self.rule not in RULES:
            raise ValueError(f"unknown assignment rule {self.rule!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r} (expected one of {', '.join(METRICS)})")
        for name in _FLOATS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "lr_schedule", tuple((int(s), float(lr)) for s, lr in self.lr_schedule))


@dataclass
class TrainResult:
    """Trained anchors, the loss of the last iteration, that loss smoothed
    over SMOOTHING_WINDOW iterations (both None without iterations) and
    each epoch's utilization. The logged trajectory is the file at
    run_training's trajectory_path.

    epoch_utilization is an (epochs, A) int64 array: row e counts each
    anchor's boxes from iteration e * ceil(n / batch_size) on, for n
    boxes; the last row may be cut short, and iters=0 gives no rows.
    """

    anchors: AnchorSet
    final_loss: Optional[float]
    final_smoothed_loss: Optional[float]
    epoch_utilization: np.ndarray


def _csv_header(num_anchors: int) -> str:
    cols = ["iter", "loss", "lambda", "T"]
    for i in range(1, num_anchors + 1):
        cols += [f"w{i}", f"h{i}"]
    cols += [f"util{i}" for i in range(1, num_anchors + 1)]
    return ",".join(cols)


def _csv_row(t: int, loss: float, lam: float, temp: Optional[float], anchors_wh: np.ndarray,
             utilization: np.ndarray) -> str:
    parts = [str(t), repr(loss), repr(lam), repr(0.0 if temp is None else temp)]
    for w, h in anchors_wh:
        parts += [repr(float(w)), repr(float(h))]
    parts += [str(int(u)) for u in utilization]
    return ",".join(parts)


# a diverging run overflows before the finite checks in the loop stop it with
# NonFiniteLossError; they report it, so numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def run_training(
    ds: CanonicalDataset,
    anchors0: AnchorSet,
    cfg: TrainConfig,
    trajectory_path: "str | Path | None" = None,
) -> TrainResult:
    """Train anchors (and the head, when enabled) on a canonical dataset.

    With iters=0 the inputs are returned unchanged. When trajectory_path
    is given, a row is written to it every cfg.log_every iterations and
    at the final one, and flushed as it is written, so an interrupted run
    keeps its partial history on disk; without it no trajectory is kept.
    Raises NonFiniteLossError as soon as the loss stops being finite, or
    at a logged step whose linear anchors AnchorSet.from_linear refuses.
    """
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    num_anchors = len(anchors0)
    rng = np.random.default_rng(cfg.seed)

    blocks = [anchors0.log_wh]
    if cfg.head:
        blocks += initial_head(num_anchors, cfg.init_scale, rng)
    params = np.concatenate([b.ravel() for b in blocks])
    velocity = np.zeros_like(params)
    ends = np.cumsum([b.size for b in blocks])[:-1]
    # head is [u, c, gamma], or empty without one
    s, *head = [p.reshape(b.shape) for p, b in zip(np.split(params, ends), blocks)]
    vel_s, *vel_head = [v.reshape(b.shape) for v, b in zip(np.split(velocity, ends), blocks)]
    rate = np.ones_like(params)
    # frozen anchors (multiplier 0) gather no velocity either, so 0 * inf cannot make them NaN
    rate[: s.size] = cfg.anchor_lr_mult
    breakpoints = dict(cfg.lr_schedule)

    wh, log_g = ds.shapes(), ds.log_shapes()
    n = log_g.shape[0]
    size = cfg.batch_size
    per_epoch = -(-n // size)  # batches per epoch; the last one may be short
    # the epoch's columns x_j = (1, f_j, g_j) in shuffled order; without a
    # head the feature rows repeat the log shapes and no coefficient reads them
    rows = np.ones((5, n))
    # the outer products of the columns, a block of whole batches at a time
    block = max(1, TABLE_ROWS // size)  # batches per block
    table = np.empty((min(n, block * size), 25))
    eye = np.eye(num_anchors)
    no_head = np.zeros((num_anchors, 2, 5))

    epoch_rows = []  # each epoch's utilization, added as it begins
    window_counts = np.zeros(num_anchors, dtype=np.int64)
    alpha = 1.0 / SMOOTHING_WINDOW
    ema: Optional[float] = None
    loss: Optional[float] = None

    csv_file = (open(trajectory_path, "w", encoding="utf-8", newline="\n")
                if trajectory_path is not None else nullcontext())
    with csv_file as fh:
        if fh is not None:
            fh.write(_csv_header(num_anchors) + "\n")
            fh.flush()
        for t in range(cfg.iters):
            b = t % per_epoch  # the batch's index in its epoch
            if b == 0:
                epoch_wh = g_wh = None  # drop the last epoch's linear rows (and its view) before the gathers
                order = rng.permutation(n)
                rows[3:] = np.take(log_g, order, axis=0).T
                epoch_wh = np.take(wh, order, axis=0)
                del order  # before the feature draw, the first epoch's allocation peak
                # one draw per epoch gives the noise stream of one draw per batch
                rows[1:3] = make_features(rows[3:].T, cfg.sigma, rng).T if head else rows[3:]
                mean = rows.sum(axis=1) / n
                mean[0] = 0.0
                epoch_counts = np.zeros(num_anchors, dtype=np.int64)  # the step adds into it
                epoch_rows.append(epoch_counts)
            lo = b * size
            if b % block == 0:
                start = lo
                moment_table(rows[:, start : start + len(table)], mean, table)
            hi = min(lo + size, n)
            # the batch: its log rows, linear shapes and outer products
            g, g_wh, outer = rows[3:, lo:hi].T, epoch_wh[lo:hi], table[lo - start : hi - start]
            s_wh = np.exp(s)

            temp = temperature_at(t, cfg.warmup_iters)
            soft = temp is not None
            if soft:
                w, winners = soft_assign(g, g_wh, s, s_wh, cfg.metric, temp)
            elif cfg.rule == "threshold":
                w, winners = hard_assign_threshold(g_wh, s_wh, cfg.tau)
            else:
                w, winners = hard_assign_yolo(g, g_wh, s, s_wh, cfg.metric, eye)

            lam = cfg.cluster_weight
            if lam is None:
                lam = cluster_weight_at(t, cfg.warmup_iters)

            # every pair belongs to a soft assignment, even where its weight
            # underflowed to 0; a hard one covers its nonzeros
            gram, member_gram = table_grams(outer, w, soft)
            coef = no_head
            if head:
                coef, cache = head_outputs(*head, member_gram, mean, bn=cfg.bn)

            loss, gs, dcoef = _loss_from_arrays(coef, gram, s, mean, lam)
            if not math.isfinite(loss):
                raise NonFiniteLossError(t, loss, s.copy())

            ema = loss if ema is None else (1.0 - alpha) * ema + alpha * loss

            if t in breakpoints:
                step = breakpoints[t] * rate
            velocity *= cfg.momentum
            if cfg.anchor_lr_mult:
                vel_s += gs
            if head:
                for vel, grad in zip(vel_head, grad_head(dcoef, cache, mean, head[2])):
                    vel += grad
            params -= step * velocity
            if head:
                # keep scales strictly positive; BN output is odd in gamma so
                # the loss landscape does not need the sign
                np.maximum(head[2], 1e-6, out=head[2])

            counts = utilization_counts(w, winners)
            epoch_counts += counts
            window_counts += counts

            if t % cfg.log_every == 0 or t == cfg.iters - 1:
                anchors_wh = np.exp(s)
                try:  # a finite log shape can still overflow (or underflow) its side or area
                    AnchorSet.from_linear(anchors_wh)
                except ValueError:
                    raise NonFiniteLossError(t, loss, s.copy(), shape_overflow=True) from None
                if fh is not None:
                    fh.write(_csv_row(t, loss, lam, temp, anchors_wh, window_counts) + "\n")
                    fh.flush()
                window_counts[:] = 0

    return TrainResult(AnchorSet.from_array(s, anchors0.stride), loss, ema,
                       np.array(epoch_rows, dtype=np.int64).reshape(-1, num_anchors))
