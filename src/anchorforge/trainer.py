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
given config and seed.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

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
from .ingest import CanonicalDataset
from .lossgrad import _loss_from_arrays, batch_moments, grad_head, head_outputs, initial_head, make_features

SMOOTHING_WINDOW = 100


class NonFiniteLossError(RuntimeError):
    """Raised when training stops being finite: the loss, or (with
    shape_overflow) a linear anchor shape exp(s) that over- or underflows
    from a finite log shape. Carries the iteration."""

    def __init__(self, iteration: int, loss: float, anchors: np.ndarray, shape_overflow: bool = False):
        self.iteration = iteration
        self.loss = loss
        self.anchors = anchors
        fault = (f"anchor shape overflowed to a non-finite or zero size (loss {loss!r})" if shape_overflow
                 else f"non-finite loss {loss!r}")
        super().__init__(f"{fault} at iteration {iteration}; anchor log-shapes: {anchors.tolist()!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides data and init.

    The defaults are the recipe of a flag-free ``anchorforge optimize``,
    which sets every field; an anchor_lr_multiplier of 0 freezes the anchors.
    """

    iters: int = 30000
    batch_size: int = 64
    momentum: float = 0.9
    lr_schedule: tuple[tuple[int, float], ...] = ((0, 1e-4), (100, 1e-3), (15000, 1e-4), (27000, 1e-5))
    warmup_iters: int = 1500
    anchor_lr_multiplier: float = 1.0
    assignment_rule: str = "yolo"
    threshold_tau: float = 0.5
    metric: Metric = "one_minus_iou"
    cluster_weight: Optional[float] = None  # pinned for the whole run; None anneals it
    head: bool = True  # train the surrogate head alongside the anchors
    sigma: float = 0.3  # noise level of the head's features
    init_scale: float = 0.1
    bn: bool = True  # batch-normalize the head's outputs
    seed: int = 0
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        if self.warmup_iters < 0:
            raise ValueError("warmup_iters must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.lr_schedule or self.lr_schedule[0][0] != 0:
            raise ValueError("lr_schedule must be nonempty and start at iteration 0")
        starts = [s for s, _ in self.lr_schedule]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("lr_schedule iterations must be strictly increasing")
        if not all(0.0 < lr < math.inf for _, lr in self.lr_schedule):
            raise ValueError(f"learning rates must be positive numbers, got {self.lr_schedule}")
        if not 0.0 <= self.anchor_lr_multiplier < math.inf:
            raise ValueError(f"anchor_lr_multiplier must be a nonnegative number, got {self.anchor_lr_multiplier}")
        if self.assignment_rule not in RULES:
            raise ValueError(f"unknown assignment rule {self.assignment_rule!r}")
        if not 0.0 < self.threshold_tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.threshold_tau}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r} (expected one of {', '.join(METRICS)})")
        if self.cluster_weight is not None and not 0.0 <= self.cluster_weight <= 1.0:
            raise ValueError(f"cluster_weight must lie in [0, 1], got {self.cluster_weight}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be a nonnegative number, got {self.sigma}")
        if not 0.0 <= self.init_scale < math.inf:
            raise ValueError(f"init_scale must be a nonnegative number, got {self.init_scale}")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    loss: float
    cluster_weight: float
    temperature: float
    anchors_wh: np.ndarray
    utilization: np.ndarray


@dataclass
class TrainResult:
    """Trained anchors and the run's history: a row every log_every
    iterations and at the last, each epoch's utilization, and the loss
    smoothed over SMOOTHING_WINDOW iterations (None without iterations).

    epoch_utilization is an (epochs, A) int64 array: row e counts each
    anchor's boxes from iteration e * ceil(n / batch_size) on, for n
    boxes; the last row may be cut short, and iters=0 gives no rows.
    """

    anchors: AnchorSet
    rows: list[TrajectoryRow]
    epoch_utilization: np.ndarray
    final_smoothed_loss: Optional[float]


def _csv_header(num_anchors: int) -> str:
    cols = ["iter", "loss", "lambda", "T"]
    for i in range(1, num_anchors + 1):
        cols += [f"w{i}", f"h{i}"]
    cols += [f"util{i}" for i in range(1, num_anchors + 1)]
    return ",".join(cols)


def _csv_row(row: TrajectoryRow) -> str:
    parts = [str(row.iteration), repr(row.loss), repr(row.cluster_weight), repr(row.temperature)]
    for w, h in row.anchors_wh:
        parts += [repr(float(w)), repr(float(h))]
    parts += [str(int(u)) for u in row.utilization]
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

    With iters=0 the inputs are returned unchanged. The trajectory is
    logged every cfg.log_every iterations plus the final iteration, and
    written incrementally when trajectory_path is given, so an
    interrupted run keeps its partial history on disk. Raises
    NonFiniteLossError as soon as the loss stops being finite.
    """
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    num_anchors = len(anchors0)
    rng = np.random.default_rng(cfg.seed)

    blocks = [anchors0.as_array()]
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
    rate[: s.size] = cfg.anchor_lr_multiplier
    breakpoints = dict(cfg.lr_schedule)

    log_g = ds.log_shapes()
    n = log_g.shape[0]
    per_epoch = -(-n // cfg.batch_size)  # batches per epoch; the last one may be short
    # the epoch's columns x_j = (1, f_j, g_j) in shuffled order; without a
    # head the feature rows repeat the log shapes and no coefficient reads them
    rows = np.ones((5, n))
    no_head = np.zeros((num_anchors, 2, 5))

    def batches() -> Iterator[np.ndarray]:
        while True:
            shuffled = log_g[rng.permutation(n)]
            rows[3:] = shuffled.T
            # one draw per epoch gives the noise stream of one draw per batch
            rows[1:3] = make_features(shuffled, cfg.sigma, rng).T if head else rows[3:]
            for start in range(0, n, cfg.batch_size):
                yield rows[:, start : start + cfg.batch_size]

    logged: list[TrajectoryRow] = []
    epochs: list[np.ndarray] = []  # one row of counts per epoch begun
    window_counts = np.zeros(num_anchors, dtype=np.int64)
    alpha = 1.0 / SMOOTHING_WINDOW
    ema: Optional[float] = None

    csv_file = (open(trajectory_path, "w", encoding="utf-8", newline="\n")
                if trajectory_path is not None else nullcontext())
    with csv_file as fh:
        if fh is not None:
            fh.write(_csv_header(num_anchors) + "\n")
            fh.flush()
        # range ends the run first, so no shuffle is drawn past the last batch
        for t, batch in zip(range(cfg.iters), batches()):
            if t % per_epoch == 0:
                epoch_counts = np.zeros(num_anchors, dtype=np.int64)
                epochs.append(epoch_counts)
            batch_g = batch[3:].T

            temp = temperature_at(t, cfg.warmup_iters)
            soft = temp is not None
            if soft:
                w = soft_assign(batch_g, s, cfg.metric, temp)
            elif cfg.assignment_rule == "threshold":
                w = hard_assign_threshold(batch_g, s, cfg.threshold_tau)
            else:
                w = hard_assign_yolo(batch_g, s, cfg.metric)

            lam = cfg.cluster_weight
            if lam is None:
                lam = cluster_weight_at(t, cfg.warmup_iters)

            # every pair belongs to a soft assignment, even where its weight
            # underflowed to 0; a hard one covers its nonzeros
            gram, member_gram, mean = batch_moments(batch, w, soft)
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
            if cfg.anchor_lr_multiplier:
                vel_s += gs
            if head:
                for vel, grad in zip(vel_head, grad_head(dcoef, cache, mean, head[2])):
                    vel += grad
            params -= step * velocity
            if head:
                # keep scales strictly positive; BN output is odd in gamma so
                # the loss landscape does not need the sign
                np.maximum(head[2], 1e-6, out=head[2])

            counts = utilization_counts(w, soft)
            epoch_counts += counts
            window_counts += counts

            if t % cfg.log_every == 0 or t == cfg.iters - 1:
                anchors_wh = np.exp(s)
                # a finite log shape can still overflow (or underflow) its linear one
                if not np.all((anchors_wh > 0.0) & (anchors_wh < np.inf)):
                    raise NonFiniteLossError(t, loss, s.copy(), shape_overflow=True)
                row = TrajectoryRow(
                    iteration=t,
                    loss=loss,
                    cluster_weight=lam,
                    temperature=temp if temp is not None else 0.0,
                    anchors_wh=anchors_wh,
                    utilization=window_counts.copy(),
                )
                logged.append(row)
                window_counts[:] = 0
                if fh is not None:
                    fh.write(_csv_row(row) + "\n")
                    fh.flush()

    epoch_utilization = np.array(epochs, dtype=np.int64).reshape(-1, num_anchors)
    return TrainResult(AnchorSet.from_array(s, anchors0.stride), logged, epoch_utilization, ema)
