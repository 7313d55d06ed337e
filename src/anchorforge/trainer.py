"""SGD training loop for anchor shapes (and the surrogate head).

Classic momentum SGD over the summed batch loss:

    v <- momentum * v + grad
    p <- p - lr * v

The learning rate follows a step schedule. During the warm-up window,
responsibilities come from the temperature-annealed soft rule and the
clustering term is active; afterwards training falls back to the
configured hard rule with the clustering coefficient at its scheduled
value (0 once annealed). Batches are drawn from a seeded shuffle that
reshuffles every epoch, and every reduction runs in a fixed order, so a
run is bitwise reproducible for a given config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Sequence

import numpy as np

from .assign import (
    WarmupSchedule,
    cluster_weight_at,
    hard_assign_threshold,
    hard_assign_yolo,
    soft_assign,
    temperature_at,
    utilization_counts,
)
from .geometry import METRICS, AnchorSet, Metric
from .ingest import CanonicalDataset
from .lossgrad import (
    HeadParams,
    _loss_from_arrays,
    grad_head,
    head_outputs,
    make_features,
)

SMOOTHING_WINDOW = 100


class NonFiniteLossError(RuntimeError):
    """Raised when training produces a non-finite loss; carries the iteration."""

    def __init__(self, iteration: int, loss: float, anchors: np.ndarray):
        self.iteration = iteration
        self.loss = loss
        self.anchors = anchors
        super().__init__(
            f"non-finite loss {loss!r} at iteration {iteration}; "
            f"anchor log-shapes: {anchors.tolist()!r}"
        )


@dataclass(frozen=True)
class HeadConfig:
    """Surrogate-head settings for a training run."""

    enabled: bool = False
    sigma: float = 0.0
    init_scale: float = 0.1
    bn: bool = True
    bn_per_anchor: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be a nonnegative number, got {self.sigma}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides data and init."""

    iters: int = 30000
    batch_size: int = 64
    momentum: float = 0.9
    lr_schedule: tuple[tuple[int, float], ...] = ((0, 1e-4), (100, 1e-3), (15000, 1e-4), (27000, 1e-5))
    warmup: WarmupSchedule = WarmupSchedule()
    anchor_lr_multiplier: float = 1.0
    train_anchors: bool = True
    assignment_rule: str = "yolo"
    threshold_tau: float = 0.5
    metric: Metric = "one_minus_iou"
    cluster_weight_mode: str = "anneal"
    cluster_weight_fixed: float = 0.0
    head: HeadConfig = field(default_factory=HeadConfig)
    seed: int = 0
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
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
        if not 0.0 < self.anchor_lr_multiplier < math.inf:
            raise ValueError(f"anchor_lr_multiplier must be a positive number, got {self.anchor_lr_multiplier}")
        if self.assignment_rule not in ("yolo", "threshold"):
            raise ValueError(f"unknown assignment rule {self.assignment_rule!r}")
        if not 0.0 < self.threshold_tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.threshold_tau}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r} (expected one of {', '.join(METRICS)})")
        if self.cluster_weight_mode not in ("anneal", "fixed"):
            raise ValueError(f"unknown cluster weight mode {self.cluster_weight_mode!r}")
        if not 0.0 <= self.cluster_weight_fixed <= 1.0:
            raise ValueError("cluster_weight_fixed must lie in [0, 1]")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


def lr_at(t: int, schedule: Sequence[tuple[int, float]]) -> float:
    """Learning rate of the last schedule segment whose start is <= t."""
    if t < 0:
        raise ValueError("iteration index must be >= 0")
    lr = None
    for start, value in schedule:
        if start <= t:
            lr = value
        else:
            break
    if lr is None:
        raise ValueError("schedule does not cover iteration 0")
    return lr


def sgd_step(
    params: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One heavy-ball update; returns (new_params, new_velocity)."""
    new_velocity = momentum * velocity + grads
    return params - lr * new_velocity, new_velocity


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    loss: float
    cluster_weight: float
    temperature: float
    anchors_wh: np.ndarray
    utilization: np.ndarray


@dataclass(frozen=True)
class EpochUtilization:
    epoch: int
    start_iter: int
    end_iter: int
    counts: np.ndarray


@dataclass
class Trajectory:
    """Logged training history plus run-level summaries."""

    rows: list[TrajectoryRow] = field(default_factory=list)
    epoch_utilization: list[EpochUtilization] = field(default_factory=list)
    final_smoothed_loss: Optional[float] = None
    smoothed_loss_at_warmup_end: Optional[float] = None


@dataclass
class TrainResult:
    anchors: AnchorSet
    head: Optional[HeadParams]
    trajectory: Trajectory


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

    u = c = gamma = None
    if cfg.head.enabled:
        head0 = HeadParams.initial(num_anchors, cfg.head.sigma, cfg.head.init_scale, rng)
        u, c, gamma = head0.u, head0.c, head0.gamma
        vel_u, vel_c, vel_gamma = np.zeros_like(u), np.zeros_like(c), np.zeros_like(gamma)

    log_g = ds.log_shapes()
    n = log_g.shape[0]
    s = anchors0.as_array()
    vel_s = np.zeros_like(s)

    trajectory = Trajectory()
    fh: Optional[IO[str]] = None
    if trajectory_path is not None:
        fh = open(trajectory_path, "w", encoding="utf-8", newline="\n")
        fh.write(_csv_header(num_anchors) + "\n")
        fh.flush()

    alpha = 1.0 / SMOOTHING_WINDOW
    ema: Optional[float] = None
    order = rng.permutation(n)
    cursor = 0
    epoch = 0
    epoch_start_iter = 0
    epoch_counts = np.zeros(num_anchors, dtype=np.int64)
    window_counts = np.zeros(num_anchors, dtype=np.int64)

    try:
        for t in range(cfg.iters):
            if cursor >= n:
                trajectory.epoch_utilization.append(
                    EpochUtilization(epoch, epoch_start_iter, t - 1, epoch_counts.copy())
                )
                epoch += 1
                epoch_start_iter = t
                epoch_counts[:] = 0
                order = rng.permutation(n)
                cursor = 0
            batch_idx = order[cursor : cursor + cfg.batch_size]
            cursor += cfg.batch_size
            batch_g = log_g[batch_idx]

            temp = temperature_at(t, cfg.warmup)
            soft = temp is not None
            if soft:
                w = soft_assign(batch_g, s, cfg.metric, temp)
            elif cfg.assignment_rule == "threshold":
                w = hard_assign_threshold(batch_g, s, cfg.threshold_tau)
            else:
                w = hard_assign_yolo(batch_g, s, cfg.metric)

            if cfg.cluster_weight_mode == "fixed":
                lam = cfg.cluster_weight_fixed
            else:
                lam = cluster_weight_at(t, cfg.warmup)

            if u is not None:
                # every pair belongs to a soft assignment, even where its
                # weight underflowed to 0; a hard one covers its nonzeros
                member = np.ones(w.shape, dtype=bool) if soft else w > 0.0
                features = make_features(batch_g, cfg.head.sigma, rng)
                out, cache = head_outputs(
                    u, c, gamma, features, member,
                    bn=cfg.head.bn, bn_per_anchor=cfg.head.bn_per_anchor,
                )
            else:
                out = np.zeros(w.shape + (2,))

            loss, gs, dout = _loss_from_arrays(out, w, s, batch_g, lam)
            if not np.isfinite(loss):
                raise NonFiniteLossError(t, loss, s.copy())

            ema = loss if ema is None else (1.0 - alpha) * ema + alpha * loss
            if cfg.warmup.warmup_iters > 0 and t == cfg.warmup.warmup_iters - 1:
                trajectory.smoothed_loss_at_warmup_end = ema
            elif cfg.warmup.warmup_iters == 0 and t == 0:
                trajectory.smoothed_loss_at_warmup_end = ema

            lr = lr_at(t, cfg.lr_schedule)
            if cfg.train_anchors:
                s, vel_s = sgd_step(s, gs, vel_s, lr * cfg.anchor_lr_multiplier, cfg.momentum)
            if u is not None:
                hg = grad_head(dout, cache, features, member, gamma)
                u, vel_u = sgd_step(u, hg.u, vel_u, lr, cfg.momentum)
                c, vel_c = sgd_step(c, hg.c, vel_c, lr, cfg.momentum)
                gamma, vel_gamma = sgd_step(gamma, hg.gamma, vel_gamma, lr, cfg.momentum)
                # keep scales strictly positive; BN output is odd in gamma so
                # the loss landscape does not need the sign
                gamma = np.maximum(gamma, 1e-6)

            counts = utilization_counts(w, soft)
            epoch_counts += counts
            window_counts += counts

            if t % cfg.log_every == 0 or t == cfg.iters - 1:
                anchors_wh = np.exp(s)
                # a finite log shape can still overflow (or underflow) its linear one
                if not np.all((anchors_wh > 0.0) & (anchors_wh < np.inf)):
                    raise NonFiniteLossError(t, loss, s.copy())
                row = TrajectoryRow(
                    iteration=t,
                    loss=loss,
                    cluster_weight=lam,
                    temperature=temp if temp is not None else 0.0,
                    anchors_wh=anchors_wh,
                    utilization=window_counts.copy(),
                )
                trajectory.rows.append(row)
                window_counts[:] = 0
                if fh is not None:
                    fh.write(_csv_row(row) + "\n")
                    fh.flush()
    finally:
        if fh is not None:
            fh.close()

    if cfg.iters > 0:
        trajectory.epoch_utilization.append(
            EpochUtilization(epoch, epoch_start_iter, cfg.iters - 1, epoch_counts.copy())
        )
    trajectory.final_smoothed_loss = ema
    final_anchors = AnchorSet.from_array(s, anchors0.stride)
    head = HeadParams(u, c, gamma, cfg.head.sigma) if u is not None else None
    return TrainResult(final_anchors, head, trajectory)
