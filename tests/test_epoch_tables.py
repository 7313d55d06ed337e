"""The training step's epoch tables against the log-shape references.

``run_training`` gathers each epoch's linear rows from ``ds.shapes()``
and its log rows from ``ds.log_shapes()`` in one shuffled order, hands
the rules both, counts utilization from the rules' winners, and reads
each batch's Grams off an outer-product table centred by the epoch mean
and filled one block of batches at a time. These tests hold each of
those to the reference in ``tests/oracles.py``: the rules bit for bit,
the Grams and the loss to 1e-12 relative, and the table's memory to one
block.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorforge.trainer
import oracles
import synth
from anchorforge import AnchorSet, CanonicalDataset, TrainConfig, run_training
from anchorforge.assign import (
    TEMP_FLOOR,
    TEMP_START,
    hard_assign_threshold,
    hard_assign_yolo,
    soft_assign,
    utilization_counts,
)
from anchorforge.lossgrad import TABLE_ROWS, _loss_from_arrays, moment_table, table_grams

METRICS = ("one_minus_iou", "sq_l2_log")


def batch_rows(rng, n, a, ties):
    """Log ground truths, their linear shapes and log anchors. With ties,
    anchors repeat (as ``--init identical`` makes them) and some ground
    truths sit exactly on an anchor."""
    s = rng.normal(3.0, 1.2, size=(a, 2))
    if ties:
        s[rng.integers(a, size=a) % 2 == 0] = s[0]
    g = rng.normal(3.0, 1.2, size=(n, 2))
    if ties:
        on = rng.integers(n, size=n // 3 + 1)
        g[on] = s[rng.integers(a, size=len(on))]
    return g, np.exp(g), s


class TestRulesMatchLogShapeRules:
    """W is bit-identical to the log-shape rules of tests/oracles.py, and the
    counts to those the old ``utilization_counts(W, soft)`` read off W."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(1, 9), st.sampled_from(METRICS),
           st.floats(TEMP_FLOOR, TEMP_START), st.booleans())
    def test_yolo_and_soft(self, seed, n, a, metric, temperature, ties):
        rng = np.random.default_rng(seed)
        g, g_wh, s = batch_rows(rng, n, a, ties)
        s_wh = np.exp(s)

        w, winners = hard_assign_yolo(g, g_wh, s, s_wh, metric, np.eye(a))
        want = oracles.hard_assign_yolo(g, s, metric)
        np.testing.assert_array_equal(w, want)
        counts = utilization_counts(w, winners)
        np.testing.assert_array_equal(counts, oracles.utilization_counts(want))
        assert counts.dtype == np.int64

        w, winners = soft_assign(g, g_wh, s, s_wh, metric, temperature)
        want = oracles.soft_assign(g, s, metric, temperature)
        np.testing.assert_array_equal(w, want)
        counts = utilization_counts(w, winners)
        np.testing.assert_array_equal(counts, oracles.utilization_counts(want, soft=True))
        assert counts.dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(1, 9), st.floats(0.01, 0.99),
           st.booleans(), st.booleans())
    def test_threshold(self, seed, n, a, tau, ties, tau_on_a_pair):
        rng = np.random.default_rng(seed)
        g, g_wh, s = batch_rows(rng, n, a, ties)
        if tau_on_a_pair:
            # tau exactly at one pair's IoU: the comparison decides it
            iou = oracles.log_shape_iou(g, s)
            inside = iou[(iou > 0.0) & (iou < 1.0)]
            if inside.size:
                tau = float(inside[rng.integers(inside.size)])
        w, winners = hard_assign_threshold(g_wh, np.exp(s), tau)
        want = oracles.hard_assign_threshold(g, s, tau)
        np.testing.assert_array_equal(w, want)
        counts = utilization_counts(w, winners)
        np.testing.assert_array_equal(counts, oracles.utilization_counts(want))
        assert counts.dtype == np.int64

    def test_all_anchors_identical(self):
        """Five identical anchors: every box goes to anchor 0 under yolo and
        soft; under threshold anchor 0 takes every box and the others the
        boxes that clear tau."""
        rng = np.random.default_rng(3)
        g = rng.normal(3.0, 1.0, size=(40, 2))
        s = np.full((5, 2), 3.0)
        for metric in METRICS:
            w, winners = hard_assign_yolo(g, np.exp(g), s, np.exp(s), metric, np.eye(5))
            np.testing.assert_array_equal(utilization_counts(w, winners), [40, 0, 0, 0, 0])
            w, winners = soft_assign(g, np.exp(g), s, np.exp(s), metric, TEMP_START)
            np.testing.assert_array_equal(w, np.full((40, 5), 0.2))
            np.testing.assert_array_equal(utilization_counts(w, winners), [40, 0, 0, 0, 0])
        w, winners = hard_assign_threshold(np.exp(g), np.exp(s), 0.5)
        assert winners is None
        counts = utilization_counts(w, winners)
        assert counts[0] == 40 and 0 < counts[1] < 40 and np.all(counts[1:] == counts[1])


def test_stages_leave_the_tables_alone():
    """The rules and table_grams read the epoch's buffers, which later
    batches reuse: none of them writes to its inputs or to W."""
    rng = np.random.default_rng(4)
    g, g_wh, s = batch_rows(rng, 30, 4, ties=False)
    s_wh, eye = np.exp(s), np.eye(4)
    rows = oracles.moment_rows(g, g)
    table = np.empty((30, 25))
    moment_table(rows, np.array([0.0, 3.0, 3.0, 3.0, 3.0]), table)
    for a in (g, g_wh, s, s_wh, eye, table):
        a.setflags(write=False)
    for soft, (w, winners) in ((False, hard_assign_yolo(g, g_wh, s, s_wh, "one_minus_iou", eye)),
                               (False, hard_assign_threshold(g_wh, s_wh, 0.5)),
                               (True, soft_assign(g, g_wh, s, s_wh, "sq_l2_log", 0.5))):
        w.setflags(write=False)
        table_grams(table, w, soft)
        utilization_counts(w, winners)


def _check_linear_rows(steps, epochs, ds, batch_size):
    """Each batch's linear rows are rows of ``ds.shapes()``, bit for bit,
    whose ``np.log`` is the batch's log rows, and a whole epoch's batches
    take each of the dataset's rows once."""
    n, per_epoch = len(ds), -(-len(ds) // batch_size)
    for e, (shuffled, _) in enumerate(epochs):
        batches = [step["g_wh"] for step in steps[e * per_epoch : (e + 1) * per_epoch]]
        for b, g_wh in enumerate(batches):
            np.testing.assert_array_equal(np.log(g_wh), shuffled[b * batch_size : (b + 1) * batch_size])
        epoch = np.concatenate(batches)
        if len(epoch) == n:
            np.testing.assert_array_equal(epoch[np.lexsort(epoch.T)], ds.shapes()[np.lexsort(ds.shapes().T)])
        else:
            rows = set(map(tuple, ds.shapes().tolist()))
            assert all(row in rows for row in map(tuple, epoch.tolist()))


def uniform_boxes(seed, n=1000):
    """Boxes of uniformly drawn pixel sizes: ``np.exp`` of its ``np.log``
    gives most of them back in other bits, unlike the shapes ``synth``
    draws as ``exp`` of a log size."""
    wh = np.random.default_rng(seed).uniform(2.0, 400.0, size=(n, 2))
    return CanonicalDataset(416, [f"b{i}" for i in range(n)], np.full(n, 208.0), np.full(n, 208.0), *wh.T)


@pytest.mark.parametrize("rule", ["yolo", "threshold"])
@pytest.mark.parametrize("boxes", [synth.mixture2, uniform_boxes])
def test_batch_linear_rows_are_the_datasets(monkeypatch, boxes, rule):
    """The rules read each batch's (w, h) from ``ds.shapes()``, the rows
    ``eval`` scores, gathered in the order of the batch's log rows."""
    steps, epochs = _record_steps(monkeypatch)
    ds = boxes(1)
    per_epoch = -(-len(ds) // 64)
    cfg = TrainConfig(iters=2 * per_epoch + 5, warmup_iters=per_epoch, rule=rule, lr_schedule=((0, 1e-3),))
    run_training(ds, AnchorSet(np.log([[20.0, 30.0], [60.0, 50.0], [120.0, 90.0]])), cfg)
    assert len(steps) == cfg.iters and len(epochs) == 3
    _check_linear_rows(steps, epochs, ds, 64)


def _record_steps(monkeypatch):
    """Wrap the trainer's stages. Returns the list of each step's record and
    the list of each epoch's (shuffled log rows, features)."""
    steps, epochs = [], []
    names = ("make_features", "hard_assign_yolo", "hard_assign_threshold", "soft_assign",
             "table_grams", "_loss_from_arrays")
    stage = {name: getattr(anchorforge.trainer, name) for name in names}

    def make_features(gts, sigma, rng):
        out = stage["make_features"](gts, sigma, rng)
        epochs.append((gts.copy(), out.copy()))
        return out

    def rule(name, linear_at):
        def call(*args):
            steps.append({"epoch": len(epochs) - 1, "g_wh": args[linear_at].copy()})
            return stage[name](*args)
        return call

    def table_grams(table, w, soft):
        gram, member_gram = stage["table_grams"](table, w, soft)
        steps[-1].update(w=w.copy(), soft=soft, gram=gram.copy(), member_gram=member_gram.copy())
        return gram, member_gram

    def loss(coef, gram, s, mean, lam):
        steps[-1].update(s=s.copy(), mean=mean.copy(), lam=lam)
        return stage["_loss_from_arrays"](coef, gram, s, mean, lam)

    monkeypatch.setattr(anchorforge.trainer, "make_features", make_features)
    monkeypatch.setattr(anchorforge.trainer, "hard_assign_yolo", rule("hard_assign_yolo", 1))
    monkeypatch.setattr(anchorforge.trainer, "hard_assign_threshold", rule("hard_assign_threshold", 0))
    monkeypatch.setattr(anchorforge.trainer, "soft_assign", rule("soft_assign", 1))
    monkeypatch.setattr(anchorforge.trainer, "table_grams", table_grams)
    monkeypatch.setattr(anchorforge.trainer, "_loss_from_arrays", loss)
    return steps, epochs


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


# (boxes, batch size, table rows): one batch larger than the dataset; a
# block of three batches with a short last batch and a short last block; a
# table smaller than a batch, so each block is one batch; and blocks that
# divide the epoch exactly
TABLE_CASES = [(50, 64, TABLE_ROWS), (300, 32, 100), (300, 32, 10), (300, 50, 100)]


@pytest.mark.parametrize("rule", ["yolo", "threshold"])
@pytest.mark.parametrize("n, batch_size, table_rows", TABLE_CASES)
def test_table_grams_match_dense_oracles(monkeypatch, n, batch_size, table_rows, rule):
    """Every step's Grams and loss equal those built from the batch's own
    columns (``oracles.moment_rows``) and the dense loss, to 1e-12 relative,
    through block boundaries, short batches and soft and hard steps; and
    each batch's linear rows are the dataset's own, whose log is its log rows."""
    monkeypatch.setattr(anchorforge.trainer, "TABLE_ROWS", table_rows)
    steps, epochs = _record_steps(monkeypatch)
    ds = synth.lognormal_mixture([(30.0, 40.0), (90.0, 70.0)], 0.3, [n - n // 2, n // 2], seed=n + batch_size)
    per_epoch = -(-n // batch_size)
    cfg = TrainConfig(iters=2 * per_epoch + 3, batch_size=batch_size, warmup_iters=per_epoch + 1, rule=rule,
                      sigma=0.3, lr_schedule=((0, 1e-3),), seed=7)
    anchors = AnchorSet(np.log([[20.0, 30.0], [60.0, 50.0], [120.0, 90.0]]))
    run_training(ds, anchors, cfg)

    assert len(steps) == cfg.iters and len(epochs) == -(-cfg.iters // per_epoch)
    worst_gram = worst_loss = 0.0
    for t, step in enumerate(steps):
        shuffled, features = epochs[step["epoch"]]
        assert step["epoch"] == t // per_epoch
        lo = t % per_epoch * batch_size
        g, f = shuffled[lo : lo + batch_size], features[lo : lo + batch_size]

        mean = oracles.moment_rows(features, shuffled).mean(axis=1)
        mean[0] = 0.0
        np.testing.assert_allclose(step["mean"], mean, rtol=1e-12, atol=1e-12)
        x = oracles.moment_rows(f, g) - step["mean"][:, None]
        w = step["w"]
        want = np.einsum("jk,aj,bj->kab", w, x, x)
        worst_gram = max(worst_gram, _rel(step["gram"], want))
        member = np.broadcast_to(x @ x.T, want.shape) if step["soft"] else want
        worst_gram = max(worst_gram, _rel(step["member_gram"], member))

        coef = np.zeros((len(step["s"]), 2, 5))
        loss = _loss_from_arrays(coef, step["gram"], step["s"], step["mean"], step["lam"])[0]
        dense = oracles.dense_loss(np.zeros((len(g),) + coef.shape[:2]), w, step["s"], g, step["lam"])[0]
        worst_loss = max(worst_loss, abs(loss - dense) / abs(dense))
    assert {step["soft"] for step in steps} == {True, False}
    _check_linear_rows(steps, epochs, ds, batch_size)
    assert worst_gram < 1e-12 and worst_loss < 1e-12, (worst_gram, worst_loss)


def test_table_memory_is_one_block():
    """On 120k boxes, ``run_training``'s allocation peak stays within the
    epoch's per-box arrays plus one block's tables: an outer-product table
    of every box would add 200 bytes per box, 24 MB here. The run enters a
    second epoch, whose gather used to keep the first epoch's linear rows
    alive beside the new ones."""
    n = 120_000
    wh = np.exp(np.random.default_rng(2).normal(np.log(60.0), 0.6, size=(n, 2))).clip(2.0, 400.0)
    ds = CanonicalDataset(416, [f"b{i}" for i in range(n)], np.full(n, 208.0), np.full(n, 208.0), *wh.T)
    anchors = AnchorSet(np.log([[20.0, 30.0], [60.0, 50.0], [120.0, 90.0], [200.0, 150.0], [300.0, 300.0]]))
    cfg = TrainConfig(iters=-(-n // 64) + 1, batch_size=64, warmup_iters=2)
    # per box: the log shapes (16 bytes), the permutation (8), the epoch's
    # linear rows (16), the (5, n) columns (40) and the feature draw (3 x 16
    # while it is made); per block row: the table
    per_box = 16 + 8 + 16 + 40 + 3 * 16
    block = TABLE_ROWS * 25 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_training(ds, anchors, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= n * per_box + block + 2**20, (peak, n * per_box, block)
