import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorforge import (
    AnchorSet,
    CanonicalDataset,
    ParseError,
    anchors_line,
    build_report,
    match_anchor_sets,
    read_anchors_json,
    render_text,
    report_to_json,
    write_anchors_json,
)
from anchorforge.cluster import ASSIGN_BLOCK, best_iou
from anchorforge.report import PROXY_BANNER
from oracles import full_matrix_report, iou_of_wh, subset_dp_match


def ds_of(wh_pairs, canvas=416):
    w, h = np.array(wh_pairs, dtype=float).reshape(-1, 2).T
    center = np.full(len(w), canvas / 2.0)
    return CanonicalDataset(canvas, [f"r{i}" for i in range(len(w))], center, center, w, h)


def anchors_of(wh_pairs, stride=32):
    return AnchorSet.from_linear(wh_pairs, stride)


class TestCoverageMetrics:
    def test_avg_best_iou_manual(self):
        ds = ds_of([(10.0, 10.0), (20.0, 20.0)])
        anchors = anchors_of([(10.0, 10.0)])
        a = iou_of_wh((10.0, 10.0), (10.0, 10.0))
        b = iou_of_wh((20.0, 20.0), (10.0, 10.0))
        assert math.isclose(build_report(anchors, ds, taus=()).avg_best_iou, (a + b) / 2.0, rel_tol=1e-9)

    def test_best_of_several_anchors(self):
        ds = ds_of([(10.0, 10.0)])
        anchors = anchors_of([(100.0, 100.0), (10.0, 10.0)])
        assert math.isclose(build_report(anchors, ds, taus=()).avg_best_iou, 1.0, rel_tol=1e-9)

    def test_recall_counts_threshold(self):
        ds = ds_of([(10.0, 10.0), (40.0, 40.0)])
        anchors = anchors_of([(10.0, 10.0)])
        assert build_report(anchors, ds, taus=(0.5, 0.05)).recall_at == {0.5: 0.5, 0.05: 1.0}

    def test_recall_tau_validated(self):
        ds = ds_of([(10.0, 10.0)])
        anchors = anchors_of([(10.0, 10.0)])
        for tau in (0.0, 1.0):
            with pytest.raises(ValueError):
                build_report(anchors, ds, taus=(tau,))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_report(anchors_of([(10.0, 10.0)]), ds_of([]), taus=())

    def test_blocked_pass_matches_full_matrix(self):
        """Scoring ASSIGN_BLOCK rows at a time gives the numbers of one full IoU matrix."""
        rng = np.random.default_rng(82)
        ds = ds_of(np.exp(rng.normal(3.5, 0.8, size=(2 * ASSIGN_BLOCK + 300, 2))).clip(1.0, 400.0))
        anchors = anchors_of(np.exp(rng.normal(3.5, 0.8, size=(5, 2))))
        best = full_matrix_report(ds.shapes(), np.exp(anchors.log_wh), 0.5)[0]
        report = build_report(anchors, ds, taus=(0.5, 0.75, 0.3))
        assert report.avg_best_iou == float(best.mean())
        assert report.recall_at == {t: float(np.mean(best >= t)) for t in (0.5, 0.75, 0.3)}


class TestMatchAnchorSets:
    def test_identical_sets_zero(self):
        a = anchors_of([(10.0, 12.0), (50.0, 40.0), (200.0, 180.0)])
        assert match_anchor_sets(a, a)[1].mean() == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            arr = rng.normal(3.0, 1.0, size=(n, 2))
            a = AnchorSet.from_array(arr)
            b = AnchorSet.from_array(arr[rng.permutation(n)])
            assert match_anchor_sets(a, b)[1].mean() < 1e-12

    def test_matches_brute_force(self):
        """The subset DP finds the same optimum as trying every pairing."""
        rng = np.random.default_rng(82)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            la = rng.normal(3.0, 1.0, size=(n, 2))
            lb = rng.normal(3.0, 1.0, size=(n, 2))
            a, b = AnchorSet.from_array(la), AnchorSet.from_array(lb)
            dist = np.sqrt(((la[:, None, :] - lb[None, :, :]) ** 2).sum(axis=2))
            best = min(
                sum(dist[i, p[i]] for i in range(n)) / n
                for p in itertools.permutations(range(n))
            )
            assert math.isclose(match_anchor_sets(a, b)[1].mean(), best, rel_tol=1e-12)

    def test_pairing_consistent_with_distance(self):
        rng = np.random.default_rng(83)
        la = rng.normal(3.0, 1.0, size=(5, 2))
        lb = rng.normal(3.0, 1.0, size=(5, 2))
        a, b = AnchorSet.from_array(la), AnchorSet.from_array(lb)
        pairs, dists = match_anchor_sets(a, b)
        assert [i for i, _ in pairs] == list(range(5))
        assert sorted(j for _, j in pairs) == list(range(5))
        dist = np.sqrt(((la[:, None, :] - lb[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_array_equal(dists, [dist[i, j] for i, j in pairs])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            match_anchor_sets(anchors_of([(10.0, 10.0)]), anchors_of([(10.0, 10.0), (20.0, 20.0)]))

    def test_too_many_anchors(self):
        pairs = [(float(10 + i), float(10 + i)) for i in range(21)]
        with pytest.raises(ValueError, match="up to 20"):
            match_anchor_sets(anchors_of(pairs), anchors_of(pairs))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 10),
        shapes=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_dp_on_ties(self, n, shapes, seed):
        """The layered DP pairs exactly as the mask-by-mask loop does, ties
        included, and returns the same distances bit for bit."""
        rng = np.random.default_rng(seed)
        # both sets drawn from one small pool of log shapes: repeated anchors and equal sums
        pool = np.round(rng.normal(3.0, 1.0, size=(shapes, 2)), 1)
        la, lb = (pool[rng.integers(shapes, size=n)] for _ in range(2))
        pairs, dists = match_anchor_sets(AnchorSet.from_array(la), AnchorSet.from_array(lb))
        want_pairs, want_dists = subset_dp_match(la, lb)
        assert pairs == want_pairs
        assert dists.tobytes() == want_dists.tobytes()


class TestBuildReport:
    def test_utilization_sums_to_n_yolo(self, mixture3_ds):
        anchors = anchors_of([(20.0, 24.0), (72.0, 58.0), (190.0, 210.0)])
        report = build_report(anchors, mixture3_ds)
        assert sum(report.utilization) == len(mixture3_ds)
        assert min(report.utilization) > 400

    def test_anchors_sorted_by_area(self):
        ds = ds_of([(10.0, 10.0), (100.0, 100.0)])
        anchors = anchors_of([(100.0, 100.0), (10.0, 10.0)])
        report = build_report(anchors, ds)
        areas = [w * h for w, h in report.anchors_wh]
        assert areas == sorted(areas)

    def test_threshold_rule_can_exceed_n(self):
        ds = ds_of([(30.0, 30.0)] * 10)
        anchors = anchors_of([(30.0, 30.0), (31.0, 31.0)])
        report = build_report(anchors, ds, assignment_rule="threshold", threshold_tau=0.5)
        assert sum(report.utilization) == 20

    def test_unknown_rule(self):
        ds = ds_of([(10.0, 10.0)])
        with pytest.raises(ValueError):
            build_report(anchors_of([(10.0, 10.0)]), ds, assignment_rule="magic")

    def test_render_text_has_banner_and_rows(self):
        ds = ds_of([(10.0, 10.0), (50.0, 60.0)])
        report = build_report(anchors_of([(10.0, 10.0), (50.0, 60.0)]), ds)
        text = render_text(report)
        assert text.startswith(PROXY_BANNER)
        assert "avg_best_iou" in text
        assert "recall@0.5" in text
        assert text.count("\n") >= 7

    @pytest.mark.parametrize("rule,threshold_tau,taus", [
        ("threshold", 1.0, (0.5,)), ("threshold", 0.0, (0.5,)), ("yolo", 0.5, (0.5, 1.5)),
    ])
    def test_bad_tau(self, rule, threshold_tau, taus):
        ds = ds_of([(10.0, 10.0)])
        with pytest.raises(ValueError, match="tau must lie in"):
            build_report(anchors_of([(10.0, 10.0)]), ds, assignment_rule=rule, taus=taus, threshold_tau=threshold_tau)

    @pytest.mark.parametrize("rule", ["yolo", "threshold"])
    def test_empty_dataset(self, rule):
        with pytest.raises(ValueError, match="empty"):
            build_report(anchors_of([(10.0, 10.0)]), ds_of([]), assignment_rule=rule)

    @pytest.mark.parametrize("rule", ["yolo", "threshold"])
    def test_one_scoring_pass(self, monkeypatch, rule):
        """Both rules score the dataset once: the threshold counts come from the same pass."""
        calls = []

        def counted(*args):
            calls.append(args)
            return best_iou(*args)

        monkeypatch.setattr("anchorforge.report.best_iou", counted)
        wh = [(10.0, 10.0), (30.0, 30.0), (31.0, 29.0), (80.0, 40.0)]
        anchors_wh = [(30.0, 30.0), (31.0, 31.0), (70.0, 50.0)]
        report = build_report(anchors_of(anchors_wh), ds_of(wh), assignment_rule=rule)
        assert len(calls) == 1
        util = full_matrix_report(np.array(wh), np.array(anchors_wh), 0.5)[1 if rule == "yolo" else 2]
        assert report.utilization == tuple(util.tolist())

    @pytest.mark.parametrize("rule", ["yolo", "threshold"])
    def test_reports_the_anchors_it_scored(self, rule):
        """Rescoring the reported anchors reproduces avg_best_iou exactly. The
        report used to score np.exp of the log shapes and list math.exp's,
        which differ for the side exp(5.58874159260628) on some hosts."""
        rng = np.random.default_rng(84)
        ds = ds_of(np.exp(rng.normal(4.5, 0.8, size=(500, 2))).clip(1.0, 400.0))
        anchors = AnchorSet.from_array([[5.58874159260628, 5.2], [3.1, 3.6], [4.4, 4.0], [5.58874159260628, 4.7]])
        report = build_report(anchors, ds, assignment_rule=rule)
        best = best_iou(ds.shapes(), np.array(report.anchors_wh))[0]
        assert report.avg_best_iou == float(best.mean())

    def test_json_holds_every_field(self):
        ds = ds_of([(10.0, 10.0), (50.0, 60.0), (200.0, 150.0)])
        report = build_report(anchors_of([(12.0, 11.0), (55.0, 70.0)]), ds, taus=(0.5, 0.75))
        doc = json.loads(report_to_json(report))
        assert (doc["kind"], doc["version"]) == ("anchorforge-report", 1)
        assert (doc["canvas"], doc["stride"], doc["assignment_rule"]) == (416, 32, "yolo")
        assert doc["avg_best_iou"] == report.avg_best_iou
        assert doc["recall_at"] == {"0.5": report.recall_at[0.5], "0.75": report.recall_at[0.75]}
        assert doc["utilization"] == list(report.utilization)
        assert [tuple(wh) for wh in doc["anchors"]] == list(report.anchors_wh)


class TestReportMatchesFullMatrix:
    """build_report scores boxes in blocks; on data full of exact IoU ties it
    must give the numbers of the full (n, A) matrix bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        distinct=st.integers(1, 30),
        n=st.integers(1, 200),
        num_anchors=st.integers(1, 10),
        from_boxes=st.integers(0, 10),
        tau=st.sampled_from([0.25, 0.5, 0.75]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, distinct, n, num_anchors, from_boxes, tau, seed):
        rng = np.random.default_rng(seed)
        # few distinct shapes with sizes rounded to halves: duplicate boxes and many exact ties
        palette = np.clip(np.round(2.0 * np.exp(rng.normal(3.0, 1.0, size=(distinct, 2)))) / 2.0, 0.5, 416.0)
        wh = palette[rng.integers(distinct, size=n)]
        # anchors drawn from the palette too (duplicates); some are a box, or a box twice
        # or four times as wide, with an IoU of exactly 1, 0.5 or 0.25 against it
        anchor_wh = palette[rng.integers(distinct, size=num_anchors)]
        m = min(from_boxes, num_anchors)
        anchor_wh[:m] = wh[rng.integers(n, size=m)] * np.stack([rng.choice([1.0, 2.0, 4.0], size=m), np.ones(m)], axis=1)
        ds = ds_of(wh)
        anchors = anchors_of(anchor_wh)
        best, yolo_util, threshold_util = full_matrix_report(
            wh, np.exp(anchors.sorted_by_area().log_wh), tau)
        taus = (tau, 0.5)
        want_cov = (float(best.mean()), {float(t): float(np.mean(best >= t)) for t in taus})
        presorted = build_report(anchors.sorted_by_area(), ds, taus=taus)
        assert (presorted.avg_best_iou, presorted.recall_at) == want_cov
        for rule, util in (("yolo", yolo_util), ("threshold", threshold_util)):
            report = build_report(anchors, ds, assignment_rule=rule, taus=taus, threshold_tau=tau)
            assert (report.avg_best_iou, report.recall_at) == want_cov
            assert report.utilization == tuple(util.tolist())


class TestReportMemory:
    @pytest.mark.parametrize("k", [9, 15])
    def test_peak_under_20_mb_at_300k_boxes(self, k):
        """build_report holds no (n, A) matrix: 300k boxes cost blocks, not n x k arrays."""
        rng = np.random.default_rng(k)
        n = 300_000
        w, h = np.exp(rng.normal(3.5, 0.8, size=(2, n))).clip(1.0, 400.0)
        center = np.full(n, 208.0)
        ds = CanonicalDataset(416, ("img",) * n, center, center, w, h)
        anchors = anchors_of(np.exp(rng.normal(3.5, 0.8, size=(k, 2))))
        for rule in ("yolo", "threshold"):
            tracemalloc.start()
            try:
                build_report(anchors, ds, assignment_rule=rule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20 * 2**20, f"{rule}: build_report peaked at {peak / 2**20:.1f} MB"


class TestAnchorsFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "anchors.json"
        anchors = anchors_of([(50.0, 60.0), (10.0, 12.0)], stride=16)
        write_anchors_json(p, anchors, canvas=416)
        back, canvas = read_anchors_json(p)
        assert canvas == 416
        assert back.stride == 16
        got = back.wh()
        np.testing.assert_allclose(got, [(10.0, 12.0), (50.0, 60.0)], rtol=1e-9)

    @pytest.mark.parametrize("canvas, message", [
        (416.7, "canvas must be a positive integer, got 416.7"),
        (0, "canvas must be a positive integer, got 0"),
        (True, "canvas must be a positive integer, got True"),
        ("416", "canvas must be a positive integer, got '416'"),
        (10**400, "canvas must lie within float range, got a 401-digit integer"),
    ], ids=["float", "zero", "bool", "string", "beyond float range"])
    def test_canvas_read_back_would_refuse_is_not_written(self, tmp_path, canvas, message):
        """int(canvas) used to write 416.7 as 416, and 0 or True as a file
        that read_anchors_json refuses."""
        p = tmp_path / "anchors.json"
        with pytest.raises(ValueError) as info:
            write_anchors_json(p, anchors_of([(10.0, 12.0)]), canvas)
        assert str(info.value) == message
        assert not p.exists()

    @pytest.mark.parametrize("log_wh, message", [
        (np.log([[1e308, 10.0]]), "anchor (1.0000000000000136e+308, 10.000000000000002) has an area beyond float range"),
        ([[800.0, 0.0]], "shape must be finite, got (inf, 1.0)"),
        ([[-800.0, 0.0]], "shape must be positive, got (0.0, 1.0)"),
    ], ids=["area", "side overflows", "side underflows"])
    def test_anchor_read_back_would_refuse_is_not_written(self, tmp_path, log_wh, message):
        """An anchor whose area or decoded side is no positive finite float
        used to be written and then refused on read."""
        p = tmp_path / "anchors.json"
        with pytest.raises(ValueError) as info:
            write_anchors_json(p, AnchorSet(log_wh), 416)
        assert str(info.value) == message
        assert not p.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(*[st.floats(-800.0, 800.0) | st.sampled_from([-746.0, -744.0, 354.9, 709.7, 709.8])] * 2),
                 min_size=1, max_size=4),
        st.integers(1, 64) | st.just(10**308),
        st.integers(1, 4096),
    )
    def test_whatever_is_written_reads_back(self, tmp_path_factory, log_wh, stride, canvas):
        """A file write_anchors_json writes reads back as the anchors, canvas
        and stride it holds; one it refuses, the reader refuses in the same words."""
        anchors, p = AnchorSet(log_wh, stride), tmp_path_factory.mktemp("anchors") / "anchors.json"
        try:
            write_anchors_json(p, anchors, canvas)
        except ValueError as e:
            assert not p.exists()
            with np.errstate(over="ignore"):
                wh = anchors.sorted_by_area().wh().tolist()
            p.write_text(json.dumps({"canvas": canvas, "stride": stride, "anchors": wh}))
            with pytest.raises(ParseError) as info:
                read_anchors_json(p)
            assert str(info.value) == f"{p}: {e}"
            return
        back, back_canvas = read_anchors_json(p)
        written = json.loads(p.read_text())["anchors"]
        assert (back_canvas, back.stride) == (canvas, stride)
        assert written == anchors.sorted_by_area().wh().tolist()
        np.testing.assert_array_equal(back.log_wh, np.log(written))

    def test_numpy_integer_canvas_written_as_int(self, tmp_path):
        p = tmp_path / "anchors.json"
        write_anchors_json(p, anchors_of([(10.0, 12.0)]), np.int64(416))
        assert read_anchors_json(p)[1] == 416

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "anchors.json"
        p.write_text("{nope")
        with pytest.raises(ParseError, match="malformed JSON"):
            read_anchors_json(p)

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "anchors.json"
        p.write_text('{"canvas": 416}')
        with pytest.raises(ParseError, match="not a valid anchors file"):
            read_anchors_json(p)

    def test_empty_anchors_list(self, tmp_path):
        p = tmp_path / "anchors.json"
        p.write_text('{"canvas": 416, "stride": 32, "anchors": []}')
        with pytest.raises(ParseError, match="empty"):
            read_anchors_json(p)

    def test_area_beyond_float_range_rejected(self, tmp_path):
        """1e308 x 10 is finite on each side, but its area used to overflow in
        every IoU and reach stderr as a numpy warning."""
        p = tmp_path / "anchors.json"
        p.write_text('{"canvas": 416, "stride": 32, "anchors": [[30.0, 40.0], [1e308, 10.0]]}')
        with pytest.raises(ParseError, match=r"anchor \(1e\+308, 10.0\) has an area beyond float range") as info:
            read_anchors_json(p)
        assert str(p) in str(info.value)

    @pytest.mark.parametrize("anchors", [
        '[["30", true], [50, 60]]', '[[true, 10]]', '[[30, null]]', '[[30]]', '[[30, 40, 50]]', '[30, 40]',
        '{"w": 30}', '[[1' + '0' * 400 + ', 5]]', '[[1' + '0' * 5000 + ', 5]]',
    ], ids=["string and bool", "bool", "null", "one side", "three sides", "flat list", "object",
            "int beyond float range", "int beyond the digit limit"])
    def test_sides_must_be_json_numbers(self, tmp_path, anchors):
        """float() used to read "30" as 30 and true as 1, so the first file
        evaluated as a 30 x 1 anchor."""
        p = tmp_path / "anchors.json"
        p.write_text('{"canvas": 416, "stride": 32, "anchors": ' + anchors + "}")
        with pytest.raises(ParseError) as info:
            read_anchors_json(p)
        assert str(info.value).startswith(f"{p}: ")

    def test_nonpositive_anchor_rejected(self, tmp_path):
        p = tmp_path / "anchors.json"
        p.write_text('{"canvas": 416, "stride": 32, "anchors": [[-5.0, 10.0]]}')
        with pytest.raises(ParseError):
            read_anchors_json(p)


class TestAnchorsLine:
    def test_pixels_sorted(self):
        anchors = anchors_of([(100.0, 100.0), (10.0, 20.0)])
        line = anchors_line(anchors)
        first = line.split(", ")[0]
        w, h = (float(v) for v in first.split(","))
        assert (w, h) == pytest.approx((10.0, 20.0), rel=1e-9)

    def test_cells_divides_by_stride(self):
        anchors = anchors_of([(64.0, 96.0)], stride=32)
        line = anchors_line(anchors, units="cells")
        w, h = (float(v) for v in line.split(","))
        assert (w, h) == pytest.approx((2.0, 3.0), rel=1e-9)

    def test_unknown_units(self):
        with pytest.raises(ValueError):
            anchors_line(anchors_of([(10.0, 10.0)]), units="furlongs")
