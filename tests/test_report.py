import itertools
import math

import numpy as np
import pytest

from anchorforge import (
    AnchorSet,
    CanonicalDataset,
    ParseError,
    anchors_line,
    avg_best_iou,
    build_report,
    coverage,
    match_anchor_sets,
    match_pairing,
    read_anchors_json,
    recall_at,
    render_text,
    report_from_json,
    report_to_json,
    write_anchors_json,
)
from anchorforge.report import PROXY_BANNER
from oracles import iou_of_wh


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
        assert math.isclose(avg_best_iou(anchors, ds), (a + b) / 2.0, rel_tol=1e-9)

    def test_best_of_several_anchors(self):
        ds = ds_of([(10.0, 10.0)])
        anchors = anchors_of([(100.0, 100.0), (10.0, 10.0)])
        assert math.isclose(avg_best_iou(anchors, ds), 1.0, rel_tol=1e-9)

    def test_recall_counts_threshold(self):
        ds = ds_of([(10.0, 10.0), (40.0, 40.0)])
        anchors = anchors_of([(10.0, 10.0)])
        assert recall_at(anchors, ds, 0.5) == 0.5
        assert recall_at(anchors, ds, 0.05) == 1.0

    def test_recall_tau_validated(self):
        ds = ds_of([(10.0, 10.0)])
        anchors = anchors_of([(10.0, 10.0)])
        for tau in (0.0, 1.0):
            with pytest.raises(ValueError):
                recall_at(anchors, ds, tau)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            avg_best_iou(anchors_of([(10.0, 10.0)]), ds_of([]))

    def test_coverage_matches_separate_metrics(self):
        """One best-IoU pass gives the same numbers as avg_best_iou and recall_at."""
        rng = np.random.default_rng(82)
        ds = ds_of(np.exp(rng.normal(3.5, 0.8, size=(300, 2))).clip(1.0, 400.0))
        anchors = anchors_of(np.exp(rng.normal(3.5, 0.8, size=(5, 2))))
        avg, recall = coverage(anchors, ds, (0.5, 0.75, 0.3))
        assert avg == avg_best_iou(anchors, ds)
        assert recall == {t: recall_at(anchors, ds, t) for t in (0.5, 0.75, 0.3)}
        with pytest.raises(ValueError):
            coverage(anchors, ds, (1.0,))


class TestMatchAnchorSets:
    def test_identical_sets_zero(self):
        a = anchors_of([(10.0, 12.0), (50.0, 40.0), (200.0, 180.0)])
        assert match_anchor_sets(a, a) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            arr = rng.normal(3.0, 1.0, size=(n, 2))
            a = AnchorSet.from_array(arr)
            b = AnchorSet.from_array(arr[rng.permutation(n)])
            assert match_anchor_sets(a, b) < 1e-12

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
            assert math.isclose(match_anchor_sets(a, b), best, rel_tol=1e-12)

    def test_pairing_consistent_with_distance(self):
        rng = np.random.default_rng(83)
        la = rng.normal(3.0, 1.0, size=(5, 2))
        lb = rng.normal(3.0, 1.0, size=(5, 2))
        a, b = AnchorSet.from_array(la), AnchorSet.from_array(lb)
        pairs = match_pairing(a, b)
        assert sorted(i for i, _ in pairs) == list(range(5))
        assert sorted(j for _, j in pairs) == list(range(5))
        dist = np.sqrt(((la[:, None, :] - lb[None, :, :]) ** 2).sum(axis=2))
        mean = sum(dist[i, j] for i, j in pairs) / 5
        assert math.isclose(mean, match_anchor_sets(a, b), rel_tol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            match_anchor_sets(anchors_of([(10.0, 10.0)]), anchors_of([(10.0, 10.0), (20.0, 20.0)]))

    def test_too_many_anchors(self):
        pairs = [(float(10 + i), float(10 + i)) for i in range(11)]
        with pytest.raises(ValueError, match="up to 10"):
            match_anchor_sets(anchors_of(pairs), anchors_of(pairs))


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

    def test_json_round_trip(self):
        ds = ds_of([(10.0, 10.0), (50.0, 60.0), (200.0, 150.0)])
        report = build_report(anchors_of([(12.0, 11.0), (55.0, 70.0)]), ds, taus=(0.5, 0.75))
        back = report_from_json(report_to_json(report))
        assert back == report

    def test_from_json_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            report_from_json('{"kind": "something-else", "version": 1}')


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
