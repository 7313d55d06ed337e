import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from anchorforge import AnchorSet, anchors_line, read_anchors_json, write_anchors_json
from anchorforge.geometry import iou_aligned_matrix, shape_dist_matrix
from oracles import iou_of_boxes, shape_dist


def iou_aligned(a, b):
    """Aligned IoU of two (w, h) pairs through the package's matrix form."""
    return float(iou_aligned_matrix([a], [b])[0, 0])


def random_shape(rng, low=0.5, high=300.0):
    return float(rng.uniform(low, high)), float(rng.uniform(low, high))


class TestBoxShape:
    """Linear (w, h) shapes enter through AnchorSet.from_linear, which checks them."""

    def test_area(self):
        assert math.isclose(float(np.prod(AnchorSet.from_linear([[3.0, 4.0]]).wh())), 12.0, rel_tol=1e-12)

    def test_rejects_nonpositive(self):
        for w, h in [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)]:
            with pytest.raises(ValueError, match="must be positive"):
                AnchorSet.from_linear([[w, h]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="must be finite"):
            AnchorSet.from_linear([[math.nan, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            AnchorSet.from_linear([[1.0, math.inf]])

    def test_rejects_area_beyond_float_range(self):
        """Every IoU reads w * h; this pair of finite sides used to build."""
        with pytest.raises(ValueError, match=r"^anchor \(1e\+308, 10\.0\) has an area beyond float range$"):
            AnchorSet.from_linear([[1e308, 10.0]])

    @pytest.mark.filterwarnings("error")
    def test_side_fault_before_area_fault_without_warning(self):
        """0 * inf is NaN: the area is taken quietly, and the row is
        reported for its side."""
        with pytest.raises(ValueError, match=r"^shape must be finite, got \(0\.0, inf\)$"):
            AnchorSet.from_linear([[0.0, math.inf]])

    def test_names_first_bad_row(self):
        with pytest.raises(ValueError, match=r"positive, got \(-2\.0, 3\.0\)"):
            AnchorSet.from_linear([[1.0, 1.0], [-2.0, 3.0], [0.0, 1.0]])

    def test_rejects_wrong_shape(self):
        for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match=r"\(A, 2\)"):
                AnchorSet.from_linear(bad)


class TestLogEncoding:
    def test_round_trip(self):
        rng = np.random.default_rng(42)
        shapes = np.array([random_shape(rng) for _ in range(100)])
        np.testing.assert_allclose(AnchorSet.from_linear(shapes).wh(), shapes, rtol=1e-12, atol=0)

    def test_known_values(self):
        lw, lh = AnchorSet.from_linear([[math.e, 1.0]]).log_wh[0]
        assert math.isclose(lw, 1.0, abs_tol=1e-15)
        assert lh == 0.0

    def test_numpy_log_and_exp(self):
        """Both directions convert with numpy's log and exp, as training and
        scoring do, so an anchors file holds the trajectory's last row."""
        rng = np.random.default_rng(43)
        # numpy's log and exp can differ from math's in the last bit
        shapes = rng.uniform(0.5, 300.0, size=(20_000, 2))
        anchors = AnchorSet.from_linear(shapes)
        assert anchors.log_wh.tolist() == np.log(shapes).tolist()
        assert anchors.wh().tolist() == np.exp(np.log(shapes)).tolist()

    def test_log_shape_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            AnchorSet([[math.inf, 0.0]])


class TestIouAligned:
    def test_quarter(self):
        # unit square centered inside a 2x2 square: overlap 1, union 4
        assert iou_aligned((1.0, 1.0), (2.0, 2.0)) == 0.25

    def test_transposed_rectangles(self):
        assert iou_aligned((3.0, 9.0), (9.0, 3.0)) == 0.2

    def test_identity_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = random_shape(rng), random_shape(rng)
            v = iou_aligned(a, b)
            assert 0.0 < v <= 1.0
            assert iou_aligned(a, a) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b = random_shape(rng), random_shape(rng)
            assert iou_aligned(a, b) == iou_aligned(b, a)

    def test_scale_invariant(self):
        """Scaling both shapes by any factor leaves the value unchanged."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = random_shape(rng), random_shape(rng)
            f = float(rng.uniform(0.1, 10.0))
            scaled = iou_aligned((f * a[0], f * a[1]), (f * b[0], f * b[1]))
            assert math.isclose(scaled, iou_aligned(a, b), rel_tol=1e-12)


class TestIouBoxes:
    def test_cocentered_matches_aligned(self):
        """Aligned IoU is the IoU of two positioned boxes sharing a center."""
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = random_shape(rng), random_shape(rng)
            got = iou_of_boxes((5.0, -3.0, *a), (5.0, -3.0, *b))
            assert math.isclose(got, iou_aligned(a, b), rel_tol=1e-12)


class TestShapeDist:
    def test_sq_l2_log_example(self):
        assert shape_dist_matrix([[0.0, 0.0]], [[1.0, 2.0]])[0, 0] == 5.0


class TestMatrices:
    def test_iou_matrix_matches_scalar(self):
        rng = np.random.default_rng(12)
        wh1 = rng.uniform(1.0, 100.0, size=(7, 2))
        wh2 = rng.uniform(1.0, 100.0, size=(4, 2))
        mat = iou_aligned_matrix(wh1, wh2)
        assert mat.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                want = iou_aligned(wh1[i], wh2[j])
                assert math.isclose(mat[i, j], want, rel_tol=1e-12)

    def test_dist_matrix_matches_scalar(self):
        rng = np.random.default_rng(13)
        l1 = rng.normal(3.0, 1.0, size=(6, 2))
        l2 = rng.normal(3.0, 1.0, size=(3, 2))
        mat = shape_dist_matrix(l1, l2)
        for i in range(6):
            for j in range(3):
                want = shape_dist(l1[i], l2[j], "sq_l2_log")
                assert math.isclose(mat[i, j], want, rel_tol=1e-10, abs_tol=1e-12)


class TestAnchorSet:
    def test_round_trip_array(self):
        rng = np.random.default_rng(14)
        arr = rng.normal(3.0, 1.0, size=(5, 2))
        anchors = AnchorSet.from_array(arr, stride=16)
        assert anchors.stride == 16
        assert len(anchors) == 5
        np.testing.assert_array_equal(anchors.log_wh, arr)

    def test_sorted_by_area(self):
        ordered = AnchorSet.from_linear([[100.0, 100.0], [2.0, 3.0], [20.0, 10.0]]).sorted_by_area()
        areas = np.prod(ordered.wh(), axis=1).tolist()
        assert areas == sorted(areas)

    def test_sorted_by_area_stable_on_ties(self):
        """Equal areas keep their order, as Python's stable sort does."""
        rng = np.random.default_rng(15)
        arr = rng.integers(0, 3, size=(12, 2)).astype(float)
        want = sorted(range(12), key=lambda i: arr[i, 0] + arr[i, 1])
        np.testing.assert_array_equal(AnchorSet(arr).sorted_by_area().log_wh, arr[want])

    def test_holds_read_only_copy(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        anchors = AnchorSet(arr)
        arr[0, 0] = 99.0
        assert anchors.log_wh[0, 0] == 1.0
        assert not anchors.log_wh.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            AnchorSet(())
        with pytest.raises(ValueError, match="at least one"):
            AnchorSet(np.zeros((0, 2)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(A, 2\)"):
            AnchorSet(np.zeros((2, 3)))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            AnchorSet([[0.0, 0.0]], stride=0)
        with pytest.raises(ValueError):
            AnchorSet([[0.0, 0.0]], stride=2.5)

    def test_bool_stride_refused_and_int_round_trips(self, tmp_path):
        """stride=True used to pass and be written as "stride": true, which
        read_anchors_json refuses; stride 1 is written and read back."""
        with pytest.raises(ValueError, match=r"^stride must be a positive integer, got True$"):
            AnchorSet([[0.0, 0.0]], stride=True)
        p = tmp_path / "anchors.json"
        write_anchors_json(p, AnchorSet([[0.0, 0.0]], stride=1), 416)
        anchors, canvas = read_anchors_json(p)
        assert (anchors.stride, canvas) == (1, 416)

    def test_numpy_integer_stride_round_trips_as_a_json_int(self, tmp_path):
        """stride=np.int64(32) used to be refused, unlike the numpy integers
        TrainConfig and write_anchors_json take; it is stored as an int, so
        anchors.json writes it as a JSON int."""
        anchors = AnchorSet([[0.0, 0.0]], stride=np.int64(32))
        assert type(anchors.stride) is int and anchors.stride == 32
        p = tmp_path / "anchors.json"
        write_anchors_json(p, anchors, np.int64(416))
        assert '"stride": 32,' in p.read_text()
        assert read_anchors_json(p)[0].stride == 32
        with pytest.raises(ValueError, match=r"^stride must be a positive integer, got np.int64\(0\)$"):
            AnchorSet([[0.0, 0.0]], stride=np.int64(0))

    def test_stride_beyond_float_range_refused(self, tmp_path):
        """A 401-digit stride used to pass, to be written to a file that
        read_anchors_json refuses, and to end anchors_line(..., "cells") in
        an OverflowError; 10**308, which a float holds, still does all three."""
        with pytest.raises(ValueError, match=r"^stride must lie within float range, got a 401-digit integer$"):
            AnchorSet(np.zeros((1, 2)), stride=10**400)
        # more digits than str() prints used to raise Python's "Exceeds the limit", naming no stride
        with pytest.raises(ValueError, match=r"^stride must lie within float range, got a 5001-digit integer$"):
            AnchorSet(np.zeros((1, 2)), stride=10**5000)
        anchors, p = AnchorSet(np.zeros((1, 2)), stride=10**308), tmp_path / "anchors.json"
        write_anchors_json(p, anchors, 416)
        assert read_anchors_json(p)[0].stride == 10**308
        assert anchors_line(anchors, "cells") == "1e-308,1e-308"


shape_sides = st.floats(min_value=1e-2, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestIouProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(shape_sides, shape_sides), st.tuples(shape_sides, shape_sides),
           st.floats(min_value=1e-2, max_value=1e2))
    def test_symmetric_bounded_scale_invariant(self, a, b, f):
        v = iou_aligned(a, b)
        assert v == iou_aligned(b, a)
        assert 0.0 < v <= 1.0
        assert iou_aligned(a, a) == 1.0
        scaled = iou_aligned((f * a[0], f * a[1]), (f * b[0], f * b[1]))
        assert math.isclose(scaled, v, rel_tol=1e-9)
