import math

import numpy as np
import pytest

from anchorforge import (
    AnchorSet,
    BoxShape,
    LogShape,
    decode_log,
    encode_log,
    iou_aligned_matrix,
    shape_dist_matrix,
)
from oracles import iou_of_boxes, shape_dist


def iou_aligned(a, b):
    """Aligned IoU of two BoxShapes through the package's matrix form."""
    return float(iou_aligned_matrix([[a.w, a.h]], [[b.w, b.h]])[0, 0])


def random_shape(rng, low=0.5, high=300.0):
    return BoxShape(float(rng.uniform(low, high)), float(rng.uniform(low, high)))


class TestBoxShape:
    def test_area(self):
        assert BoxShape(3.0, 4.0).area == 12.0

    def test_rejects_nonpositive(self):
        for w, h in [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)]:
            with pytest.raises(ValueError):
                BoxShape(w, h)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoxShape(math.nan, 1.0)
        with pytest.raises(ValueError):
            BoxShape(1.0, math.inf)


class TestLogEncoding:
    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s = random_shape(rng)
            back = decode_log(encode_log(s))
            assert math.isclose(back.w, s.w, rel_tol=1e-12)
            assert math.isclose(back.h, s.h, rel_tol=1e-12)

    def test_known_values(self):
        ls = encode_log(BoxShape(math.e, 1.0))
        assert math.isclose(ls.lw, 1.0, abs_tol=1e-15)
        assert ls.lh == 0.0

    def test_log_shape_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LogShape(math.inf, 0.0)


class TestIouAligned:
    def test_quarter(self):
        # unit square centered inside a 2x2 square: overlap 1, union 4
        assert iou_aligned(BoxShape(1.0, 1.0), BoxShape(2.0, 2.0)) == 0.25

    def test_transposed_rectangles(self):
        assert iou_aligned(BoxShape(3.0, 9.0), BoxShape(9.0, 3.0)) == 0.2

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
            scaled = iou_aligned(BoxShape(f * a.w, f * a.h), BoxShape(f * b.w, f * b.h))
            assert math.isclose(scaled, iou_aligned(a, b), rel_tol=1e-12)


class TestIouBoxes:
    def test_cocentered_matches_aligned(self):
        """Aligned IoU is the IoU of two positioned boxes sharing a center."""
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = random_shape(rng), random_shape(rng)
            got = iou_of_boxes((5.0, -3.0, a.w, a.h), (5.0, -3.0, b.w, b.h))
            assert math.isclose(got, iou_aligned(a, b), rel_tol=1e-12)


class TestShapeDist:
    def test_sq_l2_log_example(self):
        assert shape_dist_matrix([[0.0, 0.0]], [[1.0, 2.0]], "sq_l2_log")[0, 0] == 5.0

    def test_one_minus_iou_complements(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_shape(rng), random_shape(rng)
            la, lb = encode_log(a), encode_log(b)
            d = shape_dist_matrix([[la.lw, la.lh]], [[lb.lw, lb.lh]], "one_minus_iou")[0, 0]
            assert math.isclose(d, 1.0 - iou_aligned(a, b), rel_tol=1e-12)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            shape_dist_matrix([[0.0, 0.0]], [[0.0, 0.0]], "cosine")


class TestMatrices:
    def test_iou_matrix_matches_scalar(self):
        rng = np.random.default_rng(12)
        wh1 = rng.uniform(1.0, 100.0, size=(7, 2))
        wh2 = rng.uniform(1.0, 100.0, size=(4, 2))
        mat = iou_aligned_matrix(wh1, wh2)
        assert mat.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                want = iou_aligned(BoxShape(*wh1[i]), BoxShape(*wh2[j]))
                assert math.isclose(mat[i, j], want, rel_tol=1e-12)

    @pytest.mark.parametrize("metric", ["one_minus_iou", "sq_l2_log"])
    def test_dist_matrix_matches_scalar(self, metric):
        rng = np.random.default_rng(13)
        l1 = rng.normal(3.0, 1.0, size=(6, 2))
        l2 = rng.normal(3.0, 1.0, size=(3, 2))
        mat = shape_dist_matrix(l1, l2, metric)
        for i in range(6):
            for j in range(3):
                want = shape_dist(l1[i], l2[j], metric)
                assert math.isclose(mat[i, j], want, rel_tol=1e-10, abs_tol=1e-12)


class TestAnchorSet:
    def test_round_trip_array(self):
        rng = np.random.default_rng(14)
        arr = rng.normal(3.0, 1.0, size=(5, 2))
        anchors = AnchorSet.from_array(arr, stride=16)
        assert anchors.stride == 16
        assert len(anchors) == 5
        np.testing.assert_array_equal(anchors.as_array(), arr)

    def test_sorted_by_area(self):
        shapes = [BoxShape(100.0, 100.0), BoxShape(2.0, 3.0), BoxShape(20.0, 10.0)]
        ordered = AnchorSet.from_linear(shapes).sorted_by_area()
        areas = [s.area for s in ordered.linear_shapes()]
        assert areas == sorted(areas)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AnchorSet(())

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            AnchorSet((LogShape(0.0, 0.0),), stride=0)
        with pytest.raises(ValueError):
            AnchorSet((LogShape(0.0, 0.0),), stride=2.5)
