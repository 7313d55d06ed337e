import csv
import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorforge import (
    CanonicalDataset,
    ParsedBoxes,
    ParseError,
    normalize_to_canvas,
    parse_coco,
    parse_csv,
    parse_voc,
    read_canonical,
    write_canonical,
)
from anchorforge import ingest
from oracles import canonical_text


def coco_doc():
    return {
        "images": [
            {"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"},
            {"id": 2, "width": 500, "height": 375, "file_name": "b.jpg"},
        ],
        "annotations": [
            {"id": 10, "image_id": 1, "bbox": [10.0, 20.0, 100.0, 50.0], "iscrowd": 0},
            {"id": 11, "image_id": 1, "bbox": [0.0, 0.0, 640.0, 480.0], "iscrowd": 1},
            {"id": 12, "image_id": 2, "bbox": [30.0, 40.0, 60.0, 70.0]},
        ],
    }


VOC_XML = """<annotation>
  <filename>{name}.jpg</filename>
  <size><width>{w}</width><height>{h}</height><depth>3</depth></size>
  {objects}
</annotation>
"""

VOC_OBJ = """<object>
  <name>{cls}</name>
  <difficult>{diff}</difficult>
  <bndbox><xmin>{x0}</xmin><ymin>{y0}</ymin><xmax>{x1}</xmax><ymax>{y1}</ymax></bndbox>
</object>
"""


def dataset_of(rows, canvas=416):
    """CanonicalDataset from (image_id, cx, cy, w, h) rows."""
    ids = [r[0] for r in rows]
    cx, cy, w, h = np.array([r[1:] for r in rows], dtype=float).reshape(-1, 4).T
    return CanonicalDataset(canvas, ids, cx, cy, w, h)


def parsed_of(rows):
    """ParsedBoxes from (image_id, image_w, image_h, cx, cy, w, h) rows."""
    ids = [r[0] for r in rows]
    sizes = [r[1:3] for r in rows]
    corners = [(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0) for _, _, _, cx, cy, w, h in rows]
    return ParsedBoxes(tuple(ids), np.array(sizes, dtype=float), np.array(corners, dtype=float))


def write_voc_file(path, name, w, h, objects):
    body = "".join(
        VOC_OBJ.format(cls=cls, diff=int(diff), x0=x0, y0=y0, x1=x1, y1=y1)
        for cls, diff, x0, y0, x1, y1 in objects
    )
    (path / f"{name}.xml").write_text(VOC_XML.format(name=name, w=w, h=h, objects=body))


class TestParseCoco:
    def test_basic(self, tmp_path):
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(coco_doc()))
        boxes = parse_coco(p)
        assert len(boxes) == 2
        assert boxes.counts == {"records": 3, "skipped_crowd": 1}
        x0, y0, x1, y1 = boxes.corners[0]
        assert boxes.image_ids[0] == "1"
        assert ((x0 + x1) / 2.0, (y0 + y1) / 2.0) == (60.0, 45.0)
        assert (x1 - x0, y1 - y0) == (100.0, 50.0)
        assert tuple(boxes.sizes[1]) == (500.0, 375.0)

    def test_keep_crowd(self, tmp_path):
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(coco_doc()))
        boxes = parse_coco(p, include_crowd=True)
        assert len(boxes) == 3

    def test_malformed_json_reports_byte(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"images": [}')
        with pytest.raises(ParseError, match="malformed JSON at byte"):
            parse_coco(p)

    def test_unknown_image_named(self, tmp_path):
        doc = coco_doc()
        doc["annotations"][0]["image_id"] = 999
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="annotation 10 references unknown image 999"):
            parse_coco(p)

    def test_box_clamped_to_image(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": [{"id": 1, "image_id": 1, "bbox": [90.0, 90.0, 50.0, 50.0]}],
        }
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        boxes = parse_coco(p)
        assert len(boxes) == 1
        x0, _, x1, _ = boxes.corners[0]
        assert x1 == 100.0
        assert x1 - x0 == 10.0

    def test_box_outside_image_rejected(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": [{"id": 7, "image_id": 1, "bbox": [150.0, 0.0, 10.0, 10.0]}],
        }
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="empty after clamping"):
            parse_coco(p)

    @pytest.mark.parametrize("doc, match", [
        ([{"id": 1}], r"expected a JSON object .* got a list"),
        ({"images": {"id": 1}, "annotations": []}, "must be JSON arrays"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1}]}, "annotation 7 needs a bbox of four numbers, got None"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [1.0, 2.0, 3.0]}]}, "annotation 7 needs a bbox of four"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 1, "image_id": 1, "bbox": [1, 2, 3, 4]},
                          {"id": 7, "image_id": 1, "bbox": [1.0, "x", 3.0, 4.0]}]}, "annotation 7 needs a bbox of four"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [1.0, [2.0], 3.0, 4.0]}]}, "annotation 7 needs a bbox of four"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [1.0, None, 3.0, 4.0]}]}, "annotation 7: .* must be finite"),
        ({"images": [{"id": 3, "height": 100}], "annotations": []}, "image 3 needs an id and a numeric width"),
        ({"images": [{"id": 3, "width": "wide", "height": 100}], "annotations": []}, "image 3 needs"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": [1], "bbox": [1, 2, 3, 4]}]}, r"annotation 7 references unknown image \[1\]"),
        # JSON integers beyond float range used to end in an OverflowError traceback
        ({"images": [{"id": 3, "width": 10**400, "height": 100}], "annotations": []}, "image 3 needs"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [1, 2, 10**400, 4]}]}, "annotation 7 needs a bbox of four"),
        # a JSON value of another type used to be read as a number by float()
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [True, 0, 10, 10]}]}, "annotation 7 needs a bbox of four"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": ["1", "2", "3", "4"]}]}, "annotation 7 needs a bbox of four"),
        ({"images": [{"id": 3, "width": "100", "height": 100}], "annotations": []}, "image 3 needs an id and a numeric"),
        ({"images": [{"id": 3, "width": True, "height": 100}], "annotations": []}, "image 3 needs an id and a numeric"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [1, 2, 3, 4], "iscrowd": "0"}]},
         "annotation 7 needs an iscrowd of 0 or 1, got '0'"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [1, 2, 3, 4], "iscrowd": 2}]},
         "annotation 7 needs an iscrowd of 0 or 1, got 2"),
        # a repeated id used to replace the earlier image's size silently
        ({"images": [{"id": 1, "width": 100, "height": 100}, {"id": 1, "width": 50, "height": 50}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [0, 0, 60, 60]}]}, "image id 1 appears more than once"),
        # true == 1 in Python: a boolean id used to pass for image 1, or to
        # file an image under True that annotations of image 1 then found
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": True, "bbox": [0, 0, 60, 60]}]},
         "annotation 7 references unknown image True"),
        ({"images": [{"id": True, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [0, 0, 60, 60]}]}, "image True needs an id"),
        ({"images": [{"id": 1, "width": 100, "height": 100}, {"id": True, "width": 50, "height": 50}],
          "annotations": []}, "image True needs an id"),
        ({"images": [{"id": 1.0, "width": 100, "height": 100}], "annotations": []}, r"image 1\.0 needs an id"),
        ({"images": [{"id": 1, "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1.0, "bbox": [0, 0, 60, 60]}]},
         r"annotation 7 references unknown image 1\.0"),
        # the canonical format cannot hold such an id; the dataset used to
        # refuse it later, as "record 1", with neither file nor annotation
        ({"images": [{"id": 1, "width": 100, "height": 100}, {"id": "a\tb", "width": 100, "height": 100}],
          "annotations": [{"id": 7, "image_id": 1, "bbox": [0, 0, 60, 60]},
                          {"id": 8, "image_id": "a\tb", "bbox": [0, 0, 60, 60]}]},
         r"annotation 8: image id 'a\\tb' must not contain tabs or line breaks"),
        ({"images": [{"id": "a\r\nb", "width": 100, "height": 100}],
          "annotations": [{"id": 8, "image_id": "a\r\nb", "bbox": [0, 0, 60, 60]}]},
         r"annotation 8: image id 'a\\r\\nb' must not contain tabs or line breaks"),
    ])
    def test_malformed_document_named(self, tmp_path, doc, match):
        """Each malformed document raises ParseError naming the file and the
        annotation or image at fault, never a KeyError or AttributeError."""
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=match) as info:
            parse_coco(p)
        assert str(p) in str(info.value)

    @pytest.mark.parametrize("image, bbox", [
        ({"id": 1, "width": "Infinity", "height": 100}, [1.0, 2.0, 3.0, 4.0]),
        ({"id": 1, "width": 100, "height": 100}, [1.0, 2.0, "Infinity", 4.0]),
        ({"id": 1, "width": 100, "height": 100}, ["NaN", 2.0, 3.0, 4.0]),
    ])
    def test_non_finite_rejected(self, tmp_path, image, bbox):
        doc = {"images": [image], "annotations": [{"id": 9, "image_id": 1, "bbox": bbox}]}
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc).replace('"Infinity"', "Infinity").replace('"NaN"', "NaN"))
        with pytest.raises(ParseError, match="annotation 9: .* must be finite"):
            parse_coco(p)


class TestParseVoc:
    def test_basic_and_sorted(self, tmp_path):
        write_voc_file(tmp_path, "b", 500, 375, [("car", False, 10, 10, 110, 60)])
        write_voc_file(tmp_path, "a", 640, 480,
                       [("dog", False, 0, 0, 64, 48), ("cat", True, 100, 100, 200, 150)])
        boxes = parse_voc(tmp_path)
        assert list(boxes.image_ids) == ["a", "a", "b"]
        assert boxes.counts == {"records": 3, "skipped_difficult": 0}
        # the difficult flag was read on a's second box: excluding it keeps the first
        kept = parse_voc(tmp_path, exclude_difficult=True)
        assert list(kept.image_ids) == ["a", "b"]
        assert tuple(kept.corners[0]) == (0.0, 0.0, 64.0, 48.0)

    def test_exclude_difficult(self, tmp_path):
        write_voc_file(tmp_path, "a", 640, 480,
                       [("dog", False, 0, 0, 64, 48), ("cat", True, 100, 100, 200, 150)])
        boxes = parse_voc(tmp_path, exclude_difficult=True)
        assert len(boxes) == 1
        assert boxes.counts == {"records": 2, "skipped_difficult": 1}

    def test_missing_size_names_file(self, tmp_path):
        (tmp_path / "broken.xml").write_text("<annotation><object/></annotation>")
        with pytest.raises(ParseError, match="broken.xml.*missing <size>"):
            parse_voc(tmp_path)

    def test_malformed_xml(self, tmp_path):
        (tmp_path / "bad.xml").write_text("<annotation><size>")
        with pytest.raises(ParseError, match="malformed XML"):
            parse_voc(tmp_path)

    def test_non_numeric_corner(self, tmp_path):
        write_voc_file(tmp_path, "a", 640, 480, [("dog", False, "x", 0, 64, 48)])
        with pytest.raises(ParseError, match="numeric corners"):
            parse_voc(tmp_path)

    def test_empty_directory(self, tmp_path):
        boxes = parse_voc(tmp_path)
        assert len(boxes) == 0
        assert boxes.corners.shape == (0, 4)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="not a directory"):
            parse_voc(tmp_path / "missing")
        (tmp_path / "file.xml").write_text("<annotation/>")
        with pytest.raises(ParseError, match="file.xml"):
            parse_voc(tmp_path / "file.xml")

    @pytest.mark.parametrize("w, corner", [("inf", 0), ("640", "nan"), ("nan", 0)])
    def test_non_finite_rejected(self, tmp_path, w, corner):
        write_voc_file(tmp_path, "a", 640, 480, [("dog", False, 0, 0, 64, 48)])
        write_voc_file(tmp_path, "b", w, 480, [("dog", False, corner, 0, 64, 48)])
        with pytest.raises(ParseError, match=r"b\.xml: .* must be finite"):
            parse_voc(tmp_path)

    def test_image_id_with_tab_named(self, tmp_path):
        """A file name, and so an image id, can hold a tab on Linux."""
        write_voc_file(tmp_path, "a", 640, 480, [("dog", False, 0, 0, 64, 48)])
        write_voc_file(tmp_path, "b\tc", 640, 480, [("dog", False, 0, 0, 64, 48)])
        with pytest.raises(ParseError, match=r"b\tc\.xml: image id 'b\\tc' must not contain tabs or line breaks"):
            parse_voc(tmp_path)

    def test_error_names_the_file_read(self, tmp_path):
        """A file named .xml has the stem .xml; the error names the file
        itself, not one rebuilt from its stem (.xml.xml)."""
        write_voc_file(tmp_path, "", 640, 480, [("dog", False, 50, 10, 30, 30)])
        with pytest.raises(ParseError) as info:
            parse_voc(tmp_path)
        assert str(info.value) == f"{tmp_path / '.xml'}: degenerate box (50.0, 10.0, 30.0, 30.0) (max must exceed min)"


class TestParseCsv:
    HEADER = "image_id,image_w,image_h,x_min,y_min,x_max,y_max\n"

    def test_basic(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + "img1,640,480,10,20,110,70\n\nimg2,500,375,0,0,50,50\n")
        boxes = parse_csv(p)
        assert len(boxes) == 2
        assert boxes.counts == {"records": 2}
        assert boxes.corners[0, 2] - boxes.corners[0, 0] == 100.0

    def test_header_required(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ParseError, match="line 1: expected header"):
            parse_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            parse_csv(p)

    def test_field_count_with_line_number(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + "img1,640,480,10,20,110\n")
        with pytest.raises(ParseError, match="line 2: expected 7 fields"):
            parse_csv(p)

    def test_non_numeric_with_line_number(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + "img1,640,480,10,20,110,70\nimg2,640,480,x,20,110,70\n")
        with pytest.raises(ParseError, match="line 3: non-numeric"):
            parse_csv(p)

    def test_degenerate_box(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + "img1,640,480,110,20,110,70\n")
        with pytest.raises(ParseError, match="degenerate box"):
            parse_csv(p)

    def test_bad_image_size(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + "img1,0,480,10,20,110,70\n")
        with pytest.raises(ParseError, match="image size must be positive"):
            parse_csv(p)

    @pytest.mark.parametrize("row", ["img2,inf,480,10,20,110,70", "img2,640,nan,10,20,110,70",
                                     "img2,640,480,-inf,20,110,70", "img2,640,480,10,20,110,inf"])
    def test_non_finite_rejected(self, tmp_path, row):
        """An infinite image size used to scale the box to 0 and drop it silently."""
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + "img1,640,480,10,20,110,70\n\n" + row + "\nimg3,0,480,10,20,110,70\n")
        with pytest.raises(ParseError, match="line 4: .* must be finite"):
            parse_csv(p)

    @pytest.mark.parametrize("body, match", [
        ('img1,640,480,10,20,110,70\n"a\nb",640,480,10,20,110,70\n',
         r"line 3: image id 'a\\nb' must not contain tabs or line breaks"),
        ("img1,640,480,10,20,110,70\na\tb,640,480,10,20,110,70\n",
         r"line 3: image id 'a\\tb' must not contain tabs or line breaks"),
        # a quoted line break puts every later record a line past its count
        ('ok,100,100,1,1,10,10\nq,"100\n",100,1,1,10,10\nbad,100,100,5,5,5,5\n', r"line 5: degenerate box"),
        ('ok,100,100,1,1,10,10\nq,"100\n",100,1,1,10,10\nbad,100,100\n', "line 5: expected 7 fields"),
        ('ok,100,100,1,1,10,10\nq,"100\n",x,1,1,10,10\n', "line 3: non-numeric field"),
    ])
    def test_record_named_by_its_first_line(self, tmp_path, body, match):
        p = tmp_path / "boxes.csv"
        p.write_text(self.HEADER + body)
        with pytest.raises(ParseError, match=match) as info:
            parse_csv(p)
        assert str(info.value).startswith(f"{p}: line ")


class TestNormalize:
    def test_per_axis_scaling(self):
        ds = normalize_to_canvas(parsed_of([("i", 640.0, 480.0, 320.0, 240.0, 64.0, 48.0)]), 416)
        assert math.isclose(ds.cx[0], 320.0 * 416 / 640)
        assert math.isclose(ds.cy[0], 240.0 * 416 / 480)
        assert math.isclose(ds.w[0], 64.0 * 416 / 640)
        assert math.isclose(ds.h[0], 48.0 * 416 / 480)

    def test_drops_tiny(self):
        boxes = parsed_of([
            ("i", 1000.0, 1000.0, 500.0, 500.0, 100.0, 100.0),
            ("i", 1000.0, 1000.0, 500.0, 500.0, 1e-6, 100.0),
        ])
        ds = normalize_to_canvas(boxes, 416, min_size=1e-3)
        assert len(ds) == 1
        assert math.isclose(ds.w[0], 100.0 * 416 / 1000)

    def test_result_respects_canvas_bounds(self):
        rng = np.random.default_rng(61)
        rows = []
        for _ in range(200):
            iw, ih = rng.uniform(100, 1000, size=2)
            w, h = rng.uniform(1, iw), rng.uniform(1, ih)
            cx = rng.uniform(w / 2, iw - w / 2)
            cy = rng.uniform(h / 2, ih - h / 2)
            rows.append(("r", float(iw), float(ih), float(cx), float(cy), float(w), float(h)))
        ds = normalize_to_canvas(parsed_of(rows), 416)
        shapes = ds.shapes()
        assert np.all(shapes > 0.0)
        assert np.all(shapes <= 416.0)

    def test_counts_default_to_empty(self):
        a, b = parsed_of([("i", 640.0, 480.0, 320.0, 240.0, 64.0, 48.0)]), parsed_of([])
        assert a.counts == {} and b.counts == {}
        assert a.counts is not b.counts

    def test_box_spanning_its_image_fits_the_canvas(self):
        """A box as wide and high as its image stays on the canvas, though
        (x1 - x0) * (canvas / iw) rounds above it for some widths (85, 87, 99)."""
        for size in range(1, 2001):
            boxes = ParsedBoxes(("i",), np.array([[size, size]], dtype=float),
                                np.array([[0.0, 0.0, size, size]], dtype=float))
            ds = normalize_to_canvas(boxes, 416)
            assert 416.0 - 1e-9 <= ds.w[0] <= 416.0 and 208.0 - 1e-9 <= ds.cx[0] <= 416.0, size


class TestCanonicalDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            dataset_of([("i", 0.0, 0.0, 500.0, 10.0)])
        with pytest.raises(ValueError, match="center"):
            dataset_of([("i", 500.0, 0.0, 10.0, 10.0)])
        with pytest.raises(ValueError):
            CanonicalDataset(0, (), [], [], [], [])

    def test_first_bad_record_named(self):
        rows = [("a", 5.0, 5.0, 1.0, 1.0), ("b", 5.0, -1.0, 1.0, 1.0), ("c", 5.0, 5.0, np.nan, 1.0)]
        with pytest.raises(ValueError, match=r"^record 1: center \(5.0, -1.0\) outside \[0, 416\]$"):
            dataset_of(rows)
        with pytest.raises(ValueError, match=r"^record 1: size \(nan, 1.0\) outside \(0, 416\]$"):
            dataset_of([rows[0], rows[2], rows[1]])

    def test_record_rejects_tabs(self):
        for bad in ("a\tb", "a\nb", "a\rb"):
            with pytest.raises(ValueError, match="record 1: image_id must not contain tabs or line breaks"):
                dataset_of([("ok", 1.0, 1.0, 1.0, 1.0), (bad, 0.0, 0.0, 1.0, 1.0)])

    def test_columns_checked_and_read_only(self):
        with pytest.raises(ValueError, match="one value per image id"):
            CanonicalDataset(416, ("a", "b"), [1.0, 2.0], [1.0, 2.0], [1.0], [1.0, 2.0])
        w = np.array([4.0, 5.0])
        ds = CanonicalDataset(416, ("a", "b"), [1.0, 2.0], [1.0, 2.0], w, [8.0, 9.0])
        w[0] = 99.0  # the dataset holds its own copy
        assert ds.shapes() is ds.shapes()
        np.testing.assert_array_equal(ds.shapes(), [[4.0, 8.0], [5.0, 9.0]])
        for column in (ds.cx, ds.cy, ds.w, ds.h, ds.shapes()):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_log_shapes(self):
        ds = dataset_of([("i", 10.0, 10.0, 4.0, 8.0)])
        np.testing.assert_allclose(ds.log_shapes(), [[math.log(4.0), math.log(8.0)]])

    def test_empty_shapes(self):
        ds = CanonicalDataset(416, (), [], [], [], [])
        assert ds.shapes().shape == (0, 2)
        assert ds.log_shapes().shape == (0, 2)


class TestCanonicalFile:
    def test_header_and_format(self, tmp_path):
        ds = dataset_of([("im a", 10.5, 20.25, 30.0, 40.0)])
        p = tmp_path / "data.canonical"
        write_canonical(ds, p)
        text = p.read_text()
        lines = text.splitlines()
        assert lines[0] == "anchorforge-dataset v1 S=416"
        assert lines[1] == "im a\t10.5\t20.25\t30\t40"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_round_trip_within_tolerance(self, tmp_path):
        """Every numeric field survives a write/read cycle to 1e-9 relative."""
        rng = np.random.default_rng(62)
        rows = []
        for i in range(500):
            w = float(rng.uniform(1e-3, 416.0))
            h = float(rng.uniform(1e-3, 416.0))
            cx = float(rng.uniform(0.0, 416.0))
            cy = float(rng.uniform(0.0, 416.0))
            rows.append((f"r{i}", cx, cy, w, h))
        ds = dataset_of(rows)
        p = tmp_path / "data.canonical"
        write_canonical(ds, p)
        back = read_canonical(p)
        assert back.canvas_size == 416
        assert len(back) == 500
        assert back.image_ids == ds.image_ids
        for name in ("cx", "cy", "w", "h"):
            for x, y in zip(getattr(ds, name).tolist(), getattr(back, name).tolist()):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=8),
            st.floats(0.0, 416.0), st.floats(0.0, 416.0),
            st.floats(1e-9, 416.0, exclude_min=False), st.floats(1e-9, 416.0),
        ),
        max_size=20,
    ))
    def test_round_trip_property(self, tmp_path_factory, rows):
        """Ids come back exactly and every number within 1e-9 relative."""
        ds = dataset_of(rows)
        p = tmp_path_factory.mktemp("rt") / "data.canonical"
        write_canonical(ds, p)
        back = read_canonical(p)
        assert back.image_ids == ds.image_ids
        for name in ("cx", "cy", "w", "h"):
            np.testing.assert_allclose(getattr(back, name), getattr(ds, name), rtol=1e-9, atol=0.0)

    def test_matches_longhand_writer(self, tmp_path):
        """One printf-style format per row writes the bytes a field-by-field
        format(x, ".10g") writer does."""
        rng = np.random.default_rng(63)
        n = 2000
        w = np.exp(rng.uniform(np.log(1e-3), np.log(416.0), n))
        h = np.exp(rng.uniform(np.log(1e-3), np.log(416.0), n))
        cx = rng.uniform(0.0, 416.0, n)
        cy = rng.choice([0.0, 416.0, 1e-7, 123456.0 / 1024.0], n)
        ids = [f"img {i} \u00e9" for i in range(n)]
        ds = CanonicalDataset(416, ids, cx, cy, w, h)
        p = tmp_path / "data.canonical"
        write_canonical(ds, p)
        want = canonical_text(416, zip(ids, cx.tolist(), cy.tolist(), w.tolist(), h.tolist()))
        assert p.read_bytes() == want.encode("utf-8")

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "data.canonical"
        p.write_text("anchorforge-dataset v2 S=416\n")
        with pytest.raises(ParseError, match="unsupported dataset version 2"):
            read_canonical(p)

    def test_canvas_beyond_float_range_named(self, tmp_path):
        """A canvas no float holds used to end in an OverflowError at the size checks."""
        p = tmp_path / "data.canonical"
        p.write_text(f"anchorforge-dataset v1 S={10**400}\na\t1\t2\t3\t4\n")
        with pytest.raises(ParseError, match=f"{re.escape(str(p))}: canvas_size must lie within float range"):
            read_canonical(p)

    @pytest.mark.parametrize("header", [f"v1{'0' * 5000} S=416", f"v1 S=416{'0' * 5000}"], ids=["version", "canvas"])
    def test_header_integer_beyond_digit_limit_named(self, tmp_path, header):
        """int() refuses more than 4300 digits with a message that named no file."""
        p = tmp_path / "data.canonical"
        p.write_text(f"anchorforge-dataset {header}\na\t1\t2\t3\t4\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: line 1: Exceeds the limit"):
            read_canonical(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "data.canonical"
        p.write_text("hello\n")
        with pytest.raises(ParseError, match="line 1"):
            read_canonical(p)

    def test_field_count_line_numbered(self, tmp_path):
        p = tmp_path / "data.canonical"
        p.write_text("anchorforge-dataset v1 S=416\na\t1\t2\t3\n")
        with pytest.raises(ParseError, match="line 2: expected 5"):
            read_canonical(p)

    @pytest.mark.parametrize("body, lineno, match", [
        ("a\t1\t2\t3\t4\nb\t1\t2\t3\t4\t5\n", 3, "expected 5 tab-separated fields, got 6"),
        ("a\t1\t2\t3\t4\n\nb\t1\t2\t3\t4\n", 3, "expected 5 tab-separated fields, got 1"),
        ("a\t1\t2\t3\t4\nb\t1\t2\t3\t4\nc\t1\tx\t3\t4\n", 4, "non-numeric field"),
        # float() reads both, so its search for the bad field used to find none
        # and pass on np.loadtxt's message, which named no line
        ("a\t1\t2\t3\t4\nb\t1\t2\t3\t1_0\n", 3, "non-numeric field"),
        ("a\t1\t2\t3\t4\nb\t1\t2\t3\t\u0661\n", 3, "non-numeric field"),
    ])
    def test_malformed_records_line_numbered(self, tmp_path, body, lineno, match):
        """Rows np.loadtxt would accept (an extra field, a blank line) or number
        differently (a bad number) are each reported at their own line."""
        p = tmp_path / "data.canonical"
        p.write_bytes(("anchorforge-dataset v1 S=416\n" + body).encode())
        with pytest.raises(ParseError, match=f": line {lineno}: {match}"):
            read_canonical(p)

    def test_crlf_line_endings_read(self, tmp_path):
        p = tmp_path / "data.canonical"
        p.write_bytes(b"anchorforge-dataset v1 S=416\r\na\t1\t2\t3\t4\r\nb\t5\t6\t7\t8\r\n")
        ds = read_canonical(p)
        assert ds.image_ids == ("a", "b")
        np.testing.assert_array_equal(ds.shapes(), [[3.0, 4.0], [7.0, 8.0]])

    def test_bad_record_wrapped(self, tmp_path):
        p = tmp_path / "data.canonical"
        p.write_text("anchorforge-dataset v1 S=416\na\t1\t2\t3\t9999\n")
        # the dataset's record 0 is the file's line 2
        with pytest.raises(ParseError, match=r": line 2: size \(3.0, 9999.0\) outside \(0, 416\]$"):
            read_canonical(p)

    def test_empty_dataset_round_trips(self, tmp_path):
        p = tmp_path / "data.canonical"
        write_canonical(CanonicalDataset(256, (), [], [], [], []), p)
        back = read_canonical(p)
        assert back.canvas_size == 256
        assert len(back) == 0


class TestSyntheticCorpus:
    def test_voc_corpus_is_big_enough(self, voc_dir, voc_ds):
        xml_files = list(voc_dir.glob("*.xml"))
        assert len(xml_files) >= 1000
        assert len(voc_ds) >= 5000

    def test_voc_corpus_parse_is_deterministic(self, voc_dir):
        a = parse_voc(voc_dir)
        b = parse_voc(voc_dir)
        assert a.image_ids == b.image_ids
        np.testing.assert_array_equal(a.corners, b.corners)
        np.testing.assert_array_equal(a.sizes, b.sizes)


class TestCollectorPaused:
    """Every parser runs with the cyclic collector off and leaves it as it
    found it, whether it returns or raises."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def coco_file(self, tmp_path, text=None):
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(coco_doc()) if text is None else text)
        return p

    def csv_file(self, tmp_path, body="img1,640,480,10,20,110,70\n"):
        p = tmp_path / "boxes.csv"
        p.write_text(TestParseCsv.HEADER + body)
        return p

    def voc_dir(self, tmp_path, corner=0):
        d = tmp_path / f"voc{corner}"
        d.mkdir()
        write_voc_file(d, "a", 640, 480, [("dog", False, corner, 0, 64, 48)])
        write_voc_file(d, "b", 500, 375, [("car", False, 10, 10, 110, 60)])
        return d

    def test_off_while_json_loads_runs(self, tmp_path, monkeypatch):
        seen, loads = [], json.loads
        def spy(text):
            seen.append(gc.isenabled())
            return loads(text)
        monkeypatch.setattr(ingest.json, "loads", spy)
        gc.enable()
        parse_coco(self.coco_file(tmp_path))
        assert seen == [False]
        assert gc.isenabled()

    def test_off_while_csv_rows_are_read(self, tmp_path, monkeypatch):
        seen, reader = [], csv.reader

        class Spy:
            """csv.reader, noting the collector's state at each row read."""
            def __init__(self, *args, **kwargs):
                self.rows = reader(*args, **kwargs)
            def __iter__(self):
                return self
            def __next__(self):
                row = next(self.rows)
                seen.append(gc.isenabled())
                return row
            @property
            def line_num(self):
                return self.rows.line_num
        monkeypatch.setattr(ingest.csv, "reader", Spy)
        gc.enable()
        parse_csv(self.csv_file(tmp_path, "img1,640,480,10,20,110,70\nimg2,500,375,0,0,50,50\n"))
        assert seen == [False, False, False]  # the header and two rows
        assert gc.isenabled()

    def test_off_while_voc_files_are_parsed(self, tmp_path, monkeypatch):
        seen, et_parse = [], ingest.ET.parse
        def spy(source):
            seen.append(gc.isenabled())
            return et_parse(source)
        monkeypatch.setattr(ingest.ET, "parse", spy)
        gc.enable()
        parse_voc(self.voc_dir(tmp_path))
        assert seen == [False, False]  # a.xml and b.xml
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_success(self, tmp_path, enabled):
        good = ((parse_coco, self.coco_file(tmp_path)), (parse_csv, self.csv_file(tmp_path)),
                (parse_voc, self.voc_dir(tmp_path)))
        for parse, p in good:
            gc.enable() if enabled else gc.disable()
            parse(p)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_parse_error(self, tmp_path, enabled):
        bad = (
            (parse_coco, self.coco_file(tmp_path, '{"images": ['), "malformed JSON"),
            (parse_csv, self.csv_file(tmp_path, "img1,640,480,x,20,110,70\n"), "line 2: non-numeric"),
            (parse_voc, self.voc_dir(tmp_path, corner="x"), "numeric corners"),
        )
        for parse, p, match in bad:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(ParseError, match=match):
                parse(p)
            assert gc.isenabled() is enabled
