"""Annotation ingestion: COCO JSON, VOC XML, and plain CSV to one canonical form.

Every parser returns ParsedBoxes, one row per box: the image id, the
source image size and the box corners clamped to that image, in pixel
units, and the parser's record and skip totals as its counts.
normalize_to_canvas rescales the rows onto a square canvas per axis and
returns a CanonicalDataset, which holds the boxes as columns: float64
arrays of centers and sizes. The canonical dataset file is a small line
format:

    anchorforge-dataset v1 S=<canvas>
    <image_id>\t<cx>\t<cy>\t<w>\t<h>

one record per line, UTF-8, LF line endings. Numbers are printed with
enough significant digits that a write/read round trip reproduces every
field to within 1e-9 relative.

Parsers are strict: malformed input raises ParseError naming the file,
line (where a CSV record starts), or annotation at fault rather than
producing partial data; an image id with a tab, a line break or a lone
surrogate (a COCO id's "\\ud800" escape, or a VOC file name that is not
UTF-8), which the UTF-8 canonical format cannot hold, is malformed.

Every parser pauses CPython's cyclic garbage collector while it runs.
Each builds one large graph of containers that holds no reference cycles
(the decoded JSON document, the rows read, the XML trees), so the
collections that the allocations would trigger find nothing to free, and
each full one walks the whole growing graph: about 0.6 s of ingesting a
300k-box COCO file. The collector is switched back on when the call
returns or raises, unless it was already off before the call. The pause
is process-wide: other threads allocate without cyclic collection for
the duration of the call.
"""

from __future__ import annotations

import csv
import functools
import gc
import io
import itertools
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

_HEADER_RE = re.compile(r"anchorforge-dataset v(\d+) S=(\d+)")
_CSV_HEADER = ["image_id", "image_w", "image_h", "x_min", "y_min", "x_max", "y_max"]
_ROW_FORMAT = "%s\t%.10g\t%.10g\t%.10g\t%.10g"
_ID_BREAK = re.compile("[\t\n\r\ud800-\udfff]")  # what an image id in the canonical format must not hold
_NO_SURROGATES = "nor surrogates that UTF-8 cannot encode"


class ParseError(ValueError):
    """Raised for malformed annotation or dataset files."""


@contextmanager
def _collector_paused():
    """Run the block (or, as a decorator, each call) with the cyclic garbage
    collector off; it is switched back on afterwards only if it was on."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _first_bad_id(ids: Sequence[str]) -> Optional[int]:
    """Index of the first id holding a tab, a line break or a surrogate, or None."""
    if _ID_BREAK.search("".join(ids)):  # one pass over all the ids finds whether any does
        return next(i for i, x in enumerate(ids) if _ID_BREAK.search(x))
    return None


def _check_float_range(name: str, value: int) -> None:
    """Raise ValueError for an integer beyond float range, which float and
    numpy arithmetic cannot take (they raise OverflowError)."""
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must lie within float range, got a {len(str(abs(value)))}-digit integer")


def _read_utf8(path: "str | Path", newline: Optional[str] = None) -> str:
    """The text of a UTF-8 file, read with the given newline mode; a file
    that is not UTF-8 raises ParseError naming it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None


def _read_json(path: Path) -> object:
    """The document of a UTF-8 JSON file; malformed JSON, or an integer of
    more digits than int() reads, raises ParseError naming the file."""
    text = _read_utf8(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: malformed JSON at byte {e.pos}: {e.msg}") from e
    except ValueError as e:  # the digit limit of int()
        raise ParseError(f"{path}: {e}") from None


@dataclass(frozen=True, eq=False)
class ParsedBoxes:
    """Boxes in pixel units, one row per box, as a parser returns them.

    sizes is the (n, 2) source image (width, height) of each box and
    corners the (n, 4) (x_min, y_min, x_max, y_max), clamped to the image.
    counts holds the parser's totals: records and skipped_crowd (COCO),
    records and skipped_difficult (VOC), or records (CSV).
    """

    image_ids: tuple[str, ...]
    sizes: np.ndarray
    corners: np.ndarray
    counts: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.image_ids)


@dataclass(frozen=True, eq=False)
class CanonicalDataset:
    """Normalized boxes on a square canvas of side canvas_size, as columns.

    cx, cy, w and h are read-only float64 arrays with one entry per image
    id. All of them are validated once, at construction.
    """

    canvas_size: int
    image_ids: tuple[str, ...]
    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    _shapes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s = self.canvas_size
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"canvas_size must be a positive integer, got {s!r}")
        _check_float_range("canvas_size", s)
        ids = tuple(self.image_ids)
        object.__setattr__(self, "image_ids", ids)
        for name in ("cx", "cy", "w", "h"):
            column = np.array(getattr(self, name), dtype=np.float64)
            if column.shape != (len(ids),):
                raise ValueError(f"{name} must hold one value per image id ({len(ids)}), got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        i = _first_bad_id(ids)
        if i is not None:
            raise ValueError(f"record {i}: image_id must not contain tabs or line breaks, {_NO_SURROGATES}")
        cx, cy, w, h = self.cx, self.cy, self.w, self.h
        size_ok = (w > 0.0) & (w <= s) & (h > 0.0) & (h <= s)
        ok = size_ok & (cx >= 0.0) & (cx <= s) & (cy >= 0.0) & (cy <= s)
        if not ok.all():
            i = int(np.argmin(ok))
            if not size_ok[i]:
                raise ValueError(f"record {i}: size ({float(w[i])}, {float(h[i])}) outside (0, {s}]")
            raise ValueError(f"record {i}: center ({float(cx[i])}, {float(cy[i])}) outside [0, {s}]")
        shapes = np.column_stack((w, h))
        shapes.flags.writeable = False
        object.__setattr__(self, "_shapes", shapes)

    def __len__(self) -> int:
        return len(self.image_ids)

    def shapes(self) -> np.ndarray:
        """Read-only (n, 2) array of linear (w, h), built once."""
        return self._shapes

    def log_shapes(self) -> np.ndarray:
        """(n, 2) array of (log w, log h)."""
        return np.log(self.shapes())


def _clamped(
    image_ids: Sequence[str],
    sizes: Sequence,
    corners: Sequence,
    where: Callable[[int], str],
    **counts: int,
) -> ParsedBoxes:
    """Clamp every box to its image in one pass; counts pass through to the result.

    The first image id holding a tab, a line break or a surrogate raises ParseError,
    then the first row with a non-finite or non-positive image size, a
    non-finite corner, a max corner not above its min, or a box that is
    empty after clamping; where(i) names row i (file, line or annotation).
    """
    i = _first_bad_id(image_ids)
    if i is not None:
        raise ParseError(f"{where(i)}: image id {image_ids[i]!r} "
                         f"must not contain tabs or line breaks, {_NO_SURROGATES}")
    sizes = np.array(sizes, dtype=float).reshape(-1, 2)
    corners = np.array(corners, dtype=float).reshape(-1, 4)
    clamped = np.minimum(np.maximum(corners, 0.0), np.tile(sizes, 2))
    ok = (
        np.isfinite(sizes).all(axis=1) & np.isfinite(corners).all(axis=1)
        & (sizes > 0.0).all(axis=1)
        & (clamped[:, 2] > clamped[:, 0]) & (clamped[:, 3] > clamped[:, 1])
    )
    if not ok.all():
        i = int(np.argmin(ok))
        (iw, ih), (x0, y0, x1, y1) = sizes[i].tolist(), corners[i].tolist()
        if not all(map(math.isfinite, (iw, ih, x0, y0, x1, y1))):
            fault = f"image size {iw}x{ih} and box ({x0}, {y0}, {x1}, {y1}) must be finite"
        elif iw <= 0 or ih <= 0:
            fault = f"image size must be positive, got {iw}x{ih}"
        elif x1 <= x0 or y1 <= y0:
            fault = f"degenerate box ({x0}, {y0}, {x1}, {y1}) (max must exceed min)"
        else:
            fault = f"box ({x0}, {y0}, {x1}, {y1}) is empty after clamping to the image"
        raise ParseError(f"{where(i)}: {fault}")
    return ParsedBoxes(tuple(image_ids), sizes, clamped, counts)


# float() reads true as 1 and "100" as 100, but neither is a JSON number; null
# is let through, to read as NaN in a bbox and fail the finite check there
_JSON_NUMBER = {int, float, type(None)}
# COCO image ids; bool is left out, as true == 1 would pass for image 1
_JSON_ID = {int, str}


def _json_floats(values: list) -> np.ndarray:
    """values as a float array; TypeError unless each is a JSON number or null."""
    if not set(map(type, values)) <= _JSON_NUMBER:
        raise TypeError("not a JSON number")
    return np.array(values, dtype=float)


@_collector_paused()
def parse_coco(path: "str | Path", include_crowd: bool = False) -> ParsedBoxes:
    """Read COCO instance annotations (bbox is [x, y, w, h], top-left origin).

    Crowd regions are skipped by default; pass include_crowd=True to keep them.
    """
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object with images and annotations, got a {type(doc).__name__}")
    images, annotations = doc.get("images", []), doc.get("annotations", [])
    if not isinstance(images, list) or not isinstance(annotations, list):
        raise ParseError(f"{path}: images and annotations must be JSON arrays")
    index, names, image_sizes = {}, [], []  # image id -> row of names and image_sizes
    for img in images:
        try:
            image_id, width, height = img["id"], img["width"], img["height"]
            if type(image_id) not in _JSON_ID or not {type(width), type(height)} <= _JSON_NUMBER:
                raise TypeError("not a JSON id or number")
            image_sizes.append((float(width), float(height)))
        except (KeyError, TypeError, ValueError, OverflowError):
            image_id = img.get("id") if isinstance(img, dict) else img
            raise ParseError(f"{path}: image {image_id!r} needs an id and a numeric width and height") from None
        if index.setdefault(image_id, len(names)) < len(names):
            raise ParseError(f"{path}: image id {image_id!r} appears more than once")
        names.append(str(image_id))
    rows, bboxes, ann_ids = [], [], []
    skipped_crowd = 0
    for ann in annotations:
        if not isinstance(ann, dict):
            raise ParseError(f"{path}: annotation {ann!r} is not a JSON object")
        crowd = ann.get("iscrowd", 0)
        if type(crowd) is not int or crowd not in (0, 1):
            raise ParseError(f"{path}: annotation {ann.get('id')} needs an iscrowd of 0 or 1, got {crowd!r}")
        if crowd and not include_crowd:
            skipped_crowd += 1
            continue
        image_id, bbox = ann.get("image_id"), ann.get("bbox")
        row = index.get(image_id) if type(image_id) in _JSON_ID else None
        if row is None:
            raise ParseError(f"{path}: annotation {ann.get('id')} references unknown image {image_id}")
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ParseError(f"{path}: annotation {ann.get('id')} needs a bbox of four numbers, got {bbox!r}")
        rows.append(row)
        bboxes.append(bbox)
        ann_ids.append(ann.get("id"))
    try:
        xywh = _json_floats(list(itertools.chain.from_iterable(bboxes))).reshape(-1, 4)
    except (TypeError, ValueError, OverflowError):
        for ann_id, bbox in zip(ann_ids, bboxes):
            try:
                _json_floats(bbox)
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"{path}: annotation {ann_id} needs a bbox of four numbers, got {bbox!r}") from None
        raise
    x, y, w, h = xywh.T
    rows = np.array(rows, dtype=np.intp)
    return _clamped(
        [names[r] for r in rows.tolist()],
        np.array(image_sizes, dtype=float).reshape(-1, 2)[rows],
        np.stack([x, y, x + w, y + h], axis=1),
        lambda i: f"{path}: annotation {ann_ids[i]}",
        records=len(annotations), skipped_crowd=skipped_crowd,
    )


@_collector_paused()
def parse_voc(directory: "str | Path", exclude_difficult: bool = False) -> ParsedBoxes:
    """Read every .xml file in a directory of VOC-style annotations.

    Files are processed in sorted filename order so the output order is
    stable regardless of filesystem enumeration. Boxes marked difficult
    are kept by default; pass exclude_difficult=True to drop them.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ParseError(f"{directory}: not a directory of VOC annotations")
    files = sorted(directory.glob("*.xml"))
    ids, paths, sizes, corners = [], [], [], []
    records = 0
    skipped_difficult = 0
    for f in files:
        try:
            root = ET.parse(f).getroot()
        except ET.ParseError as e:
            raise ParseError(f"{f}: malformed XML: {e}") from e
        size = root.find("size")
        if size is None:
            raise ParseError(f"{f}: missing <size> element")
        try:
            iw = float(size.findtext("width"))
            ih = float(size.findtext("height"))
        except (TypeError, ValueError):
            raise ParseError(f"{f}: <size> must contain numeric <width> and <height>") from None
        for obj in root.findall("object"):
            records += 1
            difficult = (obj.findtext("difficult") or "0").strip() == "1"
            if difficult and exclude_difficult:
                skipped_difficult += 1
                continue
            bb = obj.find("bndbox")
            if bb is None:
                raise ParseError(f"{f}: <object> without <bndbox>")
            try:
                corners.append([float(bb.findtext(tag)) for tag in ("xmin", "ymin", "xmax", "ymax")])
            except (TypeError, ValueError):
                raise ParseError(f"{f}: <bndbox> must contain numeric corners") from None
            ids.append(f.stem)
            paths.append(f)
            sizes.append((iw, ih))
    return _clamped(ids, sizes, corners, lambda i: str(paths[i]), records=records, skipped_difficult=skipped_difficult)


@_collector_paused()
def parse_csv(path: "str | Path") -> ParsedBoxes:
    """Read corner-format CSV rows: image_id,image_w,image_h,x_min,y_min,x_max,y_max."""
    path = Path(path)
    ids, values, linenos = [], [], []
    reader = csv.reader(io.StringIO(_read_utf8(path, newline=""), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if [c.strip() for c in header] != _CSV_HEADER:
        raise ParseError(f"{path}: line 1: expected header {','.join(_CSV_HEADER)}")
    next_line = reader.line_num + 1
    for row in reader:
        lineno, next_line = next_line, reader.line_num + 1
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ParseError(f"{path}: line {lineno}: expected 7 fields, got {len(row)}")
        try:
            values.append([float(v) for v in row[1:]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
        ids.append(row[0].strip())
        linenos.append(lineno)
    values = np.array(values, dtype=float).reshape(-1, 6)
    return _clamped(ids, values[:, :2], values[:, 2:], lambda i: f"{path}: line {linenos[i]}", records=len(ids))


def normalize_to_canvas(
    boxes: ParsedBoxes,
    canvas_size: int,
    min_size: float = 1e-3,
) -> CanonicalDataset:
    """Rescale boxes from their image frames onto a square canvas.

    Each axis scales independently by canvas/image dimension, so aspect
    ratios change exactly as they would under letterbox-free resizing.
    Boxes whose scaled width or height falls below min_size are dropped.
    """
    sx, sy = (canvas_size / boxes.sizes).T
    x0, y0, x1, y1 = boxes.corners.T
    # the corners lie in the image, so only rounding can carry a scaled
    # value past the canvas (a box spanning an image 85 wide scales to
    # 416.00000000000006); clamping leaves every value in range unchanged
    w = np.minimum((x1 - x0) * sx, canvas_size)
    h = np.minimum((y1 - y0) * sy, canvas_size)
    keep = (w >= min_size) & (h >= min_size)
    ids = tuple(itertools.compress(boxes.image_ids, keep.tolist()))
    cx = np.minimum((x0 + x1) / 2.0 * sx, canvas_size)
    cy = np.minimum((y0 + y1) / 2.0 * sy, canvas_size)
    return CanonicalDataset(canvas_size, ids, cx[keep], cy[keep], w[keep], h[keep])


def write_canonical(ds: CanonicalDataset, path: "str | Path") -> None:
    """Write the canonical line format (see module docstring)."""
    lines = [f"anchorforge-dataset v1 S={ds.canvas_size}"]
    columns = (ds.cx.tolist(), ds.cy.tolist(), ds.w.tolist(), ds.h.tolist())
    lines.extend(map(_ROW_FORMAT.__mod__, zip(ds.image_ids, *columns)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_canonical(path: "str | Path") -> CanonicalDataset:
    """Read a canonical dataset file, validating the version header."""
    path = Path(path)
    lines = _read_utf8(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty file")
    m = _HEADER_RE.fullmatch(lines[0].strip())
    if m is None:
        raise ParseError(f"{path}: line 1: not a canonical dataset header")
    try:
        version, canvas = int(m.group(1)), int(m.group(2))
    except ValueError as e:  # the digit limit of int()
        raise ParseError(f"{path}: line 1: {e}") from None
    if version != 1:
        raise ParseError(f"{path}: unsupported dataset version {version} (this reader handles v1)")
    ids = []
    for lineno, line in enumerate(lines[1:], start=2):
        tabs = line.count("\t")
        if tabs != 4:
            raise ParseError(f"{path}: line {lineno}: expected 5 tab-separated fields, got {tabs + 1}")
        ids.append(line[:line.index("\t")])
    fields = functools.partial(np.loadtxt, delimiter="\t", usecols=(1, 2, 3, 4), comments=None, ndmin=2)
    values = np.empty((0, 4))
    if ids:
        try:
            values = fields(lines[1:])
        except ValueError as e:
            # loadtxt's row numbers count from 0 in some messages and 1 in others, so ask it line by line
            for lineno, line in enumerate(lines[1:], start=2):
                try:
                    fields([line])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
            raise ParseError(f"{path}: {e}") from None
    try:
        return CanonicalDataset(canvas, ids, *values.T)
    except ValueError as e:  # its record i is the file's line i + 2
        raise ParseError(f"{path}: " + re.sub(r"^record (\d+)", lambda m: f"line {int(m[1]) + 2}", str(e))) from None
