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

write_canonical also writes a binary sidecar beside the file, the
path with ".cache" appended:

    anchorforge-dataset-cache v2 rows=<n> sha256=<hex>

then the payload: the rows' (cx, cy, w, h) as n * 4 little-endian
float64, exactly as np.loadtxt reads the lines just written, then the
image ids as UTF-8, joined by LF. The digest is one sha256 over the
canonical file's bytes, the row count as 8 little-endian bytes and the
payload, so it binds every byte of the sidecar to the file.

A CanonicalDataset keeps its ids as that same LF-joined text and checks
them there, with one LF count and one scan for tabs, CRs and
surrogates; only a refused text is scanned id by id, to name the
record. The text is split into the image_ids tuple on first read, so a
command that never reads the ids never splits them.

read_canonical reads a file's bytes once and has two passes. The cached
pass takes the sidecar on its digest alone, reading it unbuffered so
that the payload is read in one copy, and hands the arrays and the
decoded id text to the same validation as parsed ones. A file without a
matching v2 sidecar (missing, v1, stale or damaged), or with any fault
on that pass, is read as text line by line, so a result or an error
never depends on the sidecar: a wrong field count is looked for on
every line before any number is, and the first faulty line is named.
The reader writes nothing.

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

# csv, json and xml.etree are imported inside their one user each, so that
# reading a canonical file loads none of them.
import functools
import gc
import hashlib
import io
import itertools
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

_HEADER_RE = re.compile(r"anchorforge-dataset v(\d+) S=(\d+)")
_CACHE_HEADER = "anchorforge-dataset-cache v2 rows={} sha256={}\n"
_CACHE_HEADER_RE = re.compile(rb"anchorforge-dataset-cache v2 rows=(\d{1,19}) sha256=([0-9a-f]{64})\n")
_CSV_HEADER = ["image_id", "image_w", "image_h", "x_min", "y_min", "x_max", "y_max"]
_ROW_FORMAT = "%s\t%.10g\t%.10g\t%.10g\t%.10g"
# the (n, 4) numbers of canonical record lines; "#" starts no comment there
_parse_fields = functools.partial(np.loadtxt, delimiter="\t", usecols=(1, 2, 3, 4), comments=None, ndmin=2)
_JOINED_BREAK = re.compile("[\t\r\ud800-\udfff]")  # what an image id in ids joined by LF must not hold
_NO_SURROGATES = "nor surrogates that UTF-8 cannot encode"
_RECORD = "record {}".format  # how a dataset's error names its record i, unless its file's line is named


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


def _ids_clean(text: str, n: int) -> bool:
    """Whether text is n image ids joined by LF ("" for none), none of them
    holding a tab, a line break or a surrogate. One LF count and one scan
    of the text decide it; ASCII text, which holds no surrogate, needs no
    regex."""
    if not (text.count("\n") == n - 1 if n else text == ""):
        return False
    if text.isascii():
        return "\t" not in text and "\r" not in text
    return _JOINED_BREAK.search(text) is None


def _first_bad_id(ids: Sequence[str]) -> int:
    """Index of the first id holding a tab, a line break or a surrogate: the
    per-id scan that names the record once _ids_clean has refused the ids."""
    return next(i for i, x in enumerate(ids) if not _ids_clean(x, 1))


def _is_integer(value: object) -> bool:
    """A Python or numpy integer, but not a bool (an int subclass)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_float_range(name: str, value: int) -> None:
    """Raise ValueError for an integer beyond float range, which float and
    numpy arithmetic cannot take (they raise OverflowError)."""
    if abs(value) > sys.float_info.max:
        # str() refuses an integer of more than 4300 digits, so they are counted
        # from log10, corrected where it rounds across a power of ten
        magnitude = abs(int(value))
        digits = int(math.log10(magnitude)) + 1
        digits += (magnitude >= 10**digits) - (magnitude < 10 ** (digits - 1))
        raise ValueError(f"{name} must lie within float range, got a {digits}-digit integer")


def _integer(name: str, value: object, positive: bool = False) -> int:
    """value as a Python int: an integer, not a bool, within float range and,
    if positive, at least 1; anything else raises ValueError naming it."""
    if _is_integer(value):
        _check_float_range(name, value)
        if not positive or value >= 1:
            return int(value)
    raise ValueError(f"{name} must be {'a positive' if positive else 'an'} integer, got {value!r}")


def _decode_utf8(path: "str | Path", stream: io.BufferedIOBase, newline: Optional[str] = None) -> str:
    """The rest of a binary stream of the file at path, decoded as open()
    in text mode decodes a file: as UTF-8, with the given newline mode.
    Bytes that are not UTF-8 raise ParseError naming the file."""
    try:
        with io.TextIOWrapper(stream, encoding="utf-8", newline=newline) as text:  # closes stream too
            return text.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None


def _read_utf8(path: "str | Path", newline: Optional[str] = None) -> str:
    """The text of a UTF-8 file, read with the given newline mode; a file
    that is not UTF-8 raises ParseError naming it."""
    with open(path, "rb") as fh:
        return _decode_utf8(path, fh, newline)


def _read_json(path: Path) -> object:
    """The document of a UTF-8 JSON file; malformed JSON, or an integer of
    more digits than int() reads, raises ParseError naming the file."""
    import json

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


@dataclass(frozen=True, eq=False, init=False)
class CanonicalDataset:
    """Normalized boxes on a square canvas of side canvas_size, as columns.

    CanonicalDataset(canvas_size, image_ids, cx, cy, w, h): cx, cy, w and h
    are read-only float64 arrays with one entry per image id. All of them
    are validated once, at construction. The ids are kept as one text,
    joined by LF as the canonical file and its sidecar store them, and
    checked there; image_ids is that text split into a tuple on first
    read, or the tuple the dataset was built from.
    """

    canvas_size: int
    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    _ids_text: str = field(init=False, repr=False)
    _shapes: np.ndarray = field(init=False, repr=False)

    def __init__(self, canvas_size: int, image_ids: Sequence[str], cx, cy, w, h) -> None:
        ids = tuple(image_ids)
        self.__dict__["image_ids"] = ids  # image_ids' cached value: reading it splits nothing
        self._build(canvas_size, "\n".join(ids), len(ids), (cx, cy, w, h))

    @classmethod
    def _of_joined(cls, canvas_size: int, ids_text: str, columns: Sequence[np.ndarray],
                   where: Callable[[int], str] = _RECORD) -> "CanonicalDataset":
        """A dataset of (cx, cy, w, h) columns and their ids joined by LF, as the file and its sidecar hold them."""
        ds = cls.__new__(cls)
        ds._build(canvas_size, ids_text, len(columns[0]), columns, where)
        return ds

    def _build(self, s: int, ids_text: str, n: int, columns: Sequence, where: Callable[[int], str] = _RECORD) -> None:
        """Validate and set n ids joined by LF and n rows; where(i) names row i in an error."""
        s = _integer("canvas_size", s, positive=True)  # a numpy integer would not write as one
        object.__setattr__(self, "canvas_size", s)
        for name, values in zip(("cx", "cy", "w", "h"), columns):
            column = np.array(values, dtype=np.float64)
            if column.shape != (n,):
                raise ValueError(f"{name} must hold one value per image id ({n}), got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_ids_text", ids_text)
        if not _ids_clean(ids_text, n):
            ids = self.image_ids  # as given, or split from the text
            if len(ids) != n:  # only ids given joined can hold another count
                raise ValueError(f"cx must hold one value per image id ({len(ids)}), got shape ({n},)")
            raise ValueError(f"{where(_first_bad_id(ids))}: image_id must not contain tabs or line breaks, "
                             f"{_NO_SURROGATES}")
        cx, cy, w, h = self.cx, self.cy, self.w, self.h
        size_ok = (w > 0.0) & (w <= s) & (h > 0.0) & (h <= s)
        ok = size_ok & (cx >= 0.0) & (cx <= s) & (cy >= 0.0) & (cy <= s)
        if not ok.all():
            i = int(np.argmin(ok))
            if not size_ok[i]:
                raise ValueError(f"{where(i)}: size ({float(w[i])}, {float(h[i])}) outside (0, {s}]")
            raise ValueError(f"{where(i)}: center ({float(cx[i])}, {float(cy[i])}) outside [0, {s}]")
        shapes = np.column_stack((w, h))
        shapes.flags.writeable = False
        object.__setattr__(self, "_shapes", shapes)

    def __len__(self) -> int:
        return len(self.cx)

    @functools.cached_property
    def image_ids(self) -> tuple[str, ...]:
        """The image ids, one per record."""
        return tuple(self._ids_text.split("\n")) if self._ids_text or len(self) else ()

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
    if not _ids_clean("\n".join(image_ids), len(image_ids)):
        i = _first_bad_id(image_ids)
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
    import xml.etree.ElementTree as ET

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
    import csv

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


def _cache_path(path: Path) -> Path:
    """The sidecar of a canonical file: its path with ".cache" appended."""
    return path.with_name(path.name + ".cache")


def _sidecar_digest(data: bytes, rows: int, *payload: "bytes | memoryview") -> str:
    """The sidecar's sha256 over the canonical file's bytes, its row count
    as 8 little-endian bytes and its payload, given whole or in parts."""
    digest = hashlib.sha256(data)
    digest.update(rows.to_bytes(8, "little"))
    for part in payload:
        digest.update(part)
    return digest.hexdigest()


def write_canonical(ds: CanonicalDataset, path: "str | Path") -> None:
    """Write the canonical line format and its sidecar (see module docstring)."""
    path = Path(path)
    lines = [f"anchorforge-dataset v1 S={ds.canvas_size}"]
    columns = (ds.cx.tolist(), ds.cy.tolist(), ds.w.tolist(), ds.h.tolist())
    lines.extend(map(_ROW_FORMAT.__mod__, zip(ds.image_ids, *columns)))
    del columns  # each copy goes once the next is made: ingest's peak memory is set here or in the parser
    lines.append("")  # the final line break
    data = "\n".join(lines).encode("utf-8")
    path.write_bytes(data)
    # the numbers as the reader's text pass parses these lines, not as ds holds them
    values = _parse_fields(lines[1:-1]) if len(ds) else np.empty((0, 4))
    del lines
    numbers = np.ascontiguousarray(values, dtype="<f8").data
    ids = ds._ids_text.encode("utf-8")
    with open(_cache_path(path), "wb") as fh:
        fh.write(_CACHE_HEADER.format(len(ds), _sidecar_digest(data, len(ds), numbers, ids)).encode("ascii"))
        fh.write(numbers)
        fh.write(ids)


def _canvas_of(path: Path, header: str) -> int:
    """The canvas size of a canonical file's first line, read stripped;
    ParseError unless it is a v1 header."""
    m = _HEADER_RE.fullmatch(header.strip())
    if m is None:
        raise ParseError(f"{path}: line 1: not a canonical dataset header")
    try:
        version, canvas = int(m.group(1)), int(m.group(2))
    except ValueError as e:  # the digit limit of int()
        raise ParseError(f"{path}: line 1: {e}") from None
    if version != 1:
        raise ParseError(f"{path}: unsupported dataset version {version} (this reader handles v1)")
    return canvas


def _read_cached(path: Path, data: bytes) -> Optional[CanonicalDataset]:
    """The dataset of a canonical file's bytes from its sidecar, or None
    when the sidecar is missing or not v2, when its digest does not match,
    or when anything after that fails: the text pass then reads the file."""
    try:
        # unbuffered, so that the payload is read into one bytes object, not
        # joined from a buffer and the rest
        with open(_cache_path(path), "rb", buffering=0) as fh:
            m = _CACHE_HEADER_RE.match(fh.read(256))  # a header is at most 126 bytes
            if m is None:
                return None
            fh.seek(m.end())
            rows, payload = int(m[1]), fh.read()
        if 32 * rows > len(payload):  # more numbers than the payload holds; 2**61 rows would overflow numpy's count
            return None
        if m[2].decode() != _sidecar_digest(data, rows, payload):
            return None
        ids_text = str(memoryview(payload)[32 * rows:], "utf-8")
        values = np.frombuffer(payload, dtype="<f8", count=4 * rows).reshape(rows, 4)
        canvas = _canvas_of(path, data[:data.index(b"\n")].decode("utf-8"))
        return CanonicalDataset._of_joined(canvas, ids_text, values.T)  # which refuses an id count other than rows
    except (OSError, ValueError):  # ParseError and UnicodeDecodeError included
        return None


def _read_by_line(path: Path, body: list[str]) -> tuple[list[str], np.ndarray]:
    """The ids and (n, 4) values of the body lines, checked line by line so
    that a fault is named at its line: first every line's tab count, then
    the numbers, parsed line by line only once the whole body fails."""
    if not body:
        return [], np.empty((0, 4))  # np.loadtxt warns on no lines
    ids = []
    for lineno, line in enumerate(body, start=2):
        tabs = line.count("\t")
        if tabs != 4:
            raise ParseError(f"{path}: line {lineno}: expected 5 tab-separated fields, got {tabs + 1}")
        ids.append(line[:line.index("\t")])
    try:
        return ids, _parse_fields(body)
    except ValueError as e:
        # loadtxt's row numbers count from 0 in some messages and 1 in others, so ask it line by line
        for lineno, line in enumerate(body, start=2):
            try:
                _parse_fields([line])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
        raise ParseError(f"{path}: {e}") from None


def read_canonical(path: "str | Path") -> CanonicalDataset:
    """Read a canonical dataset file, validating the version header.

    Two passes (see module docstring): a v2 sidecar whose one digest
    matches the file's bytes gives the records without parsing them;
    any other file is read line by line, which raises ParseError at the
    first faulty line: a wrong field count first, then a non-numeric
    field.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    cached = _read_cached(path, data)
    if cached is not None:
        return cached
    text = _decode_utf8(path, io.BytesIO(data))
    del data
    lines = text.split("\n")
    del text  # hold the text no longer than the split
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty file")
    canvas = _canvas_of(path, lines[0])
    ids, values = _read_by_line(path, lines[1:])
    try:
        return CanonicalDataset._of_joined(canvas, "\n".join(ids), values.T, lambda i: f"line {i + 2}")
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
