"""Synthetic box datasets with known cluster structure, plus a fake
annotation corpus on disk for exercising the ingestion path end to end.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from anchorforge import CanonicalDataset, ParsedBoxes, normalize_to_canvas


def lognormal_mixture(
    means_px,
    sigma_log: float,
    counts,
    canvas: int = 416,
    seed: int = 0,
) -> CanonicalDataset:
    """Boxes whose log sizes cluster tightly around the given pixel means.

    Log widths and heights are drawn independently per cluster, clipped
    into the canvas, and paired with a random position that keeps the
    whole box inside.
    """
    rng = np.random.default_rng(seed)
    lo, hi = np.log(2.0), np.log(0.9 * canvas)
    rows = []
    # one box at a time, so the draws come in the same order for any counts
    for (mw, mh), count in zip(means_px, counts):
        for _ in range(count):
            lw = float(np.clip(rng.normal(np.log(mw), sigma_log), lo, hi))
            lh = float(np.clip(rng.normal(np.log(mh), sigma_log), lo, hi))
            w, h = float(np.exp(lw)), float(np.exp(lh))
            cx = float(rng.uniform(w / 2.0, canvas - w / 2.0))
            cy = float(rng.uniform(h / 2.0, canvas - h / 2.0))
            rows.append((cx, cy, w, h))
    cx, cy, w, h = np.array(rows, dtype=float).reshape(-1, 4).T
    ids = [f"synth{i:05d}" for i in range(len(rows))]
    return CanonicalDataset(canvas, ids, cx, cy, w, h)


def mixture3(seed: int = 7) -> CanonicalDataset:
    """Three tight, well-separated size clusters (500 boxes each)."""
    return lognormal_mixture(
        [(20.0, 24.0), (72.0, 58.0), (190.0, 210.0)],
        sigma_log=0.05,
        counts=[500, 500, 500],
        canvas=416,
        seed=seed,
    )


def mixture2(seed: int = 11) -> CanonicalDataset:
    """Two broad size clusters (1000 boxes each)."""
    return lognormal_mixture(
        [(28.0, 30.0), (150.0, 135.0)],
        sigma_log=0.35,
        counts=[1000, 1000],
        canvas=416,
        seed=seed,
    )


def pixel_corners(num_images: int = 200, canvas: int = 416, seed: int = 17) -> CanonicalDataset:
    """Boxes with integer pixel corners on images of varied integer sizes,
    normalized onto the canvas by ingest's own normalize_to_canvas, as real
    annotations are.

    Each image is 32 to 1280 pixels a side and holds 1 to 6 boxes, each
    corner an integer inside it. A coordinate scaled by canvas / image size
    (37 * 416 / 375) mostly needs all 17 significant digits, so its
    canonical text, printed to 10, reads back as another float; a few, such
    as a box spanning its image, read back exactly. About four in five of
    the shapes change under ``np.exp(np.log(.))``, where no shape of
    ``lognormal_mixture``, a ``float(np.exp(.))`` draw, does.
    """
    rng = np.random.default_rng(seed)
    ids, sizes, corners = [], [], []
    for i in range(num_images):
        iw, ih = (int(x) for x in rng.integers(32, 1281, size=2))
        for _ in range(int(rng.integers(1, 7))):
            x0, x1 = sorted(int(x) for x in rng.choice(iw + 1, size=2, replace=False))
            y0, y1 = sorted(int(y) for y in rng.choice(ih + 1, size=2, replace=False))
            ids.append(f"img{i:04d}")
            sizes.append((iw, ih))
            corners.append((x0, y0, x1, y1))
    boxes = ParsedBoxes(tuple(ids), np.array(sizes, dtype=float), np.array(corners, dtype=float))
    return normalize_to_canvas(boxes, canvas)


_XML_SIZES = ((500, 375), (375, 500), (500, 333), (640, 480), (486, 500))
_XML_NAMES = ("person", "car", "dog", "chair", "bottle", "bird", "sofa")

# cluster means in relative units of min(image width, height)
_XML_CLUSTERS = ((0.08, 0.12), (0.25, 0.2), (0.3, 0.55), (0.7, 0.65), (0.95, 0.9))


def write_voc_corpus(root: Path, num_images: int = 1150, seed: int = 13) -> int:
    """Write a synthetic detection corpus of XML annotation files.

    Each image gets 3 to 7 objects with sizes drawn around a handful of
    cluster modes, a sprinkling of difficult flags, and box coordinates
    kept inside the image. Returns the number of boxes written.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    boxes = 0
    for i in range(num_images):
        img_w, img_h = _XML_SIZES[int(rng.integers(len(_XML_SIZES)))]
        base = min(img_w, img_h)
        ann = ET.Element("annotation")
        ET.SubElement(ann, "filename").text = f"{i:06d}.jpg"
        size = ET.SubElement(ann, "size")
        ET.SubElement(size, "width").text = str(img_w)
        ET.SubElement(size, "height").text = str(img_h)
        ET.SubElement(size, "depth").text = "3"
        for _ in range(int(rng.integers(3, 8))):
            mw, mh = _XML_CLUSTERS[int(rng.integers(len(_XML_CLUSTERS)))]
            w = base * mw * float(np.exp(rng.normal(0.0, 0.25)))
            h = base * mh * float(np.exp(rng.normal(0.0, 0.25)))
            w = min(max(w, 8.0), img_w - 2.0)
            h = min(max(h, 8.0), img_h - 2.0)
            x0 = rng.uniform(1.0, img_w - w - 1.0)
            y0 = rng.uniform(1.0, img_h - h - 1.0)
            obj = ET.SubElement(ann, "object")
            ET.SubElement(obj, "name").text = _XML_NAMES[int(rng.integers(len(_XML_NAMES)))]
            ET.SubElement(obj, "difficult").text = "1" if rng.random() < 0.05 else "0"
            bnd = ET.SubElement(obj, "bndbox")
            ET.SubElement(bnd, "xmin").text = f"{x0:.2f}"
            ET.SubElement(bnd, "ymin").text = f"{y0:.2f}"
            ET.SubElement(bnd, "xmax").text = f"{x0 + w:.2f}"
            ET.SubElement(bnd, "ymax").text = f"{y0 + h:.2f}"
            boxes += 1
        ET.ElementTree(ann).write(root / f"{i:06d}.xml", encoding="unicode")
    return boxes
