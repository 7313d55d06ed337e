"""Seeded inputs for the benchmark workloads.

The program under test only ever sees the files written here. The two
training sets come from ``tests/synth.py`` by import, so they are the
same mixtures the acceptance tests use; the large COCO file reuses the
cluster modes of ``synth.write_voc_corpus``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import synth
from anchorforge import write_canonical

BOXES_PER_IMAGE = 5


def write_mixture(path: Path, name: str, seed: int) -> int:
    """Write ``synth.<name>(seed)`` as a canonical file; returns its box count."""
    ds = getattr(synth, name)(seed)
    write_canonical(ds, path)
    return len(ds)


def write_coco(path: Path, num_boxes: int, seed: int) -> int:
    """Write a COCO instances file of ``num_boxes`` boxes, five per image.

    Image sizes, cluster modes (relative to the shorter image side), the
    log-normal spread and the clamping follow ``synth.write_voc_corpus``.
    Returns the number of boxes written.
    """
    if num_boxes % BOXES_PER_IMAGE:
        raise ValueError(f"num_boxes must be a multiple of {BOXES_PER_IMAGE}")
    rng = np.random.default_rng(seed)
    num_images = num_boxes // BOXES_PER_IMAGE
    sizes = np.array(synth._XML_SIZES, dtype=float)[rng.integers(len(synth._XML_SIZES), size=num_images)]
    img = np.repeat(np.arange(num_images), BOXES_PER_IMAGE)
    img_w, img_h = sizes[img, 0], sizes[img, 1]
    base = np.minimum(img_w, img_h)
    modes = np.array(synth._XML_CLUSTERS)[rng.integers(len(synth._XML_CLUSTERS), size=num_boxes)]
    w = base * modes[:, 0] * np.exp(rng.normal(0.0, 0.25, num_boxes))
    h = base * modes[:, 1] * np.exp(rng.normal(0.0, 0.25, num_boxes))
    w = np.minimum(np.maximum(w, 8.0), img_w - 2.0)
    h = np.minimum(np.maximum(h, 8.0), img_h - 2.0)
    x0 = rng.uniform(1.0, img_w - w - 1.0)
    y0 = rng.uniform(1.0, img_h - h - 1.0)
    bbox = np.round(np.stack([x0, y0, w, h], axis=1), 2).tolist()
    doc = {
        "images": [
            {"id": i, "file_name": f"{i:06d}.jpg", "width": int(sw), "height": int(sh)}
            for i, (sw, sh) in enumerate(sizes.tolist())
        ],
        "annotations": [
            {"id": a, "image_id": int(i), "category_id": 1, "iscrowd": 0, "bbox": b}
            for a, (i, b) in enumerate(zip(img.tolist(), bbox))
        ],
        "categories": [{"id": 1, "name": "object"}],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return num_boxes
