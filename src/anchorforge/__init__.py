"""Learn object-detection anchor shapes from bounding-box statistics.

Anchors live in log width/height space and are fitted to a dataset of
box shapes by stochastic gradient descent, with an optional surrogate
regression head standing in for a detector. A classic IoU k-means
clusterer is included both as an initializer and as a baseline.

The root imports a submodule only when one of its names is first used:
``import anchorforge`` loads no submodule, and ``anchorforge.read_canonical``
loads ``anchorforge.ingest`` alone. Each name resolves to the object its
submodule defines, and the submodules other than ``cli`` resolve as
attributes too (``anchorforge.trainer``). The commands gain nothing from
this: ``anchorforge.cli`` imports every module.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cluster": ("KMeansResult", "anchors_from_centroids", "init_identical", "init_kmeans", "init_uniform", "kmeans_iou"),
    "geometry": ("METRICS", "AnchorSet"),
    "ingest": (
        "CanonicalDataset", "ParseError", "ParsedBoxes", "normalize_to_canvas", "parse_coco", "parse_csv", "parse_voc",
        "read_canonical", "write_canonical",
    ),
    "report": (
        "AnchorReport", "anchors_line", "build_report", "match_anchor_sets", "read_anchors_json", "render_text",
        "report_to_json", "write_anchors_json",
    ),
    "trainer": ("NonFiniteLossError", "TrainConfig", "TrainResult", "run_training"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("assign", "cluster", "geometry", "ingest", "lossgrad", "report", "trainer"))

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the submodule that owns ``name`` and cache the name here."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
