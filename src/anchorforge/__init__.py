"""Learn object-detection anchor shapes from bounding-box statistics.

Anchors live in log width/height space and are fitted to a dataset of
box shapes by stochastic gradient descent, with an optional surrogate
regression head standing in for a detector. A classic IoU k-means
clusterer is included both as an initializer and as a baseline.
"""

from __future__ import annotations

from .cluster import (
    KMeansResult,
    anchors_from_centroids,
    init_identical,
    init_kmeans,
    init_uniform,
    kmeans_iou,
)
from .geometry import METRICS, AnchorSet
from .ingest import (
    CanonicalDataset,
    ParseError,
    ParsedBoxes,
    normalize_to_canvas,
    parse_coco,
    parse_csv,
    parse_voc,
    read_canonical,
    write_canonical,
)
from .report import (
    AnchorReport,
    anchors_line,
    build_report,
    match_anchor_sets,
    read_anchors_json,
    render_text,
    report_to_json,
    write_anchors_json,
)
from .trainer import (
    NonFiniteLossError,
    TrainConfig,
    TrainResult,
    run_training,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorReport",
    "AnchorSet",
    "CanonicalDataset",
    "KMeansResult",
    "METRICS",
    "NonFiniteLossError",
    "ParseError",
    "ParsedBoxes",
    "TrainConfig",
    "TrainResult",
    "anchors_from_centroids",
    "anchors_line",
    "build_report",
    "init_identical",
    "init_kmeans",
    "init_uniform",
    "kmeans_iou",
    "match_anchor_sets",
    "normalize_to_canvas",
    "parse_coco",
    "parse_csv",
    "parse_voc",
    "read_anchors_json",
    "read_canonical",
    "render_text",
    "report_to_json",
    "run_training",
    "write_anchors_json",
    "write_canonical",
]
