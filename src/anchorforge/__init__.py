"""Learn object-detection anchor shapes from bounding-box statistics.

Anchors live in log width/height space and are fitted to a dataset of
box shapes by stochastic gradient descent, with an optional surrogate
regression head standing in for a detector. A classic IoU k-means
clusterer is included both as an initializer and as a baseline.
"""

from __future__ import annotations

from .assign import (
    cluster_weight_at,
    hard_assign_threshold,
    hard_assign_yolo,
    soft_assign,
    temperature_at,
    utilization_counts,
)
from .cluster import (
    KMeansResult,
    anchors_from_centroids,
    init_identical,
    init_kmeans,
    init_uniform,
    kmeans_iou,
)
from .geometry import (
    METRICS,
    AnchorSet,
    iou_aligned_matrix,
    shape_dist_matrix,
)
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
from .lossgrad import (
    BN_EPS,
    batch_moments,
    grad_head,
    head_outputs,
    initial_head,
    make_features,
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
    EpochUtilization,
    HeadConfig,
    NonFiniteLossError,
    TrainConfig,
    TrainResult,
    Trajectory,
    TrajectoryRow,
    run_training,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorReport",
    "AnchorSet",
    "BN_EPS",
    "CanonicalDataset",
    "EpochUtilization",
    "HeadConfig",
    "KMeansResult",
    "METRICS",
    "NonFiniteLossError",
    "ParseError",
    "ParsedBoxes",
    "TrainConfig",
    "TrainResult",
    "Trajectory",
    "TrajectoryRow",
    "anchors_from_centroids",
    "anchors_line",
    "batch_moments",
    "build_report",
    "cluster_weight_at",
    "grad_head",
    "hard_assign_threshold",
    "hard_assign_yolo",
    "head_outputs",
    "init_identical",
    "init_kmeans",
    "init_uniform",
    "initial_head",
    "iou_aligned_matrix",
    "kmeans_iou",
    "make_features",
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
    "shape_dist_matrix",
    "soft_assign",
    "temperature_at",
    "utilization_counts",
    "write_anchors_json",
    "write_canonical",
]
