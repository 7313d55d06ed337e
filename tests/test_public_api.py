"""The package root exports the pipeline, not the stages of one step.

The assignment rules, the warm-up schedules, the geometry arrays and the
moment-form stages are internals of ``run_training``: they are imported
from their modules. The step walkthrough lives in ``anchorforge.lossgrad``'s
docstring and runs here.

The root imports a submodule when one of its names is first used; the
children here start from a bare ``import anchorforge`` to see what that
loads.
"""

import doctest
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anchorforge
import anchorforge.lossgrad
from anchorforge import write_canonical

SRC = Path(anchorforge.__file__).resolve().parents[1]

OWNERS = {
    "cluster": ("KMeansResult", "anchors_from_centroids", "init_identical", "init_kmeans", "init_uniform", "kmeans_iou"),
    "geometry": ("METRICS", "AnchorSet"),
    "ingest": ("CanonicalDataset", "ParseError", "ParsedBoxes", "normalize_to_canvas", "parse_coco", "parse_csv",
               "parse_voc", "read_canonical", "write_canonical"),
    "report": ("AnchorReport", "anchors_line", "build_report", "match_anchor_sets", "read_anchors_json", "render_text",
               "report_to_json", "write_anchors_json"),
    "trainer": ("NonFiniteLossError", "TrainConfig", "TrainResult", "run_training"),
}

IMPORT_SETS_CODE = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("anchorforge"))
import anchorforge
after_import = loaded()
anchorforge.read_canonical(sys.argv[1])
after_read = loaded()
stdlib = [m for m in ("csv", "json", "xml.etree.ElementTree") if m in sys.modules]
import json
print(json.dumps({"import": after_import, "read": after_read, "stdlib": stdlib}))
"""
STAR_CODE = """
before = set(globals())
from anchorforge import *
import json
print(json.dumps(sorted(set(globals()) - before - {"before", "json"})))
"""
BARE_ROOT_CODE = """
import json, sys
import anchorforge
listed = dir(anchorforge)
trainer = anchorforge.trainer
print(json.dumps({"dir": listed, "trainer": trainer.__name__, "cached": trainer is sys.modules["anchorforge.trainer"],
                  "submodules": [m for m in sys.argv[1:] if getattr(anchorforge, m).__name__ == "anchorforge." + m],
                  "cli": hasattr(anchorforge, "cli") or "anchorforge.cli" in sys.modules}))
"""
SUBMODULES = ("assign", "cluster", "geometry", "ingest", "lossgrad", "report", "trainer")


def child(code, *args):
    """What ``code`` prints as JSON in a fresh Python that imports this tree's package."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)

STEP_STAGES = (
    "moment_table", "table_grams", "TABLE_ROWS", "head_outputs", "grad_head", "initial_head", "make_features", "BN_EPS",
    "soft_assign", "hard_assign_yolo", "hard_assign_threshold", "utilization_counts",
    "temperature_at", "cluster_weight_at",
    "iou_aligned_matrix", "shape_dist_matrix",
)


def test_step_stages_are_not_at_the_package_root():
    assert [name for name in STEP_STAGES if hasattr(anchorforge, name)] == []
    assert set(STEP_STAGES).isdisjoint(anchorforge.__all__)


def test_lossgrad_walkthrough_runs():
    result = doctest.testmod(anchorforge.lossgrad)
    assert result.attempted > 0, "anchorforge.lossgrad's docstring holds no example"
    assert result.failed == 0


def test_a_dataset_read_imports_only_ingest(tmp_path, mixture2_ds):
    path = tmp_path / "mixture2.canonical"
    write_canonical(mixture2_ds, path)
    seen = child(IMPORT_SETS_CODE, path)
    assert seen["import"] == ["anchorforge"], f"import anchorforge loads {seen['import']}"
    assert seen["read"] == ["anchorforge", "anchorforge.ingest"], f"read_canonical loads {seen['read']}"
    assert seen["stdlib"] == []


def test_each_public_name_is_its_modules_object():
    assert sorted(name for names in OWNERS.values() for name in names) == anchorforge.__all__
    for module, names in OWNERS.items():
        owner = importlib.import_module(f"anchorforge.{module}")
        assert [name for name in names if getattr(anchorforge, name) is not getattr(owner, name)] == []


def test_star_import_binds_exactly_all():
    assert child(STAR_CODE) == anchorforge.__all__


def test_a_bare_root_lists_all_and_resolves_submodules():
    seen = child(BARE_ROOT_CODE, *SUBMODULES)
    assert set(anchorforge.__all__) <= set(seen["dir"])
    assert (seen["trainer"], seen["cached"]) == ("anchorforge.trainer", True)
    assert seen["submodules"] == list(SUBMODULES)
    assert not seen["cli"], "a bare import binds anchorforge.cli, which only `import anchorforge.cli` should load"


@pytest.mark.parametrize("name", ["no_such_name", "table_grams", "__wrapped__"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"^module 'anchorforge' has no attribute '{name}'$"):
        getattr(anchorforge, name)
