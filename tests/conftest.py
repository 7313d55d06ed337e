from __future__ import annotations

import pytest

import synth
from anchorforge import normalize_to_canvas, parse_voc


@pytest.fixture(scope="session")
def mixture3_ds():
    return synth.mixture3()


@pytest.fixture(scope="session")
def mixture2_ds():
    return synth.mixture2()


@pytest.fixture(scope="session")
def voc_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("voc-corpus")
    synth.write_voc_corpus(root)
    return root


@pytest.fixture(scope="session")
def voc_ds(voc_dir):
    boxes = parse_voc(voc_dir)
    return normalize_to_canvas(boxes, 416)
