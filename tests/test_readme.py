"""The python blocks under README's "Library use" run as written.

They run in order and share one namespace, as a reader would paste
them, from a directory that holds a synthetic runs/voc/dataset.canonical.
An API change that breaks a documented call fails here.
"""

import re
from pathlib import Path

import synth
from anchorforge import write_canonical

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_use_blocks_run(tmp_path, monkeypatch):
    blocks = library_use_blocks()
    assert blocks, "no python blocks under Library use"
    dataset = tmp_path / "runs" / "voc" / "dataset.canonical"
    dataset.parent.mkdir(parents=True)
    write_canonical(synth.mixture2(), dataset)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, Library use block {number}", "exec"), namespace)
