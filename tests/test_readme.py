"""README stays true to the program.

The python blocks under README's "Library use" run as written. They run
in order and share one namespace, as a reader would paste them, from a
directory that holds a synthetic runs/voc/dataset.canonical. An API
change that breaks a documented call fails here, and so does a flag
README names that no subcommand takes. Library use imports no private
name and names every public one. The documented --no-bn schedule
must train where the recipe's own rates diverge.
"""

import argparse
import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import anchorforge
import synth
from anchorforge import write_canonical
from anchorforge.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section():
    return README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def library_use_blocks():
    return re.findall(r"^```python\n(.*?)^```$", library_use_section(), flags=re.S | re.M)


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


def test_library_use_imports_no_private_name():
    imports = []
    for block in library_use_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "anchorforge":
                imports += [(node.module, alias.name) for alias in node.names]
    assert imports, "Library use imports nothing from anchorforge"
    assert [f"{module}.{name}" for module, name in imports if name.startswith("_")] == []


def test_library_use_names_every_public_name():
    section = library_use_section()
    assert [name for name in anchorforge.__all__ if f"`{name}`" not in section] == []


def test_no_bn_schedule_trains(tmp_path, monkeypatch):
    """README's --no-bn command trains at --scale 0.1 where the recipe's
    own learning rates, with --no-bn, overflow an anchor shape (exit 3)."""
    text = README.read_text(encoding="utf-8")
    [block] = [b for b in re.findall(r"^```\n(.*?)^```$", text, flags=re.S | re.M) if "--no-bn" in b]
    argv = shlex.split(block.replace("\\\n", " "))
    assert argv[:2] == ["anchorforge", "optimize"] and "--lr-schedule" in argv
    dataset = tmp_path / "runs" / "voc" / "dataset.canonical"
    dataset.parent.mkdir(parents=True)
    write_canonical(synth.mixture2(1), dataset)
    monkeypatch.chdir(tmp_path)
    recipe = argv[:argv.index("--lr-schedule")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv[1:] + ["--scale", "0.1", "--out-dir", "documented"]) == 0
        assert main(recipe[1:] + ["--scale", "0.1", "--out-dir", "recipe"]) == 3


# flags of other programs that README quotes
NOT_OURS = {"--no-build-isolation"}


def option_strings():
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for sub in subparsers.choices.values() for a in sub._actions for flag in a.option_strings}


def test_readme_flags_exist():
    text = README.read_text(encoding="utf-8")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert "--anchor-lr-mult" in flags
    assert flags - option_strings() - NOT_OURS == set()


def test_all_names_resolve():
    missing = [name for name in anchorforge.__all__ if not hasattr(anchorforge, name)]
    assert missing == []
