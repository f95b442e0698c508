"""Golden outputs: each case of ``data/golden/make_golden.py``, rerun in a
copy of ``tests/data``, must write the committed bytes, stdout included.

An intended output change regenerates the goldens with that script; any
other difference is a regression.
"""
import importlib.util
import shutil

import pytest

from conftest import DATA_DIR
from qoekit import cli

GOLDEN = DATA_DIR / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def tree(root):
    """Every file under ``root``, by its path relative to it, with its bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


CASES = dict(make_golden.CASES)


def check_case(name, tmp_path, monkeypatch):
    work = shutil.copytree(DATA_DIR, tmp_path / "data") / "golden"
    monkeypatch.chdir(work)
    make_golden.run_case(name, CASES[name])
    got, want = tree(work / "out" / name), tree(GOLDEN / "out" / name)
    assert sorted(got) == sorted(want)
    for path, data in want.items():
        assert got[path] == data, f"out/{name}/{path} differs from the golden file"


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name, tmp_path, monkeypatch):
    check_case(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("name", [n for n in CASES if n.startswith("analyze-") and "-0.2s-" in n])
def test_analyze_outputs_do_not_depend_on_block_size(name, block, tmp_path, monkeypatch):
    # no golden case reaches _REPORT_BLOCK (1,024) windows; smaller blocks put
    # block boundaries inside each report and table
    monkeypatch.setattr(cli, "_REPORT_BLOCK", block)
    check_case(name, tmp_path, monkeypatch)


def test_golden_corpus_stays_small():
    assert sum(len(data) for data in tree(GOLDEN).values()) < 1_000_000
