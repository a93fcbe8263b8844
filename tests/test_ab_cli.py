"""`tools/ab_cli.py` times one CLI command of two checkouts in one process,
pair by pair, and reports whether their outputs were equal."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from syllabeam.corpus import write_aligned_corpus

from conftest import make_corpus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab_cli():
    spec = importlib.util.spec_from_file_location("ab_cli", ROOT / "tools" / "ab_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(8, seed=3), path)
    return path


def test_a_checkout_against_itself_gives_equal_outputs(ab_cli, corpus, capsys):
    modules = set(sys.modules)
    code = ab_cli.main([str(ROOT), str(ROOT), "--rounds", "3", "--", "train-lm", "--corpus", str(corpus), "--out", "lm.json"])
    line = capsys.readouterr().out
    assert code == 0 and line.startswith("train-lm: base ") and "won" in line and "outputs equal" in line
    assert set(sys.modules) == modules  # both copies are unloaded again
    result = ab_cli.compare(ROOT, ROOT, ["train-lm", "--corpus", str(corpus), "--out", "lm.json"], rounds=2)
    assert result["outputs_equal"] and result["exit_codes"] == [0]
    assert (result["rounds"], 0 <= result["won"] <= 2, result["ratio"] > 0) == (2, True, True)


def test_outputs_that_differ_are_reported(ab_cli, corpus, tmp_path, capsys):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "src" / "syllabeam" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace('"texts": len(texts)', '"texts": -len(texts)'), encoding="utf-8")
    code = ab_cli.main([str(ROOT), str(change), "--rounds", "2", "--", "train-lm", "--corpus", str(corpus), "--out", "lm.json"])
    assert code == 1 and "outputs DIFFER" in capsys.readouterr().out
