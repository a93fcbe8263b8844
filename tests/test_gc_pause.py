"""The cyclic garbage collector pause around model loads and CLI commands.

`modelfile.gc_paused` disables the collector while `cli.main` runs a command
and while either model's `load` reads a file. Three things keep that sound:

- the premise: no bulk path makes a reference cycle, so a pause leaves no
  garbage behind for a later collection to find;
- every exit path, by return, exit code 1 or 2, or exception, puts back the
  collector state the caller had, enabled or not;
- no other module of the package changes the collector's state.
"""

import ast
import gc
import json
from pathlib import Path

import pytest

import syllabeam
from syllabeam import cli
from syllabeam.beam import FusionConfig, decode
from syllabeam.corpus import build_vocabulary, load_aligned_corpus, render_text, write_aligned_corpus
from syllabeam.generator import MelodyConditionedNgram, train_generator, train_records
from syllabeam.lm import CharNgramModel, lyric_lm_text, train_char_ngram
from syllabeam.modelfile import gc_paused
from syllabeam.nsp import BuilderConfig, build_dataset, nsp_line

from conftest import make_corpus, tsv_rows


@pytest.fixture(autouse=True)
def restore_gc():
    """Leave the collector enabled for the rest of the suite, whatever a test did."""
    yield
    gc.enable()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A corpus, both models trained on it, and their files."""
    root = tmp_path_factory.mktemp("gc")
    corpus = make_corpus(40, seed=97)
    write_aligned_corpus(corpus, root / "corpus.jsonl")
    lm = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in corpus], order=4, k=0.1)
    lm.save(root / "lm.json")
    generator = train_generator(corpus, build_vocabulary([p.lyric for p in corpus]), history=2, k=0.1)
    generator.save(root / "gen.json")
    return root, corpus


def leaves_no_cycles(call):
    """`call()` run with the collector disabled; fails if it left cyclic garbage."""
    gc.collect()
    with gc_paused():
        result = call()
        assert gc.collect() == 0
    return result


def test_bulk_paths_make_no_reference_cycles(files, tmp_path):
    root, corpus = files
    pairs = leaves_no_cycles(lambda: load_aligned_corpus(root / "corpus.jsonl"))
    lyrics = [p.lyric for p in pairs]
    leaves_no_cycles(lambda: train_char_ngram([lyric_lm_text(render_text(l)) for l in lyrics], 4, 0.1))
    leaves_no_cycles(lambda: train_generator(pairs, build_vocabulary(lyrics), 2, 0.1))
    lm = leaves_no_cycles(lambda: CharNgramModel.load(root / "lm.json"))
    generator = leaves_no_cycles(lambda: MelodyConditionedNgram.load(root / "gen.json"))
    rows = []
    leaves_no_cycles(lambda: build_dataset(lyrics, BuilderConfig(seed=3), rows.append))
    (tmp_path / "nsp.tsv").write_text("".join(map(nsp_line, rows)), encoding="utf-8")
    assert leaves_no_cycles(lambda: tsv_rows(tmp_path / "nsp.tsv")) == rows
    for pair in corpus[:4]:
        assert leaves_no_cycles(lambda: decode(pair.melody, generator, lm, FusionConfig(beam_size=4)))


@pytest.mark.parametrize("command", ["ok", "bad corpus", "bad model", "unwritable out"])
def test_main_makes_no_reference_cycles(files, tmp_path, capsys, command):
    """`cli.main` parses with the one parser of the process, whose object graph
    is cyclic, so once the first call has built it no call leaves cyclic
    garbage, whether it exits 0, 1 or 2."""
    run_main(files, tmp_path, command)
    leaves_no_cycles(lambda: run_main(files, tmp_path, command))


def test_pause_disables_then_restores():
    seen = []
    with gc_paused():
        seen.append(gc.isenabled())
        with gc_paused():
            seen.append(gc.isenabled())
        seen.append(gc.isenabled())
    assert seen == [False, False, False] and gc.isenabled()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("x")
    assert gc.isenabled()
    gc.disable()
    with gc_paused():
        pass
    assert not gc.isenabled()


def run_main(files, tmp_path, command):
    root, _ = files
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text('{"syllables": 1}\n')
    bad_lm = tmp_path / "bad_lm.json"
    bad_lm.write_text(json.dumps({"format": "syllabeam-charlm", "version": 99}))
    (tmp_path / "melody.txt").write_text("60:1:0 62:1:0 64:2:0\n")
    argv = {
        "ok": ["train-lm", "--corpus", str(root / "corpus.jsonl"), "--out", str(tmp_path / "lm.json")],
        "bad corpus": ["train-generator", "--corpus", str(bad_corpus), "--out", str(tmp_path / "g.json")],
        "bad model": ["generate", "--melody", str(tmp_path / "melody.txt"), "--generator",
                      str(root / "gen.json"), "--lm", str(bad_lm)],
        "unwritable out": ["train-lm", "--corpus", str(root / "corpus.jsonl"),
                           "--out", str(tmp_path / "missing" / "lm.json")],
    }[command]
    return cli.main(argv)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "command, code", [("ok", 0), ("bad corpus", 2), ("bad model", 2), ("unwritable out", 1)]
)
def test_main_restores_collector_state(files, tmp_path, capsys, enabled, command, code):
    (gc.enable if enabled else gc.disable)()
    assert run_main(files, tmp_path, command) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("model, name", [(CharNgramModel, "lm.json"), (MelodyConditionedNgram, "gen.json")])
def test_load_restores_collector_state(files, tmp_path, enabled, model, name):
    root, _ = files
    (gc.enable if enabled else gc.disable)()
    assert model.load(root / name)
    assert gc.isenabled() is enabled
    wrong = tmp_path / name
    wrong.write_text(json.dumps({"format": "not-a-model"}))
    with pytest.raises(ValueError, match="not a "):
        model.load(wrong)
    assert gc.isenabled() is enabled


def test_collector_is_off_while_a_command_runs(files, tmp_path, capsys, monkeypatch):
    root, _ = files
    seen = []

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return train_records(*args, **kwargs)

    monkeypatch.setattr(cli, "train_records", recording)
    argv = ["train-generator", "--corpus", str(root / "corpus.jsonl"), "--out", str(tmp_path / "g.json")]
    assert cli.main(argv) == 0
    assert seen == [False] and gc.isenabled()


STATE_CALLS = {"disable", "enable", "freeze", "set_threshold"}


def collector_state_calls(path: Path) -> list[str]:
    """Each `gc.<name>` reference and `from gc import` in `path` that can change
    the collector's state."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and node.attr in STATE_CALLS
        ):
            found.append(f"gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append("from gc import")
    return found


def test_only_the_pause_changes_collector_state():
    package = Path(syllabeam.__file__).parent
    calls = {path.name: collector_state_calls(path) for path in sorted(package.glob("**/*.py"))}
    assert sorted(calls.pop("modelfile.py")) == ["gc.disable", "gc.enable"]
    assert {name: found for name, found in calls.items() if found} == {}
