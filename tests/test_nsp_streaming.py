"""The NSP commands pass rows through instead of collecting them.

`read_nsp_blocks` yields the rows of each block of lines as it reads the
block, `build-nsp-dataset` writes each row as the builder hands it to its
sink, and `nsp-eval` feeds each block's rows straight into its scorer.
Three consequences are pinned here:

- a bad line surfaces when iteration reaches it, after the rows before it;
- `build-nsp-dataset` checks every lyric before it opens `--out`, and names
  a short lyric by its file line;
- `nsp-eval` has its LM loaded before it reads a row, so an LM-side
  error is reported before a dataset error.

The memory guards compare `tracemalloc` peaks with the traced size of the
rows collected in a list, the cost a command that holds the dataset pays.
"""

import contextlib
import io
import json
import re
import tracemalloc

import pytest

from syllabeam import halves
from syllabeam.cli import main
from syllabeam.corpus import load_aligned_corpus, render_text, write_aligned_corpus
from syllabeam.lm import lyric_lm_text, train_char_ngram
from syllabeam.nsp import BuilderConfig, build_dataset, read_nsp_blocks

from conftest import make_corpus


def test_read_nsp_blocks_yields_the_rows_before_a_bad_line(tmp_path):
    path = tmp_path / "nsp.tsv"
    path.write_text("i know\t_why\t1\ni know\twhy\t0\ni know\t_why\t2\ntel e\tphone\t1\n", encoding="utf-8")
    blocks = read_nsp_blocks(path)
    assert next(blocks) == [("i know", "_why", "1")]
    assert next(blocks) == [("i know", "why", "0")]
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad label '2'$"):
        next(blocks)


@pytest.mark.parametrize("existing", [b"context\t_candidate\t1\n", None], ids=["out exists", "out missing"])
def test_short_lyric_fails_before_out_is_opened(tmp_path, capsys, existing):
    corpus = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(3, seed=5), corpus)
    one_syllable = {"syllables": ["hey"], "word_initial": [True], "notes": [[60, 1, 0]]}
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("\n" + json.dumps(one_syllable) + "\n")  # line 5, the fourth lyric loaded
    out = tmp_path / "nsp.tsv"
    if existing is not None:
        out.write_bytes(existing)
    code = main(["build-nsp-dataset", "--corpus", str(corpus), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {corpus}:5: must contain at least 2 syllables\n"
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


@pytest.mark.parametrize(
    "lm_args, message",
    [
        pytest.param([], "the following arguments are required: --lm", id="no lm"),
        pytest.param(["--lm", "missing.json"], "missing.json: no such file", id="missing lm"),
        pytest.param(["--lm", "lm.json"], "lm.json: not a syllabeam-charlm file", id="lm rejected"),
    ],
)
def test_nsp_eval_reports_the_lm_side_first(tmp_path, capsys, monkeypatch, lm_args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lm.json").write_text("[]", encoding="utf-8")
    (tmp_path / "nsp.tsv").write_text("i know\t_why\t2\n", encoding="utf-8")  # line 1: bad label
    code = main(["nsp-eval", "--dataset", "nsp.tsv", *lm_args])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    if lm_args:
        assert captured.err == f"error: {message}\n"
    else:  # argparse's usage error, the one a missing --dataset gets
        assert captured.err.startswith("usage: syllabeam nsp-eval ")
        assert captured.err.endswith(f"syllabeam nsp-eval: error: {message}\n")


def traced(call):
    """(size, peak) bytes that tracemalloc saw while `call()` ran, its stdout dropped."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A 250-lyric corpus, an LM trained on it, about 10k NSP rows built from
    it by the CLI, the traced peaks of loading the corpus and of building, and
    the traced size of the rows as `build_dataset` hands them over."""
    root = tmp_path_factory.mktemp("stream")
    pairs = make_corpus(250, seed=5)
    write_aligned_corpus(pairs, root / "corpus.jsonl")
    train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in pairs], 4, 0.1).save(root / "lm.json")
    _, load_peak = traced(lambda: load_aligned_corpus(root / "corpus.jsonl"))
    argv = ["build-nsp-dataset", "--corpus", str(root / "corpus.jsonl"), "--out", str(root / "nsp.tsv")]
    build_peaks = {}
    for cpus in (2, 1):  # forked, then serial
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(halves, "_cpus", lambda: cpus)
            _, build_peaks[cpus] = traced(lambda: main(argv))
    rows, lyrics = [], [p.lyric for p in pairs]
    rows_size, _ = traced(lambda: build_dataset(lyrics, BuilderConfig(), rows.append))  # the rows of nsp.tsv
    assert len(rows) > 9_000
    return root, load_peak, build_peaks, rows_size


def test_build_holds_little_beyond_its_corpus(dataset):
    # a builder that collects its rows adds about 0.68x their size here (rows
    # of one position share their context); a streaming one about 0.03x. On
    # the forked path the child's rows reach --out in chunks.
    _, load_peak, build_peaks, rows_size = dataset
    assert build_peaks[2] < load_peak + rows_size / 10


def test_serial_build_holds_little_beyond_its_corpus(dataset):
    _, load_peak, build_peaks, rows_size = dataset
    assert build_peaks[1] < load_peak + rows_size / 10


def test_nsp_eval_holds_no_row_list(dataset):
    # holding the rows read about 1.63x their size here; streaming, about
    # 0.53x: the scorer keeps one (score, label) pair per row for nsp_metrics
    root, _, _, rows_size = dataset
    _, peak = traced(lambda: main(["nsp-eval", "--dataset", str(root / "nsp.tsv"), "--lm", str(root / "lm.json")]))
    assert peak < rows_size * 3 / 4
