"""Both NSP commands work on two processes where they can.

`build-nsp-dataset`: a forked child reads the corpus up to the first line
break at or after the middle byte and builds those lyrics' rows, while the
command does the same for the part past it, its substreams offset by the
records before the split; the command then writes the child's rows and its
own to `--out`. Each lyric draws from its own substream, so the TSV and
stdout must equal those of the one-process path.

`nsp-eval`: a forked child scores the TSV's bytes up to the first line
break at or after the middle byte while the command scores those past it,
and the command appends its own pairs after the child's. The pairs, in file
order, and so stdout, must equal those of the one-process path, and a bad
row or byte on either side of the split must fail as it fails there.

`test_halves.py` states the reader's contract for any part: a bad line fails
as it fails on one process, and a failing child fails the read. These tests
force the one-process path by making the CPU probe report one CPU, and count
the forks.
"""

import os
import re

import pytest

from syllabeam import halves, nsp
from syllabeam import lm as lm_module
from syllabeam.cli import main
from syllabeam.corpus import load_aligned_corpus, render_text, serialize_lyric_line, write_aligned_corpus
from syllabeam.lm import lyric_lm_text, train_char_ngram

from conftest import LINE_ENDS, ONE_CPU_OR_FORKED, assert_no_child_left, counting_forks, make_corpus, tsv_rows


def build(capsys, monkeypatch, corpus, out, cpus, *extra):
    """(exit code, stdout, stderr, TSV bytes or None) of one build with the
    CPU probe reporting `cpus`, and the number of forks it made."""
    with monkeypatch.context() as patch:
        forks = counting_forks(patch, cpus)
        code = main(["build-nsp-dataset", "--corpus", str(corpus), "--out", str(out), *extra])
    captured = capsys.readouterr()
    tsv = out.read_bytes() if out.exists() else None
    return (code, captured.out, captured.err, tsv), len(forks)


@pytest.fixture
def corpus_of(tmp_path):
    def write(lyrics, seed=5):
        path = tmp_path / f"corpus-{lyrics}.jsonl"
        write_aligned_corpus(make_corpus(lyrics, seed=seed), path)
        return path

    return write


@pytest.mark.parametrize("lyrics", [1, 2, 3, 101])
@pytest.mark.parametrize("seed", range(5))
def test_forked_build_writes_the_serial_bytes(tmp_path, capsys, monkeypatch, corpus_of, lyrics, seed):
    corpus, out = corpus_of(lyrics, seed=seed), tmp_path / "nsp.tsv"
    serial, serial_forks = build(capsys, monkeypatch, corpus, out, 1, "--seed", str(seed))
    out.unlink()
    forked, forks = build(capsys, monkeypatch, corpus, out, 2, "--seed", str(seed))
    assert (serial_forks, forks) == (0, int(halves._split(corpus) is not None))
    assert forks or lyrics < 3  # a split needs a line break before the last line
    assert serial[0] == 0 and serial[1].count("\n") == 2 and serial[3]
    assert forked == serial
    assert_no_child_left()


@ONE_CPU_OR_FORKED
def test_each_lyric_is_checked_once_as_its_line_is_read(tmp_path, capsys, monkeypatch, corpus_of, cpus):
    # by whichever process reads its line; the builder checks nothing. Each
    # check appends its process and lyric to a file both processes share.
    log = tmp_path / "checked.txt"
    checked_lyric = nsp.checked_lyric

    def counted(lyric):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {serialize_lyric_line(lyric)}\n")
        return checked_lyric(lyric)

    monkeypatch.setattr(nsp, "checked_lyric", counted)
    corpus = corpus_of(7)
    (code, *_), forks = build(capsys, monkeypatch, corpus, tmp_path / "nsp.tsv", cpus)
    checks = [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
    assert (code, forks) == (0, cpus - 1)
    assert sorted(lyric for _, lyric in checks) == sorted(
        serialize_lyric_line(pair.lyric) for pair in load_aligned_corpus(corpus)
    )
    assert len({pid for pid, _ in checks}) == cpus
    assert_no_child_left()


# -- nsp-eval ---------------------------------------------------------------


@pytest.fixture(scope="module")
def scored_set(tmp_path_factory):
    """An LM file and the text of an NSP TSV of about 2,300 rows, both built
    from one 60-lyric corpus."""
    root = tmp_path_factory.mktemp("eval")
    pairs = make_corpus(60, seed=7)
    write_aligned_corpus(pairs, root / "corpus.jsonl")
    train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in pairs], 4, 0.1).save(root / "lm.json")
    assert main(["build-nsp-dataset", "--corpus", str(root / "corpus.jsonl"), "--out", str(root / "nsp.tsv")]) == 0
    return root / "lm.json", (root / "nsp.tsv").read_text(encoding="utf-8")


def evaluate(capsys, monkeypatch, dataset, lm, cpus):
    """(exit code, stdout, stderr) of one `nsp-eval` with the CPU probe
    reporting `cpus`, and the number of forks it made."""
    capsys.readouterr()
    with monkeypatch.context() as patch:
        forks = counting_forks(patch, cpus)
        code = main(["nsp-eval", "--dataset", str(dataset), "--lm", str(lm)])
    captured = capsys.readouterr()
    return (code, captured.out, captured.err), len(forks)


def split_line(data: bytes) -> int:
    """The 0-based number of the first line past the split `halves._split`
    takes in `data`: just past the first line break at or after the middle."""
    return data.count(b"\n", 0, data.index(b"\n", len(data) // 2) + 1)


@ONE_CPU_OR_FORKED
@pytest.mark.parametrize("ends", LINE_ENDS)
def test_forked_eval_prints_the_serial_stdout(tmp_path, capsys, monkeypatch, scored_set, ends, cpus):
    lm, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    dataset.write_bytes(LINE_ENDS["lf"](text).encode())
    expected, _ = evaluate(capsys, monkeypatch, dataset, lm, 1)
    dataset.write_bytes(LINE_ENDS[ends](text).encode())
    outcome, forks = evaluate(capsys, monkeypatch, dataset, lm, cpus)
    assert expected[0] == 0 and expected[1].count("\n") == 2
    assert (outcome, forks) == (expected, 0 if ends == "lone cr" else cpus - 1)
    assert_no_child_left()


@ONE_CPU_OR_FORKED
@pytest.mark.parametrize("where", ["just past the split", "last before the split", "last line"])
def test_a_bad_row_fails_as_it_fails_serially(tmp_path, capsys, monkeypatch, scored_set, where, cpus):
    # the TSV reader's part must raise a ValueError on a bad row in either half
    lm, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    lines = text.splitlines(keepends=True)
    first = split_line(text.encode())
    bad = {"just past the split": first, "last before the split": first - 1, "last line": len(lines) - 1}[where]
    lines[bad] = re.sub("\t[01]\n", "\t2\n", lines[bad])  # same length: the split stays where it was
    dataset.write_text("".join(lines), encoding="utf-8")
    assert halves._split(dataset) == len("".join(lines[:first]).encode())
    outcome, forks = evaluate(capsys, monkeypatch, dataset, lm, cpus)
    assert (outcome, forks) == ((2, "", f"error: {dataset}:{bad + 1}: bad label '2'\n"), cpus - 1)
    assert_no_child_left()


@ONE_CPU_OR_FORKED
def test_a_bad_byte_past_the_split_fails_as_it_fails_serially(tmp_path, capsys, monkeypatch, scored_set, cpus):
    # a decoding error names its position in the chunk decoded, not a line
    lm, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    data = text.encode()
    at = data.index(b"\n", len(data) // 2) + 40
    dataset.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    expected, _ = evaluate(capsys, monkeypatch, dataset, lm, 1)
    outcome, forks = evaluate(capsys, monkeypatch, dataset, lm, cpus)
    assert (outcome, forks) == (expected, cpus - 1)
    assert expected[:2] == (2, "")
    assert re.fullmatch(f"error: {re.escape(str(dataset))}: 'utf-8' codec can't decode byte 0xff in position "
                        "[0-9]+: invalid start byte\n", expected[2])
    assert_no_child_left()


@ONE_CPU_OR_FORKED
def test_forked_pairs_are_the_serial_pairs_in_file_order(tmp_path, monkeypatch, scored_set, cpus):
    lm_path, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    dataset.write_text(text, encoding="utf-8")
    lm = lm_module.CharNgramModel.load(lm_path)
    rows = tsv_rows(dataset)
    forks = counting_forks(monkeypatch, cpus)
    monkeypatch.setattr(nsp, "_BLOCK_HINT", 2048)  # several blocks on each side
    scored = lm.score_nsp_file(dataset)
    assert len(forks) == cpus - 1
    assert scored == [(lm.nsp_score(c, k), label) for c, k, label in rows]
    if cpus > 1:  # the child's pairs, before the parent's, share tuples as its scorer's did
        head = scored[: split_line(dataset.read_bytes())]
        alone = lm._scored_blocks(nsp.read_nsp_blocks(dataset, 0, halves._split(dataset)))
        assert head == alone
        assert len({id(pair) for pair in head}) == len({id(pair) for pair in alone}) < len(head)
    assert_no_child_left()
