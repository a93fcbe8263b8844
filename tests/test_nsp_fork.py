"""Both NSP commands work on two processes where they can.

`build-nsp-dataset`: a forked child reads the corpus up to the first line
break at or after the middle byte and builds those lyrics' rows, while the
command does the same for the part past it, its substreams offset by the
records before the split; the command then writes the child's rows and its
own to `--out`. Each lyric draws from its own substream, so the TSV and
stdout must equal those of the one-process path.

`nsp-eval`: a forked child scores the TSV's bytes up to the first line
break at or after the middle byte while the command scores those past it,
and the command appends its own pairs after the child's. The pairs, and so
stdout, must equal those of the one-process path, and a bad line must fail
as it fails there.

These tests force the one-process path by making the CPU probe report one
CPU, and count the forks. The child must never outlive the command, whether
it succeeds, the child fails or the command itself fails.
"""

import os
import re
import time

import pytest

from syllabeam import lm as lm_module, nsp
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
    assert (serial_forks, forks) == (0, int(nsp._split(corpus) is not None))
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


def test_cpus_without_an_affinity_call_counts_the_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert nsp._cpus() == (os.cpu_count() or 1)


def child_part(corpus):
    """The split `nsp._split` takes in the corpus file, up to which the child
    reads, and the index of the first lyric past it, the command's first."""
    split = nsp._split(corpus)
    return split, len([line for line in corpus.read_bytes()[:split].splitlines() if line])


def test_a_failing_child_fails_the_command(tmp_path, capsys, monkeypatch, corpus_of):
    corpus, out = corpus_of(101), tmp_path / "nsp.tsv"
    split, first = child_part(corpus)
    substream = nsp.substream

    def failing_before_the_split(seed, index):
        if index < first:  # the child's lyrics
            raise RuntimeError("child failure")
        return substream(seed, index)

    monkeypatch.setattr(nsp, "substream", failing_before_the_split)
    (code, stdout, stderr, tsv), forks = build(capsys, monkeypatch, corpus, out, 2)
    assert (code, stdout, tsv, forks) == (1, "", None, 1)
    assert stderr == f"error: the process reading {corpus} up to byte {split} exited with code 1\n"
    assert_no_child_left()


def test_a_failing_command_kills_its_child(tmp_path, capsys, monkeypatch, corpus_of):
    corpus, out = corpus_of(101), tmp_path / "nsp.tsv"
    _, first = child_part(corpus)
    parent, substream = os.getpid(), nsp.substream

    def hanging_child_failing_parent(seed, index):
        if os.getpid() != parent:
            time.sleep(60)  # the child's lyrics: only a kill ends it in time
        elif index == first:  # the command's first lyric
            raise ValueError("parent failure")
        return substream(seed, index)

    monkeypatch.setattr(nsp, "substream", hanging_child_failing_parent)
    start = time.monotonic()
    (code, stdout, stderr, tsv), forks = build(capsys, monkeypatch, corpus, out, 2)
    assert time.monotonic() - start < 30
    # a ValueError: the corpus is read again in this process, which fails alike
    assert (code, stdout, stderr, tsv, forks) == (2, "", "error: parent failure\n", None, 1)
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
    """The 0-based number of the first line past the split `nsp._split`
    takes in `data`: just past the first line break at or after the middle."""
    return data.count(b"\n", 0, data.index(b"\n", len(data) // 2) + 1)


@pytest.mark.parametrize(
    "data",
    [b"", b"\n", b"a\n", b"ab\n", b"a\nb", b"a\nbc\n", b"ab\ncd\nef\n", b"abc\r\nde\r\nf", b"ab\rcd\ref\r",
     b"abcdef\n", b"\n\n\n\n", b"abcd\nefgh\nij"],
)
def test_the_split_lies_just_past_a_line_break_at_or_after_the_middle(tmp_path, data):
    path = tmp_path / "nsp.tsv"
    path.write_bytes(data)
    mid = len(data) // 2
    at = data.find(b"\n", mid)
    expected = at + 1 if 0 <= at < len(data) - 1 else None
    assert nsp._split(path) == expected
    if expected is not None:
        assert data[expected - 1 : expected] == b"\n" and b"\n" not in data[mid : expected - 1]


def test_no_split_of_a_path_that_is_not_a_regular_file(tmp_path):
    assert nsp._split(tmp_path) is None and nsp._split(tmp_path / "missing") is None


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
        alone = lm._scored_blocks(nsp.read_nsp_blocks(dataset, 0, nsp._split(dataset)))
        assert head == alone
        assert len({id(pair) for pair in head}) == len({id(pair) for pair in alone}) < len(head)
    assert_no_child_left()


def bad_lines(data: bytes) -> dict[str, int]:
    """The 0-based numbers of the lines a bad-row test breaks: the first one
    past the split, the last before it, and the last line."""
    first = split_line(data)
    return {"just past the split": first, "last before the split": first - 1, "last line": data.count(b"\n") - 1}


@ONE_CPU_OR_FORKED
@pytest.mark.parametrize("where", ["just past the split", "last before the split", "last line"])
def test_a_bad_row_fails_as_it_fails_serially(tmp_path, capsys, monkeypatch, scored_set, where, cpus):
    lm, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    lines = text.splitlines(keepends=True)
    bad = bad_lines(text.encode())[where]
    lines[bad] = re.sub("\t[01]\n", "\t2\n", lines[bad])  # same length: the split stays where it was
    dataset.write_text("".join(lines), encoding="utf-8")
    assert nsp._split(dataset) == len("".join(lines[: split_line(text.encode())]).encode())
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


def before_each_continuation(monkeypatch, call):
    """Make each continuation first call `call(in_child)`, `in_child` true in
    the forked child and false in this process."""
    parent, continuation = os.getpid(), lm_module.CharNgramModel._continuation

    def called_first(self, suffix, candidate):
        call(os.getpid() != parent)
        return continuation(self, suffix, candidate)

    monkeypatch.setattr(lm_module.CharNgramModel, "_continuation", called_first)


def test_a_failing_scoring_child_fails_the_command(tmp_path, capsys, monkeypatch, scored_set):
    lm, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    dataset.write_text(text, encoding="utf-8")

    def failing_child(in_child):
        if in_child:
            raise RuntimeError("child failure")

    before_each_continuation(monkeypatch, failing_child)
    outcome, forks = evaluate(capsys, monkeypatch, dataset, lm, 2)
    message = f"error: the process reading {dataset} up to byte {nsp._split(dataset)} exited with code 1\n"
    assert (outcome, forks) == ((1, "", message), 1)
    assert_no_child_left()


def test_a_failing_eval_kills_its_child(tmp_path, capsys, monkeypatch, scored_set):
    lm, text = scored_set
    dataset = tmp_path / "nsp.tsv"
    dataset.write_text(text, encoding="utf-8")

    def hanging_child_failing_parent(in_child):
        if in_child:
            time.sleep(60)  # only a kill ends it in time
        raise ValueError("parent failure")

    before_each_continuation(monkeypatch, hanging_child_failing_parent)
    start = time.monotonic()
    outcome, forks = evaluate(capsys, monkeypatch, dataset, lm, 2)
    assert time.monotonic() - start < 30
    # a ValueError: the file is scored again in this process, which fails alike
    assert (outcome, forks) == ((2, "", "error: parent failure\n"), 1)
    assert_no_child_left()
