"""The three commands that read the corpus read it on two processes where
they can.

`train-lm`, `train-generator` and `build-nsp-dataset` each read the corpus
in `nsp.halves`: a forked child reads the bytes up to the first line break
at or after the middle byte while the command reads those past it, and the
child ships back what the command keeps of each record (an LM text, a
training record, or its lyrics' counts, their rows in a file of its own).
Each part is read once, by its own process.
Model files, the TSV and stdout must equal those of the one-process path,
and bad input must fail as it fails there, with `--out` neither created nor
truncated.

These tests force the one-process path by making the CPU probe report one
CPU, and count the forks. The child must never outlive the command, whether
it succeeds, the child fails or the command itself fails.
"""

import os
import time

import pytest

from syllabeam import cli, nsp
from syllabeam.cli import main
from syllabeam.corpus import read_lines, write_aligned_corpus

from conftest import LINE_ENDS, ONE_CPU_OR_FORKED, assert_no_child_left, counting_forks, make_corpus

COMMANDS = {
    "train-lm": [],
    "train-generator": [],
    "build-nsp-dataset": ["--seed", "3"],
}
EACH_COMMAND = pytest.mark.parametrize("command", COMMANDS)
OLD_OUT = b"an earlier file\n"


@pytest.fixture(scope="module")
def lf_text(tmp_path_factory):
    """The text of a 60-lyric corpus file, each line ending in `\\n`."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_aligned_corpus(make_corpus(60, seed=11), path)
    return path.read_text(encoding="utf-8")


def run(capsys, monkeypatch, command, corpus, out, cpus):
    """(exit code, stdout, stderr, bytes of `out` or None) of one command with
    the CPU probe reporting `cpus`, and the number of forks it made."""
    capsys.readouterr()
    with monkeypatch.context() as patch:
        forks = counting_forks(patch, cpus)
        code = main([command, "--corpus", str(corpus), "--out", str(out), *COMMANDS[command]])
    captured = capsys.readouterr()
    return (code, captured.out, captured.err, out.read_bytes() if out.exists() else None), len(forks)


def first_past_the_split(data: bytes) -> int:
    """The 0-based number of the first line past the split `nsp._split`
    takes in `data`."""
    return data.count(b"\n", 0, data.index(b"\n", len(data) // 2) + 1)


@EACH_COMMAND
@ONE_CPU_OR_FORKED
@pytest.mark.parametrize("ends", LINE_ENDS)
def test_forked_read_writes_the_serial_bytes(tmp_path, capsys, monkeypatch, lf_text, command, ends, cpus):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    corpus.write_bytes(lf_text.encode())
    expected, _ = run(capsys, monkeypatch, command, corpus, out, 1)
    out.unlink()
    corpus.write_bytes(LINE_ENDS[ends](lf_text).encode())
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, cpus)
    assert expected[0] == 0 and expected[1].count("\n") == 2 and expected[3]
    assert (outcome, forks) == (expected, 0 if ends == "lone cr" else cpus - 1)
    assert_no_child_left()


@EACH_COMMAND
def test_each_part_is_read_once_by_its_process(tmp_path, capsys, monkeypatch, lf_text, command):
    # the output and the fork count alone would not show a part read again
    corpus, out, log = tmp_path / "corpus.jsonl", tmp_path / "out", tmp_path / "parts.txt"
    corpus.write_text(lf_text, encoding="utf-8")
    parent, halves = os.getpid(), nsp.halves

    def logged_halves(path, part):
        def logged_part(start, stop):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid() != parent} {start} {stop}\n")
            return part(start, stop)

        return halves(path, logged_part)

    monkeypatch.setattr(cli, "halves", logged_halves)
    monkeypatch.setattr(nsp, "halves", logged_halves)
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, 2)
    split = nsp._split(corpus)
    assert (outcome[0], forks) == (0, 1)
    assert sorted(log.read_text(encoding="utf-8").splitlines()) == [f"False {split} None", f"True 0 {split}"]
    assert_no_child_left()


@pytest.mark.parametrize("ends", LINE_ENDS)
def test_the_records_before_the_split_are_those_read(tmp_path, lf_text, ends):
    # the build command's first substream index
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(LINE_ENDS[ends](lf_text.replace("\n", "\r\n", 3)).encode())
    split = nsp._split(corpus)
    if split is None:
        assert ends == "lone cr"
        split = len(lf_text) // 2  # no line starts here: the count runs to the next break
    count = sum(1 for _ in read_lines(corpus, str, 0, split))
    assert 0 < nsp._records_before(corpus, split) == count < 61


def test_the_records_before_a_byte_are_counted_a_block_at_a_time(tmp_path, monkeypatch):
    # each kind of line end, cut at every byte and between any two blocks
    path = tmp_path / "corpus.jsonl"
    data = b"ab\r\n\r\ncd\ref\n\n\rg\r\n\nh"
    path.write_bytes(data)
    expected = [len(list(filter(None, data[:stop].splitlines()))) for stop in range(len(data) + 2)]
    for hint in (1, 2, 3, 1 << 14):
        monkeypatch.setattr(nsp, "_BLOCK_HINT", hint)
        assert [nsp._records_before(path, stop) for stop in range(len(data) + 2)] == expected


@EACH_COMMAND
@ONE_CPU_OR_FORKED
@pytest.mark.parametrize("existing", [OLD_OUT, None], ids=["out exists", "out missing"])
@pytest.mark.parametrize("where", ["last before the split", "just past the split", "last line"])
def test_a_bad_record_fails_as_it_fails_serially(
    tmp_path, capsys, monkeypatch, lf_text, command, where, existing, cpus
):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    lines = lf_text.splitlines(keepends=True)
    first = first_past_the_split(lf_text.encode())
    bad = {"last before the split": first - 1, "just past the split": first, "last line": len(lines) - 1}[where]
    lines[bad] = lines[bad].replace('"syllables"', '"syllablez"')  # same length: the split stays
    corpus.write_text("".join(lines), encoding="utf-8")
    assert nsp._split(corpus) == len("".join(lines[:first]).encode())
    if existing is not None:
        out.write_bytes(existing)
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, cpus)
    message = f"error: {corpus}:{bad + 1}: unknown key 'syllablez'\n"
    assert (outcome, forks) == ((2, "", message, existing), cpus - 1)
    assert_no_child_left()


@EACH_COMMAND
@ONE_CPU_OR_FORKED
def test_a_bad_byte_past_the_split_fails_as_it_fails_serially(tmp_path, capsys, monkeypatch, lf_text, command, cpus):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    data = lf_text.encode()
    at = data.index(b"\n", len(data) // 2) + 40
    corpus.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    expected, _ = run(capsys, monkeypatch, command, corpus, out, 1)
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, cpus)
    assert (outcome, forks) == (expected, cpus - 1)
    assert expected[:2] == (2, "") and expected[3] is None
    assert expected[2].startswith(f"error: {corpus}: 'utf-8' codec can't decode byte 0xff in position ")
    assert_no_child_left()


@EACH_COMMAND
@ONE_CPU_OR_FORKED
def test_a_blank_only_corpus_is_empty(tmp_path, capsys, monkeypatch, command, cpus):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    corpus.write_bytes(b"\n\n\r\n\n")
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, cpus)
    assert (outcome, forks) == ((2, "", f"error: {corpus}: corpus is empty\n", None), cpus - 1)
    assert_no_child_left()


def before_each_read(monkeypatch, call):
    """Make each corpus read first call `call(in_child)`, `in_child` true in
    the forked child and false in this process."""
    parent = os.getpid()

    def called_first(*args):
        call(os.getpid() != parent)
        return read_lines(*args)

    monkeypatch.setattr(cli, "read_lines", called_first)
    monkeypatch.setattr(nsp, "read_lines", called_first)


@EACH_COMMAND
def test_a_failing_child_fails_the_command(tmp_path, capsys, monkeypatch, lf_text, command):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    corpus.write_text(lf_text, encoding="utf-8")
    out.write_bytes(OLD_OUT)

    def failing_child(in_child):
        if in_child:
            raise RuntimeError("child failure")

    before_each_read(monkeypatch, failing_child)
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, 2)
    message = f"error: the process reading {corpus} up to byte {nsp._split(corpus)} exited with code 1\n"
    assert (outcome, forks) == ((1, "", message, OLD_OUT), 1)
    assert_no_child_left()


@EACH_COMMAND
def test_a_failing_command_kills_its_child(tmp_path, capsys, monkeypatch, lf_text, command):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    corpus.write_text(lf_text, encoding="utf-8")

    def hanging_child_failing_parent(in_child):
        if in_child:
            time.sleep(60)  # only a kill ends it in time
        raise ValueError("parent failure")

    before_each_read(monkeypatch, hanging_child_failing_parent)
    start = time.monotonic()
    outcome, forks = run(capsys, monkeypatch, command, corpus, out, 2)
    assert time.monotonic() - start < 30
    # a ValueError: the corpus is read again in this process, which fails alike
    assert (outcome, forks) == ((2, "", "error: parent failure\n", None), 1)
    assert_no_child_left()
