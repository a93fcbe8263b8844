"""`build-nsp-dataset` builds on two processes where it can.

A forked child builds the rows of the second half of the lyrics while the
command writes the first half, and the command then copies the child's rows
after its own. Each lyric draws from its own substream, so the TSV and
stdout must equal those of the one-process path, which these tests force by
making the CPU probe report one CPU. The child must never outlive the
command, whether it succeeds, the child fails or the command itself fails.
"""

import os
import time

import pytest

from syllabeam import cli, nsp
from syllabeam.cli import main
from syllabeam.corpus import write_aligned_corpus

from conftest import make_corpus


def build(capsys, monkeypatch, corpus, out, cpus, *extra):
    """(exit code, stdout, stderr, TSV bytes or None) of one build with the
    CPU probe reporting `cpus`, and the number of forks it made."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr(nsp, "_cpus", lambda: cpus)
        patch.setattr(os, "fork", counted_fork)
        code = main(["build-nsp-dataset", "--corpus", str(corpus), "--out", str(out), *extra])
    captured = capsys.readouterr()
    tsv = out.read_bytes() if out.exists() else None
    return (code, captured.out, captured.err, tsv), len(forks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert (serial_forks, forks) == (0, int(lyrics > 1))
    assert serial[0] == 0 and serial[1].count("\n") == 2 and serial[3]
    assert forked == serial
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2], ids=["one cpu", "forked"])
def test_each_lyric_is_checked_twice(tmp_path, capsys, monkeypatch, corpus_of, cpus):
    # once as its line is read, once by write_dataset's check_corpus; the
    # builder checks nothing
    checked = []
    checked_lyric = nsp.checked_lyric

    def counted(lyric):
        checked.append(lyric)
        return checked_lyric(lyric)

    monkeypatch.setattr(cli, "checked_lyric", counted)
    monkeypatch.setattr(nsp, "checked_lyric", counted)
    (code, *_), forks = build(capsys, monkeypatch, corpus_of(7), tmp_path / "nsp.tsv", cpus)
    assert (code, forks, len(checked)) == (0, cpus - 1, 2 * 7)
    assert checked[:7] == checked[7:]
    assert_no_child_left()


def test_cpus_without_an_affinity_call_counts_the_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert nsp._cpus() == (os.cpu_count() or 1)


def test_a_failing_child_fails_the_command(tmp_path, capsys, monkeypatch, corpus_of):
    corpus, out = corpus_of(101), tmp_path / "nsp.tsv"
    substream = nsp.substream

    def failing_past_the_half(seed, index):
        if index >= 50:  # the child's lyrics
            raise RuntimeError("child failure")
        return substream(seed, index)

    monkeypatch.setattr(nsp, "substream", failing_past_the_half)
    (code, stdout, stderr, _), forks = build(capsys, monkeypatch, corpus, out, 2)
    assert (code, stdout, forks) == (1, "", 1)
    assert stderr == "error: the process building lyrics 50 to 100 exited with code 1\n"
    assert_no_child_left()


def test_a_failing_command_kills_its_child(tmp_path, capsys, monkeypatch, corpus_of):
    corpus, out = corpus_of(101), tmp_path / "nsp.tsv"
    substream = nsp.substream

    def hanging_child_failing_parent(seed, index):
        if index >= 50:
            time.sleep(60)  # the child's lyrics: only a kill ends it in time
        elif index == 49:
            raise ValueError("parent failure")
        return substream(seed, index)

    monkeypatch.setattr(nsp, "substream", hanging_child_failing_parent)
    start = time.monotonic()
    (code, stdout, stderr, _), forks = build(capsys, monkeypatch, corpus, out, 2)
    assert time.monotonic() - start < 30
    assert (code, stdout, stderr, forks) == (2, "", "error: parent failure\n", 1)
    assert_no_child_left()
