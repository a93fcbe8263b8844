"""The two-process reader's contract, for any `part`.

`halves.halves(path, part)` must return `part(0, None)`, or raise its
ValueError, whatever the file holds, its line ends and the CPUs free. Where
it forks, a child that fails fails the read, and a read that fails in this
process kills and reaps the child. The readers built on it (the CLI's corpus
reads, `nsp.write_dataset` and `lm.CharNgramModel.score_nsp_file`) keep only
their own checks, in `test_corpus_fork.py` and `test_nsp_fork.py`.
"""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam import halves

from conftest import assert_no_child_left, counting_forks


def file_of(lines, last, bad):
    """The bytes of `lines`, (text, line end) pairs, and of a `last` line
    with no end, the line at index `bad` marked bad by a `!`."""
    return "".join(text + "!" * (i == bad) + end for i, (text, end) in enumerate([*lines, (last, "")])).encode()


# files of up to 9 lines, each ending in any line end but the last, at most one bad
LINE = st.text("ab", max_size=4)
FILES = st.builds(
    file_of, st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8), LINE,
    st.none() | st.integers(0, 8),
)


def lines_of(path):
    """A `part`: the lines of the bytes from `start` up to `stop`, their line
    breaks kept, or a ValueError naming the first line holding `!`, the
    lines counted from 1 at `start`."""

    def part(start, stop):
        with open(path, "rb") as fh:
            fh.seek(start)
            lines = fh.read(None if stop is None else stop - start).splitlines(keepends=True)
        for number, line in enumerate(lines, 1):
            if b"!" in line:
                raise ValueError(f"line {number}: {line!r}")
        return lines

    return part


def outcome(call):
    """What `call()` returns, or the message of its ValueError."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("halves") / "file.txt"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=FILES, cpus=st.sampled_from([1, 2]))
def test_halves_is_the_one_process_read(path, data, cpus):
    path.write_bytes(data)
    part = lines_of(path)
    with pytest.MonkeyPatch.context() as patch:
        forks = counting_forks(patch, cpus)
        assert outcome(lambda: halves.halves(path, part)) == outcome(lambda: part(0, None))
    assert len(forks) == (cpus > 1 and halves._split(path) is not None)
    assert_no_child_left()


@pytest.mark.parametrize(
    "data",
    [b"", b"\n", b"a\n", b"ab\n", b"a\nb", b"a\nbc\n", b"ab\ncd\nef\n", b"abc\r\nde\r\nf", b"ab\rcd\ref\r",
     b"abcdef\n", b"\n\n\n\n", b"abcd\nefgh\nij"],
)
def test_the_split_lies_just_past_a_line_break_at_or_after_the_middle(tmp_path, data):
    path = tmp_path / "file.txt"
    path.write_bytes(data)
    mid = len(data) // 2
    at = data.find(b"\n", mid)
    expected = at + 1 if 0 <= at < len(data) - 1 else None
    assert halves._split(path) == expected
    if expected is not None:
        assert data[expected - 1 : expected] == b"\n" and b"\n" not in data[mid : expected - 1]


def test_no_split_of_a_path_that_is_not_a_regular_file(tmp_path):
    assert halves._split(tmp_path) is None and halves._split(tmp_path / "missing") is None


def test_cpus_without_an_affinity_call_counts_the_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert halves._cpus() == (os.cpu_count() or 1)


@pytest.fixture
def forked(tmp_path, monkeypatch):
    """A file `halves` splits at its byte 8 on two CPUs, and the fork count."""
    path = tmp_path / "file.txt"
    path.write_bytes(b"abc\ndef\nghi\n")
    return path, counting_forks(monkeypatch, 2)


PARENT = os.getpid()


def in_child():
    return os.getpid() != PARENT


@pytest.mark.parametrize("error, code", [(RuntimeError, 1), (ValueError, 2)])
def test_a_failing_child_fails_the_body(error, code):
    def child():
        raise error("child failure")

    raised = ValueError if code == 2 else ChildProcessError
    with pytest.raises(raised, match=f"^the process doing it exited with code {code}$"):
        with halves._forked(child, "doing it"):
            pass
    assert_no_child_left()


def test_a_failing_child_fails_the_read(forked):
    path, forks = forked

    def part(start, stop):
        if in_child():
            raise RuntimeError("child failure")
        return [start]

    with pytest.raises(ChildProcessError, match=f"^the process reading {path} up to byte 8 exited with code 1$"):
        halves.halves(path, part)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_a_failing_read_kills_and_reaps_its_child(forked, error):
    path, forks = forked

    def part(start, stop):
        if in_child():
            time.sleep(60)  # only a kill ends it in time
        raise error("parent failure")

    begin = time.monotonic()
    with pytest.raises(error, match="^parent failure$"):  # a ValueError: read again alone, which fails alike
        halves.halves(path, part)
    assert time.monotonic() - begin < 30 and len(forks) == 1
    assert_no_child_left()
