"""Every input names the place of a content error one way.

For each of the six inputs (corpus JSONL, lyric lines, NSP TSV, melody text,
and the LM and generator model files), one bad file goes through a command
that reads it. The command must exit 2 with nothing on stdout and one stderr
line, `error: PATH: message` for a fault of the whole file, or
`error: PATH:LINE: message` where LINE is the 1-based file line, blank lines
counted. Each input is opened one way: a missing path fails with
`error: PATH: no such file`, and a directory or FIFO with
`error: PATH: not a regular file`, before anything is read.
"""

import contextlib
import json
import os
import re
import threading

import pytest

from syllabeam.cli import main
from syllabeam.corpus import build_vocabulary, render_text, write_aligned_corpus
from syllabeam.generator import train_generator
from syllabeam.lm import lyric_lm_text, train_char_ngram

from conftest import make_corpus

RECORD = '{"syllables": ["la", "mi"], "word_initial": [true, false], "notes": [[60, 1, 0], [62, 1, 0]]}'
ONE_SYLLABLE = '{"syllables": ["la"], "word_initial": [true], "notes": [[60, 1, 0]]}'
# a good record, a blank line, and a record with a misspelt key on line 3
CORPUS_BLANK_LINE = RECORD + "\n\n" + RECORD.replace('"syllables"', '"sylables"') + "\n"
CORPUS = ["--corpus", "{bad}", "--out", "{out}"]
EVALUATE = ["evaluate", "--candidates", "{good}/lyrics.txt", "--references", "{good}/lyrics.txt"]
EMIT = ["emit-prompt", "--set", "a={good}/lyrics.txt", "--set", "b={good}/lyrics.txt", "--set", "c={bad}"]
NSP_EVAL = ["nsp-eval", "--lm", "{good}/lm.json", "--dataset", "{bad}"]
NSP_EVAL_LM = ["nsp-eval", "--dataset", "{good}/nsp.tsv", "--lm", "{bad}"]
GENERATE = ["generate", "--melody", "{good}/melody.txt", "--generator", "{good}/gen.json", "--lm", "{good}/lm.json"]


def swap(argv, flag, value="{bad}"):
    """`argv` with the value after `flag` replaced."""
    at = argv.index(flag) + 1
    return [*argv[:at], value, *argv[at + 1:]]


def model(name, change):
    """The text of the good model file `name` once `change` has edited its JSON object."""

    def text(good):
        payload = json.loads((good / name).read_text(encoding="utf-8"))
        change(payload)
        return json.dumps(payload)

    return text


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A directory holding a good file of each input."""
    root = tmp_path_factory.mktemp("good")
    pairs = make_corpus(20, seed=5)
    write_aligned_corpus(pairs, root / "corpus.jsonl")
    train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in pairs], 4, 0.1).save(root / "lm.json")
    vocab = build_vocabulary([p.lyric for p in pairs])
    train_generator(pairs, vocab, 2, 0.1).save(root / "gen.json")
    (root / "melody.txt").write_text("60:1:0 62:0.5:0 64:1:0.5\n", encoding="utf-8")
    (root / "lyrics.txt").write_text("la _mi\nso fa\n", encoding="utf-8")
    (root / "nsp.tsv").write_text("i know\t_why\t1\n", encoding="utf-8")
    return root


# (the command, with "{bad}" for the bad file; the bad file's text, or a
# function of the good directory giving it; the place after PATH)
CASES = [
    pytest.param(["train-lm", *CORPUS], CORPUS_BLANK_LINE, ":3", id="corpus record, train-lm"),
    pytest.param(["train-generator", *CORPUS], CORPUS_BLANK_LINE, ":3", id="corpus record, train-generator"),
    pytest.param(["build-nsp-dataset", *CORPUS], CORPUS_BLANK_LINE, ":3", id="corpus record, build-nsp-dataset"),
    pytest.param(["train-lm", *CORPUS], RECORD + "\n{\n", ":2", id="corpus JSON"),
    # a lone carriage return ends a line, as a line feed does
    pytest.param(["train-generator", *CORPUS], RECORD + "\r{\n", ":2", id="corpus JSON after a lone CR"),
    # only an empty line is skipped: a line of blanks is a record, passed as written
    pytest.param(["train-lm", *CORPUS], RECORD + "\n  \n" + RECORD + "\n", ":2", id="corpus line of spaces"),
    pytest.param(["train-lm", *CORPUS], RECORD + "\n\n\u00a0\n", ":3", id="corpus no-break space line"),
    pytest.param(["train-generator", *CORPUS], RECORD + "\n\u00a0" + RECORD + "\u00a0\n", ":2",
                 id="corpus record padded with no-break spaces"),
    # past the reader's first chunk, so the decoding fails after lines were read
    pytest.param(["train-lm", *CORPUS], (RECORD + "\n").encode() * 200 + b"\xff\n", "", id="corpus not UTF-8"),
    pytest.param(["train-generator", *CORPUS], "\n\n", "", id="corpus empty"),
    pytest.param(["build-nsp-dataset", *CORPUS], ONE_SYLLABLE + "\n", ":1", id="corpus lyric of one syllable"),
    # the first bad line in file order is the one named
    pytest.param(["build-nsp-dataset", *CORPUS], RECORD + "\n" + ONE_SYLLABLE + "\n\n{\n", ":2",
                 id="corpus lyric of one syllable before a bad record"),
    pytest.param(swap(EVALUATE, "--candidates"), "la _mi\nso\nLA\n", ":3", id="candidate lyric line"),
    pytest.param(swap(EVALUATE, "--references"), "la _mi\n<eos>\n", ":2", id="reference without syllables"),
    pytest.param(swap(EVALUATE, "--references"), "la _mi\n\n<eos>\n", ":3",
                 id="reference without syllables after an empty line"),
    pytest.param(EMIT, "\nla <eos> mi\n", ":2", id="prompt lyric line"),
    pytest.param(NSP_EVAL, "i know\t_why\t1\n\ni know\t_why\t2\n", ":3", id="nsp row"),
    pytest.param(NSP_EVAL, "\n", "", id="nsp dataset empty"),
    pytest.param(swap(GENERATE, "--melody"), "60:1:0 61:x:0\n", "", id="melody"),
    # only ASCII spaces, tabs and line ends separate notes; other whitespace is part of a triplet
    *[pytest.param(swap(GENERATE, "--melody"), f"60:1:0{ch}62:1:0\n", "", id=f"melody separator {ch!r}")
      for ch in ["\u00a0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]],
    pytest.param(swap(GENERATE, "--lm"), model("lm.json", lambda p: p.update(version=2)), "", id="lm header"),
    pytest.param(swap(GENERATE, "--lm"), model("lm.json", lambda p: p.update(order=3)), "", id="lm content"),
    pytest.param(swap(GENERATE, "--generator"), model("gen.json", lambda p: p.update(format="x")), "",
                 id="generator header"),
    pytest.param(swap(GENERATE, "--generator"), model("gen.json", lambda p: p["vocabulary"].reverse()), "",
                 id="generator content"),
]


@pytest.mark.parametrize("argv, bad, place", CASES)
def test_an_input_error_names_its_file_and_line(tmp_path, capsys, good, argv, bad, place):
    path = tmp_path / "bad"
    text = bad(good) if callable(bad) else bad
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    code = main([arg.format(bad=path, good=good, out=tmp_path / "out") for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert re.fullmatch(f"error: {re.escape(str(path))}{place}: [^\n]+\n", captured.err), captured.err


@pytest.mark.parametrize("text", [b"la _mi\rso fa\n", b"la _mi\r\nso fa\r\n"])
def test_a_lone_cr_or_a_crlf_ends_one_line(tmp_path, capsys, good, text):
    """Inputs are read with universal newlines: a line feed, a CR LF pair and
    a lone carriage return each end one line, so each file holds two lyrics."""
    path = tmp_path / "lyrics.txt"
    path.write_bytes(text)
    assert main(["evaluate", "--json", "--candidates", str(path), "--references", str(good / "lyrics.txt")]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["pairs"] == 2


# each input through every command that reads it, "{bad}" standing for its path
READERS = [
    pytest.param(["train-lm", *CORPUS], id="corpus, train-lm"),
    pytest.param(["train-generator", *CORPUS], id="corpus, train-generator"),
    pytest.param(["build-nsp-dataset", *CORPUS], id="corpus, build-nsp-dataset"),
    pytest.param(swap(EVALUATE, "--candidates"), id="candidates"),
    pytest.param(swap(EVALUATE, "--references"), id="references"),
    pytest.param(EMIT, id="prompt lyric set"),
    pytest.param(NSP_EVAL, id="nsp dataset"),
    pytest.param(NSP_EVAL_LM, id="lm, nsp-eval"),
    pytest.param(swap(GENERATE, "--lm"), id="lm, generate"),
    pytest.param(swap(GENERATE, "--generator"), id="generator"),
    pytest.param(swap(GENERATE, "--melody"), id="melody"),
]


@contextlib.contextmanager
def released_after(fifo, seconds):
    """Open and close the write end of `fifo` once `seconds` have passed, so a
    reader that opened it sees it end rather than block the test run."""

    def release():
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader has it open
            pass

    timer = threading.Timer(seconds, release)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        timer.join(timeout=10)


@pytest.mark.parametrize("kind, message", [
    ("missing", "no such file"), ("directory", "not a regular file"), ("fifo", "not a regular file")
])
@pytest.mark.parametrize("argv", READERS)
def test_an_input_that_is_no_file_fails_before_it_is_read(tmp_path, capsys, good, argv, kind, message):
    path = tmp_path / "bad"
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    with released_after(path, 5.0):
        code = main([arg.format(bad=path, good=good, out=tmp_path / "out") for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {path}: {message}\n")
    assert not (tmp_path / "out").exists()
