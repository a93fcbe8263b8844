"""Malformed model files, corpus records and NSP rows fail cleanly through the CLI.

Each case starts from a valid file, damages one thing, and runs the
command that reads it. Every case must exit 2 with exactly one `error:` line
on stderr and nothing on stdout: no traceback, and no header echoed before
the failure.
"""

import copy
import json
import math
import re

import pytest

from syllabeam import modelfile
from syllabeam.cli import main
from syllabeam.corpus import (
    BOS_TEXT,
    EOS_TEXT,
    Vocabulary,
    build_vocabulary,
    render_text,
    write_aligned_corpus,
)
from syllabeam.generator import MelodyConditionedNgram, train_generator
from syllabeam.lm import DEFAULT_ALPHABET, CharNgramModel, lyric_lm_text, train_char_ngram

from conftest import ONE_CPU_OR_FORKED, counting_forks, make_corpus

MELODY = "60:1:0 62:0.5:0 64:1:0.5 65:1:0 67:2:0\n"


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """The parsed JSON of a valid LM file and a valid generator file."""
    root = tmp_path_factory.mktemp("models")
    corpus = make_corpus(30, seed=211, min_syllables=6, max_syllables=12)
    texts = [lyric_lm_text(render_text(p.lyric)) for p in corpus]
    train_char_ngram(texts, order=4, k=0.1).save(root / "lm.json")
    vocab = build_vocabulary([p.lyric for p in corpus])
    train_generator(corpus, vocab, history=2, k=0.1).save(root / "gen.json")
    return {
        "lm": json.loads((root / "lm.json").read_text()),
        "gen": json.loads((root / "gen.json").read_text()),
    }


def field(name, value):
    def mutate(payload):
        payload[name] = value
        return payload

    return mutate


def without(name):
    def mutate(payload):
        del payload[name]
        return payload

    return mutate


def edit(fn):
    """A mutation that changes the payload in place through `fn`."""

    def mutate(payload):
        fn(payload)
        return payload

    return mutate


def header_cases(fmt, fields):
    """Each field deleted, and each given every listed wrong JSON type, with
    how its message starts once the file's path is taken out."""
    templates = {"format": f"not a {fmt} file", "version": f"unsupported {fmt} version {{!r}}"}
    cases = []
    for name, wrong in fields.items():
        missing = templates.get(name, f"missing field {name!r}").format(None)
        cases.append(pytest.param(without(name), missing, id=f"no-{name}"))
        template = templates.get(name, f"field {name!r} is not a JSON")
        for value in wrong:
            cases.append(pytest.param(field(name, value), template.format(value), id=f"{name}={json.dumps(value)}"))
    return cases


def whole(value, fmt):
    return pytest.param(lambda payload: value, f"not a {fmt} file", id=f"top-level {json.dumps(value)}")


def lm_context(level):
    """Any stored context of LM level `level`."""

    def pick(payload):
        return next(iter(payload["tables"][level]))

    return pick


def lm_counts(payload):
    level = payload["tables"][1]
    return level[next(iter(level))]


def set_first_count(value):
    def fn(payload):
        counts = lm_counts(payload)
        counts[next(iter(counts))] = value

    return fn


def rename_lm_context(level, new):
    def fn(payload):
        table = payload["tables"][level]
        table[new] = table.pop(lm_context(level)(payload))

    return fn


LM_ALPHABET = f"alphabet must be {DEFAULT_ALPHABET!r}"
COUNT = "is not a non-negative integer"

# (mutation, how the message starts once the file's path is taken out)
LM_CASES = header_cases(
    "syllabeam-charlm",
    {
        "format": [1, None],
        "version": ["1", True, 1.0, 2],
        "order": ["4", 4.0, True],
        "k": ["0.1", True, None],
        "alphabet": [["a", "b"], None],
        "tables": [{}, "x"],
    },
) + [
    whole([], "syllabeam-charlm"),
    whole("syllabeam-charlm", "syllabeam-charlm"),
    pytest.param(field("order", 5), "4 count levels for order 5", id="order 5, four levels"),
    pytest.param(field("order", 3), "4 count levels for order 3", id="order 3, four levels"),
    pytest.param(edit(lambda p: p.update(order=5, tables=p["tables"][:1])), "1 count levels for order 5",
                 id="order 5, one level"),
    pytest.param(edit(lambda p: p.update(tables=p["tables"][:2])), "2 count levels for order 4",
                 id="order 4, two levels"),
    pytest.param(edit(lambda p: p.update(order=0, tables=[])), "order must be >= 1", id="order 0"),
    pytest.param(field("k", -0.5), "smoothing k must be finite", id="negative k"),
    pytest.param(field("k", float("nan")), "smoothing k must be finite", id="k NaN"),
    pytest.param(field("k", float("inf")), "smoothing k must be finite", id="k Infinity"),
    pytest.param(field("alphabet", ""), LM_ALPHABET, id="empty alphabet"),
    pytest.param(field("alphabet", "aab"), LM_ALPHABET, id="alphabet with duplicates"),
    pytest.param(field("alphabet", DEFAULT_ALPHABET.replace("'", "")), LM_ALPHABET, id="alphabet without '"),
    pytest.param(field("alphabet", DEFAULT_ALPHABET + "9"), LM_ALPHABET, id="alphabet with a digit"),
    pytest.param(edit(set_first_count(1.7)), f"count 1.7 for 'b' {COUNT}", id="count 1.7"),
    pytest.param(edit(set_first_count(2.0)), f"count 2.0 for 'b' {COUNT}", id="count 2.0"),
    pytest.param(edit(set_first_count(True)), f"count True for 'b' {COUNT}", id="count true"),
    pytest.param(edit(set_first_count(-1)), f"count -1 for 'b' {COUNT}", id="count -1"),
    pytest.param(edit(set_first_count("3")), f"count '3' for 'b' {COUNT}", id="count string"),
    pytest.param(edit(set_first_count(None)), f"count None for 'b' {COUNT}", id="count null"),
    pytest.param(edit(lambda p: lm_counts(p).update({"9": 1})), "count key '9' is not",
                 id="count key out of alphabet"),
    pytest.param(edit(lambda p: lm_counts(p).update({"ab": 1})), "count key 'ab' is not",
                 id="count key of two characters"),
    pytest.param(edit(rename_lm_context(1, "9")), "character '9' at position 0 not in alphabet",
                 id="context out of alphabet"),
    pytest.param(edit(rename_lm_context(2, "a9")), "character '9' at position 1 not in alphabet",
                 id="context out of alphabet, level 2"),
    pytest.param(edit(rename_lm_context(2, "a")), "level-2 context 'a' has length 1", id="context too short"),
    pytest.param(edit(rename_lm_context(1, "ab")), "level-1 context 'ab' has length 2", id="context too long"),
    pytest.param(edit(lambda p: p["tables"].__setitem__(2, [])), "count level 2 is not a JSON object",
                 id="level is an array"),
    pytest.param(edit(lambda p: p["tables"][1].__setitem__("a", 3)), "a count table is not a JSON object",
                 id="count table is a number"),
    pytest.param(field("tabels", []), "unknown field 'tabels'", id="unknown field tabels"),
]


def gen_row(table):
    def pick(payload):
        return payload[table][0]

    return pick


def set_in_row(table, index, value):
    return edit(lambda p: gen_row(table)(p).__setitem__(index, value))


def retype_last_bucket(payload, index, kind):
    """Give the last hist_bucket row the first row's bucket, one value
    retyped: the bucket equals (==) a valid one already read."""
    bucket = list(payload["hist_bucket"][0][1])
    bucket[index] = kind(bucket[index])
    payload["hist_bucket"][-1][1] = bucket


def history_cases():
    bad = ["ab", ["<bos>"], [BOS_TEXT, BOS_TEXT, BOS_TEXT], [BOS_TEXT, "zzz"], [BOS_TEXT, 5],
           [BOS_TEXT, []], [BOS_TEXT, None], 2.0, None]
    return [
        pytest.param(set_in_row("hist_bucket", 0, value), f"history {value!r} is not 2 vocabulary entries",
                     id=f"hist_bucket history {json.dumps(value)}")
        for value in bad
    ]


def bucket_cases():
    bad = ["short", [0, 5, "short"], [0, 5, "short", True, 1], [0, 5, "short", 1],
           [0, 5, "short", 0], [0, 5, "tiny", True], [0.0, 5, "short", True],
           [True, 5, "short", True], [0, 5.0, "short", False], [[], 5, "short", True],
           [0, 5, ["short"], True], {"0": 5}, 5,
           # well typed, but no MIDI pitch 0-127 has it: [8, 10] would be pitch 128
           [12, 5, "short", True], [-1, 5, "short", True], [0, 11, "short", True],
           [0, -1, "short", True], [8, 10, "short", True]]
    return [
        pytest.param(set_in_row("hist_bucket", 1, value), f"bucket {value!r} {BUCKET}",
                     id=f"hist_bucket bucket {json.dumps(value)}")
        for value in bad
    ]


GEN_VOCABULARY = "vocabulary must be sorted, distinct entries without <bos> or <eos>"
NO_ROWS = "has no rows; a trained model always has some"
BUCKET = "is not a note's [pitch class 0-11, register 0-10, duration class, rest flag] or null"

GEN_CASES = header_cases(
    "syllabeam-generator",
    {
        "format": [1],
        "version": ["1", True, 1.0, 1],
        "bucketing": ["1", True, 1.0],
        "history": [2.0, "2", True],
        "k": ["0.1", False],
        "vocabulary": ["la", {}],
        "hist_bucket": [{}, 3],
    },
) + [
    # the tables the version-1 layout also stored, whatever their value
    pytest.param(field(name, value), f"unknown field {name!r}", id=f"{name}={json.dumps(value)}")
    for name, values in {"hist": [{}, None], "bucket": [{}, "x"], "unigram": [[], 0]}.items()
    for value in values
] + [
    whole([], "syllabeam-generator"),
    whole(None, "syllabeam-generator"),
    pytest.param(field("bucketing", 2), "unsupported bucketing version 2", id="bucketing 2"),
    pytest.param(field("history", 0), "history must be >= 1", id="history 0"),
    pytest.param(field("k", -1), "smoothing k must be finite", id="negative k"),
    pytest.param(field("k", float("nan")), "smoothing k must be finite", id="k NaN"),
    pytest.param(field("k", float("inf")), "smoothing k must be finite", id="k Infinity"),
    pytest.param(edit(lambda p: p["vocabulary"].append(5)), "vocabulary entries must be strings",
                 id="vocabulary number"),
    pytest.param(edit(lambda p: p["vocabulary"].append([])), "vocabulary entries must be strings",
                 id="vocabulary array"),
    pytest.param(edit(lambda p: p["vocabulary"].append("Not ok")), "illegal syllable text: 'Not ok'",
                 id="vocabulary illegal text"),
    pytest.param(edit(lambda p: p["vocabulary"].insert(0, p["vocabulary"][0])), GEN_VOCABULARY,
                 id="vocabulary duplicate"),
    pytest.param(edit(lambda p: p["vocabulary"].reverse()), GEN_VOCABULARY, id="vocabulary unsorted"),
    pytest.param(edit(lambda p: p["vocabulary"].insert(0, EOS_TEXT)), GEN_VOCABULARY,
                 id="vocabulary with the end token"),
    pytest.param(edit(lambda p: p["vocabulary"].insert(0, BOS_TEXT)), GEN_VOCABULARY, id="vocabulary with BOS"),
    pytest.param(edit(lambda p: p["hist_bucket"].__setitem__(0, 5)), "a 'hist_bucket' row is not a JSON array of 3",
                 id="hist_bucket row number"),
    pytest.param(edit(lambda p: gen_row("hist_bucket")(p).pop()), "a 'hist_bucket' row is not a JSON array of 3",
                 id="hist_bucket row short"),
    pytest.param(set_in_row("hist_bucket", 2, []), "a count table is not a JSON object",
                 id="hist_bucket counts array"),
    pytest.param(edit(lambda p: retype_last_bucket(p, 3, int)), f"bucket [0, 5, 'long', 0] {BUCKET}",
                 id="seen bucket with 0 or 1 for a bool"),
    pytest.param(edit(lambda p: retype_last_bucket(p, 0, float)), f"bucket [0.0, 5, 'long', False] {BUCKET}",
                 id="seen bucket with a float pitch"),
    pytest.param(edit(lambda p: p["hist_bucket"].insert(1, [*p["hist_bucket"][0][:2], {EOS_TEXT: 1}])),
                 "repeated 'hist_bucket' row for history", id="repeated hist_bucket row"),
    pytest.param(field("hist", [[[BOS_TEXT, BOS_TEXT], {EOS_TEXT: 1}]]), "unknown field 'hist'",
                 id="hist rows of version 1"),
    pytest.param(field("hist_bucket", []), f"'hist_bucket' {NO_ROWS}", id="no hist_bucket rows"),
    pytest.param(edit(lambda p: p.update(history=1_000_000, hist_bucket=[])), f"'hist_bucket' {NO_ROWS}",
                 id="history 1000000, no history rows"),
] + history_cases() + bucket_cases()


def run_generate(tmp_path, capsys, lm, gen, melody_text=MELODY):
    paths = {}
    for name, payload in (("lm", lm), ("gen", gen)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    melody = tmp_path / "melody.txt"
    melody.write_text(melody_text, encoding="utf-8")
    argv = ["generate", "--melody", str(melody), "--generator", str(paths["gen"]),
            "--lm", str(paths["lm"])]
    code = main(argv)
    return code, capsys.readouterr()


def assert_clean_failure(code, captured):
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_unmutated_files_decode(tmp_path, capsys, payloads):
    code, captured = run_generate(tmp_path, capsys, payloads["lm"], payloads["gen"])
    assert code == 0 and captured.err == ""
    assert len(captured.out.splitlines()) > 1


def assert_model_failure(tmp_path, name, code, captured, message):
    """A clean failure that names the model file `name` as its `PATH: `
    prefix, and whose message after it starts with `message`."""
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: {tmp_path / f'{name}.json'}: {message}")


@pytest.mark.parametrize("mutate, message", LM_CASES)
def test_lm_file(tmp_path, capsys, payloads, mutate, message):
    lm = mutate(copy.deepcopy(payloads["lm"]))
    assert_model_failure(tmp_path, "lm", *run_generate(tmp_path, capsys, lm, payloads["gen"]), message)


@pytest.mark.parametrize("mutate, message", GEN_CASES)
def test_generator_file(tmp_path, capsys, payloads, mutate, message):
    gen = mutate(copy.deepcopy(payloads["gen"]))
    assert_model_failure(tmp_path, "gen", *run_generate(tmp_path, capsys, payloads["lm"], gen), message)


DEEP = "[" * 100_000 + "]" * 100_000

LM_TINY = (
    '{"alphabet": "%s", "format": "syllabeam-charlm", "k": %s, "order": 1, "tables": [{}], '
    '"version": 1}'
)
# k overflows to infinity
LM_1E400 = LM_TINY % (DEFAULT_ALPHABET, "1e400")
# an alphabet other than the default one
LM_NO_ALPHABET = LM_TINY % ("", "1")
LM_NO_LETTERS = LM_TINY % ("a", "1")


@pytest.mark.parametrize(
    "text",
    ["", "{", '{"format": "syllabeam-charlm", "version": 1', "\xff", DEEP, LM_1E400, LM_NO_ALPHABET,
     LM_NO_LETTERS],
)
def test_lm_file_text(tmp_path, capsys, payloads, text):
    path = tmp_path / "lm.json"
    gen = tmp_path / "gen.json"
    melody = tmp_path / "melody.txt"
    path.write_text(text, encoding="latin-1")
    gen.write_text(json.dumps(payloads["gen"]))
    melody.write_text(MELODY)
    code = main(["generate", "--melody", str(melody), "--generator", str(gen), "--lm", str(path)])
    assert_model_failure(tmp_path, "lm", code, capsys.readouterr(), "")


def test_lm_file_with_k_1e400_fails_on_k(tmp_path):
    path = tmp_path / "lm.json"
    path.write_text(LM_1E400)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: smoothing k must be finite"):
        CharNgramModel.load(path)


@pytest.mark.parametrize(
    "melody",
    ["6_0:1:0", "\u0666\u0660:1:0", "60:1_0:0", "60:1:0_5", "60:\u0661:0", "60:1:nan", "60:inf:0", ""],
)
def test_melody_text(tmp_path, capsys, payloads, melody):
    code, captured = run_generate(tmp_path, capsys, payloads["lm"], payloads["gen"], melody + "\n")
    assert_clean_failure(code, captured)


@pytest.mark.parametrize("k", [float("nan"), float("inf"), -1])
def test_k_must_be_finite_and_non_negative(k):
    with pytest.raises(ValueError, match="must be finite"):
        CharNgramModel(2, k)
    with pytest.raises(ValueError, match="must be finite"):
        MelodyConditionedNgram(Vocabulary(["la"]), 2, k)


def test_integer_k_too_large_for_a_float_decodes(tmp_path, capsys, payloads):
    lm = {**payloads["lm"], "k": 10**400}
    gen = {**payloads["gen"], "k": 10**400}
    code, captured = run_generate(tmp_path, capsys, lm, gen)
    assert code == 0 and captured.err == ""


@pytest.mark.parametrize("table, row", [("hist_bucket", [[BOS_TEXT, BOS_TEXT], None])])
def test_generator_row_of_wrong_width(tmp_path, payloads, table, row):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({**payloads["gen"], table: [row]}))
    with pytest.raises(ValueError, match=f"a '{table}' row is not a JSON array of"):
        MelodyConditionedNgram.load(path)


def test_lm_zero_counts_load_as_unseen(tmp_path):
    path = tmp_path / "lm.json"
    tables = [{"": {"a": 0, "b": 0}}]
    path.write_text(json.dumps({"format": "syllabeam-charlm", "version": 1, "order": 1, "k": 0,
                                "alphabet": DEFAULT_ALPHABET, "tables": tables}))
    score = CharNgramModel.load(path).nsp_score("la", "a")
    assert math.isclose(score, 1 / len(DEFAULT_ALPHABET), rel_tol=0, abs_tol=1e-15)


GOOD_RECORD = {"syllables": ["hey", "you"], "word_initial": [True, True],
               "notes": [[60, 1.0, 0.0], [62, 1, 0]]}


def record_with(path, value):
    if not path:
        return value
    record = copy.deepcopy(GOOD_RECORD)
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return record


# (path to the damaged value, its value, how the message after "PATH:LINE: " starts)
CORPUS_CASES = [
    pytest.param(("notes", 0, 0), 60.7, "pitch must be", id="pitch 60.7"),
    pytest.param(("notes", 0, 0), 60.0, "pitch must be", id="pitch 60.0"),
    pytest.param(("notes", 0, 0), True, "pitch must be", id="pitch true"),
    pytest.param(("notes", 0, 0), "60", "pitch must be", id="pitch string"),
    pytest.param(("notes", 0, 0), None, "pitch must be", id="pitch null"),
    pytest.param(("word_initial", 1), "no", "word_initial flag 1 is not a JSON boolean", id="flag string"),
    pytest.param(("word_initial", 1), 1, "word_initial flag 1 is not a JSON boolean", id="flag 1"),
    pytest.param(("word_initial", 1), None, "word_initial flag 1 is not a JSON boolean", id="flag null"),
    pytest.param(("notes", 0, 1), "1.5", "duration must be", id="duration string"),
    pytest.param(("notes", 0, 1), True, "duration must be", id="duration true"),
    pytest.param(("notes", 0, 1), None, "duration must be", id="duration null"),
    pytest.param(("notes", 0, 2), "0", "rest must be", id="rest string"),
    pytest.param(("notes", 0, 2), False, "rest must be", id="rest false"),
    pytest.param(("notes", 0, 2), [0], "rest must be", id="rest array"),
    pytest.param(("notes", 0, 1), 10**400, "int too large", id="duration too large for a float"),
    pytest.param((), ["x"], "not a JSON object", id="record array"),
    pytest.param((), None, "not a JSON object", id="record null"),
    pytest.param(("syllables",), "ab", "'syllables' is not a JSON array", id="syllables string"),
    pytest.param(("syllables",), {"hey": 1, "you": 2}, "'syllables' is not a JSON array", id="syllables object"),
    pytest.param(("word_initial",), {"a": True, "b": True}, "'word_initial' is not a JSON array", id="flags object"),
    pytest.param(("notes",), "ab", "'notes' is not a JSON array", id="notes string"),
    pytest.param(("notes", 1), {"p": 60, "d": 1, "r": 0}, "note 1 is not a JSON array of 3", id="note object"),
    pytest.param(("notes", 1), "abc", "note 1 is not a JSON array of 3", id="note string"),
    pytest.param(("notes", 1), [60, 1], "note 1 is not a JSON array of 3", id="note of two"),
    pytest.param(("syllables", 1), 5, "syllable 1 is not a JSON string", id="syllable number"),
    pytest.param(("sylables",), ["hey", "you"], "unknown key 'sylables'", id="unknown key"),
]


def corpus_run(tmp_path, capsys, command, line, message=""):
    corpus = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(3, seed=5), corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    code = main([command, "--corpus", str(corpus), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: {corpus}:4: {message}")
    assert not (tmp_path / "out").exists()


COMMANDS = ["train-lm", "train-generator", "build-nsp-dataset"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("path, value, message", CORPUS_CASES)
def test_corpus_record(tmp_path, capsys, command, path, value, message):
    corpus_run(tmp_path, capsys, command, json.dumps(record_with(path, value)), message)


@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_record_nested_too_deeply(tmp_path, capsys, command):
    corpus_run(tmp_path, capsys, command, '{"notes": ' + DEEP + "}")


@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_record_with_a_repeated_key(tmp_path, capsys, command):
    """A second "syllables" list is not read in place of the first."""
    line = json.dumps(GOOD_RECORD)[:-1] + ', "syllables": ["hey", "hey"]}'
    corpus_run(tmp_path, capsys, command, line, "repeated key 'syllables'\n")


def test_corpus_record_after_a_byte_order_mark(tmp_path, capsys):
    """The record decoder, which json.loads would build per call, keeps its BOM message."""
    corpus_run(tmp_path, capsys, "train-lm", "\ufeff" + json.dumps(GOOD_RECORD), "Unexpected UTF-8 BOM")


# every row kind the builder writes: spaced and glued candidates, the end
# marker mid-context, and the end marker with its spacing flipped. Each NSP
# case runs on one CPU and forked, where the bad fifth row is in the part this
# process reads and the read is done again alone to report it.
NSP_ROWS = "i know\t_why\t1\ni know\twhy\t0\nmean to<eos> when\t_i\t0\ntel e phone\t_<eos>\t0\n"


def run_nsp_eval(tmp_path, capsys, monkeypatch, payloads, data: bytes, cpus=1):
    """(exit code, captured output) of `nsp-eval` with the CPU probe
    reporting `cpus`, and the number of forks it made."""
    dataset, lm = tmp_path / "nsp.tsv", tmp_path / "lm.json"
    dataset.write_bytes(data)
    lm.write_text(json.dumps(payloads["lm"]))
    with monkeypatch.context() as patch:
        forks = counting_forks(patch, cpus)
        code = main(["nsp-eval", "--dataset", str(dataset), "--lm", str(lm)])
    return (code, capsys.readouterr()), len(forks)


@ONE_CPU_OR_FORKED
def test_unmutated_nsp_rows_evaluate(tmp_path, capsys, monkeypatch, payloads, cpus):
    (code, captured), forks = run_nsp_eval(tmp_path, capsys, monkeypatch, payloads, NSP_ROWS.encode(), cpus)
    assert (code, captured.err, forks) == (0, "", cpus - 1)
    assert json.loads(captured.out.splitlines()[-1])["examples"] == 4


NSP_LINES = [
    pytest.param("i know\t\t1", id="empty candidate"),
    pytest.param("i know\tVe\t1", id="capital in candidate"),
    pytest.param("i know\t__ve\t1", id="two underscores"),
    pytest.param("i know\tve_\t1", id="trailing underscore"),
    pytest.param("i know\tve<eos>\t1", id="end marker inside candidate"),
    pytest.param("i know\t_w hy\t1", id="space in candidate"),
    pytest.param("i know\t$\t1", id="raw end character as candidate"),
    pytest.param("i kn$w\t_ve\t1", id="raw end character in context"),
    pytest.param("I know\t_ve\t1", id="capital in context"),
    pytest.param("i know<eo\t_ve\t1", id="cut end marker"),
    pytest.param("i 9\t_ve\t1", id="digit in context"),
    pytest.param("i\u00e9\t_ve\t1", id="accented letter in context"),
    pytest.param("\t_ve\t1", id="empty context"),
    pytest.param("\ufeffi know\t_ve\t1", id="byte order mark mid-file"),
    pytest.param("i know\t_ve\t2", id="label 2"),
    pytest.param("i know\t_ve\t 1", id="label with a space"),
    pytest.param("i know\t_ve", id="two columns"),
    pytest.param("i know\t_ve\t1\t", id="trailing tab"),
    pytest.param("i know\t_ve\t1\trandom", id="four columns"),
]


@ONE_CPU_OR_FORKED
@pytest.mark.parametrize("line", NSP_LINES)
def test_nsp_row(tmp_path, capsys, monkeypatch, payloads, line, cpus):
    data = (NSP_ROWS + line + "\n").encode()
    (code, captured), forks = run_nsp_eval(tmp_path, capsys, monkeypatch, payloads, data, cpus)
    assert forks == cpus - 1
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: {tmp_path / 'nsp.tsv'}:5: ")


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET.replace("'", ""), DEFAULT_ALPHABET + "9"])
def test_nsp_eval_rejects_an_lm_of_another_alphabet(tmp_path, capsys, monkeypatch, payloads, alphabet):
    lm = {**payloads["lm"], "alphabet": alphabet}
    (code, captured), _ = run_nsp_eval(tmp_path, capsys, monkeypatch, {"lm": lm}, NSP_ROWS.encode())
    assert_clean_failure(code, captured)
    assert captured.err == f"error: {tmp_path / 'lm.json'}: {LM_ALPHABET}\n"


@ONE_CPU_OR_FORKED
@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(b"\xef\xbb\xbf" + NSP_ROWS.encode(), ":1: bad context", id="byte order mark"),
        pytest.param(b"\xff" + NSP_ROWS.encode(), ": 'utf-8' codec can't decode", id="not UTF-8"),
        pytest.param(b"\n\n", ": dataset is empty", id="blank lines only"),
    ],
)
def test_nsp_file(tmp_path, capsys, monkeypatch, payloads, data, message, cpus):
    (code, captured), _ = run_nsp_eval(tmp_path, capsys, monkeypatch, payloads, data, cpus)
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: {tmp_path / 'nsp.tsv'}{message}")


class TestModelfile:
    SCHEMA = {"n": int, "x": float, "flag": bool, "name": str, "rows": list, "table": dict}
    FIELDS = {"n": 3, "x": 0.5, "flag": False, "name": "a", "rows": [], "table": {}}

    def test_round_trip_and_bytes(self, tmp_path):
        path = tmp_path / "m.json"
        modelfile.save(path, "fmt", 2, {"b": 1, "a": [2]})
        assert path.read_text() == '{"a": [2], "b": 1, "format": "fmt", "version": 2}\n'
        assert modelfile.load(path, "fmt", 2, {"a": list, "b": int}) == {
            "a": [2], "b": 1, "format": "fmt", "version": 2
        }

    def test_every_json_type_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        modelfile.save(path, "fmt", 1, {**self.FIELDS, "x": 2})
        assert modelfile.load(path, "fmt", 1, self.SCHEMA)["x"] == 2

    @pytest.mark.parametrize(
        "name, value",
        [("n", True), ("n", 3.0), ("x", False), ("x", "0.5"), ("flag", 0), ("name", None),
         ("rows", {}), ("table", [])],
    )
    def test_exact_json_type(self, tmp_path, name, value):
        path = tmp_path / "m.json"
        modelfile.save(path, "fmt", 1, {**self.FIELDS, name: value})
        with pytest.raises(ValueError, match=f"field '{name}' is not a JSON"):
            modelfile.load(path, "fmt", 1, self.SCHEMA)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_integer(self, tmp_path, version):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "fmt", "version": version}))
        with pytest.raises(ValueError, match="unsupported fmt version"):
            modelfile.load(path, "fmt", 1, {})

    @pytest.mark.parametrize("table", [{"a": 0, "b": 7}, {}])
    def test_counts_accepts(self, table):
        assert modelfile.counts(table, frozenset("ab")) is table

    @pytest.mark.parametrize(
        "table, message",
        [([], "not a JSON object"), ({"c": 1}, "count key 'c'"), ({"a": 1.0}, "count 1.0"),
         ({"a": True}, "count True"), ({"a": -1}, "count -1")],
    )
    def test_counts_rejects(self, table, message):
        with pytest.raises(ValueError, match=message):
            modelfile.counts(table, frozenset("ab"))


# -- lyric lines and numeric flags --------------------------------------------


def run_evaluate(tmp_path, capsys, candidates: str, references: str = "la _mi\nso fa\n"):
    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    cand.write_text(candidates, encoding="utf-8")
    ref.write_text(references, encoding="utf-8")
    code = main(["evaluate", "--candidates", str(cand), "--references", str(ref), "--json"])
    return code, capsys.readouterr(), str(cand)


@pytest.mark.parametrize(
    "line",
    [
        pytest.param("la\u00a0mi", id="no-break space"),
        pytest.param("la\x1cmi", id="file separator"),
        pytest.param("la\x0bmi", id="vertical tab"),
        pytest.param("la\x0cmi", id="form feed"),
        pytest.param("la\u2003mi", id="em space"),
        pytest.param("la\u3000mi", id="ideographic space"),
        pytest.param("la\x85mi", id="next line"),
        pytest.param("\u00a0", id="no-break space alone"),
        pytest.param("la _Mi", id="capital"),
        pytest.param("la <eos> mi", id="end token mid-line"),
        pytest.param("la __mi", id="two underscores"),
        pytest.param("_", id="bare underscore"),
        pytest.param(" \t ", id="blanks only"),
    ],
)
def test_lyric_line(tmp_path, capsys, line):
    code, captured, path = run_evaluate(tmp_path, capsys, "so fa\n" + line + "\n")
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: {path}:2: ")


@pytest.mark.parametrize(
    "line",
    [
        pytest.param("<eos>", id="end token alone"),
        pytest.param("la\t_mi", id="tab"),
        pytest.param("  la \t _mi\t", id="padding"),
    ],
)
def test_lyric_line_accepted(tmp_path, capsys, line):
    code, captured, _ = run_evaluate(tmp_path, capsys, line + "\nso fa\n")
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out.splitlines()[-1])["pairs"] == 2


def run_training(tmp_path, capsys, argv):
    """`argv` run on a small corpus, writing `out`: (exit code, captured, out)."""
    corpus = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(3, seed=5), corpus)
    out = tmp_path / "out"
    code = main(argv[:1] + ["--corpus", str(corpus), "--out", str(out)] + argv[1:])
    return code, capsys.readouterr(), out


@pytest.mark.parametrize(
    "argv",
    [
        ["train-lm", "--order", "1_0"],
        ["train-lm", "--order", "\u0663"],
        ["train-lm", "--k", "1_0.5"],
        ["train-lm", "--k", " 0.5"],
        ["train-generator", "--history", "\uff12"],
        ["build-nsp-dataset", "--seed", "0x10"],
        ["train-lm", "--order", "\uff13"],
        ["train-lm", "--order", "3.0"],
        ["train-lm", "--order", "0x3"],
        ["train-lm", "--order", ""],
        ["train-lm", "--k", "0,5"],
        ["train-lm", "--k", "\u0661.5"],
        ["train-generator", "--history", "+"],
        ["build-nsp-dataset", "--seed", "1e3"],
        ["build-nsp-dataset", "--spacing-negative-rate", "0.5.1"],
    ],
)
def test_numeric_flag(tmp_path, capsys, argv):
    code, captured, out = run_training(tmp_path, capsys, argv)
    assert code == 2 and captured.out == "" and not out.exists()
    kind = "float" if argv[1] in ("--k", "--spacing-negative-rate") else "int"
    assert captured.err.splitlines()[-1].endswith(f"invalid {kind} value: {argv[2]!r}")


def test_non_finite_k(tmp_path, capsys):
    code, captured, out = run_training(tmp_path, capsys, ["train-lm", "--k", "nan"])
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err == "error: smoothing k must be finite and >= 0\n"
