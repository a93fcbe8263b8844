"""Malformed model files, corpus records and NSP rows fail cleanly through the CLI.

Each case starts from a valid file, damages one thing, and runs the
command that reads it. Every case must exit 2 with exactly one `error:` line
on stderr and nothing on stdout: no traceback, and no header echoed before
the failure.
"""

import copy
import json

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
from syllabeam.lm import CharNgramModel, lyric_lm_text, train_char_ngram

from conftest import make_corpus

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


def header_cases(fields):
    """Each field deleted, and each given every listed wrong JSON type."""
    cases = []
    for name, wrong in fields.items():
        cases.append(pytest.param(without(name), id=f"no-{name}"))
        for value in wrong:
            cases.append(pytest.param(field(name, value), id=f"{name}={json.dumps(value)}"))
    return cases


def whole(value):
    return pytest.param(lambda payload: value, id=f"top-level {json.dumps(value)}")


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


LM_CASES = header_cases(
    {
        "format": [1, None],
        "version": ["1", True, 1.0, 2],
        "order": ["4", 4.0, True],
        "k": ["0.1", True, None],
        "alphabet": [["a", "b"], None],
        "tables": [{}, "x"],
    }
) + [
    whole([]),
    whole("syllabeam-charlm"),
    pytest.param(field("order", 5), id="order 5, four levels"),
    pytest.param(field("order", 3), id="order 3, four levels"),
    pytest.param(edit(lambda p: p.update(order=5, tables=p["tables"][:1])), id="order 5, one level"),
    pytest.param(edit(lambda p: p.update(tables=p["tables"][:2])), id="order 4, two levels"),
    pytest.param(edit(lambda p: p.update(order=0, tables=[])), id="order 0"),
    pytest.param(field("k", -0.5), id="negative k"),
    pytest.param(field("k", float("nan")), id="k NaN"),
    pytest.param(field("k", float("inf")), id="k Infinity"),
    pytest.param(field("alphabet", ""), id="empty alphabet"),
    pytest.param(field("alphabet", "aab"), id="alphabet with duplicates"),
    pytest.param(edit(set_first_count(1.7)), id="count 1.7"),
    pytest.param(edit(set_first_count(2.0)), id="count 2.0"),
    pytest.param(edit(set_first_count(True)), id="count true"),
    pytest.param(edit(set_first_count(-1)), id="count -1"),
    pytest.param(edit(set_first_count("3")), id="count string"),
    pytest.param(edit(set_first_count(None)), id="count null"),
    pytest.param(edit(lambda p: lm_counts(p).update({"9": 1})), id="count key out of alphabet"),
    pytest.param(edit(lambda p: lm_counts(p).update({"ab": 1})), id="count key of two characters"),
    pytest.param(edit(rename_lm_context(1, "9")), id="context out of alphabet"),
    pytest.param(edit(rename_lm_context(2, "a9")), id="context out of alphabet, level 2"),
    pytest.param(edit(rename_lm_context(2, "a")), id="context too short"),
    pytest.param(edit(rename_lm_context(1, "ab")), id="context too long"),
    pytest.param(edit(lambda p: p["tables"].__setitem__(2, [])), id="level is an array"),
    pytest.param(edit(lambda p: p["tables"][1].__setitem__("a", 3)), id="count table is a number"),
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
        pytest.param(set_in_row(table, 0, value), id=f"{table} history {json.dumps(value)}")
        for table in ("hist_bucket", "hist")
        for value in bad
    ]


def bucket_cases():
    bad = ["short", [0, 5, "short"], [0, 5, "short", True, 1], [0, 5, "short", 1],
           [0, 5, "short", 0], [0, 5, "tiny", True], [0.0, 5, "short", True],
           [True, 5, "short", True], [0, 5.0, "short", False], [[], 5, "short", True],
           [0, 5, ["short"], True], {"0": 5}, 5]
    return [
        pytest.param(set_in_row(table, index, value), id=f"{table} bucket {json.dumps(value)}")
        for table, index in (("hist_bucket", 1), ("bucket", 0))
        for value in bad
    ]


GEN_CASES = header_cases(
    {
        "format": [1],
        "version": ["1", True, 1.0],
        "bucketing": ["1", True, 1.0],
        "history": [2.0, "2", True],
        "k": ["0.1", False],
        "vocabulary": ["la", {}],
        "hist_bucket": [{}, 3],
        "hist": [{}, None],
        "bucket": [{}, "x"],
        "unigram": [[], 0],
    }
) + [
    whole([]),
    whole(None),
    pytest.param(field("bucketing", 2), id="bucketing 2"),
    pytest.param(field("history", 0), id="history 0"),
    pytest.param(field("k", -1), id="negative k"),
    pytest.param(field("k", float("nan")), id="k NaN"),
    pytest.param(field("k", float("inf")), id="k Infinity"),
    pytest.param(edit(lambda p: p["vocabulary"].append(5)), id="vocabulary number"),
    pytest.param(edit(lambda p: p["vocabulary"].append([])), id="vocabulary array"),
    pytest.param(edit(lambda p: p["vocabulary"].append("Not ok")), id="vocabulary illegal text"),
    pytest.param(edit(lambda p: p["vocabulary"].insert(0, p["vocabulary"][0])), id="vocabulary duplicate"),
    pytest.param(edit(lambda p: p["vocabulary"].reverse()), id="vocabulary unsorted"),
    pytest.param(edit(lambda p: p["vocabulary"].insert(0, EOS_TEXT)), id="vocabulary with the end token"),
    pytest.param(edit(lambda p: p["vocabulary"].insert(0, BOS_TEXT)), id="vocabulary with BOS"),
    pytest.param(edit(lambda p: p["hist_bucket"].__setitem__(0, 5)), id="hist_bucket row number"),
    pytest.param(edit(lambda p: p["hist"].__setitem__(0, None)), id="hist row null"),
    pytest.param(edit(lambda p: p["bucket"].__setitem__(0, "ab")), id="bucket row string"),
    pytest.param(edit(lambda p: gen_row("hist_bucket")(p).pop()), id="hist_bucket row short"),
    pytest.param(edit(lambda p: gen_row("hist")(p).append({})), id="hist row long"),
    pytest.param(set_in_row("hist_bucket", 2, []), id="hist_bucket counts array"),
    pytest.param(set_in_row("hist", 1, 4), id="hist counts number"),
    pytest.param(set_in_row("bucket", 1, {"zzz": 1}), id="bucket counts key outside vocabulary"),
    pytest.param(set_in_row("hist", 1, {EOS_TEXT: -2}), id="hist counts negative"),
    pytest.param(edit(lambda p: retype_last_bucket(p, 3, int)), id="seen bucket with 0 or 1 for a bool"),
    pytest.param(edit(lambda p: retype_last_bucket(p, 0, float)), id="seen bucket with a float pitch"),
    pytest.param(field("hist_bucket", []), id="no hist_bucket rows"),
    pytest.param(field("hist", []), id="no hist rows"),
    pytest.param(edit(lambda p: p.update(history=1_000_000, hist_bucket=[], hist=[])),
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


@pytest.mark.parametrize("mutate", LM_CASES)
def test_lm_file(tmp_path, capsys, payloads, mutate):
    lm = mutate(copy.deepcopy(payloads["lm"]))
    assert_clean_failure(*run_generate(tmp_path, capsys, lm, payloads["gen"]))


@pytest.mark.parametrize("mutate", GEN_CASES)
def test_generator_file(tmp_path, capsys, payloads, mutate):
    gen = mutate(copy.deepcopy(payloads["gen"]))
    assert_clean_failure(*run_generate(tmp_path, capsys, payloads["lm"], gen))


DEEP = "[" * 100_000 + "]" * 100_000

LM_TINY = (
    '{"alphabet": "%s", "format": "syllabeam-charlm", "k": %s, "order": 1, "tables": [{}], '
    '"version": 1}'
)
# k overflows to infinity
LM_1E400 = LM_TINY % ("a", "1e400")
LM_NO_ALPHABET = LM_TINY % ("", "1")
# a valid file, but decoding fails at step 1: the syllables are not in its alphabet
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
    assert_clean_failure(code, capsys.readouterr())


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


@pytest.mark.parametrize("table, row", [("hist_bucket", [[BOS_TEXT, BOS_TEXT], None]),
                                        ("bucket", [None, {}, {}])])
def test_generator_row_of_wrong_width(tmp_path, payloads, table, row):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({**payloads["gen"], table: [row]}))
    with pytest.raises(ValueError, match=f"a '{table}' row is not a JSON array of"):
        MelodyConditionedNgram.load(path)


def test_lm_zero_counts_load_as_unseen(tmp_path):
    path = tmp_path / "lm.json"
    tables = [{"": {"a": 0, "b": 0}}]
    path.write_text(json.dumps({"format": "syllabeam-charlm", "version": 1, "order": 1, "k": 0,
                                "alphabet": "ab", "tables": tables}))
    assert CharNgramModel.load(path).char_prob("a", "") == 0.5


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


# (path to the damaged value, its value, how the message after "record N: " starts)
CORPUS_CASES = [
    pytest.param(("notes", 0, 0), 60.7, "pitch must be", id="pitch 60.7"),
    pytest.param(("notes", 0, 0), 60.0, "pitch must be", id="pitch 60.0"),
    pytest.param(("notes", 0, 0), True, "pitch must be", id="pitch true"),
    pytest.param(("notes", 0, 0), "60", "pitch must be", id="pitch string"),
    pytest.param(("notes", 0, 0), None, "pitch must be", id="pitch null"),
    pytest.param(("word_initial", 1), "no", "word_initial flag", id="flag string"),
    pytest.param(("word_initial", 1), 1, "word_initial flag", id="flag 1"),
    pytest.param(("word_initial", 1), None, "word_initial flag", id="flag null"),
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
]


def corpus_run(tmp_path, capsys, command, line, message=""):
    corpus = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(3, seed=5), corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    code = main([command, "--corpus", str(corpus), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: record 3: {message}")
    assert not (tmp_path / "out").exists()


COMMANDS = ["train-lm", "train-generator", "build-nsp-dataset"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("path, value, message", CORPUS_CASES)
def test_corpus_record(tmp_path, capsys, command, path, value, message):
    corpus_run(tmp_path, capsys, command, json.dumps(record_with(path, value)), message)


@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_record_nested_too_deeply(tmp_path, capsys, command):
    corpus_run(tmp_path, capsys, command, '{"notes": ' + DEEP + "}")


# every row kind the builder writes: spaced and glued candidates, the end
# marker mid-context, and the end marker with its spacing flipped
NSP_ROWS = "i know\t_why\t1\ni know\twhy\t0\nmean to<eos> when\t_i\t0\ntel e phone\t_<eos>\t0\n"
NSP_SCORERS = ["oracle", "lm"]


def run_nsp_eval(tmp_path, capsys, payloads, scorer, data: bytes):
    dataset = tmp_path / "nsp.tsv"
    dataset.write_bytes(data)
    argv = ["nsp-eval", "--dataset", str(dataset), "--scorer", scorer]
    if scorer == "lm":
        lm = tmp_path / "lm.json"
        lm.write_text(json.dumps(payloads["lm"]))
        argv += ["--lm", str(lm)]
    code = main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("scorer", NSP_SCORERS)
def test_unmutated_nsp_rows_evaluate(tmp_path, capsys, payloads, scorer):
    code, captured = run_nsp_eval(tmp_path, capsys, payloads, scorer, NSP_ROWS.encode())
    assert code == 0 and captured.err == ""
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


@pytest.mark.parametrize("scorer", NSP_SCORERS)
@pytest.mark.parametrize("line", NSP_LINES)
def test_nsp_row(tmp_path, capsys, payloads, scorer, line):
    data = (NSP_ROWS + line + "\n").encode()
    code, captured = run_nsp_eval(tmp_path, capsys, payloads, scorer, data)
    assert_clean_failure(code, captured)
    assert captured.err.startswith("error: line 5: ")


@pytest.mark.parametrize("scorer", NSP_SCORERS)
@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(b"\xef\xbb\xbf" + NSP_ROWS.encode(), "line 1: bad context", id="byte order mark"),
        pytest.param(b"\xff" + NSP_ROWS.encode(), "'utf-8' codec can't decode", id="not UTF-8"),
        pytest.param(b"\n\n", "dataset is empty", id="blank lines only"),
    ],
)
def test_nsp_file(tmp_path, capsys, payloads, scorer, data, message):
    code, captured = run_nsp_eval(tmp_path, capsys, payloads, scorer, data)
    assert_clean_failure(code, captured)
    assert captured.err.startswith(f"error: {message}")


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


# -- lyric lines and config files --------------------------------------------


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


def run_with_config(tmp_path, capsys, command, text: str):
    corpus = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(3, seed=5), corpus)
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--corpus", str(corpus), "--out", str(out), "--config", str(config)])
    captured = capsys.readouterr()
    assert_clean_failure(code, captured)
    assert not out.exists()
    return captured.err, str(config)


@pytest.mark.parametrize(
    "command, text, line",
    [
        pytest.param("train-lm", "ordr=9\n", 1, id="misspelt key"),
        pytest.param("train-lm", "k=0.1\nbeam_size=7\n", 2, id="key of generate"),
        pytest.param("train-lm", "history=2\n", 1, id="key of train-generator"),
        pytest.param("train-generator", "order=3\n", 1, id="key of train-lm"),
        pytest.param("build-nsp-dataset", "threshold=0.5\n", 1, id="key of nsp-eval"),
        pytest.param("train-lm", "config=other.cfg\n", 1, id="config itself"),
        pytest.param("train-lm", "help=1\n", 1, id="help"),
        pytest.param("train-lm", "corpus=x.jsonl\n", 1, id="required flag"),
        pytest.param("train-lm", "Order=3\n", 1, id="capitalised key"),
        pytest.param("train-lm", "--order=3\n", 1, id="flag spelling"),
        pytest.param("train-lm", "=3\n", 1, id="empty key"),
        pytest.param("train-lm", "k=0.1\n# note\nk=0.2\n", 3, id="repeated key"),
        pytest.param("build-nsp-dataset", "seed=1\n seed = 1\n", 2, id="repeated key, padded"),
        pytest.param("train-lm", "order\n", 1, id="no equals sign"),
    ],
)
def test_config_key(tmp_path, capsys, command, text, line):
    err, path = run_with_config(tmp_path, capsys, command, text)
    assert err.startswith(f"error: {path}:{line}: ")


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param("train-lm", "order=1_0\n", id="int with underscore"),
        pytest.param("train-lm", "order=\u0663\n", id="Arabic-Indic digit"),
        pytest.param("train-lm", "order=\uff13\n", id="full-width digit"),
        pytest.param("train-lm", "order=3.0\n", id="int written as float"),
        pytest.param("train-lm", "order=0x3\n", id="hexadecimal"),
        pytest.param("train-lm", "order=\n", id="empty int"),
        pytest.param("train-lm", "k=1_0.5\n", id="float with underscore"),
        pytest.param("train-lm", "k=0,5\n", id="decimal comma"),
        pytest.param("train-lm", "k=\u0661.5\n", id="float with Arabic-Indic digit"),
        pytest.param("train-lm", "k=nan\n", id="nan k"),
        pytest.param("train-generator", "history=+\n", id="sign alone"),
        pytest.param("build-nsp-dataset", "seed=1e3\n", id="seed as float"),
        pytest.param("build-nsp-dataset", "spacing_negative_rate=0.5.1\n", id="two points"),
    ],
)
def test_config_value(tmp_path, capsys, command, text):
    err, _ = run_with_config(tmp_path, capsys, command, text)
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["train-lm", "--order", "1_0"],
        ["train-lm", "--order", "\u0663"],
        ["train-lm", "--k", "1_0.5"],
        ["train-lm", "--k", " 0.5"],
        ["train-generator", "--history", "\uff12"],
        ["build-nsp-dataset", "--seed", "0x10"],
    ],
)
def test_numeric_flag(tmp_path, capsys, argv):
    corpus = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(3, seed=5), corpus)
    out = tmp_path / "out"
    code = main(argv[:1] + ["--corpus", str(corpus), "--out", str(out)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    kind = "int" if argv[1] != "--k" else "float"
    assert captured.err.splitlines()[-1].endswith(f"invalid {kind} value: {argv[2]!r}")
