"""The memos and the per-suffix level cache of the character LM.

A memoized model must answer every query exactly as a freshly loaded one
and keep rejecting every input it rejected before.
"""

import random
import re

import pytest

from syllabeam import lm as lm_module
from syllabeam import nsp as nsp_module
from syllabeam.beam import FusionConfig, decode
from syllabeam.cli import main
from syllabeam.corpus import EOS_TEXT, build_vocabulary, render_text
from syllabeam.generator import train_generator
from syllabeam.lm import EOS_CHAR, CharNgramModel, lyric_lm_text, train_char_ngram
from syllabeam.nsp import BuilderConfig, build_dataset, nsp_line

from conftest import continuation_scores, make_corpus, make_melody

LETTERS = "abcdefghijklmnopqrstuvwxyz'"


def corpus_texts(n, seed):
    return [lyric_lm_text(render_text(p.lyric)) for p in make_corpus(n, seed=seed)]


def random_queries(rnd, n, texts):
    """(context, syllable) pairs. Half the contexts are prefixes of training
    texts, so their suffixes hit stored tables; the rest are random letters
    ending in a common tail, so many contexts share a suffix."""
    tails = ["", "a", " lo", "ver", "g i", "ing"]
    for _ in range(n):
        if rnd.random() < 0.5:
            text = rnd.choice(texts)
            context = text[: rnd.randint(0, len(text) - 1)]
        else:
            prefix = "".join(rnd.choice(LETTERS + " ") for _ in range(rnd.randint(0, 8)))
            context = prefix + rnd.choice(tails)
        syllable = rnd.choice(["ba", "by", "love", "ing", "o", "ver", "x", EOS_TEXT])
        if syllable == EOS_TEXT and not context:
            context = "a"
        yield context, syllable


@pytest.mark.parametrize("order", [1, 2, 4])
def test_interleaved_queries_match_fresh_model(tmp_path, order):
    path = tmp_path / "lm.json"
    texts = corpus_texts(30, seed=order)
    train_char_ngram(texts, order, 0.1).save(path)
    model = CharNgramModel.load(path)
    queries = list(random_queries(random.Random(order), 80, texts))
    rnd = random.Random(100 + order)
    for _ in range(3):
        rnd.shuffle(queries)
        for context, syllable in queries:
            fresh = CharNgramModel.load(path).score_with_spacing(context, syllable)
            assert model.score_with_spacing(context, syllable) == fresh


def test_memo_limit_empties_and_stays_exact(tmp_path, monkeypatch):
    monkeypatch.setattr(lm_module, "MEMO_LIMIT", 5)
    path = tmp_path / "lm.json"
    texts = corpus_texts(20, seed=7)
    train_char_ngram(texts, 4, 0.1).save(path)
    model = CharNgramModel.load(path)
    for context, syllable in random_queries(random.Random(8), 80, texts):
        fresh = CharNgramModel.load(path).score_with_spacing(context, syllable)
        assert model.score_with_spacing(context, syllable) == fresh
        assert sum(map(len, model._rows.values())) <= 2 * 5


def error_of(query, *args):
    """The message `query(*args)` raises with, or None when it returns."""
    try:
        query(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_invalid_context_raises_after_its_key_was_cached():
    model = train_char_ngram(corpus_texts(10, seed=9), 4, 0.1)
    model.score_with_spacing("ab lo", "ve")  # caches (" lo", "ve")
    with pytest.raises(ValueError, match=r"character 'X' at position 1 not in alphabet"):
        model.score_with_spacing("aX lo", "ve")
    model.score_with_spacing("ab lo", EOS_TEXT)
    with pytest.raises(ValueError, match=r"character '\?' at position 0 not in alphabet"):
        model.score_with_spacing("?b lo", EOS_TEXT)


@pytest.mark.parametrize(
    "context, syllable, message",
    [
        ("ab", "", "syllable must be non-empty"),
        ("", EOS_TEXT, "end marker needs a non-empty context"),
        ("a1", "ba", "character '1' at position 1 not in alphabet"),
        ("ab", "bA", "character 'A' at position 1 not in alphabet"),
    ],
)
def test_rejected_queries_keep_their_messages(context, syllable, message):
    model = train_char_ngram(corpus_texts(10, seed=10), 4, 0.1)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            model.score_with_spacing(context, syllable)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "query, message",
    [
        pytest.param("nsp_score", "bad candidate 'a9'", id="nsp_score"),
        pytest.param("score_with_spacing", "character '9' at position 1 not in alphabet", id="score_with_spacing"),
    ],
)
def test_out_of_alphabet_candidate_rejected_before_scoring(query, message):
    # with k=0, P('a' | 'a') and P(' ' | 'a') are 0, so a walk that checked
    # characters as it went would stop before it reached '9'
    model = train_char_ngram(["ab"], order=2, k=0.0)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            getattr(model, query)("a", "a9")
        assert str(info.value) == message
    assert model._rows == {} and model._levels == {}  # nothing was scored


def test_score_nsp_file_rejects_an_empty_candidate(tmp_path):
    model = train_char_ngram(corpus_texts(10, seed=12), 4, 0.1)
    path = tmp_path / "nsp.tsv"
    path.write_text("la\t\t1\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        model.score_nsp_file(path)
    assert str(info.value) == f"{path}:1: bad candidate ''"
    assert model._levels == {}  # nothing was scored


def test_score_nsp_file_rejects_a_context_outside_the_row_grammar(tmp_path):
    # the context's own suffix ("la") is cached first, so only a context check finds 'A'
    model = train_char_ngram(corpus_texts(10, seed=12), 3, 0.1)
    model.nsp_score("la", "la")
    path = tmp_path / "nsp.tsv"
    path.write_text("la\tla\t1\nA9?la\tla\t1\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        model.score_nsp_file(path)
    assert str(info.value) == f"{path}:2: bad context 'A9?la'"


@pytest.mark.parametrize(
    "context, candidate, message",
    [
        ("la$mi", "so", "bad context 'la$mi'"),
        ("la", " so", "bad candidate ' so'"),
        ("", "so", "bad context ''"),
        ("la", "a_b", "bad candidate 'a_b'"),
        ("la", "so$", "bad candidate 'so$'"),
    ],
)
def test_a_row_no_builder_writes_fails_every_nsp_entry(tmp_path, capsys, context, candidate, message):
    # each row's characters are all in the alphabet, so only the row grammar rejects it
    model = train_char_ngram(corpus_texts(10, seed=14), 4, 0.1)
    model.save(tmp_path / "lm.json")
    path = tmp_path / "nsp.tsv"
    path.write_text(f"{context}\t{candidate}\t1\n", encoding="utf-8")
    assert error_of(model.nsp_score, context, candidate) == message
    assert error_of(model.score_nsp_file, path) == f"{path}:1: {message}"
    assert model._levels == {}  # nothing was scored
    code = main(["nsp-eval", "--dataset", str(path), "--lm", str(tmp_path / "lm.json")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {path}:1: {message}\n")


@pytest.mark.parametrize(
    "query, cached, bad, message",
    [
        ("score_with_spacing", ("ab lo", "ve"), ("aX lo", "ve"), "character 'X' at position 1 not in alphabet"),
        ("score_with_spacing", ("ab lo", "ve"), ("ab lo", "vE"), "character 'E' at position 1 not in alphabet"),
        ("nsp_score", ("ab lo", "_ve"), ("a? lo", "_ve"), "bad context 'a? lo'"),
        ("nsp_score", ("ab lo", "_ve"), ("ab lo", "_vE"), "bad candidate '_vE'"),
        ("nsp_score", ("ab lo", "_ve"), ("ab lo", ""), "bad candidate ''"),
    ],
)
def test_continuation_memo_hit_still_checks_the_query(tmp_path, query, cached, bad, message):
    model = train_char_ngram(corpus_texts(10, seed=11), 4, 0.1)
    getattr(model, query)(*cached)
    with pytest.raises(ValueError) as info:
        getattr(model, query)(*bad)
    assert str(info.value) == message
    if query == "nsp_score":
        # the NSP memo lives for one call, so the bad row follows the cached
        # one in one file, where its key would hit the cached row's score
        path = tmp_path / "nsp.tsv"
        path.write_text(f"{cached[0]}\t{cached[1]}\t1\n{bad[0]}\t{bad[1]}\t1\n", encoding="utf-8")
        assert error_of(model.score_nsp_file, path) == f"{path}:2: {message}"


def test_nsp_score_is_memoized_per_suffix_and_candidate(tmp_path):
    # the memo lives for one call: the rows of one file that share a (context
    # suffix, encoded candidate) key cost one continuation, and no call leaves
    # anything on the model
    model, computed = counting_model(make_corpus(10, seed=12))
    attributes = set(vars(model))
    first = model.nsp_score("my love<eos>for e", "_ver")
    assert model.nsp_score("all for e", "_ver") == first
    assert computed == [("r e", " ver")] * 2
    path = tmp_path / "nsp.tsv"
    path.write_text("my love<eos>for e\t_ver\t1\nall for e\t_ver\t0\nor e\t_ver\t1\n", encoding="utf-8")
    assert model.score_nsp_file(path) == [(first, 1), (first, 0), (first, 1)]
    assert computed == [("r e", " ver")] * 3
    assert set(vars(model)) == attributes


def test_rejected_context_fails_again_after_a_valid_one():
    model = train_char_ngram(corpus_texts(10, seed=13), 4, 0.1)
    fresh = train_char_ngram(corpus_texts(10, seed=13), 4, 0.1)
    context, bad = "ab lo", "aX lo"
    model.score_with_spacing(context, "ve")
    for _ in range(2):  # the same rejected object twice, after a valid one
        with pytest.raises(ValueError) as info:
            model.score_with_spacing(bad, "ve")
        assert str(info.value) == "character 'X' at position 1 not in alphabet"
    for syllable in ("ve", EOS_TEXT):
        assert model.score_with_spacing(context, syllable) == fresh.score_with_spacing(context, syllable)
    # a checked context still rejects a bad syllable with the syllable's message
    with pytest.raises(ValueError) as info:
        model.score_with_spacing(context, "vE")
    assert str(info.value) == "character 'E' at position 1 not in alphabet"


# -- score_candidates --------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 4])
def test_score_candidates_is_score_with_spacing_per_syllable(tmp_path, order):
    path = tmp_path / "lm.json"
    texts = corpus_texts(30, seed=20 + order)
    train_char_ngram(texts, order, 0.1).save(path)
    model = CharNgramModel.load(path)
    rnd = random.Random(order)
    pool = ["ba", "by", "love", "ing", "o", "ver", "x", EOS_TEXT]
    for context, _ in random_queries(rnd, 120, texts):
        syllables = tuple(rnd.sample(pool, rnd.randint(0, 4)))
        if not context and EOS_TEXT in syllables:
            context = "a"
        fresh = CharNgramModel.load(path)
        expected = tuple(fresh.score_with_spacing(context, s) for s in syllables)
        assert model.score_candidates(context, syllables) == expected
        assert model.score_candidates("".join(list(context)), syllables) == expected  # a hit


def test_candidates_cache_stays_within_the_limit(monkeypatch):
    monkeypatch.setattr(lm_module, "MEMO_LIMIT", 5)
    texts = corpus_texts(20, seed=25)
    model = train_char_ngram(texts, 4, 0.1)
    fresh = train_char_ngram(texts, 4, 0.1)
    for context, syllable in random_queries(random.Random(26), 80, texts):
        syllables = (syllable, "ba")
        expected = tuple(fresh.score_with_spacing(context, s) for s in syllables)
        assert model.score_candidates(context, syllables) == expected
        assert sum(map(len, model._rows.values())) <= 2 * 5


BAD_BATCHES = [
    ("ab lo", ("ve", "")),
    ("ab lo", ("", "ve")),
    ("", ("ve", EOS_TEXT)),
    ("", ("", EOS_TEXT)),
    ("a1 lo", ("ve", "ba")),
    ("a1 lo", ("",)),
    ("ab lo", ("ve", "bA")),
    ("aX lo", ("vE", EOS_TEXT)),
]


@pytest.mark.parametrize("context, syllables", BAD_BATCHES)
def test_bad_batch_rejected_as_its_first_bad_syllable(context, syllables):
    model = train_char_ngram(corpus_texts(10, seed=27), 4, 0.1)
    expected = next(
        message
        for message in (error_of(model.score_with_spacing, context, s) for s in syllables)
        if message is not None
    )
    for _ in range(2):
        assert error_of(model.score_candidates, context, syllables) == expected
    assert all(syllables not in row for row in model._rows.values())


@pytest.mark.parametrize(
    "order, cached, bad, message",
    [
        (4, "ab lo", "aX lo", "character 'X' at position 1 not in alphabet"),
        (4, "ab lo", "?b lo", "character '?' at position 0 not in alphabet"),
        # at order 1 every context has the empty suffix, so "" hits the key of "a"
        (1, "a", "", "end marker needs a non-empty context"),
    ],
)
def test_candidates_hit_still_checks_the_context(order, cached, bad, message):
    model = train_char_ngram(corpus_texts(10, seed=28), order, 0.1)
    syllables = ("ve", EOS_TEXT)
    model.score_candidates(cached, syllables)
    assert syllables in model._rows[model._suffix(bad)]
    for _ in range(2):
        assert error_of(model.score_candidates, bad, syllables) == message
        assert error_of(model.score_with_spacing, bad, EOS_TEXT) == message


@pytest.mark.parametrize(
    "bad, scored_as, message",
    [
        (("la", "$"), ("la", "$"), "bad candidate '$'"),
        (("la", "_$"), ("la", " $"), "bad candidate '_$'"),
        (("la$", "_ve"), ("la$", " ve"), "bad context 'la$'"),
        (("ab lo", "_"), ("ab lo", " "), "bad candidate '_'"),
        (("ab lo", "ve<eos>"), ("ab lo", "ve$"), "bad candidate 've<eos>'"),
        (("ab lo", "_ve_"), ("ab lo", " ve"), "bad candidate '_ve_'"),
        (("", "_la"), ("", " la"), "bad context ''"),
    ],
)
def test_nsp_score_rejects_text_outside_the_dataset_notation(bad, scored_as, message):
    # `scored_as` is the continuation the bad query would be scored as; the
    # second round asks once it was scored and its levels are cached
    model = train_char_ngram(corpus_texts(10, seed=29), 4, 0.1)
    for _ in range(2):
        assert error_of(model.nsp_score, *bad) == message
        continuation_scores(model, scored_as[0], [scored_as[1]])


@pytest.mark.parametrize("candidate", ["a b", "_ b", " b", "_a b", "_ "])
def test_nsp_score_rejects_a_candidate_outside_the_row_grammar(candidate):
    # alphabet text that is no `_?(?:[a-z']+|<eos>)`, even once scored as a continuation
    model = train_char_ngram(corpus_texts(10, seed=30), 4, 0.1)
    for _ in range(2):
        assert error_of(model.nsp_score, "la", candidate) == f"bad candidate {candidate!r}"
        continuation_scores(model, "la", [candidate.replace("_", " ")])


@pytest.mark.parametrize("syllable", ["a$", "$", "mi$", "a b", " a", "a "])
def test_a_syllable_outside_the_corpus_grammar_is_rejected(syllable):
    # alphabet text that is neither <eos> nor [a-z']+; a continuation takes it
    model = train_char_ngram(corpus_texts(10, seed=31), 4, 0.1)
    message = f"illegal syllable text: {syllable!r}"
    for _ in range(2):
        assert error_of(model.score_with_spacing, "la", syllable) == message
        assert error_of(model.score_candidates, "la", ("mi", syllable)) == message
        assert 0.0 < continuation_scores(model, "la", [syllable])[0] <= 1.0
    assert [list(row) for row in model._rows.values()] == [["mi"]]


# -- work counts ---------------------------------------------------------------


class Recording:
    """An LM that records the (context suffix, syllables) of each query decode
    makes, an end-token query as a batch of one."""

    def __init__(self, lm):
        self.lm, self.batches = lm, set()

    def score_candidates(self, context, syllables):
        self.batches.add((self.lm._suffix(context), syllables))
        return self.lm.score_candidates(context, syllables)

    def score_with_spacing(self, context, syllable):
        self.batches.add((self.lm._suffix(context), (syllable,)))
        return self.lm.score_with_spacing(context, syllable)


def counting_model(corpus):
    """A fresh model of `corpus` and the list it appends the (suffix, text) of
    each `_continuation` it computes to, in order."""
    lm = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in corpus], 4, 0.1)
    computed, continuation = [], lm._continuation
    lm._continuation = lambda suffix, text: computed.append((suffix, text)) or continuation(suffix, text)
    return lm, computed


def decode_counting(corpus, melodies, config):
    """The (suffix, text) of every `_continuation` computed over decodes of
    `melodies` on one fresh model, in order, and the batches decode asked."""
    lm, computed = counting_model(corpus)
    generator = train_generator(corpus, build_vocabulary([p.lyric for p in corpus]), 2, 0.1)
    recording = Recording(lm)
    for melody in melodies:
        decode(melody, generator, recording, config)
    return computed, recording.batches


def test_decode_computes_each_continuation_once(monkeypatch):
    corpus = make_corpus(60, seed=41)
    rnd = random.Random(42)
    # melodies shorter than max_len also ask the end token past their last note
    melodies = [make_melody(rnd, rnd.randint(4, 14)) for _ in range(20)]
    config = FusionConfig(beam_size=5, max_len=12)
    computed, batches = decode_counting(corpus, melodies, config)
    syllables = {(suffix, text.lstrip(" ")) for suffix, text in computed}
    # a limit that the syllable scores fit under and the batches fit under,
    # but the two together do not
    limit = max(len(syllables), len(batches)) + 1
    assert limit < len(syllables) + len(batches)
    monkeypatch.setattr(lm_module, "MEMO_LIMIT", limit)
    limited, _ = decode_counting(corpus, melodies, config)
    assert len(limited) == len(set(limited))
    assert limited == computed


def written_dataset(corpus, seed, path):
    """The rows `build_dataset` makes of `corpus` under `seed`, once written
    to the TSV file at `path`."""
    rows = []
    build_dataset([p.lyric for p in corpus], BuilderConfig(seed=seed), rows.append)
    path.write_text("".join(map(nsp_line, rows)), encoding="utf-8")
    return rows


def test_nsp_rows_compute_each_continuation_once(tmp_path, monkeypatch):
    # on one CPU: a forked read counts each process's keys in that process
    monkeypatch.setattr(nsp_module, "_cpus", lambda: 1)
    corpus = make_corpus(40, seed=43)
    rows = written_dataset(corpus, 44, tmp_path / "nsp.tsv")
    lm, computed = counting_model(corpus)
    scored = lm.score_nsp_file(tmp_path / "nsp.tsv")
    keys = {
        (lm._suffix(c.replace(EOS_TEXT, EOS_CHAR)), k.replace("_", " ").replace(EOS_TEXT, EOS_CHAR))
        for c, k, _ in rows
    }
    assert len(keys) < len(rows)
    assert sorted(computed) == sorted(keys)
    # one row a call: the memo lives for the call, so each row computes once
    one_by_one, computed_by_row = counting_model(corpus)
    assert [(one_by_one.nsp_score(c, k), label) for c, k, label in rows] == scored
    assert len(computed_by_row) == len(rows) and set(computed_by_row) == keys


def test_nsp_file_keeps_one_pair_per_key_and_label(tmp_path, monkeypatch):
    # a memo hit of either label appends a pair already made, so the list
    # holds at most one tuple per (suffix, candidate, label)
    monkeypatch.setattr(nsp_module, "_cpus", lambda: 1)
    corpus = make_corpus(40, seed=43)
    rows = written_dataset(corpus, 44, tmp_path / "nsp.tsv")
    lm, _ = counting_model(corpus)
    scored = lm.score_nsp_file(tmp_path / "nsp.tsv")
    keys = {(lm._suffix(c.replace(EOS_TEXT, EOS_CHAR)), k) for c, k, _ in rows}
    labelled = {(lm._suffix(c.replace(EOS_TEXT, EOS_CHAR)), k, label) for c, k, label in rows}
    assert len(keys) < len(labelled) < len(rows)
    assert len({id(pair) for pair in scored}) <= len(labelled)


def test_nsp_file_computes_each_continuation_once_past_the_memo_limit(tmp_path, monkeypatch):
    # MEMO_LIMIT bounds the caches kept across calls; the NSP memo lives for
    # one call, and no limit empties it within the call
    monkeypatch.setattr(lm_module, "MEMO_LIMIT", 5)
    corpus = make_corpus(40, seed=43)
    written_dataset(corpus, 44, tmp_path / "nsp.tsv")
    lm, computed = counting_model(corpus)
    lm.score_nsp_file(tmp_path / "nsp.tsv")
    assert len(computed) == len(set(computed)) > 5


class CountedPattern:
    """A compiled pattern that keeps the text of each `findall` call, a block
    of lines, and of each `fullmatch` call, one line."""

    def __init__(self, pattern):
        self.pattern, self.blocks, self.lines = pattern, [], []

    def findall(self, text):
        self.blocks.append(text)
        return self.pattern.findall(text)

    def fullmatch(self, text):
        self.lines.append(text)
        return self.pattern.fullmatch(text)


def blocks_of(path, hint):
    """The blocks of lines `readlines(hint)` reads from the file at `path`."""
    with open(path, encoding="utf-8") as fh:
        return list(iter(lambda: fh.readlines(hint), []))


def test_nsp_file_checks_each_row_once(tmp_path, monkeypatch):
    # the reader's row grammar is the one check: one `findall` per block of
    # lines, no match of a single line while every line is a row, and no
    # alphabet check of a context or a candidate after it; on one CPU, so
    # that this process reads every block
    monkeypatch.setattr(nsp_module, "_cpus", lambda: 1)
    corpus = make_corpus(40, seed=45)
    path = tmp_path / "nsp.tsv"
    rows = written_dataset(corpus, 46, path)
    lm = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in corpus], 4, 0.1)
    checked, check_chars = [], lm_module._check_chars
    monkeypatch.setattr(lm_module, "_check_chars", lambda text: checked.append(text) or check_chars(text))
    pattern = CountedPattern(nsp_module._ROWS_RE)
    monkeypatch.setattr(nsp_module, "_ROWS_RE", pattern)
    monkeypatch.setattr(nsp_module, "_BLOCK_HINT", 4096)
    blocks = blocks_of(path, 4096)
    scored = lm.score_nsp_file(path)
    assert len(scored) == len(rows) > 0 and len(blocks) > 2
    assert (len(checked), pattern.blocks, pattern.lines) == (0, ["".join(block) for block in blocks], [])
    # one bad line, the fourth of the second block: that block alone is read
    # again line by line, up to the bad line
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = len(blocks[0]) + 3
    lines[bad] = "i know\t_why\t2\n"
    path.write_text("".join(lines), encoding="utf-8")
    blocks = blocks_of(path, 4096)
    pattern.blocks.clear()
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{bad + 1}: bad label '2'$"):
        lm.score_nsp_file(path)
    assert pattern.blocks == ["".join(block) for block in blocks[:2]]
    assert pattern.lines == [line.rstrip("\n") for line in blocks[1][:4]]
    assert checked == []
