"""The memos and the per-suffix level cache of the character LM.

A memoized model must answer every query exactly as a freshly loaded one
and keep rejecting every input it rejected before.
"""

import random

import pytest

from syllabeam import lm as lm_module
from syllabeam.corpus import EOS_TEXT, render_text
from syllabeam.lm import CharNgramModel, lyric_lm_text, train_char_ngram

from conftest import make_corpus

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
        assert len(model._memo) <= 5


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


@pytest.mark.parametrize("query", ["score_continuation", "score_with_spacing"])
def test_out_of_alphabet_candidate_rejected_before_scoring(query):
    # with k=0, P('a' | 'a') and P(' ' | 'a') are 0, so a walk that checked
    # characters as it went would stop before it reached '9'
    model = train_char_ngram(["ab"], order=2, k=0.0)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            getattr(model, query)("a", "a9")
        assert str(info.value) == "character '9' at position 1 not in alphabet"
    assert model._memo == {} and model._continuations == {}


@pytest.mark.parametrize(
    "query, cached, bad, message",
    [
        ("score_continuation", ("ab lo", "ve"), ("aX lo", "ve"), "character 'X' at position 1 not in alphabet"),
        ("score_continuation", ("ab lo", "ve"), ("ab lo", "vE"), "character 'E' at position 1 not in alphabet"),
        ("nsp_score", ("ab lo", "_ve"), ("a? lo", "_ve"), "character '?' at position 1 not in alphabet"),
        ("nsp_score", ("ab lo", "_ve"), ("ab lo", "_vE"), "character 'E' at position 1 not in alphabet"),
        ("nsp_score", ("ab lo", "_ve"), ("ab lo", ""), "candidate must be non-empty"),
    ],
)
def test_continuation_memo_hit_still_checks_the_query(query, cached, bad, message):
    model = train_char_ngram(corpus_texts(10, seed=11), 4, 0.1)
    getattr(model, query)(*cached)
    with pytest.raises(ValueError) as info:
        getattr(model, query)(*bad)
    assert str(info.value) == message


def test_nsp_score_is_memoized_per_suffix_and_candidate():
    model = train_char_ngram(corpus_texts(10, seed=12), 4, 0.1)
    first = model.nsp_score("my love<eos>for e", "_ver")
    assert model.nsp_score("all for e", "_ver") == first
    assert model._continuations == {("r e", " ver"): first}
    assert model.score_continuation("or e", " ver") == first


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


def error_of(query, *args):
    """The message `query(*args)` raises with, or None when it returns."""
    try:
        query(*args)
    except ValueError as exc:
        return str(exc)
    return None


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
        assert len(model._candidates) <= 5


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
    assert model._candidates == {}


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
    assert (model._suffix(bad), syllables) in model._candidates
    for _ in range(2):
        assert error_of(model.score_candidates, bad, syllables) == message
        assert error_of(model.score_with_spacing, bad, EOS_TEXT) == message


@pytest.mark.parametrize(
    "bad, scored_as, message",
    [
        (("la", "$"), ("la", "$"), "character '$' is reserved for <eos>"),
        (("la", "_$"), ("la", " $"), "character '$' is reserved for <eos>"),
        (("la$", "_ve"), ("la$", " ve"), "character '$' is reserved for <eos>"),
        (("ab lo", "_"), ("ab lo", " "), "no syllable after '_'"),
        (("ab lo", "ve<eos>"), ("ab lo", "ve$"), "character '<' at position 2 not in alphabet"),
        (("ab lo", "_ve_"), ("ab lo", " ve"), "character '_' at position 2 not in alphabet"),
    ],
)
def test_nsp_score_rejects_text_outside_the_dataset_notation(bad, scored_as, message):
    # `scored_as` is the continuation the bad query was once scored as; the
    # second round finds it in the memo
    model = train_char_ngram(corpus_texts(10, seed=29), 4, 0.1)
    for _ in range(2):
        assert error_of(model.nsp_score, *bad) == message
        model.score_continuation(*scored_as)


@pytest.mark.parametrize("candidate", ["a b", "_ b", " b", "_a b", "_ "])
def test_nsp_score_rejects_a_candidate_outside_the_row_grammar(candidate):
    # alphabet text that is no `_?(?:[a-z']+|<eos>)`, even once scored as a continuation
    model = train_char_ngram(corpus_texts(10, seed=30), 4, 0.1)
    for _ in range(2):
        assert error_of(model.nsp_score, "la", candidate) == (
            f"candidate {candidate!r} does not match _?(?:[a-z']+|<eos>)"
        )
        model.score_continuation("la", candidate.replace("_", " "))


@pytest.mark.parametrize("syllable", ["a$", "$", "mi$", "a b", " a", "a "])
def test_a_syllable_outside_the_corpus_grammar_is_rejected(syllable):
    # alphabet text that is neither <eos> nor [a-z']+; score_continuation takes it
    model = train_char_ngram(corpus_texts(10, seed=31), 4, 0.1)
    message = f"illegal syllable text: {syllable!r}"
    for _ in range(2):
        assert error_of(model.score_with_spacing, "la", syllable) == message
        assert error_of(model.score_candidates, "la", ("mi", syllable)) == message
        assert 0.0 < model.score_continuation("la", syllable) <= 1.0
    assert all(key[1] != syllable for key in model._memo) and model._candidates == {}
