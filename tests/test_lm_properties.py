"""Property test: the character LM's caches never change a score.

A trained model (or an untrained one, from no text at all) that has
answered queries before and emptied its caches at a small `MEMO_LIMIT` must
answer every public query exactly as a freshly loaded copy does, and exactly
as `NaiveWalker`, which counts the training texts itself and repeats the
model's arithmetic. Decode never builds an LM distribution, so "each
distribution sums to 1" is asserted of the walker's distributions alone; the
model's one-character continuations must equal the walker's per-character
probabilities.
"""

import math
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam import lm as lm_module
from syllabeam.corpus import EOS_TEXT
from syllabeam.lm import DEFAULT_ALPHABET, EOS_CHAR, CharNgramModel, train_char_ngram

from conftest import NaiveWalker, continuation_scores

# few distinct characters, so queried contexts often have stored suffixes
TEXT_CHARS = "abo ' " + EOS_CHAR
# an empty list leaves the model untrained: every query falls through to the
# empty level
texts = st.lists(st.text(TEXT_CHARS, min_size=1, max_size=12), max_size=8)
contexts = st.text("abo '", max_size=8)
syllables = st.one_of(st.text("abo'", min_size=1, max_size=4), st.just(EOS_TEXT))
candidates = st.text("abo' " + EOS_CHAR, min_size=1, max_size=5)
# dataset notation: the end marker may sit mid-context, and `_` marks a space
nsp_contexts = st.lists(st.sampled_from(["a", "b", "o", " ", "'", EOS_TEXT]), min_size=1, max_size=6).map("".join)
nsp_candidates = st.tuples(st.sampled_from(["", "_"]), syllables).map("".join)
queries = st.lists(
    st.tuples(contexts, syllables, candidates, nsp_contexts, nsp_candidates), min_size=1, max_size=25
)


def trained(training, order, k):
    """The model `train_char_ngram` makes of `training`; untrained for no text."""
    return train_char_ngram(training, order, k) if training else CharNgramModel(order, k)


def answers(model, batch):
    """Every query of `batch`, as comparable tuples: the continuation score of
    `candidate` and of each of its characters, which the walker computes and
    the library model reads from `continuation_scores`, then the public
    syllable and NSP queries."""
    if isinstance(model, NaiveWalker):
        continuations = lambda context, texts: [model.score_continuation(context, text) for text in texts]
    else:
        continuations = partial(continuation_scores, model)
    return [
        (
            continuations(context, [candidate, *candidate]),
            model.score_with_spacing(context or "a", syllable),
            model.score_candidates(context or "a", (syllable, "ab", syllable)),
            model.nsp_score(nsp_context, nsp_candidate),
        )
        for context, syllable, candidate, nsp_context, nsp_candidate in batch
    ]


@pytest.mark.parametrize("memo_limit", [lm_module.MEMO_LIMIT, 5])
@pytest.mark.parametrize("k", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2, 4])
@settings(max_examples=25, deadline=None)
@given(training=texts, before=queries, after=queries)
def test_warm_model_matches_fresh_load_and_naive_walker(order, k, memo_limit, training, before, after):
    with mock.patch.object(lm_module, "MEMO_LIMIT", memo_limit), tempfile.TemporaryDirectory() as tmp:
        model = trained(training, order, k)
        walker = NaiveWalker(training, order, k)
        assert answers(model, before) == answers(walker, before)
        path = Path(tmp) / "lm.json"
        model.save(path)
        fresh = CharNgramModel.load(path)
        expected = answers(fresh, after + before)
        assert answers(model, after + before) == expected
        assert expected == answers(walker, after + before)
        assert len(model._levels) <= memo_limit
        assert sum(map(len, model._rows.values())) <= 2 * memo_limit


@pytest.mark.parametrize("k", [0.0, 0.1, 2.5])
@pytest.mark.parametrize("order", [1, 2, 4])
@settings(max_examples=25, deadline=None)
@given(training=texts, asked=st.lists(contexts, min_size=1, max_size=10))
def test_conditional_distribution_sums_to_one(order, k, training, asked):
    walker = NaiveWalker(training, order, k)
    for context in asked:
        distribution = walker.conditional_distribution(context)
        assert list(distribution) == list(DEFAULT_ALPHABET)
        assert all(p >= 0.0 for p in distribution.values())
        assert math.fsum(distribution.values()) == pytest.approx(1.0, rel=0, abs=1e-12)
