"""Property tests: the generator answers every query exactly.

Over random corpora, histories 1-3 and smoothing k (0 included, where an
empty table gives a zero denominator), a trained model and its reloaded copy
give identical `top_by_key` and `prob_by_key` answers for random (history,
note) pairs, asked cold and again from the caches, and they equal the
answers of `conftest.NaiveGenerator`, which counts the same corpus itself.
Each distribution, read as decode reads it, through `top_by_key` at the
vocabulary's width, covers every emittable entry and sums to 1 under
`math.fsum`.
"""

import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam.corpus import MelodyNote, SyllableToken, build_vocabulary
from syllabeam.generator import MelodyConditionedNgram, train_generator

from conftest import PITCHES, NaiveGenerator, make_corpus

notes = st.one_of(
    st.none(),  # past the final note
    st.builds(
        MelodyNote,
        st.sampled_from(PITCHES + [0, 20, 100, 127]),
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        st.sampled_from([0.0, 0.5]),
    ),
)


def random_queries(corpus, vocab, query_seed, query_notes):
    """A (history, note) pair per note: half the histories are prefixes of
    the corpus's lyrics, the rest random syllables."""
    rnd = random.Random(query_seed)
    texts = vocab.syllable_texts()
    queries = []
    for note in query_notes:
        if rnd.random() < 0.5:  # a history the corpus holds
            pair = rnd.choice(corpus)
            tokens = pair.lyric.syllables()[: rnd.randint(0, len(pair.lyric.syllables()))]
        else:
            tokens = tuple(SyllableToken(rnd.choice(texts), True) for _ in range(rnd.randint(0, 4)))
        queries.append((tokens, note))
    return queries


def answers(model, queries, width):
    """Per query: the top `width` entries, every entry ranked, and each
    entry's `prob_by_key`."""
    rows = []
    for history, note in queries:
        key, bucket = model.history_key(history), model.bucket(note)
        everything = model.top_by_key(key, bucket, len(model.vocab.emittable()))
        rows.append((
            model.top_by_key(key, bucket, width),
            everything,
            {text: model.prob_by_key(key, bucket, text) for text in model.vocab.emittable()},
        ))
    return rows


def reloaded(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.json"
        model.save(path)
        return MelodyConditionedNgram.load(path)


@settings(max_examples=60, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pairs=st.integers(1, 20),
    history=st.integers(1, 3),
    k=st.sampled_from([0.0, 0.1, 1.0]),
    query_seed=st.integers(0, 10_000),
    query_notes=st.lists(notes, min_size=1, max_size=12),
    width=st.integers(1, 40),
)
def test_reloaded_model_answers_alike(corpus_seed, pairs, history, k, query_seed, query_notes, width):
    corpus = make_corpus(pairs, seed=corpus_seed, min_syllables=1, max_syllables=8)
    vocab = build_vocabulary([pair.lyric for pair in corpus])
    model = train_generator(corpus, vocab, history, k)
    queries = random_queries(corpus, vocab, query_seed, query_notes)
    loaded = reloaded(model)
    expected = answers(model, queries, width)
    assert answers(loaded, queries, width) == expected
    assert answers(loaded, queries, width) == expected  # from the caches
    assert answers(model, queries, width) == expected
    for _, (texts, probs, _), _ in expected:
        assert sorted(texts) == sorted(vocab.emittable())
        assert math.isclose(math.fsum(probs), 1.0, rel_tol=0, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pairs=st.integers(1, 20),
    history=st.integers(1, 3),
    k=st.sampled_from([0.0, 0.1]),
    query_seed=st.integers(0, 10_000),
    query_notes=st.lists(notes, min_size=1, max_size=12),
    width=st.integers(1, 40),
)
def test_trained_and_reloaded_models_answer_as_the_naive_counts(
    corpus_seed, pairs, history, k, query_seed, query_notes, width
):
    corpus = make_corpus(pairs, seed=corpus_seed, min_syllables=1, max_syllables=8)
    vocab = build_vocabulary([pair.lyric for pair in corpus])
    model = train_generator(corpus, vocab, history, k)
    queries = random_queries(corpus, vocab, query_seed, query_notes)
    expected = answers(NaiveGenerator(corpus, vocab, history, k), queries, width)
    assert answers(model, queries, width) == expected
    assert answers(reloaded(model), queries, width) == expected
