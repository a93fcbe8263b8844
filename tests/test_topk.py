"""Generator top-k against the full distribution `conftest.NaiveGenerator`
counts from the same corpus, and decode through the model's keyed interface
against decode through the naive model's (`conftest.Keyed`).

With `key = history_key(h)` and `bucket = bucket(n)`, the texts and
probabilities of `top_by_key(key, bucket, k)` must equal the first k entries
of the naive `next_distribution(h, n)` ranked by (-probability, vocabulary
id), and `prob_by_key(key, bucket, text)` must equal the distribution's
entry, float for float.
"""

import json
import random

import pytest

from syllabeam.beam import FusionConfig, decode
from syllabeam.corpus import (
    BOS_TEXT,
    EOS_TEXT,
    MelodyNote,
    SyllableToken,
    Vocabulary,
    build_vocabulary,
    render_text,
)
from syllabeam import generator as generator_module
from syllabeam.generator import MelodyConditionedNgram, _rank, train_generator
from syllabeam.lm import lyric_lm_text, train_char_ngram

from conftest import PITCHES, NaiveGenerator, make_corpus, make_melody, ranked_candidates


def random_queries(vocab, rnd, n):
    texts = vocab.syllable_texts()
    for _ in range(n):
        history = tuple(SyllableToken(rnd.choice(texts), True) for _ in range(rnd.randint(0, 4)))
        if rnd.random() < 0.2:
            note = None  # past the final note
        else:
            note = MelodyNote(
                rnd.choice(PITCHES + [20, 100]), rnd.choice([0.5, 1.0, 2.0]), rnd.choice([0.0, 0.5])
            )
        yield history, note


def top(model, history, note, k):
    """The top-k (text, probability) pairs of a history and note."""
    texts, probs, _ = model.top_by_key(model.history_key(history), model.bucket(note), k)
    return list(zip(texts, probs))


def assert_exact(model, naive, history, note):
    dist = naive.next_distribution(history, note)
    ranked = ranked_candidates(model, dist)
    key, bucket = model.history_key(history), model.bucket(note)
    for k in (1, 2, 3, 7, len(dist) - 1, len(dist), len(dist) + 5):
        answer = model.top_by_key(key, bucket, k)
        texts, probs, ids = answer
        assert list(zip(texts, probs)) == ranked[:k]
        assert ids == tuple(map(model.vocab.id_of, texts))
        assert model.top_by_key(key, bucket, k) is answer  # from the cache
    for text, p in dist.items():
        assert model.prob_by_key(key, bucket, text) == p


@pytest.mark.parametrize("seed", range(6))
def test_trained_models_match_full_distribution(seed):
    rnd = random.Random(seed)
    corpus = make_corpus(rnd.randint(3, 40), seed=1000 + seed, min_syllables=2, max_syllables=12)
    vocab = build_vocabulary([p.lyric for p in corpus])
    k = rnd.choice([0.0, 0.1, 1.0, 3.5])
    h = rnd.randint(1, 3)
    model, naive = train_generator(corpus, vocab, h, k), NaiveGenerator(corpus, vocab, h, k)
    for history, note in random_queries(vocab, rnd, 60):
        assert_exact(model, naive, history, note)


def test_smoothing_zero_ranks_unseen_last_in_id_order():
    corpus = make_corpus(4, seed=7)
    vocab = build_vocabulary([p.lyric for p in corpus])
    model, naive = train_generator(corpus, vocab, history=2, k=0.0), NaiveGenerator(corpus, vocab, 2, 0.0)
    rnd = random.Random(8)
    for history, note in random_queries(vocab, rnd, 40):
        assert_exact(model, naive, history, note)
        zero = [text for text, p in top(model, history, note, len(vocab) + 1) if p == 0.0]
        assert zero == sorted(zero, key=vocab.id_of)


def test_smoothing_past_every_count_ranks_in_id_order():
    # at k = 1e20 every n + k rounds to k, so every probability is the floor
    corpus = make_corpus(20, seed=21)
    vocab = build_vocabulary([p.lyric for p in corpus])
    model, naive = train_generator(corpus, vocab, history=2, k=1e20), NaiveGenerator(corpus, vocab, 2, 1e20)
    for history, note in random_queries(vocab, random.Random(22), 40):
        assert_exact(model, naive, history, note)
        assert [text for text, _ in top(model, history, note, len(vocab))] == list(vocab.emittable())


def test_denominator_zero_is_uniform_in_id_order():
    vocab = Vocabulary(["ba", "by", "love", "sun"])
    model = MelodyConditionedNgram(vocab, history=2, k=0.0)  # no counts at all
    for history, note in random_queries(vocab, random.Random(9), 10):
        assert_exact(model, NaiveGenerator([], vocab, 2, 0.0), history, note)
        uniform = 1.0 / len(vocab.emittable())
        assert top(model, history, note, 10) == [(text, uniform) for text in vocab.emittable()]


def test_past_the_end_bucket():
    corpus = make_corpus(20, seed=10)
    vocab = build_vocabulary([p.lyric for p in corpus])
    model, naive = train_generator(corpus, vocab, history=2, k=0.1), NaiveGenerator(corpus, vocab, 2, 0.1)
    for pair in corpus[:10]:
        history = pair.lyric.syllables()
        assert_exact(model, naive, history, None)
        eos = model.prob_by_key(model.history_key(history), None, EOS_TEXT)
        assert eos == naive.next_distribution(history, None)[EOS_TEXT]


def test_loaded_model_with_zero_counts(tmp_path):
    corpus = make_corpus(12, seed=11, min_syllables=3, max_syllables=8)
    vocab = build_vocabulary([p.lyric for p in corpus])
    rnd = random.Random(12)
    for k in (0.0, 0.1):
        path = tmp_path / f"gen{k}.json"
        train_generator(corpus, vocab, history=2, k=k).save(path)
        payload = json.loads(path.read_text())
        zeroed = payload["hist_bucket"][0][0]
        for hist, _, counts in payload["hist_bucket"]:
            for text in counts:
                if rnd.random() < 0.4 or hist == zeroed:
                    counts[text] = 0
            counts.setdefault(rnd.choice(vocab.emittable()), 0)
        path.write_text(json.dumps(payload))
        model = MelodyConditionedNgram.load(path)
        naive = NaiveGenerator([], vocab, 2, k)  # the file's rows, read and summed without the loader
        naive.tables["hist_bucket"] = {(tuple(h), tuple_or_none(b)): c for h, b, c in payload["hist_bucket"]}
        for (hist, bucket), counts in naive.tables["hist_bucket"].items():
            for table, condition in (("hist", hist), ("bucket", bucket), ("unigram", ())):
                summed = naive.tables[table].setdefault(condition, {})
                for text, n in counts.items():
                    summed[text] = summed.get(text, 0) + n
        # the first row's history has an all-zero history table that still serves
        history = tuple(SyllableToken(text, True) for text in zeroed if text != BOS_TEXT)
        note = MelodyNote(20, 0.5, 0.5)
        served = model._counts(model.history_key(history), model.bucket(note))
        assert served is model._by_hist[tuple(zeroed)] and not any(served.values())
        assert_exact(model, naive, history, note)
        for history, note in random_queries(vocab, rnd, 60):
            assert_exact(model, naive, history, note)


def tuple_or_none(bucket):
    return None if bucket is None else tuple(bucket)


@pytest.mark.parametrize("text", ["zz", BOS_TEXT])
def test_prob_by_key_rejects_a_text_the_model_cannot_emit(text):
    corpus = make_corpus(20, seed=10)
    model = train_generator(corpus, build_vocabulary([p.lyric for p in corpus]), history=2, k=0.1)
    with pytest.raises(ValueError, match="not an emittable token"):
        model.prob_by_key(model.history_key(()), None, text)


NOTE = MelodyNote(60, 1.0, 0.0)


def three_token_models(rows):
    """A history-1 model and its naive copy, each holding `rows`, {history
    text: counts}, as its only (history, bucket) rows, at NOTE."""
    vocab = Vocabulary(["la", "li", "lo"])
    model, naive = MelodyConditionedNgram(vocab, history=1, k=0.1), NaiveGenerator([], vocab, 1, 0.1)
    for text, counts in rows.items():
        model._by_hist_bucket[(text,), model.bucket(NOTE)] = counts
        naive.tables["hist_bucket"][(text,), naive.note_bucket(NOTE)] = dict(counts)
    return model, naive


def test_equal_tables_share_one_ranking():
    # equal content in two tables, and another
    model, naive = three_token_models({"la": {"li": 1}, "li": {"li": 1}, "lo": {"lo": 1}})
    bucket = model.bucket(NOTE)
    shared = model.top_by_key(("la",), bucket, 2)
    assert model.top_by_key(("li",), bucket, 2) is shared
    assert model.top_by_key(("lo",), bucket, 2) != shared
    for text in ("la", "li", "lo"):
        assert_exact(model, naive, (SyllableToken(text, True),), NOTE)


def test_digest_collision_keeps_exact_answers():
    model, naive = three_token_models({"la": {"li": 2, "lo": 1}})
    bucket = model.bucket(NOTE)
    served = model._by_hist_bucket[("la",), bucket]
    digest = hash(frozenset(served.items()))
    unequal = model._by_content[digest] = _rank({"lo": 5}, model.vocab, model.k)
    assert_exact(model, naive, (SyllableToken("la", True),), NOTE)
    assert model._by_content[digest] is unequal  # the colliding table takes no slot
    assert model._ranking(("la",), bucket).counts is served


def test_each_distinct_table_content_is_ranked_once(monkeypatch):
    corpus = make_corpus(60, seed=19)
    vocab = build_vocabulary([p.lyric for p in corpus])
    assert len(vocab) == 28
    model = train_generator(corpus, vocab, history=2, k=0.1)
    ranked, served = [], []
    monkeypatch.setattr(
        generator_module, "_rank", lambda counts, *args: ranked.append(counts) or _rank(counts, *args)
    )
    counts_of = model._counts
    monkeypatch.setattr(model, "_counts", lambda *args: served.append(counts_of(*args)) or served[-1])
    rnd = random.Random(20)
    for _ in range(10):
        decode(make_melody(rnd, rnd.randint(1, 12)), model, None, FusionConfig(5, 0.0, 14))
    contents = {frozenset(counts.items()) for counts in served}
    assert sorted(map(sorted, map(dict.items, ranked))) == sorted(map(sorted, contents))
    assert len({id(counts) for counts in served}) > len(ranked)


@pytest.mark.parametrize("beam_size", [1, 3, 5, 12])
def test_decode_same_through_the_reference_generator(beam_size):
    corpus = make_corpus(60, seed=15)
    vocab = build_vocabulary([p.lyric for p in corpus])
    generator = train_generator(corpus, vocab, history=2, k=0.1)
    lm = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in corpus], 4, 0.1)
    naive = NaiveGenerator(corpus, vocab, 2, 0.1)
    rnd = random.Random(16)
    for lambda_lm in (0.75, 0.0):
        config = FusionConfig(beam_size=beam_size, lambda_lm=lambda_lm, max_len=10)
        for _ in range(4):
            melody = make_melody(rnd, rnd.randint(1, 8))
            assert decode(melody, generator, lm, config) == decode(melody, naive, lm, config)


def test_first_step_bound_same_through_both_generator_paths():
    vocab = Vocabulary(["la", "li"])
    generator = MelodyConditionedNgram(vocab)
    melody = make_melody(random.Random(17), 3)

    def first_step(generator, beam_size):
        return decode(melody, generator, None, FusionConfig(beam_size, 0.0, max_len=1))

    # a beam wider than the 3 candidates (la, li and the end token) keeps them all
    wide = first_step(generator, 4)
    assert len(wide) == 3
    naive = NaiveGenerator([], vocab, 2, 0.1)
    assert wide == first_step(naive, 4)
    assert first_step(generator, 3) == first_step(naive, 3) == wide