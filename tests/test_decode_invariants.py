"""Fused decode on real models: invariants, reference paths and threads.

Over small random corpora, melodies and beam sizes 1-12, a decode with a
trained `CharNgramModel` and `MelodyConditionedNgram` passes `audit_trace`,
emits no lyric longer than its melody, repeats exactly, and equals the decode
through the reference interfaces: an LM scoring through `score_with_spacing`
alone, one candidate at a time (`Batched`), handed a new copy of every
context so that it checks nearly every one anew, and `NaiveGenerator`, which
counts the corpus itself and whose candidates `Keyed` ranks from the full
distribution. It also equals `reference_decode`, the beam rebuilt over
`decode_rules.children`, on oracles alone: the same naive generator and
`NaiveWalker`, which counts the LM's training texts itself. So that check
reads no code of `lm.py` or `generator.py`, and the prefixes decode's
results share change no output.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam import lm as lm_module
from syllabeam.beam import FusionConfig, audit_trace, decode
from syllabeam.corpus import EOS_TEXT, build_vocabulary, render_text
from syllabeam.generator import train_generator
from syllabeam.lm import lyric_lm_text, train_char_ngram

from conftest import Batched, NaiveGenerator, NaiveWalker, make_corpus, make_melody
from decode_rules import reference_decode


class SpacingOnly(Batched):
    """An LM scoring through `score_with_spacing` alone, passing it a new copy
    of every context longer than one character (the interpreter shares
    shorter strings)."""

    def __init__(self, lm):
        self._lm = lm

    def score_with_spacing(self, context, syllable_text):
        return self._lm.score_with_spacing("".join(list(context)), syllable_text)


def train(corpus, order, lm_k, history, gen_k):
    """The LM, the generator, and the generator's NaiveGenerator."""
    lm = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in corpus], order, lm_k)
    vocab = build_vocabulary([p.lyric for p in corpus])
    return lm, train_generator(corpus, vocab, history, gen_k), NaiveGenerator(corpus, vocab, history, gen_k)


@settings(max_examples=100, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pairs=st.integers(1, 25),
    melody_seed=st.integers(0, 10_000),
    notes=st.integers(1, 10),
    beam_size=st.integers(1, 12),
    lambda_lm=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    max_len=st.integers(1, 14),
    order=st.integers(1, 4),
    lm_k=st.sampled_from([0.0, 0.1, 1.0]),
    history=st.integers(1, 3),
    gen_k=st.sampled_from([0.0, 0.1]),
)
def test_decode_invariants(
    corpus_seed, pairs, melody_seed, notes, beam_size, lambda_lm, max_len, order, lm_k, history, gen_k
):
    corpus = make_corpus(pairs, seed=corpus_seed, min_syllables=1, max_syllables=10)
    lm, generator, naive = train(corpus, order, lm_k, history, gen_k)
    melody = make_melody(random.Random(melody_seed), notes)
    config = FusionConfig(beam_size, lambda_lm, max_len)

    results = decode(melody, generator, lm, config)
    assert audit_trace(results)
    assert all(len(result.lyric.syllables()) <= len(melody) for result in results)
    assert decode(melody, generator, lm, config) == results
    assert decode(melody, naive, SpacingOnly(lm), config) == results


@settings(max_examples=100, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    pairs=st.integers(1, 25),
    melody_seed=st.integers(0, 10_000),
    notes=st.integers(1, 10),
    beam_size=st.integers(1, 12),
    lambda_lm=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    max_len=st.integers(1, 14),
    history=st.integers(1, 3),
)
def test_decode_equals_the_search_rebuilt_step_by_step(
    corpus_seed, pairs, melody_seed, notes, beam_size, lambda_lm, max_len, history
):
    corpus = make_corpus(pairs, seed=corpus_seed, min_syllables=1, max_syllables=10)
    lm, generator, naive = train(corpus, 3, 0.1, history, 0.1)
    melody = make_melody(random.Random(melody_seed), notes)
    config = FusionConfig(beam_size, lambda_lm, max_len)

    walker = NaiveWalker([lyric_lm_text(render_text(p.lyric)) for p in corpus], 3, 0.1)
    results = decode(melody, generator, lm, config)
    assert results == reference_decode(melody, naive, walker, config)
    for result in results:
        tokens = result.lyric.tokens
        assert tokens[-1].text == EOS_TEXT
        if len(tokens) > config.max_len:  # closed at the cutoff: no step for the end token
            assert len(result.trace) == config.max_len == len(tokens) - 1
        else:  # chose the end token: a scored step
            assert len(result.trace) == len(tokens)
    # results with equal token prefixes share the prefix's trace steps
    for a in results:
        for b in results:
            same = 0
            while same < min(len(a.trace), len(b.trace)) and a.lyric.tokens[same] == b.lyric.tokens[same]:
                assert a.trace[same] is b.trace[same]
                same += 1


def test_threads_sharing_models_decode_as_sequentially(monkeypatch):
    corpus = make_corpus(60, seed=21)
    rnd = random.Random(22)
    melodies = [make_melody(rnd, rnd.randint(4, 12)) for _ in range(12)]
    config = FusionConfig(beam_size=6, max_len=14)
    lm, generator, _ = train(corpus, 4, 0.1, 2, 0.1)
    expected = [decode(melody, generator, lm, config) for melody in melodies]

    # cold, shared models whose memos empty often, and frequent thread switches
    monkeypatch.setattr(lm_module, "MEMO_LIMIT", 64)
    lm, generator, _ = train(corpus, 4, 0.1, 2, 0.1)

    def decode_all(start):
        order = melodies[start:] + melodies[:start]
        return [decode(melody, generator, lm, config) for melody in order for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(decode_all, 3 * worker) for worker in range(4)]
            outputs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for worker, output in enumerate(outputs):
        start = 3 * worker
        order = expected[start:] + expected[:start]
        assert output == [results for results in order for _ in range(2)]
