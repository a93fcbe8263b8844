"""Fused decode on real models: invariants, reference paths and threads.

Over small random corpora, melodies and beam sizes 1-12, a decode with a
trained `CharNgramModel` and `MelodyConditionedNgram` passes `audit_trace`,
emits no lyric longer than its melody, repeats exactly, and equals the decode
through the reference interfaces: an LM offering only `score_with_spacing`,
handed a new copy of every context so that it checks nearly every one anew,
and a generator offering only `vocab` and `next_distribution`, whose
candidates the beam ranks itself. It also equals the same search rebuilt
through `first_step` and `expand_step`, whose hypotheses are unwound one step
at a time, so the prefixes decode's results share change no output.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam import lm as lm_module
from syllabeam.beam import DecodeResult, FusionConfig, audit_trace, decode, expand_step, first_step
from syllabeam.corpus import EOS_TEXT, LyricSequence, SyllableToken, build_vocabulary, render_text
from syllabeam.generator import train_generator
from syllabeam.lm import lyric_lm_text, train_char_ngram

from conftest import DistributionOnly, make_corpus, make_melody


class SpacingOnly:
    """An LM offering only `score_with_spacing`, passing it a new copy of
    every context longer than one character (the interpreter shares shorter
    strings)."""

    def __init__(self, lm):
        self._lm = lm

    def score_with_spacing(self, context, syllable_text):
        return self._lm.score_with_spacing("".join(list(context)), syllable_text)


def train(corpus, order, lm_k, history, gen_k):
    lm = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in corpus], order, lm_k)
    vocab = build_vocabulary([p.lyric for p in corpus])
    return lm, train_generator(corpus, vocab, history, gen_k)


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
    lm, generator = train(corpus, order, lm_k, history, gen_k)
    melody = make_melody(random.Random(melody_seed), notes)
    config = FusionConfig(beam_size, lambda_lm, 1.0 - lambda_lm, max_len)

    results = decode(melody, generator, lm, config)
    assert audit_trace(results)
    assert all(len(result.lyric.syllables()) <= len(melody) for result in results)
    assert decode(melody, generator, lm, config) == results
    assert decode(melody, DistributionOnly(generator), SpacingOnly(lm), config) == results


def stepwise_decode(melody, generator, lm, config):
    """decode's search through the public step functions."""
    beams = first_step(generator, melody, config)
    for t in range(1, config.max_len):
        if all(beam.finished for beam in beams):
            break
        beams = expand_step(beams, generator, lm, melody, t, config)
    end = SyllableToken(EOS_TEXT, False)
    results = [
        DecodeResult(LyricSequence(b.tokens if b.finished else b.tokens + (end,)), b.cumulative, b.trace)
        for b in beams
    ]
    return sorted(results, key=lambda result: -result.cumulative)


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
    lm, generator = train(corpus, 3, 0.1, history, 0.1)
    melody = make_melody(random.Random(melody_seed), notes)
    config = FusionConfig(beam_size, lambda_lm, 1.0 - lambda_lm, max_len)

    results = decode(melody, generator, lm, config)
    assert results == stepwise_decode(melody, generator, lm, config)
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
    lm, generator = train(corpus, 4, 0.1, 2, 0.1)
    expected = [decode(melody, generator, lm, config) for melody in melodies]

    # cold, shared models whose memos empty often, and frequent thread switches
    monkeypatch.setattr(lm_module, "MEMO_LIMIT", 64)
    lm, generator = train(corpus, 4, 0.1, 2, 0.1)

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
