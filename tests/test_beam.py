import ast
import math
import random
from pathlib import Path

import pytest

from syllabeam.beam import DecodeResult, FusionConfig, TraceStep, audit_trace, decode
from syllabeam.corpus import (
    EOS_TEXT,
    LyricSequence,
    MelodyNote,
    MelodySequence,
    SyllableToken,
    Vocabulary,
    build_vocabulary,
)
from syllabeam.generator import train_generator
from syllabeam.lm import SPACED, UNSPACED, ContinuationScore, lyric_lm_text, train_char_ngram
from syllabeam.corpus import render_text

from conftest import Batched, Keyed, NaiveGenerator, make_corpus, make_melody
from decode_rules import exhaustive, reference_decode, reference_steps


def melody_of(n):
    return MelodySequence(tuple(MelodyNote(60 + i, 1.0, 0.0) for i in range(n)))


class StubGenerator(Keyed):
    """Distributions keyed by the history's syllable texts."""

    def __init__(self, vocab, table, default=None):
        self.vocab = vocab
        self._table = table
        self._default = default

    def next_distribution(self, history, note):
        key = tuple(t.text for t in history)
        dist = self._table.get(key, self._default)
        if dist is None:
            raise KeyError(f"no stub distribution for {key}")
        return dict(dist)


class RandomTableGenerator(Keyed):
    """Consistent random distributions per (history, note); end token mass 0."""

    def __init__(self, vocab, seed, eos_weight=0.0):
        self.vocab = vocab
        self._rnd = random.Random(seed)
        self._eos_weight = eos_weight
        self._cache = {}

    def next_distribution(self, history, note):
        key = (tuple(t.text for t in history), note)
        if key not in self._cache:
            texts = [t for t in self.vocab.emittable() if t != EOS_TEXT]
            weights = [self._rnd.uniform(0.05, 1.0) for _ in texts]
            total = sum(weights) + self._eos_weight
            dist = {t: w / total for t, w in zip(texts, weights)}
            dist[EOS_TEXT] = self._eos_weight / total
            self._cache[key] = dist
        return dict(self._cache[key])


class RandomLM(Batched):
    """Consistent random continuation scores per (context, syllable)."""

    def __init__(self, seed, eos_score=None):
        self._rnd = random.Random(seed)
        self._eos_score = eos_score
        self._cache = {}

    def score_with_spacing(self, context, syllable):
        key = (context, syllable)
        if key not in self._cache:
            if syllable == EOS_TEXT:
                value = self._eos_score
                if value is None:
                    value = self._rnd.uniform(0.05, 1.0)
                self._cache[key] = ContinuationScore(value, UNSPACED)
            else:
                value = self._rnd.uniform(0.05, 1.0)
                variant = self._rnd.choice([SPACED, UNSPACED])
                self._cache[key] = ContinuationScore(value, variant)
        return self._cache[key]


class SpacedRandomLM(RandomLM):
    """Random scores but always starting a new word (easy to mirror)."""

    def score_with_spacing(self, context, syllable):
        key = (context, syllable)
        if key not in self._cache:
            if syllable == EOS_TEXT:
                value = self._eos_score if self._eos_score is not None else 0.0
                self._cache[key] = ContinuationScore(value, UNSPACED)
            else:
                self._cache[key] = ContinuationScore(self._rnd.uniform(0.05, 1.0), SPACED)
        return self._cache[key]


class ConstantLM(Batched):
    def __init__(self, value):
        self._value = value

    def score_with_spacing(self, context, syllable):
        return ContinuationScore(self._value, UNSPACED if syllable == EOS_TEXT else SPACED)


class TestFusionConfig:
    def test_defaults(self):
        config = FusionConfig()
        assert config.lambda_lm == 0.75
        assert config.lambda_gen == 0.25
        assert config.beam_size == 5
        assert config.max_len == 20

    @pytest.mark.parametrize("lambda_lm", [0.0, 0.1, 0.3, 0.5, 0.75, 1.0])
    def test_lambda_gen_is_lambda_lms_complement(self, lambda_lm):
        assert FusionConfig(lambda_lm=lambda_lm).lambda_gen == 1.0 - lambda_lm

    def test_lambda_gen_is_not_an_argument(self):
        with pytest.raises(TypeError):
            FusionConfig(lambda_lm=0.3, lambda_gen=0.7)

    def test_negative_weight(self):
        for lambda_lm in (-0.2, 1.2):  # a negative LM or generator weight
            with pytest.raises(ValueError, match=r"lambda_lm must be in \[0, 1\]"):
                FusionConfig(lambda_lm=lambda_lm)

    @pytest.mark.parametrize("lambda_lm", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight(self, lambda_lm):
        with pytest.raises(ValueError, match=r"lambda_lm must be in \[0, 1\]"):
            FusionConfig(lambda_lm=lambda_lm)

    def test_beam_size_positive(self):
        with pytest.raises(ValueError):
            FusionConfig(beam_size=0)

    def test_max_len_positive(self):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            FusionConfig(max_len=0)


class TestDecodeStepZero:
    """Step 0, generator-only, through a decode of one step."""

    UNIFORM = {(): {t: 0.2 for t in ["ba", "da", "fa", "la", "ma"]}}

    def make_gen(self):
        vocab = Vocabulary(["ba", "da", "fa", "la", "ma"])
        return StubGenerator(vocab, self.UNIFORM)

    def first_step(self, gen, beam_size):
        # at the default lambda_lm, so a step-0 score weighted by lambda_gen would show
        return decode(melody_of(3), gen, ConstantLM(0.5), FusionConfig(beam_size=beam_size, max_len=1))

    def test_greedy_argmax(self):
        vocab = Vocabulary(["hi", "lo"])
        results = self.first_step(StubGenerator(vocab, {(): {"hi": 0.7, "lo": 0.3}}), 1)
        assert len(results) == 1
        assert results[0].lyric.tokens[0].text == "hi"
        assert results[0].cumulative == 0.7

    def test_uniform_tie_break_by_id(self):
        results = self.first_step(self.make_gen(), 3)
        assert [r.lyric.tokens[0].text for r in results] == ["ba", "da", "fa"]
        assert all(r.cumulative == 0.2 for r in results)

    def test_first_token_word_initial(self):
        results = self.first_step(self.make_gen(), 2)
        assert all(r.lyric.tokens[0].word_initial for r in results)

    def test_beam_bigger_than_candidates(self):
        results = self.first_step(self.make_gen(), 6)
        assert [r.lyric.tokens[0].text for r in results] == ["ba", "da", "fa", "la", "ma"]
        assert results == self.first_step(self.make_gen(), 5)

    def test_no_lm_contribution_recorded(self):
        step = self.first_step(self.make_gen(), 1)[0].trace[0]
        assert step.lm_score is None
        assert step.contribution == step.generator_prob

    def test_eos_candidate_finishes(self):
        vocab = Vocabulary(["la"])
        results = self.first_step(StubGenerator(vocab, {(): {EOS_TEXT: 0.9, "la": 0.1}}), 2)
        # the end token is a scored step; the open hypothesis is closed unscored
        assert [t.text for t in results[0].lyric.tokens] == [EOS_TEXT] and len(results[0].trace) == 1
        assert [t.text for t in results[1].lyric.tokens] == ["la", EOS_TEXT] and len(results[1].trace) == 1


WORKED_VOCAB = Vocabulary(["any", "big", "don't", "ger", "get", "ideas"])
WORKED_HISTORY = ("don't", "get", "any", "big")


def worked_example_generator():
    """Forces the history "don't get any big", then prefers the
    word-completing "ger" (0.3) to "ideas" (0.2)."""
    table = {WORKED_HISTORY[:i]: {text: 1.0} for i, text in enumerate(WORKED_HISTORY)}
    table[WORKED_HISTORY] = {"ger": 0.3, "ideas": 0.2}
    return StubGenerator(WORKED_VOCAB, table)


class TestWorkedFusionExample:
    """The two-candidate re-ranking walkthrough: the generator prefers the
    word-completing syllable, the LM overrules it."""

    CONFIG = FusionConfig(beam_size=2, lambda_lm=0.75, max_len=len(WORKED_HISTORY) + 1)

    def test_lm_overrules_generator(self):
        class FixedLM(Batched):
            def score_with_spacing(self, context, syllable):
                if syllable in WORKED_HISTORY:
                    return ContinuationScore(0.0, SPACED)
                assert context == "don't get any big"
                if syllable == "ideas":
                    return ContinuationScore(0.6, SPACED)
                return ContinuationScore(0.1, UNSPACED)

        results = decode(melody_of(6), worked_example_generator(), FixedLM(), self.CONFIG)

        assert [render_text(r.lyric) for r in results] == ["don't get any big ideas", "don't get any bigger"]
        assert math.isclose(results[0].trace[-1].contribution, 0.50, abs_tol=1e-9)
        assert math.isclose(results[1].trace[-1].contribution, 0.15, abs_tol=1e-9)

    def test_with_trained_lm(self):
        # an LM trained where "big ideas" is frequent scores "ger" below the
        # 0.167 break-even, so fusion still ranks "ideas" first
        texts = ["don't get any big ideas", "big ideas are the best ideas", "big ideas win"]
        lm = train_char_ngram([lyric_lm_text(t) for t in texts], order=4, k=0.01)
        assert lm.score_with_spacing("don't get any big", "ger").value < 0.167
        results = decode(melody_of(6), worked_example_generator(), lm, self.CONFIG)
        assert render_text(results[0].lyric) == "don't get any big ideas"


class TestDecodeLaterSteps:
    """The steps after the first, checked through decode against
    `reference_decode`."""

    def random_instance(self, rnd):
        n_texts = rnd.randint(2, 7)
        texts = [f"s{chr(ord('a') + i)}" for i in range(n_texts)]
        vocab = Vocabulary(texts)
        gen = RandomTableGenerator(vocab, rnd.randrange(10**9), eos_weight=rnd.choice([0.0, 0.1]))
        lm = RandomLM(rnd.randrange(10**9))
        beam_size = rnd.randint(1, 4)
        lambda_lm = rnd.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        config = FusionConfig(beam_size=beam_size, lambda_lm=lambda_lm, max_len=rnd.randint(1, 10))
        melody = melody_of(rnd.randint(1, 8))
        return gen, lm, melody, config

    def test_matches_reference_on_200_random_instances(self):
        rnd = random.Random(20240501)
        for _ in range(200):
            gen, lm, melody, config = self.random_instance(rnd)
            assert decode(melody, gen, lm, config) == reference_decode(melody, gen, lm, config)

    def test_matches_reference_with_a_wide_beam(self):
        # each of 30 parents proposes 30 of 36 syllables, so past the first
        # step the pool is cut back to its best 30 at 60 entries about three
        # times a step
        rnd = random.Random(7)
        vocab = Vocabulary([f"s{a}{b}" for a in "abcdef" for b in "abcdef"])
        for _ in range(4):
            gen = RandomTableGenerator(vocab, rnd.randrange(10**9), eos_weight=0.1)
            lm = RandomLM(rnd.randrange(10**9))
            config = FusionConfig(beam_size=30, lambda_lm=rnd.choice([0.5, 1.0]), max_len=7)
            assert decode(melody_of(6), gen, lm, config) == reference_decode(melody_of(6), gen, lm, config)

    def test_matches_reference_past_melody_end(self):
        rnd = random.Random(99)
        for _ in range(20):
            gen, lm, _, config = self.random_instance(rnd)
            melody = melody_of(rnd.randint(1, 3))
            config = FusionConfig(config.beam_size, config.lambda_lm, len(melody) + rnd.randint(1, 3))
            got = decode(melody, gen, lm, config)
            assert got == reference_decode(melody, gen, lm, config)
            # only the end token may be proposed past the final note, so
            # every hypothesis ends with a scored end step
            assert all(len(r.trace) == len(r.lyric.tokens) for r in got)

    def test_lambda_zero_matches_no_lm(self):
        rnd = random.Random(41)
        for _ in range(50):
            gen, lm, melody, config = self.random_instance(rnd)
            config = FusionConfig(beam_size=3, lambda_lm=0.0, max_len=config.max_len)
            with_lm = decode(melody, gen, lm, config)
            without = decode(melody, gen, None, config)
            assert without == reference_decode(melody, gen, None, config)
            assert [[t.text for t in r.lyric.tokens] for r in with_lm] == [
                [t.text for t in r.lyric.tokens] for r in without
            ]
            assert [r.cumulative for r in with_lm] == [r.cumulative for r in without]

    def test_constant_lm_keeps_selection(self):
        # shifting every expansion by lambda_lm * c cannot reorder them. The
        # generator gives the end token no mass and the beam is no wider than
        # the syllables, so no hypothesis ends before the melody does and
        # every hypothesis takes the same shift at every step
        rnd = random.Random(43)
        for _ in range(50):
            gen, _, melody, config = self.random_instance(rnd)
            gen = RandomTableGenerator(gen.vocab, rnd.randrange(10**9))
            config = FusionConfig(min(3, len(gen.vocab.syllable_texts())), 0.75, config.max_len)
            shifted = decode(melody, gen, ConstantLM(0.37), config)
            assert shifted == reference_decode(melody, gen, ConstantLM(0.37), config)
            base = decode(melody, gen, ConstantLM(0.0), config)
            assert [r.lyric for r in shifted] == [r.lyric for r in base]

    def tie_heavy_instance(self, rnd):
        # every candidate after the first step gets the same contribution:
        # the uniform generator's probability at lambda_lm 0, the constant
        # LM's score at lambda_lm 1, where the generator's random ranking
        # puts candidate ids out of order. Hypotheses of equal length then
        # tie with one another at the cut, and with hypotheses that ended.
        texts = ["la", "mi", "so", "fa", "re"][: rnd.randint(1, 5)]
        vocab = Vocabulary(texts)
        emittable = vocab.emittable()
        lambda_lm = rnd.choice([0.0, 1.0])
        weights = [1.0 if lambda_lm == 0 else rnd.random() for _ in emittable]
        gen = StubGenerator(vocab, {}, default={t: w / sum(weights) for t, w in zip(emittable, weights)})
        config = FusionConfig(
            beam_size=rnd.randint(1, 3 * len(emittable) + 2), lambda_lm=lambda_lm, max_len=rnd.randint(1, 6)
        )
        return gen, ConstantLM(0.5), melody_of(rnd.randint(1, 4)), config

    def test_matches_reference_when_ties_decide_the_cut(self):
        rnd = random.Random(20261018)
        ties_at_cut = 0
        for _ in range(300):
            gen, lm, melody, config = self.tie_heavy_instance(rnd)
            assert decode(melody, gen, lm, config) == reference_decode(melody, gen, lm, config)
            # some step's pool is larger than the beam and the kept scores
            # tie at the cut
            steps = reference_steps(melody, gen, lm, config)
            for t, (parents, kept) in enumerate(zip(steps, steps[1:]), start=1):
                per_parent = 1 if t >= len(melody) else min(config.beam_size, len(gen.vocab.emittable()))
                pool = sum(1 if p.finished else per_parent for p in parents)
                if pool > len(kept) > 1 and kept[-1].cumulative == kept[-2].cumulative:
                    ties_at_cut += 1
                    break
        assert ties_at_cut > 50

    def test_expansion_tied_with_a_full_pools_last_entry_is_cut(self):
        # beam 2, lambda_lm 1, a constant LM: two equal first syllables; the
        # first one's two expansions fill the pool, and each expansion of the
        # second ties its last entry exactly, so only the first's are kept
        gen = StubGenerator(
            Vocabulary(["la", "mi"]),
            {(): {"la": 0.5, "mi": 0.5}},
            default={"la": 0.5, "mi": 0.25, EOS_TEXT: 0.25},
        )
        config = FusionConfig(beam_size=2, lambda_lm=1.0, max_len=2)
        got = decode(melody_of(3), gen, ConstantLM(0.5), config)
        assert got == reference_decode(melody_of(3), gen, ConstantLM(0.5), config)
        assert [(r.lyric.tokens[0].text, r.cumulative) for r in got] == [("la", 1.0), ("la", 1.0)]

    def test_frozen_beams_tie_expansions_in_any_parent_order(self):
        # lambda_lm 1 and an LM scoring 0: no step after the first adds to a
        # score, so every hypothesis ties. After step 1 the beam holds, in
        # order, "la <eos>" (ended), "la la", "la mi" and "mi <eos>" (ended);
        # at step 2 the first ended one passes through ahead of its followers'
        # expansions, and those expansions cut the last one
        gen = StubGenerator(
            Vocabulary(["la", "mi"]),
            {(): {"la": 0.5, "mi": 0.5}},
            default={"la": 0.25, "mi": 0.25, EOS_TEXT: 0.5},
        )
        config = FusionConfig(beam_size=4, lambda_lm=1.0, max_len=3)
        steps = reference_steps(melody_of(3), gen, ConstantLM(0.0), config)
        assert [[t.text for t in b.tokens] for b in steps[1]] == [
            ["la", EOS_TEXT], ["la", "la"], ["la", "mi"], ["mi", EOS_TEXT]
        ]
        got = decode(melody_of(3), gen, ConstantLM(0.0), config)
        assert got == reference_decode(melody_of(3), gen, ConstantLM(0.0), config)
        assert [[t.text for t in r.lyric.tokens] for r in got] == [
            ["la", EOS_TEXT], ["la", "la", EOS_TEXT], ["la", "la", "la", EOS_TEXT], ["la", "la", "mi", EOS_TEXT]
        ]
        assert [r.cumulative for r in got] == [0.5] * 4

    def test_finished_beam_passes_through_and_wins_tie(self):
        # step 0 ends one hypothesis on the end token at 0.75 and opens "la"
        # at 0.25; each step-1 child adds 0.5 * 0.5 + 0.5 * 0.5 = 0.5, so the
        # open parent's children tie the ended hypothesis exactly
        vocab = Vocabulary(["la", "mi"])
        gen = StubGenerator(vocab, {(): {EOS_TEXT: 0.75, "la": 0.25}}, default={"la": 0.5, "mi": 0.5})
        config = FusionConfig(beam_size=2, lambda_lm=0.5, max_len=2)
        got = decode(melody_of(4), gen, ConstantLM(0.5), config)
        assert got == reference_decode(melody_of(4), gen, ConstantLM(0.5), config)
        # the ended hypothesis is kept as it was, ahead of the children
        assert [t.text for t in got[0].lyric.tokens] == [EOS_TEXT] and len(got[0].trace) == 1
        assert got[1].cumulative == got[0].cumulative == 0.75
        assert [t.text for t in got[1].lyric.syllables()] == ["la", "la"]  # then id order among children


class TestDecode:
    def trained_setup(self, n_pairs=60, seed=71, k=0.05):
        """The trained generator's NaiveGenerator, the generator and the LM."""
        corpus = make_corpus(n_pairs, seed=seed, min_syllables=6, max_syllables=12)
        vocab = build_vocabulary([p.lyric for p in corpus])
        gen = train_generator(corpus, vocab, history=2, k=k)
        lm = train_char_ngram(
            [lyric_lm_text(render_text(p.lyric)) for p in corpus], order=4, k=0.1
        )
        return NaiveGenerator(corpus, vocab, 2, k), gen, lm

    def test_output_shape_and_audit(self):
        _, gen, lm = self.trained_setup()
        melody = make_melody(random.Random(5), 12)
        results = decode(melody, gen, lm, FusionConfig(beam_size=4, max_len=12))
        assert len(results) == 4
        for result in results:
            assert result.lyric.tokens[-1].is_eos
            assert len(result.lyric.syllables()) <= 12
        assert audit_trace(results)

    def test_sorted_by_cumulative(self):
        _, gen, lm = self.trained_setup()
        melody = make_melody(random.Random(6), 10)
        results = decode(melody, gen, lm, FusionConfig(beam_size=5, max_len=10))
        scores = [r.cumulative for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic(self):
        _, gen, lm = self.trained_setup()
        melody = make_melody(random.Random(7), 10)
        config = FusionConfig(beam_size=5, max_len=10)
        assert decode(melody, gen, lm, config) == decode(melody, gen, lm, config)

    def test_monotone_accumulation(self):
        _, gen, lm = self.trained_setup()
        melody = make_melody(random.Random(8), 10)
        for result in decode(melody, gen, lm, FusionConfig(beam_size=5, max_len=10)):
            running = 0.0
            for step in result.trace:
                assert step.contribution >= 0.0
                running += step.contribution
            assert math.isclose(running, result.cumulative, abs_tol=1e-9)

    def test_greedy_generator_only(self):
        naive, gen, _ = self.trained_setup()
        melody = make_melody(random.Random(9), 8)
        config = FusionConfig(beam_size=1, lambda_lm=0.0, max_len=8)
        results = decode(melody, gen, None, config)
        assert len(results) == 1
        # greedy reference: argmax at each step
        tokens = []
        for t in range(8):
            dist = naive.next_distribution(tokens, melody.notes[t])
            best = min(dist.items(), key=lambda kv: (-kv[1], gen.vocab.id_of(kv[0])))
            if best[0] == EOS_TEXT:
                break
            tokens.append(SyllableToken(best[0], True))
        assert [t.text for t in results[0].lyric.syllables()] == [t.text for t in tokens]

    def test_lambda_zero_token_identical_to_generator_only(self):
        _, gen, lm = self.trained_setup()
        melody = make_melody(random.Random(10), 10)
        config = FusionConfig(beam_size=4, lambda_lm=0.0, max_len=10)
        with_lm = decode(melody, gen, lm, config)
        without = decode(melody, gen, None, config)
        assert [tuple(t.text for t in r.lyric.tokens) for r in with_lm] == [
            tuple(t.text for t in r.lyric.tokens) for r in without
        ]

    def test_requires_lm_when_weighted(self):
        _, gen, _ = self.trained_setup(n_pairs=5)
        melody = make_melody(random.Random(11), 5)
        with pytest.raises(ValueError):
            decode(melody, gen, None, FusionConfig())

    def test_global_optimum_small_universe(self):
        # an end token adds 0, so the optimum runs to the cutoff; a beam of
        # V^L cuts nothing before the last step, and that step keeps the best
        vocab = Vocabulary(["la", "mi", "so"])
        gen = RandomTableGenerator(vocab, seed=12345, eos_weight=0.0)
        lm = SpacedRandomLM(seed=54321, eos_score=0.0)
        melody = melody_of(3)
        config = FusionConfig(beam_size=27, lambda_lm=0.75, max_len=3)
        assert decode(melody, gen, lm, config)[0] == exhaustive(melody, gen, lm, config)

    @pytest.mark.parametrize("n_texts,length", [(2, 4), (4, 2), (3, 3)])
    def test_global_optimum_other_universes(self, n_texts, length):
        texts = ["la", "mi", "so", "fa"][:n_texts]
        vocab = Vocabulary(texts)
        gen = RandomTableGenerator(vocab, seed=1000 + n_texts, eos_weight=0.0)
        lm = SpacedRandomLM(seed=2000 + length, eos_score=0.0)
        melody = melody_of(length)
        config = FusionConfig(
            beam_size=n_texts**length, lambda_lm=0.75, max_len=length
        )
        assert decode(melody, gen, lm, config)[0] == exhaustive(melody, gen, lm, config)

    def test_no_result_beats_the_exhaustive_optimum(self):
        # a beam of 1 follows the one path `children` leaves, so it is the optimum
        naive, gen, lm = self.trained_setup()
        rnd = random.Random(20261019)
        for _ in range(40):
            melody = make_melody(rnd, rnd.randint(1, 6))
            config = FusionConfig(rnd.randint(1, 5), rnd.choice([0.0, 0.25, 0.75, 1.0]), rnd.randint(1, 7))
            results, best = decode(melody, gen, lm, config), exhaustive(melody, naive, lm, config)
            assert all(result.cumulative <= best.cumulative for result in results)
            if config.beam_size == 1:
                assert results == [best]

    def test_melody_exhausted_scores_end_transition(self):
        # max_len beyond the melody: hypotheses close with a scored end
        # step, never with more syllables than notes
        _, gen, lm = self.trained_setup()
        melody = make_melody(random.Random(12), 6)
        results = decode(melody, gen, lm, FusionConfig(beam_size=3, max_len=20))
        for result in results:
            assert result.lyric.tokens[-1].is_eos
            assert len(result.lyric.syllables()) <= 6
            if len(result.lyric.syllables()) == 6:
                assert len(result.trace) == 7
                assert result.trace[-1].lm_score is not None
        assert audit_trace(results)

    def test_eos_top_candidate_finishes_immediately(self):
        vocab = Vocabulary(["la"])
        gen = StubGenerator(vocab, {(): {EOS_TEXT: 0.9, "la": 0.1}})
        results = decode(melody_of(2), gen, None, FusionConfig(beam_size=1, lambda_lm=0.0))
        assert [t.text for t in results[0].lyric.tokens] == [EOS_TEXT]


def test_decode_rules_import_only_data_types_from_the_package():
    # the oracles must restate decode's rules, not reuse its search
    allowed = {"DecodeResult", "TraceStep", "EOS_TEXT", "LyricSequence", "SyllableToken", "SPACED", "UNSPACED"}
    tree = ast.parse((Path(__file__).parent / "decode_rules.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "syllabeam" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "syllabeam":
            assert {alias.name for alias in node.names} <= allowed, node.module


class RecordingLM:
    """Forwards each LM query to `lm` and records it as (method, context, syllables)."""

    def __init__(self, lm):
        self._lm, self.calls = lm, []

    def score_candidates(self, context, syllables):
        self.calls.append(("score_candidates", context, syllables))
        return self._lm.score_candidates(context, syllables)

    def score_with_spacing(self, context, syllable):
        self.calls.append(("score_with_spacing", context, syllable))
        return self._lm.score_with_spacing(context, syllable)


def test_each_step_asks_the_lm_once_per_unfinished_hypothesis():
    # before the final note, one batch of the generator's top candidates per
    # open hypothesis; past it, one end-token query per open hypothesis. The
    # reference search gives each step's hypotheses.
    naive, gen, lm = TestDecode().trained_setup()
    recorder = RecordingLM(lm)
    rnd = random.Random(13)
    steps_before = steps_past = 0
    for _ in range(8):
        melody = make_melody(rnd, rnd.randint(1, 6))
        config = FusionConfig(beam_size=rnd.randint(1, 6), max_len=10)
        recorder.calls.clear()
        decode(melody, gen, recorder, config)
        expected = []
        steps = reference_steps(melody, naive, lm, config)
        for t, beams in enumerate(steps[:-1], start=1):
            open_beams = [beam for beam in beams if not beam.finished]
            if t < len(melody.notes):
                bucket = gen.bucket(melody.notes[t])
                expected += [
                    ("score_candidates", beam.rendered,
                     gen.top_by_key(gen.history_key(beam.tokens), bucket, config.beam_size)[0])
                    for beam in open_beams
                ]
                steps_before += 1
            else:
                expected += [("score_with_spacing", beam.rendered, EOS_TEXT) for beam in open_beams]
                steps_past += 1
        assert recorder.calls == expected
    assert steps_before > 10 and steps_past > 3


class TestAuditTrace:
    def test_decode_output_passes(self):
        corpus = make_corpus(20, seed=81)
        vocab = build_vocabulary([p.lyric for p in corpus])
        gen = train_generator(corpus, vocab, history=2, k=0.05)
        lm = train_char_ngram(
            [lyric_lm_text(render_text(p.lyric)) for p in corpus], order=3, k=0.1
        )
        melody = make_melody(random.Random(4), 8)
        assert audit_trace(decode(melody, gen, lm, FusionConfig(beam_size=3, max_len=8)))

    def test_corrupted_trace_fails(self):
        lyric = LyricSequence((SyllableToken("la", True), SyllableToken(EOS_TEXT, False)))
        good = DecodeResult(lyric, 0.5, (TraceStep(0.5, None, SPACED, 0.5),))
        bad = DecodeResult(lyric, 0.5, (TraceStep(0.5, None, SPACED, 0.4),))
        assert audit_trace([good])
        assert not audit_trace([bad])

    def test_off_by_a_millionth_fails(self):
        lyric = LyricSequence((SyllableToken("la", True), SyllableToken(EOS_TEXT, False)))
        trace = (TraceStep(0.5, None, SPACED, 0.5),)
        assert not audit_trace([DecodeResult(lyric, 0.5 + 1e-6, trace)])
        assert not audit_trace([DecodeResult(lyric, 0.5 - 1e-6, trace)])

    def test_empty_trace_zero_cumulative(self):
        lyric = LyricSequence((SyllableToken(EOS_TEXT, False),))
        assert audit_trace([DecodeResult(lyric, 0.0, ())])
