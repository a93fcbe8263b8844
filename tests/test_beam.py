import itertools
import math
import random

import pytest

from syllabeam.beam import (
    Beam,
    DecodeResult,
    FusionConfig,
    TraceStep,
    audit_trace,
    decode,
    expand_step,
    first_step,
)
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

from conftest import Batched, Keyed, make_corpus, make_melody


def melody_of(n):
    return MelodySequence(tuple(MelodyNote(60 + i, 1.0, 0.0) for i in range(n)))


def word_beam(texts, cumulative=0.0, finished=False):
    tokens = tuple(SyllableToken(t, True) for t in texts)
    return Beam(tokens, " ".join(texts), cumulative, finished, ())


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


def reference_expand(beams, generator, lm, melody, t, config):
    """Materialize every candidate, sort, keep the best; written independently
    of expand_step to serve as its selection oracle."""
    note = melody.notes[t] if t < len(melody.notes) else None
    entries = []
    for parent, beam in enumerate(beams):
        if beam.finished:
            entries.append((beam.cumulative, parent, -1, beam))
            continue
        dist = generator.next_distribution(beam.tokens, note)
        if note is None:
            ranked = [(EOS_TEXT, dist[EOS_TEXT])]
        else:
            ranked = sorted(
                dist.items(), key=lambda kv: (-kv[1], generator.vocab.id_of(kv[0]))
            )[: config.beam_size]
        for text, prob in ranked:
            if lm is None:
                lm_score, variant = 0.0, SPACED if text != EOS_TEXT else UNSPACED
            else:
                scored = lm.score_with_spacing(beam.rendered, text)
                lm_score, variant = scored.value, scored.chosen_variant
            contribution = config.lambda_gen * prob + config.lambda_lm * lm_score
            cumulative = beam.cumulative + contribution
            if text == EOS_TEXT:
                tokens = beam.tokens + (SyllableToken(EOS_TEXT, False),)
                rendered, finished = beam.rendered, True
            else:
                spaced = variant == SPACED
                tokens = beam.tokens + (SyllableToken(text, spaced),)
                rendered = beam.rendered + ((" " + text) if spaced else text)
                finished = False
            entries.append((cumulative, parent, generator.vocab.id_of(text),
                            (tokens, rendered, cumulative, finished)))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    out = []
    for _, parent, cid, payload in entries[: config.beam_size]:
        if isinstance(payload, Beam):
            out.append((payload.tokens, payload.rendered, payload.cumulative, payload.finished))
        else:
            out.append(payload)
    return out


def project(beams):
    return [(b.tokens, b.rendered, b.cumulative, b.finished) for b in beams]


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


class TestFirstStep:
    UNIFORM = {(): {t: 0.2 for t in ["ba", "da", "fa", "la", "ma"]}}

    def make_gen(self):
        vocab = Vocabulary(["ba", "da", "fa", "la", "ma"])
        return StubGenerator(vocab, self.UNIFORM)

    def test_greedy_argmax(self):
        vocab = Vocabulary(["hi", "lo"])
        gen = StubGenerator(vocab, {(): {"hi": 0.7, "lo": 0.3}})
        beams = first_step(gen, melody_of(3), FusionConfig(beam_size=1))
        assert len(beams) == 1
        assert beams[0].tokens[0].text == "hi"
        assert beams[0].cumulative == 0.7

    def test_uniform_tie_break_by_id(self):
        beams = first_step(self.make_gen(), melody_of(3), FusionConfig(beam_size=3))
        assert [b.tokens[0].text for b in beams] == ["ba", "da", "fa"]
        assert all(b.cumulative == 0.2 for b in beams)

    def test_first_token_word_initial(self):
        beams = first_step(self.make_gen(), melody_of(3), FusionConfig(beam_size=2))
        assert all(b.tokens[0].word_initial for b in beams)

    def test_beam_bigger_than_candidates(self):
        beams = first_step(self.make_gen(), melody_of(3), FusionConfig(beam_size=6))
        assert [b.tokens[0].text for b in beams] == ["ba", "da", "fa", "la", "ma"]
        assert beams == first_step(self.make_gen(), melody_of(3), FusionConfig(beam_size=5))

    def test_no_lm_contribution_recorded(self):
        beams = first_step(self.make_gen(), melody_of(3), FusionConfig(beam_size=1))
        step = beams[0].trace[0]
        assert step.lm_score is None
        assert step.contribution == step.generator_prob

    def test_eos_candidate_finishes(self):
        vocab = Vocabulary(["la"])
        gen = StubGenerator(vocab, {(): {EOS_TEXT: 0.9, "la": 0.1}})
        beams = first_step(gen, melody_of(2), FusionConfig(beam_size=2))
        assert beams[0].finished and beams[0].rendered == ""
        assert not beams[1].finished


class TestWorkedFusionExample:
    """The two-candidate re-ranking walkthrough: the generator prefers the
    word-completing syllable, the LM overrules it."""

    VOCAB = Vocabulary(["any", "big", "don't", "ger", "get", "ideas"])
    HISTORY = ("don't", "get", "any", "big")

    def make_parent(self):
        return word_beam(self.HISTORY)

    def test_lm_overrules_generator(self):
        gen = StubGenerator(self.VOCAB, {self.HISTORY: {"ger": 0.3, "ideas": 0.2}})

        class FixedLM(Batched):
            def score_with_spacing(self, context, syllable):
                assert context == "don't get any big"
                if syllable == "ideas":
                    return ContinuationScore(0.6, SPACED)
                return ContinuationScore(0.1, UNSPACED)

        config = FusionConfig(beam_size=2, lambda_lm=0.75)
        beams = expand_step([self.make_parent()], gen, FixedLM(), melody_of(6), 4, config)

        assert beams[0].tokens[-1].text == "ideas"
        assert math.isclose(beams[0].cumulative, 0.50, abs_tol=1e-9)
        assert beams[0].rendered == "don't get any big ideas"
        assert beams[1].tokens[-1].text == "ger"
        assert math.isclose(beams[1].cumulative, 0.15, abs_tol=1e-9)
        assert beams[1].rendered == "don't get any bigger"

    def test_with_trained_lm(self):
        # an LM trained where "big ideas" is frequent scores "ger" below the
        # 0.167 break-even, so fusion still ranks "ideas" first
        texts = ["don't get any big ideas", "big ideas are the best ideas", "big ideas win"]
        lm = train_char_ngram([lyric_lm_text(t) for t in texts], order=4, k=0.01)
        assert lm.score_with_spacing("don't get any big", "ger").value < 0.167
        gen = StubGenerator(self.VOCAB, {self.HISTORY: {"ger": 0.3, "ideas": 0.2}})
        config = FusionConfig(beam_size=2, lambda_lm=0.75)
        beams = expand_step([self.make_parent()], gen, lm, melody_of(6), 4, config)
        assert beams[0].tokens[-1].text == "ideas"


class TestExpandStep:
    def random_instance(self, rnd):
        n_texts = rnd.randint(2, 7)
        texts = [f"s{chr(ord('a') + i)}" for i in range(n_texts)]
        vocab = Vocabulary(texts)
        gen = RandomTableGenerator(vocab, rnd.randrange(10**9), eos_weight=rnd.choice([0.0, 0.1]))
        lm = RandomLM(rnd.randrange(10**9))
        beam_size = rnd.randint(1, 4)
        lambda_lm = rnd.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        config = FusionConfig(
            beam_size=beam_size, lambda_lm=lambda_lm, max_len=10
        )
        n_parents = rnd.randint(1, beam_size)
        parents = []
        for i in range(n_parents):
            length = rnd.randint(1, 3)
            choice = [rnd.choice(texts) for _ in range(length)]
            finished = rnd.random() < 0.2 and i < n_parents - 1
            parents.append(word_beam(choice, cumulative=rnd.uniform(0.0, 2.0), finished=finished))
        if all(p.finished for p in parents):
            parents[0] = word_beam(["sa"], cumulative=0.5)
        melody = melody_of(rnd.randint(5, 8))
        t = rnd.randint(1, 4)
        return parents, gen, lm, melody, t, config

    def test_matches_reference_on_200_random_instances(self):
        rnd = random.Random(20240501)
        for _ in range(200):
            parents, gen, lm, melody, t, config = self.random_instance(rnd)
            got = expand_step(parents, gen, lm, melody, t, config)
            want = reference_expand(parents, gen, lm, melody, t, config)
            assert project(got) == want

    def test_matches_reference_past_melody_end(self):
        rnd = random.Random(99)
        for _ in range(20):
            parents, gen, lm, melody, _, config = self.random_instance(rnd)
            t = len(melody.notes) + 1
            got = expand_step(parents, gen, lm, melody, t, config)
            want = reference_expand(parents, gen, lm, melody, t, config)
            assert project(got) == want
            # only the end token may be proposed past the final note
            assert all(b.finished for b in got)

    def test_lambda_zero_matches_no_lm(self):
        rnd = random.Random(41)
        for _ in range(50):
            parents, gen, lm, melody, t, _ = self.random_instance(rnd)
            config = FusionConfig(beam_size=3, lambda_lm=0.0)
            with_lm = expand_step(parents, gen, lm, melody, t, config)
            without = expand_step(parents, gen, None, melody, t, config)
            assert [tuple(t.text for t in b.tokens) for b in with_lm] == [
                tuple(t.text for t in b.tokens) for b in without
            ]
            assert [b.cumulative for b in with_lm] == [b.cumulative for b in without]

    def test_constant_lm_keeps_selection(self):
        # shifting every expansion by lambda_lm * c cannot reorder them
        rnd = random.Random(43)
        for _ in range(50):
            parents, gen, _, melody, t, _ = self.random_instance(rnd)
            parents = [Beam(p.tokens, p.rendered, p.cumulative, False, p.trace) for p in parents]
            config = FusionConfig(beam_size=3, lambda_lm=0.75)
            shifted = expand_step(parents, gen, ConstantLM(0.37), melody, t, config)
            base = expand_step(parents, gen, ConstantLM(0.0), melody, t, config)
            assert [tuple(t.text for t in b.tokens) for b in shifted] == [
                tuple(t.text for t in b.tokens) for b in base
            ]

    def tie_heavy_instance(self, rnd):
        # every candidate gets the same contribution: the uniform generator's
        # probability at lambda_lm 0, the constant LM's score at lambda_lm 1,
        # where the generator's random ranking puts candidate ids out of
        # order. Cumulatives on a grid of quarters sum exactly, so parents,
        # children and frozen beams tie with one another at the cut.
        texts = ["la", "mi", "so", "fa", "re"][: rnd.randint(1, 5)]
        vocab = Vocabulary(texts)
        emittable = vocab.emittable()
        lambda_lm = rnd.choice([0.0, 1.0])
        weights = [1.0 if lambda_lm == 0 else rnd.random() for _ in emittable]
        gen = StubGenerator(vocab, {}, default={t: w / sum(weights) for t, w in zip(emittable, weights)})
        config = FusionConfig(
            beam_size=rnd.randint(1, 3 * len(emittable) + 2), lambda_lm=lambda_lm
        )
        parents = [
            word_beam(rnd.choices(texts, k=rnd.randint(1, 3)), rnd.choice([0.25, 0.5, 0.75, 1.0]), rnd.random() < 0.3)
            for _ in range(rnd.randint(1, 6))
        ]
        if all(p.finished for p in parents):
            parents.append(word_beam(texts[:1], 0.5))
        rnd.shuffle(parents)  # parents arrive in no particular score order
        return parents, gen, ConstantLM(0.5), config

    def test_matches_reference_when_ties_decide_the_cut(self):
        rnd = random.Random(20261018)
        ties_at_cut = 0
        for _ in range(300):
            parents, gen, lm, config = self.tie_heavy_instance(rnd)
            melody = melody_of(4)
            t = rnd.choice([1, 2, 3, 4, 6])  # 4 and 6 are past the final note
            got = expand_step(parents, gen, lm, melody, t, config)
            want = reference_expand(parents, gen, lm, melody, t, config)
            assert project(got) == want
            if t >= 4:
                assert all(b.finished for b in got)
            # the pool is larger than the beam and the kept scores tie at the cut
            per_parent = 1 if t >= 4 else config.beam_size
            pool = sum(1 if p.finished else min(per_parent, len(gen.vocab.emittable())) for p in parents)
            ties_at_cut += pool > len(got) > 1 and got[-1].cumulative == got[-2].cumulative
        assert ties_at_cut > 50

    def test_expansion_tied_with_a_full_pools_last_entry_is_cut(self):
        # beam 2, lambda_lm 1, a constant LM: the first parent's two expansions
        # fill the pool, and each expansion of the equal second parent ties
        # its last entry exactly, so only the first parent's are kept
        gen = StubGenerator(Vocabulary(["la", "mi"]), {}, default={"la": 0.5, "mi": 0.25, EOS_TEXT: 0.25})
        config = FusionConfig(beam_size=2, lambda_lm=1.0)
        parents = [word_beam(["la"], 0.5), word_beam(["mi"], 0.5)]
        got = expand_step(parents, gen, ConstantLM(0.5), melody_of(3), 1, config)
        assert project(got) == reference_expand(parents, gen, ConstantLM(0.5), melody_of(3), 1, config)
        assert [(b.tokens[0].text, b.cumulative) for b in got] == [("la", 1.0), ("la", 1.0)]

    def test_frozen_beams_tie_expansions_in_any_parent_order(self):
        vocab = Vocabulary(["la", "mi"])
        gen = StubGenerator(vocab, {}, default={"la": 0.25, "mi": 0.25, EOS_TEXT: 0.5})
        config = FusionConfig(beam_size=4, lambda_lm=1.0)
        # every expansion of an open 0.5 parent reaches 1.0, as do the frozen beams
        parents = [
            word_beam(["mi"], 1.0, finished=True),
            word_beam(["la"], 0.5),
            word_beam(["la", "la"], 1.0, finished=True),
            word_beam(["mi", "la"], 0.5),
        ]
        for order in itertools.permutations(parents):
            got = expand_step(list(order), gen, ConstantLM(0.5), melody_of(3), 1, config)
            assert project(got) == reference_expand(list(order), gen, ConstantLM(0.5), melody_of(3), 1, config)
            assert [b.cumulative for b in got] == [1.0] * 4

    def test_finished_beam_passes_through_and_wins_tie(self):
        vocab = Vocabulary(["la", "mi"])
        gen = StubGenerator(vocab, {}, default={"la": 0.4, "mi": 0.4, EOS_TEXT: 0.2})
        # child contribution = 0.5 * 0.4 + 0.5 * 0.6 = 0.5, so the open
        # parent's children tie the frozen beam's cumulative exactly
        frozen = word_beam(["mi"], cumulative=1.0, finished=True)
        open_beam = word_beam(["la"], cumulative=0.5)
        config = FusionConfig(beam_size=2, lambda_lm=0.5)
        result = expand_step([frozen, open_beam], gen, ConstantLM(0.6), melody_of(4), 1, config)
        assert result[0] is frozen
        assert result[1].cumulative == 1.0
        assert result[1].tokens[-1].text == "la"  # then id order among children

    def test_requires_unfinished_beam(self):
        with pytest.raises(ValueError):
            expand_step(
                [word_beam(["la"], finished=True)],
                StubGenerator(Vocabulary(["la"]), {}),
                None,
                melody_of(2),
                1,
                FusionConfig(lambda_lm=0.0),
            )

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            expand_step(
                [word_beam(["la"])],
                StubGenerator(Vocabulary(["la"]), {}),
                None,
                melody_of(2),
                0,
                FusionConfig(lambda_lm=0.0),
            )


def brute_force_decode(melody, gen, lm, config, length):
    """Exhaustive maximization of the cumulative fused score over every
    fixed-length syllable sequence; mirrors the decoder's accumulation."""
    texts = [t for t in gen.vocab.emittable() if t != EOS_TEXT]
    best = None
    for seq in itertools.product(texts, repeat=length):
        tokens = []
        rendered = ""
        cumulative = 0.0
        for t, text in enumerate(seq):
            note = melody.notes[t]
            dist = gen.next_distribution(tokens, note)
            prob = dist[text]
            if t == 0:
                cumulative = prob
                rendered = text
            else:
                lm_score = lm.score_with_spacing(rendered, text).value
                contribution = config.lambda_gen * prob + config.lambda_lm * lm_score
                cumulative = cumulative + contribution
                rendered = rendered + " " + text
            tokens.append(SyllableToken(text, True))
        if best is None or cumulative > best[1]:
            best = (seq, cumulative)
    return best


class TestDecode:
    def trained_setup(self, n_pairs=60, seed=71, k=0.05):
        corpus = make_corpus(n_pairs, seed=seed, min_syllables=6, max_syllables=12)
        vocab = build_vocabulary([p.lyric for p in corpus])
        gen = train_generator(corpus, vocab, history=2, k=k)
        lm = train_char_ngram(
            [lyric_lm_text(render_text(p.lyric)) for p in corpus], order=4, k=0.1
        )
        return corpus, gen, lm

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
        _, gen, _ = self.trained_setup()
        melody = make_melody(random.Random(9), 8)
        config = FusionConfig(beam_size=1, lambda_lm=0.0, max_len=8)
        results = decode(melody, gen, None, config)
        assert len(results) == 1
        # greedy reference: argmax at each step
        tokens = []
        for t in range(8):
            dist = gen.next_distribution(tokens, melody.notes[t])
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
        # every sequence survives when the beam is as wide as the whole
        # search tree, so the top result is the exhaustive maximum
        vocab = Vocabulary(["la", "mi", "so"])
        gen = RandomTableGenerator(vocab, seed=12345, eos_weight=0.0)
        lm = SpacedRandomLM(seed=54321, eos_score=0.0)
        melody = melody_of(3)
        config = FusionConfig(beam_size=27, lambda_lm=0.75, max_len=3)
        results = decode(melody, gen, lm, config)
        best_seq, best_score = brute_force_decode(melody, gen, lm, config, 3)
        assert tuple(t.text for t in results[0].lyric.syllables()) == best_seq
        assert math.isclose(results[0].cumulative, best_score, abs_tol=1e-12)

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
        results = decode(melody, gen, lm, config)
        best_seq, best_score = brute_force_decode(melody, gen, lm, config, length)
        assert tuple(t.text for t in results[0].lyric.syllables()) == best_seq
        assert math.isclose(results[0].cumulative, best_score, abs_tol=1e-12)

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
    # hypothesis; past it, one end-token query per hypothesis
    _, gen, lm = TestDecode().trained_setup()
    recorder = RecordingLM(lm)
    rnd = random.Random(13)
    steps_before = steps_past = 0
    for _ in range(8):
        melody = make_melody(rnd, rnd.randint(1, 6))
        config = FusionConfig(beam_size=rnd.randint(1, 6), max_len=10)
        beams = first_step(gen, melody, config)
        for t in range(1, config.max_len):
            open_beams = [beam for beam in beams if not beam.finished]
            if not open_beams:
                break
            recorder.calls.clear()
            beams = expand_step(beams, gen, recorder, melody, t, config)
            if t < len(melody.notes):
                bucket = gen.bucket(melody.notes[t])
                assert recorder.calls == [
                    ("score_candidates", beam.rendered,
                     gen.top_by_key(gen.history_key(beam.tokens), bucket, config.beam_size)[0])
                    for beam in open_beams
                ]
                steps_before += 1
            else:
                assert recorder.calls == [("score_with_spacing", beam.rendered, EOS_TEXT) for beam in open_beams]
                steps_past += 1
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
