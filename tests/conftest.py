"""Shared synthetic-corpus builders and scorer adapters for the test suite.

Decode reads a generator only through its keyed interface and an LM only
through `score_candidates` and `score_with_spacing`. `Keyed` and `Batched`
derive those from the reference interfaces, `next_distribution` and
`score_with_spacing`, for the test stubs and for the reference decodes the
real models must match. `ranked_candidates`, the ranking `Keyed` applies, is
also the oracle of the generator's top-k tests.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Sequence

from syllabeam.corpus import (
    AlignedPair,
    LyricSequence,
    MelodyNote,
    MelodySequence,
    SyllableToken,
)
from syllabeam.nsp import BuilderConfig

# small word inventory, each word pre-split into syllables
WORDS = [
    ("love",),
    ("night",),
    ("sun",),
    ("sky",),
    ("dream",),
    ("heart",),
    ("gold",),
    ("rain",),
    ("ba", "by"),
    ("shi", "ning"),
    ("mo", "ment"),
    ("fly", "ing"),
    ("o", "ver"),
    ("to", "ge", "ther"),
    ("for", "e", "ver"),
    ("me", "lo", "dy"),
]

PITCHES = list(range(55, 72))
DURATIONS = [0.5, 1.0, 2.0]
RESTS = [0.0, 0.0, 0.5]


def make_lyric(rnd: random.Random, n_syllables: int) -> LyricSequence:
    tokens: list[SyllableToken] = []
    while len(tokens) < n_syllables:
        room = n_syllables - len(tokens)
        word = rnd.choice([w for w in WORDS if len(w) <= room])
        tokens.append(SyllableToken(word[0], True))
        tokens.extend(SyllableToken(s, False) for s in word[1:])
    return LyricSequence(tuple(tokens))


def make_melody(rnd: random.Random, n_notes: int) -> MelodySequence:
    notes = tuple(
        MelodyNote(rnd.choice(PITCHES), rnd.choice(DURATIONS), rnd.choice(RESTS))
        for _ in range(n_notes)
    )
    return MelodySequence(notes)


def make_pair(rnd: random.Random, n_syllables: int) -> AlignedPair:
    lyric = make_lyric(rnd, n_syllables)
    return AlignedPair(make_melody(rnd, len(lyric.syllables())), lyric)


def make_corpus(
    n_pairs: int, seed: int, min_syllables: int = 6, max_syllables: int = 20
) -> list[AlignedPair]:
    rnd = random.Random(seed)
    return [
        make_pair(rnd, rnd.randint(min_syllables, max_syllables)) for _ in range(n_pairs)
    ]


# 84 onset-vowel-coda syllables, for corpora whose words start at random
SYLLABLES = ["".join(parts) for parts in itertools.product("bdklmst", ("a", "ee", "o", "ou"), ("", "n", "r"))]


def random_syllable_corpus(n_pairs: int, seed: int) -> list[AlignedPair]:
    """Lyrics of 6-20 syllables drawn from SYLLABLES, each after the first
    starting a word at a coin flip."""
    rnd = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        texts = rnd.choices(SYLLABLES, k=rnd.randint(6, 20))
        tokens = tuple(SyllableToken(t, i == 0 or rnd.random() < 0.5) for i, t in enumerate(texts))
        pairs.append(AlignedPair(make_melody(rnd, len(tokens)), LyricSequence(tokens)))
    return pairs


def ranked_candidates(generator, distribution: dict[str, float]) -> list[tuple[str, float]]:
    vocab = generator.vocab
    return sorted(distribution.items(), key=lambda item: (-item[1], vocab.id_of(item[0])))


class Keyed:
    """The keyed interface decode reads, derived from a generator's `vocab`
    and `next_distribution`: a key is the token history itself, and a
    bucket the note itself."""

    def history_key(self, history: Sequence[SyllableToken]) -> tuple[SyllableToken, ...]:
        return tuple(history)

    def next_key(self, key: tuple, text: str, word_initial: bool) -> tuple[SyllableToken, ...]:
        return key + (SyllableToken(text, word_initial),)

    def bucket(self, note: Optional[MelodyNote]) -> Optional[MelodyNote]:
        return note

    def top_by_key(self, key: tuple, note: Optional[MelodyNote], k: int) -> tuple:
        top = ranked_candidates(self, self.next_distribution(key, note))[:k]
        texts = tuple(text for text, _ in top)
        return texts, tuple(p for _, p in top), tuple(map(self.vocab.id_of, texts))

    def prob_by_key(self, key: tuple, note: Optional[MelodyNote], text: str) -> float:
        return self.next_distribution(key, note)[text]


class Batched:
    """An LM's `score_candidates`, derived from its `score_with_spacing` one
    candidate at a time."""

    def score_candidates(self, context: str, syllables: tuple[str, ...]) -> tuple:
        return tuple([self.score_with_spacing(context, text) for text in syllables])


class DistributionOnly(Keyed):
    """A generator keyed only through `vocab` and `next_distribution`."""

    def __init__(self, model):
        self.vocab = model.vocab
        self.next_distribution = model.next_distribution


def expected_dataset_size(corpus: Sequence[LyricSequence], config: BuilderConfig) -> tuple[float, float]:
    """(mean, standard deviation) of the total row count under `config`: per
    position a positive and a random negative, plus the spacing and
    corruption rules at their firing rates."""
    mean = variance = 0.0
    q = config.context_swap_rate
    for lyric in corpus:
        for i in range(1, len(lyric.syllables()) + 1):
            p = 1.0 if i <= config.always_spacing_first_k else config.spacing_negative_rate
            mean += 2.0 + p + q
            variance += p * (1 - p) + q * (1 - q)
    return mean, math.sqrt(variance)
