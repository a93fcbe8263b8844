"""Shared synthetic-corpus builders and scorer wrappers for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

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


class DistributionOnly:
    """A generator offering only the required interface."""

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
