"""Seeded input builders for the benchmark workloads.

The benchmark owns its inputs: the seed is an argument and the program only
sees the generated corpus and melodies. The small inventory duplicates the
test suite's word list on purpose, so that the benchmark imports nothing from
`tests/` and a change to the tests cannot move the benchmark.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from syllabeam.corpus import (
    AlignedPair,
    LyricSequence,
    MelodyNote,
    MelodySequence,
    SyllableToken,
)

# the test suite's 16-word inventory (V=28 with the reserved tokens)
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

# 32 x 10 x 11 = 3520 distinct syllables; with these Zipf-like weights 2.5k
# pairs draw nearly all of them, so the realised vocabulary is about 3.5k
ONSETS = (
    "", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
    "v", "w", "y", "z", "bl", "br", "ch", "cl", "cr", "dr", "fl", "fr", "gr", "pl", "sh", "st",
)
VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou")
CODAS = ("", "n", "m", "r", "l", "s", "t", "d", "k", "ng", "st")
ZIPF_EXPONENT = 0.5
WORD_START_RATE = 0.5  # chance that a syllable after the first starts a new word

MIN_SYLLABLES = 6
MAX_SYLLABLES = 20

LyricMaker = Callable[[random.Random, int], LyricSequence]


@dataclass(frozen=True)
class Inputs:
    """A training corpus and held-out pairs whose melodies are decoded."""

    corpus: list[AlignedPair]
    held_out: list[AlignedPair]


def make_melody(rnd: random.Random, n_notes: int) -> MelodySequence:
    return MelodySequence(
        tuple(
            MelodyNote(rnd.choice(PITCHES), rnd.choice(DURATIONS), rnd.choice(RESTS))
            for _ in range(n_notes)
        )
    )


def small_vocab_lyric(rnd: random.Random, n_syllables: int) -> LyricSequence:
    """Whole words from the 16-word inventory, filling exactly n syllables."""
    tokens: list[SyllableToken] = []
    while len(tokens) < n_syllables:
        room = n_syllables - len(tokens)
        word = rnd.choice([w for w in WORDS if len(w) <= room])
        tokens.append(SyllableToken(word[0], True))
        tokens.extend(SyllableToken(s, False) for s in word[1:])
    return LyricSequence(tuple(tokens))


def large_vocab_lyrics(rnd: random.Random) -> LyricMaker:
    """A lyric maker drawing onset-vowel-coda syllables with Zipf-like weights.

    The rank order of the pool is shuffled by `rnd`, so the frequent
    syllables differ from seed to seed while the weight curve does not.
    """
    pool = ["".join(parts) for parts in itertools.product(ONSETS, VOWELS, CODAS)]
    rnd.shuffle(pool)
    cum_weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool)))
    )

    def make(rnd: random.Random, n_syllables: int) -> LyricSequence:
        texts = rnd.choices(pool, cum_weights=cum_weights, k=n_syllables)
        return LyricSequence(
            tuple(
                SyllableToken(text, i == 0 or rnd.random() < WORD_START_RATE)
                for i, text in enumerate(texts)
            )
        )

    return make


def build_inputs(
    stream: str, vocab: str, pairs: int, held_out: int, melody_notes: int, seed: int
) -> Inputs:
    """`pairs` training pairs of 6-20 syllables, and `held_out` pairs of
    exactly `melody_notes` syllables, all drawn from the random stream named
    by `stream` and `seed`."""
    rnd = random.Random(f"perfbench:{stream}:{seed}")
    if vocab == "small":
        make_lyric: LyricMaker = small_vocab_lyric
    elif vocab == "large":
        make_lyric = large_vocab_lyrics(rnd)
    else:
        raise ValueError(f"unknown vocabulary kind: {vocab!r}")

    def make_pair(n_syllables: int) -> AlignedPair:
        lyric = make_lyric(rnd, n_syllables)
        return AlignedPair(make_melody(rnd, n_syllables), lyric)

    corpus = [make_pair(rnd.randint(MIN_SYLLABLES, MAX_SYLLABLES)) for _ in range(pairs)]
    return Inputs(corpus, [make_pair(melody_notes) for _ in range(held_out)])
