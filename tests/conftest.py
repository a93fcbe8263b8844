"""Shared synthetic-corpus builders, scorer adapters and oracles for the test suite.

Decode reads a generator only through its keyed interface and an LM only
through `score_candidates` and `score_with_spacing`. `Keyed` and `Batched`
derive those from the reference interfaces, a full `next_distribution` and
`score_with_spacing`, for the test stubs and the reference generator.
`NaiveGenerator` counts a corpus's events itself and serves the full
distribution the trained generator must match, float for float; it is the
generator oracle of the top-k tests and of the search oracles.
`NaiveWalker` is the LM's counting oracle: it counts the training texts
itself and repeats the model's arithmetic, and trained and reloaded models
must match it exactly; a test that checks one LM call against another
reads the walker as its oracle. `continuation_scores` reads the library
LM's own score of any alphabet text from the one function every LM query
scores through, past every query's checks. Decode's rules and the search
oracles built on them live in `decode_rules.py`. `counting_forks`,
`assert_no_child_left`, `ONE_CPU_OR_FORKED` and `LINE_ENDS` serve the tests
of the two-process reader (`nsp.halves`) in both `*_fork.py` modules.
`tsv_rows` reads a whole NSP TSV file as the builder's rows.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from typing import Optional, Sequence

import pytest

from syllabeam import nsp
from syllabeam.corpus import (
    BOS_TEXT,
    EOS_TEXT,
    AlignedPair,
    LyricSequence,
    MelodyNote,
    MelodySequence,
    SyllableToken,
)
from syllabeam.lm import BACKOFF_FACTOR, DEFAULT_ALPHABET, EOS_CHAR, SPACED, UNSPACED, ContinuationScore
from syllabeam.nsp import BuilderConfig, NspExample

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


# -- the two-process readers -------------------------------------------------

ONE_CPU_OR_FORKED = pytest.mark.parametrize("cpus", [1, 2], ids=["one cpu", "forked"])

# a file's text with each line end of the TSV or corpus the tests write
LINE_ENDS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "lone cr": lambda text: text.replace("\n", "\r"),
    "blank lines": lambda text: text.replace("\n", "\n\n"),
    "no final newline": lambda text: text.rstrip("\n"),
}


def counting_forks(monkeypatch, cpus):
    """The list `os.fork` appends to on each fork once the CPU probe reports
    `cpus`; undone with `monkeypatch`."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(nsp, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


class NaiveGenerator(Keyed):
    """The generator's distributions, counted from the corpus without its code.

    Every lyric position, and the end token after the last one under the
    bucket None, is one (BOS-padded history, note bucket, syllable) event,
    counted in four tables. A query is served by the first table that holds
    its condition, in the order (history and bucket), history, bucket,
    unigram, with add-k smoothing over `vocab.emittable()`. `tables` maps each
    table's name, as a model file names it, to {condition: {text: count}}.
    """

    def __init__(self, corpus, vocab, history, k):
        self.vocab, self.history, self.k = vocab, history, k
        self.tables = {"hist_bucket": {}, "hist": {}, "bucket": {}, "unigram": {}}
        for pair in corpus:
            texts = [BOS_TEXT] * history + pair.lyric.syllable_texts() + [EOS_TEXT]
            for i, note in enumerate([*pair.melody.notes, None]):
                hist, target = tuple(texts[i : i + history]), texts[i + history]
                for table, condition in self.conditions(hist, note):
                    counts = self.tables[table].setdefault(condition, {})
                    counts[target] = counts.get(target, 0) + 1

    @staticmethod
    def note_bucket(note):
        if note is None:
            return None
        duration = "short" if note.duration < 1 else "medium" if note.duration == 1 else "long"
        return (note.pitch % 12, note.pitch // 12, duration, note.rest > 0)

    def conditions(self, hist, note):
        bucket = self.note_bucket(note)
        return [("hist_bucket", (hist, bucket)), ("hist", hist), ("bucket", bucket), ("unigram", ())]

    def next_distribution(self, history, note):
        texts = [tok.text for tok in history[-self.history :]]
        hist = tuple([BOS_TEXT] * (self.history - len(texts)) + texts)
        for table, condition in self.conditions(hist, note):
            counts = self.tables[table].get(condition)
            if counts:
                break
        else:
            counts = {}
        emittable = self.vocab.emittable()
        denom = sum(counts.values()) + self.k * len(emittable)
        if denom == 0:
            return {text: 1.0 / len(emittable) for text in emittable}
        return {text: (counts.get(text, 0) + self.k) / denom for text in emittable}


def continuation_scores(lm, context, texts):
    """The library LM's own score of each alphabet text in `texts` after
    `context`, the geometric mean of its per-character probabilities (so a
    one-character text scores P(ch | context), discounted per backoff hop),
    read from `_continuation`, the one function every LM query scores
    through, past every query's checks and score memos."""
    suffix = lm._suffix(context)
    return [lm._continuation(suffix, text) for text in texts]


def naive_counts(training, order):
    """tables[L][context][ch], counted straight from the texts."""
    tables = [{} for _ in range(order)]
    for text in training:
        for pos, ch in enumerate(text):
            for length in range(min(pos, order - 1) + 1):
                table = tables[length].setdefault(text[pos - length : pos], {})
                table[ch] = table.get(ch, 0) + 1
    return tables


class NaiveWalker:
    """Every score from the counts, walking the whole context each time."""

    def __init__(self, training, order, k):
        self.tables = naive_counts(training, order)
        self.order = order
        self.k = k
        self.size = len(DEFAULT_ALPHABET)

    def level(self, context):
        suffix = context[max(0, len(context) - (self.order - 1)) :]
        for hops, length in enumerate(range(len(suffix), -1, -1)):
            table = self.tables[length].get(suffix[len(suffix) - length :])
            if table is not None:
                return table, hops
        return {}, len(suffix) + 1

    def char_prob(self, ch, context):
        table, hops = self.level(context)
        total = sum(table.values())
        if not total:
            return (BACKOFF_FACTOR ** hops) / self.size
        return (BACKOFF_FACTOR ** hops) * ((table.get(ch, 0) + self.k) / (total + self.k * self.size))

    def conditional_distribution(self, context):
        table, _ = self.level(context)
        total = sum(table.values())
        if not total:
            return {ch: 1.0 / self.size for ch in DEFAULT_ALPHABET}
        return {ch: (table.get(ch, 0) + self.k) / (total + self.k * self.size) for ch in DEFAULT_ALPHABET}

    def score_continuation(self, context, candidate):
        log_sum = 0.0
        for ch in candidate:
            p = self.char_prob(ch, context)
            if p == 0.0:
                return 0.0
            log_sum += math.log(p)
            context += ch
        return math.exp(log_sum / len(candidate))

    def score_with_spacing(self, context, syllable):
        if syllable == EOS_TEXT:
            return ContinuationScore(self.score_continuation(context, EOS_CHAR), UNSPACED)
        unspaced = self.score_continuation(context, syllable)
        spaced = self.score_continuation(context, " " + syllable)
        if unspaced >= spaced:
            return ContinuationScore(unspaced, UNSPACED)
        return ContinuationScore(spaced, SPACED)

    def score_candidates(self, context, syllables):
        return tuple(self.score_with_spacing(context, syllable) for syllable in syllables)

    def nsp_score(self, context, candidate):
        return self.score_continuation(context.replace(EOS_TEXT, EOS_CHAR),
                                       candidate.replace("_", " ").replace(EOS_TEXT, EOS_CHAR))


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


def tsv_rows(path) -> list[NspExample]:
    """Every row `nsp.read_nsp_blocks` reads from the NSP TSV file at `path`,
    as the builder hands it over: an `NspExample`, its label an int."""
    return [NspExample(c, k, int(label)) for block in nsp.read_nsp_blocks(path) for c, k, label in block]
