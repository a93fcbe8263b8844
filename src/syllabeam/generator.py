"""Melody-conditioned syllable generator.

A count-based model over (syllable history, note bucket) pairs standing in
for a trained sequence decoder: given the recent syllables and the current
note's discretized features it returns a full probability distribution over
the vocabulary, end token included.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import modelfile
from .corpus import (
    BOS_TEXT,
    EOS_TEXT,
    AlignedPair,
    MelodyNote,
    SyllableToken,
    Vocabulary,
)

DURATION_SHORT = "short"
DURATION_MEDIUM = "medium"
DURATION_LONG = "long"
_DURATION_CLASSES = (DURATION_SHORT, DURATION_MEDIUM, DURATION_LONG)

_FORMAT = "syllabeam-generator"
_VERSION = 1
_BUCKETING_VERSION = 1
_SCHEMA = {
    "bucketing": int, "history": int, "k": float, "vocabulary": list,
    "hist_bucket": list, "hist": list, "bucket": list, "unigram": dict,
}


@dataclass(frozen=True)
class NoteBucket:
    """Discretized note features for count-based conditioning."""

    pitch_class: int
    register: int
    duration_class: str
    has_rest: bool


def bucket_note(note: MelodyNote) -> NoteBucket:
    if note.duration < 1:
        duration_class = DURATION_SHORT
    elif note.duration == 1:
        duration_class = DURATION_MEDIUM
    else:
        duration_class = DURATION_LONG
    return NoteBucket(note.pitch % 12, note.pitch // 12, duration_class, note.rest > 0)


def _bucket_from_json(data) -> Optional[NoteBucket]:
    if data is None:
        return None
    if type(data) is list and len(data) == 4:
        pitch_class, register, duration_class, has_rest = data
        if (
            type(pitch_class) is int
            and type(register) is int
            and duration_class in _DURATION_CLASSES
            and type(has_rest) is bool
        ):
            return NoteBucket(pitch_class, register, duration_class, has_rest)
    raise ValueError(f"bucket {data!r} is not [int, int, duration class, bool] or null")


class _Ranking(NamedTuple):
    """One count table ranked for top-k queries.

    `ranked` maps every token whose probability exceeds `floor` to that
    probability, in (-probability, vocabulary id) order; every other
    emittable token has probability `floor`. `tops` keeps each top-k list
    already asked for, padded with floor tokens, by k.
    """

    counts: dict[str, int]  # keeps the table alive while its id keys the cache
    total: int
    ranked: dict[str, float]
    floor: float
    tops: dict[int, tuple[tuple[str, float], ...]]


def _rank(counts: dict[str, int], vocab: Vocabulary, k: float) -> _Ranking:
    total = sum(counts.values())
    denom = total + k * len(vocab.emittable())
    if denom == 0:
        return _Ranking(counts, total, {}, 1.0 / len(vocab.emittable()), {})
    floor = k / denom
    ranked = sorted(
        ((text, (n + k) / denom) for text, n in counts.items()),
        key=lambda item: (-item[1], vocab.id_of(item[0])),
    )
    return _Ranking(counts, total, {text: p for text, p in ranked if p > floor}, floor, {})


class MelodyConditionedNgram:
    """Syllable n-gram conditioned on the current note bucket.

    Four count tables back each other off: (history, bucket) -> (history)
    -> (bucket) -> unigram; a query is served by the first table that has
    seen its key, with add-k smoothing over the emittable vocabulary, so
    every returned distribution sums to one. A bucket of None stands for
    "past the final note" and is only ever paired with the end token in
    training data.
    """

    def __init__(self, vocab: Vocabulary, history: int = 2, k: float = 0.1):
        if history < 1:
            raise ValueError("history must be >= 1")
        if not 0 <= k < math.inf:
            raise ValueError("smoothing k must be finite and >= 0")
        self.vocab = vocab
        self.history = history
        self.k = k
        self._by_hist_bucket: dict[tuple[tuple[str, ...], Optional[NoteBucket]], dict[str, int]] = {}
        self._by_hist: dict[tuple[str, ...], dict[str, int]] = {}
        self._by_bucket: dict[Optional[NoteBucket], dict[str, int]] = {}
        self._unigram: dict[str, int] = {}
        # id(count table) -> _Ranking, built on first query; each entry holds
        # its table, so the id cannot be reused while the entry lives
        self._rankings: dict[int, _Ranking] = {}

    def _history_key(self, history: Sequence[SyllableToken]) -> tuple[str, ...]:
        texts = [tok.text for tok in history[-self.history :]]
        return tuple([BOS_TEXT] * (self.history - len(texts)) + texts)

    def _count(self, hist_key: tuple[str, ...], bucket: Optional[NoteBucket], target: str) -> None:
        for table, key in (
            (self._by_hist_bucket, (hist_key, bucket)),
            (self._by_hist, hist_key),
            (self._by_bucket, bucket),
        ):
            slot = table.setdefault(key, {})
            slot[target] = slot.get(target, 0) + 1
        self._unigram[target] = self._unigram.get(target, 0) + 1

    def add_pair(self, pair: AlignedPair) -> None:
        tokens = pair.lyric.syllables()
        for tok in tokens:
            if tok.text not in self.vocab:
                raise ValueError(f"syllable {tok.text!r} not in vocabulary")
        self._rankings.clear()
        for i, tok in enumerate(tokens):
            hist_key = self._history_key(tokens[:i])
            self._count(hist_key, bucket_note(pair.melody.notes[i]), tok.text)
        self._count(self._history_key(tokens), None, EOS_TEXT)

    def _serving_counts(
        self, history: Sequence[SyllableToken], note: Optional[MelodyNote]
    ) -> dict[str, int]:
        """The count table that serves a query: the first non-empty one of
        (history, bucket), (history), (bucket), unigram."""
        hist_key = self._history_key(history)
        bucket = bucket_note(note) if note is not None else None
        return (
            self._by_hist_bucket.get((hist_key, bucket))
            or self._by_hist.get(hist_key)
            or self._by_bucket.get(bucket)
            or self._unigram
        )

    def _ranking(self, counts: dict[str, int]) -> _Ranking:
        ranking = self._rankings.get(id(counts))
        if ranking is None:
            ranking = _rank(counts, self.vocab, self.k)
            self._rankings[id(counts)] = ranking
        return ranking

    def next_distribution(
        self, history: Sequence[SyllableToken], note: Optional[MelodyNote]
    ) -> dict[str, float]:
        """Distribution over every emittable vocabulary entry (BOS excluded)."""
        counts = self._serving_counts(history, note)
        emittable = self.vocab.emittable()
        denom = self._ranking(counts).total + self.k * len(emittable)
        if denom == 0:
            return {text: 1.0 / len(emittable) for text in emittable}
        return {text: (counts.get(text, 0) + self.k) / denom for text in emittable}

    def top_candidates(
        self, history: Sequence[SyllableToken], note: Optional[MelodyNote], k: int
    ) -> list[tuple[str, float]]:
        """The first `k` entries of `next_distribution` ranked by
        (-probability, vocabulary id), computed without building it."""
        ranking = self._ranking(self._serving_counts(history, note))
        top = ranking.tops.get(k)
        if top is None:
            top = list(itertools.islice(ranking.ranked.items(), k))
            if len(top) < k:
                rest = (text for text in self.vocab.emittable() if text not in ranking.ranked)
                top.extend((text, ranking.floor) for text in itertools.islice(rest, k - len(top)))
            top = ranking.tops[k] = tuple(top)
        return list(top)

    def prob(
        self, history: Sequence[SyllableToken], note: Optional[MelodyNote], text: str
    ) -> float:
        """The `next_distribution` entry of one emittable token."""
        if text == BOS_TEXT or text not in self.vocab:
            raise ValueError(f"{text!r} is not an emittable token")
        ranking = self._ranking(self._serving_counts(history, note))
        return ranking.ranked.get(text, ranking.floor)

    # -- persistence ------------------------------------------------------

    @staticmethod
    def _bucket_json(bucket: Optional[NoteBucket]):
        if bucket is None:
            return None
        return [bucket.pitch_class, bucket.register, bucket.duration_class, bucket.has_rest]

    def save(self, path) -> None:
        """Write the model; rows are in the order of their keys' JSON text."""

        def sorted_counts(counts: dict[str, int]) -> dict[str, int]:
            return dict(sorted(counts.items()))

        # Each sort key is the JSON text of the row's key, built without the
        # encoder: vocabulary entries need no JSON escapes, so a history's
        # text is a join, and each distinct bucket is encoded once.
        def hist_text(hist: tuple[str, ...]) -> str:
            return '["' + '", "'.join(hist) + '"]'

        buckets = {bucket for _, bucket in self._by_hist_bucket} | self._by_bucket.keys()
        bucket_text = {bucket: json.dumps(self._bucket_json(bucket)) for bucket in buckets}
        fields = {
            "bucketing": _BUCKETING_VERSION,
            "history": self.history,
            "k": self.k,
            "vocabulary": list(self.vocab.syllable_texts()),
            "hist_bucket": [
                [list(hist), self._bucket_json(bucket), sorted_counts(counts)]
                for (hist, bucket), counts in sorted(
                    self._by_hist_bucket.items(),
                    key=lambda item: f"[{hist_text(item[0][0])}, {bucket_text[item[0][1]]}]",
                )
            ],
            "hist": [
                [list(hist), sorted_counts(counts)]
                for hist, counts in sorted(self._by_hist.items(), key=lambda item: hist_text(item[0]))
            ],
            "bucket": [
                [self._bucket_json(bucket), sorted_counts(counts)]
                for bucket, counts in sorted(
                    self._by_bucket.items(), key=lambda item: bucket_text[item[0]]
                )
            ],
            "unigram": sorted_counts(self._unigram),
        }
        modelfile.save(path, _FORMAT, _VERSION, fields)

    @classmethod
    def load(cls, path) -> "MelodyConditionedNgram":
        """A saved model, once both history tables have rows, every history
        in its file is `history` vocabulary entries or BOS, every bucket is
        [int, int, duration class, bool] or null, and every count table maps
        emittable vocabulary entries to non-negative integers."""
        payload = modelfile.load(path, _FORMAT, _VERSION, _SCHEMA)
        if payload["bucketing"] != _BUCKETING_VERSION:
            raise ValueError(f"unsupported bucketing version {payload['bucketing']}")
        if not set(map(type, payload["vocabulary"])) <= {str}:
            raise ValueError("vocabulary entries must be strings")
        model = cls(Vocabulary(payload["vocabulary"]), payload["history"], payload["k"])
        emittable = frozenset(model.vocab.emittable())
        known = emittable | {BOS_TEXT}

        def rows(name: str, width: int) -> list[list]:
            for row in payload[name]:
                if type(row) is not list or len(row) != width:
                    raise ValueError(f"a {name!r} row is not a JSON array of {width}")
            return payload[name]

        def hist_key(data) -> tuple[str, ...]:
            if type(data) is list and len(data) == model.history:
                key = tuple(data)
                try:
                    if known.issuperset(key):
                        return key
                except TypeError:  # an unhashable entry
                    pass
            raise ValueError(f"history {data!r} is not {model.history} vocabulary entries")

        # a model has few distinct buckets; each JSON form, told apart by its
        # values and their types (1 == True), is checked once
        buckets: dict[tuple[tuple, tuple], Optional[NoteBucket]] = {}

        def bucket(data) -> Optional[NoteBucket]:
            try:
                return buckets[tuple(data), tuple(map(type, data))]
            except (KeyError, TypeError):  # new, unhashable, or null or another scalar
                parsed = _bucket_from_json(data)
                if parsed is not None:
                    buckets[tuple(data), tuple(map(type, data))] = parsed
                return parsed

        # training counts every syllable under its history, so a trained file
        # has rows in both; without them no row would pin `history` down
        for name in ("hist_bucket", "hist"):
            if not payload[name]:
                raise ValueError(f"{name!r} has no rows; a trained model always has some")
        for hist, note, counts in rows("hist_bucket", 3):
            model._by_hist_bucket[(hist_key(hist), bucket(note))] = modelfile.counts(counts, emittable)
        for hist, counts in rows("hist", 2):
            model._by_hist[hist_key(hist)] = modelfile.counts(counts, emittable)
        for note, counts in rows("bucket", 2):
            model._by_bucket[bucket(note)] = modelfile.counts(counts, emittable)
        model._unigram = modelfile.counts(payload["unigram"], emittable)
        return model

    def stats(self) -> dict:
        return {
            "history": self.history,
            "k": self.k,
            "vocabulary_size": len(self.vocab),
            "hist_bucket_contexts": len(self._by_hist_bucket),
        }


def train_generator(
    corpus: Sequence[AlignedPair], vocab: Vocabulary, history: int = 2, k: float = 0.1
) -> MelodyConditionedNgram:
    """Count every (history, note bucket) -> syllable event of the corpus."""
    if not corpus:
        raise ValueError("empty corpus")
    model = MelodyConditionedNgram(vocab, history, k)
    for pair in corpus:
        model.add_pair(pair)
    return model
