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
from collections import Counter
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


class NoteBucket(NamedTuple):
    """Discretized note features for count-based conditioning."""

    pitch_class: int
    register: int
    duration_class: str
    has_rest: bool


def bucket_note(note: Optional[MelodyNote]) -> Optional[NoteBucket]:
    """The bucket of `note`; None, past the final note, for None."""
    if note is None:
        return None
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
    """One count table content ranked for top-k queries.

    `ranked` maps every token whose probability exceeds `floor` to that
    probability, in (-probability, vocabulary id) order; every other
    emittable token has probability `floor`. `tops` keeps each top-k list
    already asked for, padded with floor tokens, by k, as (texts,
    probabilities, vocabulary ids) tuples.
    """

    counts: dict[str, int]  # the first table ranked; equal tables share the ranking
    ranked: dict[str, float]
    floor: float
    tops: dict[int, tuple[tuple[str, ...], tuple[float, ...], tuple[int, ...]]]


def _rank(counts: dict[str, int], vocab: Vocabulary, k: float) -> _Ranking:
    denom = sum(counts.values()) + k * len(vocab.emittable())
    if denom == 0:
        return _Ranking(counts, {}, 1.0 / len(vocab.emittable()), {})
    floor = k / denom
    ranked = sorted(
        ((text, (n + k) / denom) for text, n in counts.items()),
        key=lambda item: (-item[1], vocab.id_of(item[0])),
    )
    return _Ranking(counts, {text: p for text, p in ranked if p > floor}, floor, {})


class MelodyConditionedNgram:
    """Syllable n-gram conditioned on the current note bucket.

    Four count tables back each other off: (history, bucket) -> (history)
    -> (bucket) -> unigram; a query is served by the first table that has
    seen its key, with add-k smoothing over the emittable vocabulary, so
    every returned distribution sums to one. A bucket of None stands for
    "past the final note" and is only ever paired with the end token in
    training data. Only train_generator and load fill the tables, so a
    ranking, built on the first query of its content, never goes stale.
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
        # id(count table) -> _Ranking; every keyed table belongs to the model,
        # which never changes, so no id is reused while the model lives
        self._rankings: dict[int, _Ranking] = {}
        # hash(frozenset(table.items())) -> the first ranking of that hash; a
        # frozenset key would keep a copy of every ranked table alive
        self._by_content: dict[int, _Ranking] = {}

    def history_key(self, history: Sequence[SyllableToken]) -> tuple[str, ...]:
        """The key of a token history: its last `history` texts, BOS-padded."""
        texts = [tok.text for tok in history[-self.history :]]
        return tuple([BOS_TEXT] * (self.history - len(texts)) + texts)

    def next_key(self, key: tuple[str, ...], text: str, word_initial: bool) -> tuple[str, ...]:
        """The key of the history keyed by `key` once `text` follows it."""
        return key[1:] + (text,)

    bucket = staticmethod(bucket_note)

    def _counts(self, key: tuple[str, ...], bucket: Optional[NoteBucket]) -> dict[str, int]:
        """The count table that serves a query: the first non-empty one of
        (history, bucket), (history), (bucket), unigram."""
        return (
            self._by_hist_bucket.get((key, bucket))
            or self._by_hist.get(key)
            or self._by_bucket.get(bucket)
            or self._unigram
        )

    def _ranking(self, key: tuple[str, ...], bucket: Optional[NoteBucket]) -> _Ranking:
        """The ranking of the count table serving a query, shared by equal tables."""
        counts = self._counts(key, bucket)
        ranking = self._rankings.get(id(counts))
        if ranking is None:
            digest = hash(frozenset(counts.items()))
            ranking = self._by_content.get(digest)
            if ranking is None or ranking.counts != counts:
                ranking = _rank(counts, self.vocab, self.k)
                self._by_content.setdefault(digest, ranking)  # a collision keeps the first
            self._rankings[id(counts)] = ranking
        return ranking

    def next_distribution(
        self, history: Sequence[SyllableToken], note: Optional[MelodyNote]
    ) -> dict[str, float]:
        """Distribution over every emittable vocabulary entry (BOS excluded)."""
        counts = self._counts(self.history_key(history), bucket_note(note))
        emittable = self.vocab.emittable()
        denom = sum(counts.values()) + self.k * len(emittable)
        if denom == 0:
            return {text: 1.0 / len(emittable) for text in emittable}
        return {text: (counts.get(text, 0) + self.k) / denom for text in emittable}

    def top_by_key(self, key: tuple[str, ...], bucket: Optional[NoteBucket], k: int) -> tuple:
        """The first `k` entries of `next_distribution` after the history keyed
        by `key` at a note bucket, ranked by (-probability, vocabulary id) and
        computed without building it, as one cached (texts, probabilities,
        vocabulary ids) tuple per k."""
        ranking = self._ranking(key, bucket)
        top = ranking.tops.get(k)
        if top is None:
            pairs = list(itertools.islice(ranking.ranked.items(), k))
            if len(pairs) < k:
                rest = (text for text in self.vocab.emittable() if text not in ranking.ranked)
                pairs.extend((text, ranking.floor) for text in itertools.islice(rest, k - len(pairs)))
            texts = tuple(text for text, _ in pairs)
            probs = tuple(p for _, p in pairs)
            top = ranking.tops[k] = (texts, probs, tuple(map(self.vocab.id_of, texts)))
        return top

    def prob_by_key(self, key: tuple[str, ...], bucket: Optional[NoteBucket], text: str) -> float:
        """The `next_distribution` entry of an emittable `text` after the
        history keyed by `key` at a note bucket."""
        if text == BOS_TEXT or text not in self.vocab:
            raise ValueError(f"{text!r} is not an emittable token")
        ranking = self._ranking(key, bucket)
        return ranking.ranked.get(text, ranking.floor)

    # -- persistence ------------------------------------------------------

    @staticmethod
    def _bucket_json(bucket: Optional[NoteBucket]):
        return None if bucket is None else list(bucket)

    def save(self, path) -> None:
        """Write the model; rows are in the order of their keys' JSON text."""

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
                [list(hist), self._bucket_json(bucket), counts]
                for (hist, bucket), counts in sorted(
                    self._by_hist_bucket.items(),
                    key=lambda item: f"[{hist_text(item[0][0])}, {bucket_text[item[0][1]]}]",
                )
            ],
            "hist": [
                [list(hist), counts]
                for hist, counts in sorted(self._by_hist.items(), key=lambda item: hist_text(item[0]))
            ],
            "bucket": [
                [self._bucket_json(bucket), counts]
                for bucket, counts in sorted(
                    self._by_bucket.items(), key=lambda item: bucket_text[item[0]]
                )
            ],
            "unigram": self._unigram,
        }
        modelfile.save(path, _FORMAT, _VERSION, fields)

    @classmethod
    def load(cls, path) -> "MelodyConditionedNgram":
        """A saved model, once its vocabulary is as `save` writes it (sorted,
        distinct, without BOS or the end token), both history tables have
        rows, every history in its file is `history` vocabulary entries or
        BOS, every bucket is [int, int, duration class, bool] or null, and
        every count table maps emittable vocabulary entries to non-negative
        integers."""
        payload = modelfile.load(path, _FORMAT, _VERSION, _SCHEMA)
        if payload["bucketing"] != _BUCKETING_VERSION:
            raise ValueError(f"unsupported bucketing version {payload['bucketing']}")
        if not set(map(type, payload["vocabulary"])) <= {str}:
            raise ValueError("vocabulary entries must be strings")
        model = cls(Vocabulary(payload["vocabulary"]), payload["history"], payload["k"])
        if list(model.vocab.syllable_texts()) != payload["vocabulary"]:
            raise ValueError("vocabulary must be sorted, distinct entries without <bos> or <eos>")
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
    """A model of every (history, note bucket) -> syllable event of the
    corpus, once every pair passed its check: the events are tallied with one
    Counter, then each distinct event is added to the four tables."""
    if not corpus:
        raise ValueError("empty corpus")
    model = MelodyConditionedNgram(vocab, history, k)
    for pair in corpus:
        for tok in pair.lyric.syllables():
            if tok.text not in vocab:
                raise ValueError(f"syllable {tok.text!r} not in vocabulary")
    # equal notes have equal buckets, so each distinct note is bucketed once
    buckets: dict[MelodyNote, NoteBucket] = {}
    events = Counter()
    for pair in corpus:
        # each history key is a window of the BOS-padded texts
        texts = [BOS_TEXT] * history + [tok.text for tok in pair.lyric.syllables()] + [EOS_TEXT]
        keys = zip(*[texts[i:] for i in range(history)])
        notes = [buckets.get(n) or buckets.setdefault(n, bucket_note(n)) for n in pair.melody.notes]
        events.update(zip(keys, notes + [None], texts[history:]))
    for (hist, bucket, target), n in events.items():
        for slot in (
            model._by_hist_bucket.setdefault((hist, bucket), {}),
            model._by_hist.setdefault(hist, {}),
            model._by_bucket.setdefault(bucket, {}),
            model._unigram,
        ):
            slot[target] = slot.get(target, 0) + n
    return model
