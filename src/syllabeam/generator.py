"""Melody-conditioned syllable generator.

A count-based model over (syllable history, note bucket) pairs standing in
for a trained sequence decoder: given the recent syllables and the current
note's discretized features it answers from a probability distribution over
the vocabulary, end token included, its top entries or one entry at a time.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from collections import Counter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import modelfile
from .corpus import (
    BOS_TEXT,
    EOS_TEXT,
    AlignedPair,
    MelodyNote,
    SyllableToken,
    Vocabulary,
    naming,
)

DURATION_SHORT = "short"
DURATION_MEDIUM = "medium"
DURATION_LONG = "long"

_FORMAT = "syllabeam-generator"
_VERSION = 2
_BUCKETING_VERSION = 1
_SCHEMA = {"bucketing": int, "history": int, "k": float, "vocabulary": list, "hist_bucket": list}
MAX_HISTORY = 32  # past a lyric's length, a longer history adds only padding


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


# Every bucket a note has: 128 pitches x 3 duration classes x a rest or none,
# each keyed by itself, so the tuple of a JSON bucket's values finds it with
# one lookup. 1 == True and 0 == 0.0 hash alike, so the value types are
# checked after it (`_bucket_from_json`).
_BUCKETS = {
    bucket: bucket
    for bucket in (bucket_note(MelodyNote(p, d, r)) for p in range(128) for d in (0.5, 1, 2) for r in (0, 1))
}
# the buckets in a fixed order, and each one's index there: a training
# record's notes (`training_record`)
_BUCKET_LIST = tuple(_BUCKETS)
_BUCKET_IDS = {bucket: index for index, bucket in enumerate(_BUCKET_LIST)}


def _bucket_from_json(data) -> Optional[NoteBucket]:
    if data is None:
        return None
    try:
        bucket = _BUCKETS[tuple(data)]
    except (KeyError, TypeError):  # no note's values, unhashable, or not iterable
        pass
    else:  # only an array of a note's values, never true for 1 nor 0.0 for 0
        if type(data) is list and type(data[0]) is int and type(data[1]) is int and type(data[3]) is bool:
            return bucket
    raise ValueError(
        f"bucket {data!r} is not a note's"
        " [pitch class 0-11, register 0-10, duration class, rest flag] or null"
    )


class _Ranking(NamedTuple):
    """One count table content, ranked for top-k queries as they come.

    Each entry of `counts` has probability (n + k) / `denom` when that
    exceeds `floor`; every other emittable token has probability `floor`.
    `tops` keeps each top-k list already asked for, padded with floor
    tokens, by k, as (texts, probabilities, vocabulary ids) tuples.
    """

    counts: dict[str, int]  # the first table ranked; equal tables share the ranking
    denom: float
    floor: float
    tops: dict[int, tuple[tuple[str, ...], tuple[float, ...], tuple[int, ...]]]


def _rank(counts: dict[str, int], vocab: Vocabulary, k: float) -> _Ranking:
    denom = sum(counts.values()) + k * len(vocab.emittable())
    if denom == 0:  # no count, no smoothing: every entry is (n + k) / inf = 0, under the uniform floor
        return _Ranking(counts, math.inf, 1.0 / len(vocab.emittable()), {})
    return _Ranking(counts, denom, k / denom, {})


class MelodyConditionedNgram:
    """Syllable n-gram conditioned on the current note bucket.

    Four count tables back each other off: (history, bucket) -> (history)
    -> (bucket) -> unigram; a query is served by the first table that has
    seen its key, with add-k smoothing over the emittable vocabulary, so
    every returned distribution sums to one. The other three tables sum the
    (history, bucket) counts, as in the "stupid backoff" of Brants et al.
    (2007). A bucket of None stands for "past the final note" and is only
    ever paired with the end token in training data. Only train_generator
    and load fill the tables, and nothing changes them after, so a ranking,
    built on the first query of its content, never goes stale, and tables
    share objects rather than copy them: a history of one (history, bucket)
    row has that row as its (history) table, and a loaded model's history
    keys hold the vocabulary's own strings.
    """

    def __init__(self, vocab: Vocabulary, history: int = 2, k: float = 0.1):
        if history < 1:
            raise ValueError("history must be >= 1")
        if history > MAX_HISTORY:
            raise ValueError(f"history must be <= {MAX_HISTORY}")
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

    def _derive(self, rows: Iterable[tuple[tuple[tuple[str, ...], Optional[NoteBucket]], dict[str, int]]]) -> None:
        """Fill the (history), (bucket) and unigram tables with the sums of the
        (history, bucket) rows, each ((history, bucket), counts) as `rows`
        hands it over. A history's table is its first row itself until a second
        row of it arrives, which sums into a copy, so no row's counts change and
        a history of one row keeps one table, and one ranking, for both keys."""
        by_hist, by_bucket, unigram = self._by_hist, self._by_bucket, self._unigram
        summed = set()  # the histories whose table is a sum of two or more rows
        for (hist, bucket), counts in rows:
            bucket_row = by_bucket.get(bucket)
            if bucket_row is None:
                bucket_row = by_bucket[bucket] = {}
            hist_row = by_hist.get(hist)
            if hist_row is None:  # the history's first row: only the bucket sum takes it
                by_hist[hist] = counts
                for target, n in counts.items():
                    bucket_row[target] = bucket_row.get(target, 0) + n
                continue
            if hist not in summed:
                summed.add(hist)
                hist_row = by_hist[hist] = dict(hist_row)
            for target, n in counts.items():
                hist_row[target] = hist_row.get(target, 0) + n
                bucket_row[target] = bucket_row.get(target, 0) + n
        for counts in by_bucket.values():
            for target, n in counts.items():
                unigram[target] = unigram.get(target, 0) + n

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

    def top_by_key(self, key: tuple[str, ...], bucket: Optional[NoteBucket], k: int) -> tuple:
        """The first `k` entries of the distribution over every emittable
        entry after the history keyed by `key` at a note bucket, ranked by
        (-probability, vocabulary id) and computed without building it, as one
        cached (texts, probabilities, vocabulary ids) tuple per k."""
        ranking = self._ranking(key, bucket)
        top = ranking.tops.get(k)
        if top is None:
            smoothing, denom, floor, id_of = self.k, ranking.denom, ranking.floor, self.vocab.id_of
            # (-probability, vocabulary id, text) of every entry, the k least
            costs = [(-(n + smoothing) / denom, id_of(text), text) for text, n in ranking.counts.items()]
            pairs = [(text, -cost) for cost, _, text in heapq.nsmallest(k, costs) if -cost > floor]
            if len(pairs) < k:  # every entry above the floor is in `pairs`
                above = {text for text, _ in pairs}
                rest = (text for text in self.vocab.emittable() if text not in above)
                pairs.extend((text, floor) for text in itertools.islice(rest, k - len(pairs)))
            texts = tuple(text for text, _ in pairs)
            probs = tuple(p for _, p in pairs)
            top = ranking.tops[k] = (texts, probs, tuple(map(id_of, texts)))
        return top

    def prob_by_key(self, key: tuple[str, ...], bucket: Optional[NoteBucket], text: str) -> float:
        """The probability of an emittable `text` after the history keyed by
        `key` at a note bucket."""
        if text == BOS_TEXT or text not in self.vocab:
            raise ValueError(f"{text!r} is not an emittable token")
        ranking = self._ranking(key, bucket)
        n = ranking.counts.get(text)
        if n is None:
            return ranking.floor
        p = (n + self.k) / ranking.denom
        return p if p > ranking.floor else ranking.floor

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write the model's (history, bucket) rows in the order of their keys'
        JSON text; `load` derives the other tables from them. Each row's text
        is the one `json.dumps` writes of `[history, bucket, counts]` with
        sorted keys: entries are vocabulary texts, `[a-z']+`, BOS or the end
        token, which JSON writes as they are, and counts are ints. A row's
        `[history, bucket` text ends in `]` or `null`, so no other row's starts
        with it, and sorting the row texts sorts the rows by that text."""
        bucket_text = {bucket: json.dumps(bucket) for bucket in {bucket for _, bucket in self._by_hist_bucket}}
        entries = '", "'.join
        rows = []
        for (hist, bucket), counts in self._by_hist_bucket.items():
            if len(counts) == 1:  # most tables: no sort
                for target, n in counts.items():
                    table = f'"{target}": {n}'
            else:
                table = ", ".join([f'"{target}": {counts[target]}' for target in sorted(counts)])
            rows.append(f'[["{entries(hist)}"], {bucket_text[bucket]}, {{{table}}}]')
        rows.sort()
        fields = {
            "bucketing": _BUCKETING_VERSION,
            "history": self.history,
            "k": self.k,
            "vocabulary": list(self.vocab.syllable_texts()),
        }
        modelfile.save(path, _FORMAT, _VERSION, fields, {"hist_bucket": rows})

    @classmethod
    @modelfile.gc_paused()
    def load(cls, path) -> "MelodyConditionedNgram":
        """A saved model, once its vocabulary is as `save` writes it (sorted,
        distinct, without BOS or the end token), it has (history, bucket) rows
        of distinct keys, each history is `history` vocabulary entries or BOS,
        each bucket null or one a note has (`_BUCKETS`), and each count
        table maps emittable vocabulary entries to non-negative integers."""
        with naming(path):
            return cls._from_payload(modelfile.load(path, _FORMAT, _VERSION, _SCHEMA))

    @classmethod
    def _from_payload(cls, payload: dict) -> "MelodyConditionedNgram":
        """The model of a payload whose header and field types `load` checked."""
        if payload["bucketing"] != _BUCKETING_VERSION:
            raise ValueError(f"unsupported bucketing version {payload['bucketing']}")
        if not set(map(type, payload["vocabulary"])) <= {str}:
            raise ValueError("vocabulary entries must be strings")
        model = cls(Vocabulary(payload["vocabulary"]), payload["history"], payload["k"])
        if list(model.vocab.syllable_texts()) != payload["vocabulary"]:
            raise ValueError("vocabulary must be sorted, distinct entries without <bos> or <eos>")
        emittable, history = frozenset(model.vocab.emittable()), model.history
        # each history entry maps to the vocabulary's own string object, so a
        # key holds none of the strings the parser made for its row
        entry = {text: text for text in (*emittable, BOS_TEXT)}.__getitem__
        # training counts every syllable under its history and bucket, so a
        # trained file has rows; without them no row would pin `history` down
        rows = payload.pop("hist_bucket")
        if not rows:
            raise ValueError("'hist_bucket' has no rows; a trained model always has some")
        by_hist_bucket = model._by_hist_bucket

        def checked():
            """Each row as ((history, bucket), counts), keyed in the model once
            checked. Rows are popped from the end of the reversed list, so each
            parsed row is released once read, and the first bad row in file
            order is named."""
            rows.reverse()
            pop = rows.pop
            # rows may share one count table (`modelfile.load`), so a repeated
            # row shows as a key that leaves the row count as it was, and each
            # table object is checked once, by its identity
            size, seen = 0, set()
            # a saved file holds the rows of each history together, and each
            # run of them shares one key tuple, built and checked once
            last, hist = object(), ()  # `last` equals no parsed history
            for _ in range(len(rows)):
                row = pop()
                if type(row) is not list or len(row) != 3:
                    raise ValueError("a 'hist_bucket' row is not a JSON array of 3")
                data, note, counts = row
                if data != last:
                    try:
                        hist = tuple(map(entry, data))
                    except (KeyError, TypeError):  # not an entry, unhashable, or not iterable
                        hist = ()
                    if type(data) is not list or len(hist) != history:
                        raise ValueError(f"history {data!r} is not {history} vocabulary entries")
                    last = data
                key = hist, _bucket_from_json(note)
                by_hist_bucket[key] = counts
                if len(by_hist_bucket) == size:
                    raise ValueError(f"repeated 'hist_bucket' row for history {data!r} and bucket {note!r}")
                size += 1
                if id(counts) not in seen:
                    modelfile.counts(counts, emittable)
                    seen.add(id(counts))
                yield key, counts

        model._derive(checked())
        return model

    def stats(self) -> dict:
        return {
            "history": self.history,
            "k": self.k,
            "vocabulary_size": len(self.vocab),
            "hist_bucket_contexts": len(self._by_hist_bucket),
        }


def training_record() -> Callable[[AlignedPair], tuple[list[str], list[int]]]:
    """A function making the training record of an aligned pair: its
    syllable texts and the index of each note's bucket among `_BUCKETS`.
    Equal notes have equal buckets, so each note object is bucketed once,
    keyed by its identity (the corpus parser shares one object among equal
    notes); the notes of the pairs it is given must outlive it, as those of
    a corpus list or of one parser's pairs do."""
    ids: dict[int, int] = {}  # id(note) -> its bucket's index

    def record(pair: AlignedPair) -> tuple[list[str], list[int]]:
        notes = []
        for note in pair.melody.notes:
            index = ids.get(id(note))
            if index is None:
                index = ids[id(note)] = _BUCKET_IDS[bucket_note(note)]
            notes.append(index)
        return [tok.text for tok in pair.lyric.syllables()], notes

    return record


def train_generator(
    corpus: Sequence[AlignedPair], vocab: Vocabulary, history: int = 2, k: float = 0.1
) -> MelodyConditionedNgram:
    """A model of every (history, note bucket) -> syllable event of the
    corpus: `train_records` of each pair's `training_record`."""
    return train_records(list(map(training_record(), corpus)), vocab, history, k)


def train_records(
    records: Sequence[tuple[Sequence[str], Sequence[int]]], vocab: Vocabulary, history: int = 2, k: float = 0.1
) -> MelodyConditionedNgram:
    """A model of every (history, note bucket) -> syllable event of the
    training records (`training_record`), once every syllable passed its
    check (`_count_rows`)."""
    model = _count_rows(records, vocab, history, k)
    model._derive(model._by_hist_bucket.items())
    return model


def write_trained(
    path, records: Sequence[tuple[Sequence[str], Sequence[int]]], vocab: Vocabulary, history: int = 2, k: float = 0.1
) -> dict:
    """Save the model `train_records` makes of the records to `path`, and
    return its `stats()`. The file holds only the (history, bucket) rows, so
    the backoff tables, which answer queries, are never summed."""
    model = _count_rows(records, vocab, history, k)
    model.save(path)
    return model.stats()


def _count_rows(
    records: Sequence[tuple[Sequence[str], Sequence[int]]], vocab: Vocabulary, history: int, k: float
) -> MelodyConditionedNgram:
    """A model holding only the (history, bucket) rows of the records, once
    every syllable passed its check: the events are tallied with one Counter,
    and each distinct event's count is its row's. It answers no query until
    `_derive` sums its backoff tables."""
    if not records:
        raise ValueError("empty corpus")
    model = MelodyConditionedNgram(vocab, history, k)
    known = frozenset(vocab.emittable()) | {BOS_TEXT}
    for text in itertools.chain.from_iterable(texts for texts, _ in records):
        if text not in known:
            raise ValueError(f"syllable {text!r} not in vocabulary")
    events = Counter()
    pad = [BOS_TEXT] * history
    for texts, notes in records:
        # each history key is a window of the BOS-padded texts
        texts = [*pad, *texts, EOS_TEXT]
        keys = zip(*[texts[i:] for i in range(history)])
        events.update(zip(keys, [*notes, None], texts[history:]))
    by_hist_bucket = model._by_hist_bucket
    for (hist, note, target), n in events.items():
        # each event is distinct, so its (history, bucket) row is only assigned
        bucket = None if note is None else _BUCKET_LIST[note]
        row = by_hist_bucket.get((hist, bucket))
        if row is None:
            row = by_hist_bucket[hist, bucket] = {}
        row[target] = n
    return model
