"""Character-level n-gram language model used as the continuation scorer.

Scores score(context, candidate) in [0, 1] as the geometric mean of
per-character conditional probabilities, and resolves whether a candidate
syllable should attach to the previous word or start a new one by scoring
both spacing variants. It fills the same contract a fine-tuned neural
next-sentence scorer would, behind a deterministic, trainable-in-seconds
model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import modelfile
from .corpus import _SYLLABLE_RE, EOS_TEXT, naming
from .nsp import check_row, halves, read_nsp_blocks

EOS_CHAR = "$"
# every character a lyric in the corpus grammar encodes to: syllables match
# [a-z']+, words are joined by spaces, and the end marker encodes to EOS_CHAR
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz' " + EOS_CHAR
_ALPHABET = frozenset(DEFAULT_ALPHABET)
_ALPHABET_BYTES = DEFAULT_ALPHABET.encode("ascii")
_SIZE = len(DEFAULT_ALPHABET)
# the pad train_char_ngram puts between texts: a character outside the alphabet
_PAD = "\0"
BACKOFF_FACTOR = 0.4

SPACED = "spaced"
UNSPACED = "unspaced"

_FORMAT = "syllabeam-charlm"
_VERSION = 1
_SCHEMA = {"order": int, "k": float, "alphabet": str, "tables": list}

# entries the level cache holds before it is emptied; the row table holds
# twice as many, its syllable scores and batches together
MEMO_LIMIT = 1 << 14
_NO_ROW: dict = {}  # the row of a suffix with no entry; never written
_LABELS = {"0": 0, "1": 1}  # an NSP row's label column, as nsp_metrics reads it


def _check_chars(text: str) -> None:
    """Raise ValueError naming the first character of `text` not in the alphabet."""
    # deleting the alphabet's bytes from the UTF-8 text leaves a byte for any
    # other character; on a long text, quicker than a set test per character
    if text.encode("utf-8", "surrogatepass").translate(None, _ALPHABET_BYTES):
        for pos, ch in enumerate(text):
            if ch not in _ALPHABET:
                raise ValueError(f"character {ch!r} at position {pos} not in alphabet")


def _nsp_encoded(text: str) -> str:
    """A checked NSP context or candidate as the model reads it: an underscore
    is a space, and the end marker is EOS_CHAR."""
    return text.replace("_", " ").replace(EOS_TEXT, EOS_CHAR)


@dataclass(frozen=True, slots=True)
class ContinuationScore:
    value: float
    chosen_variant: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and 0.0 <= self.value <= 1.0):
            raise ValueError(f"score out of range: {self.value!r}")
        if self.chosen_variant not in (SPACED, UNSPACED):
            raise ValueError(f"unknown variant: {self.chosen_variant!r}")


class CharNgramModel:
    """Add-k smoothed character n-gram model over DEFAULT_ALPHABET, with
    context backoff.

    Count tables are kept for every context length 0..order-1. A query uses
    the longest context suffix seen in training; each fallback to a shorter
    suffix multiplies the per-character probability by BACKOFF_FACTOR, so
    backed-off scores are discounted.
    Every score therefore depends only on the last order-1 characters of
    its context, the context suffix, which keys every cache of the model.
    Only train_char_ngram and load fill the counts, so no cache goes stale.
    """

    def __init__(self, order: int, k: float):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 <= k < math.inf:
            raise ValueError("smoothing k must be finite and >= 0")
        self.order = order
        self.k = k
        # tables[L][context_of_length_L][next_char] -> count
        self._tables: list[dict[str, dict[str, int]]] = [{} for _ in range(order)]
        # context suffix -> (count table of the level serving it, or None when
        # that level has no counts; total + k * alphabet size; backoff factor)
        self._levels: dict[str, tuple[Optional[dict[str, int]], float, float]] = {}
        # context suffix -> row: syllable -> its ContinuationScore, and
        # syllables tuple -> its score_candidates result; _entries counts both
        self._rows: dict[str, dict] = {}
        self._entries = 0

    # -- probabilities ----------------------------------------------------

    def _suffix(self, context: str) -> str:
        """The part of `context` that any score depends on."""
        return context[-(self.order - 1) :] if self.order > 1 else ""

    def _level(self, suffix: str) -> tuple[Optional[dict[str, int]], float, float]:
        """The longest stored suffix of `suffix`: its count table (None when it
        has no counts), the table's total + k * alphabet size, and
        BACKOFF_FACTOR to the number of hops it took."""
        level = self._levels.get(suffix)
        if level is None:
            if len(self._levels) >= MEMO_LIMIT:
                self._levels.clear()
            hops = 0
            for length in range(len(suffix), -1, -1):
                table = self._tables[length].get(suffix[len(suffix) - length :])
                if table is not None:
                    break
                hops += 1
            total = sum(table.values()) if table else 0
            denom = total + self.k * _SIZE
            level = self._levels[suffix] = (table if total else None, denom, BACKOFF_FACTOR ** hops)
        return level

    # -- scoring ----------------------------------------------------------

    def _continuation(self, suffix: str, candidate: str) -> float:
        """Geometric mean of the per-character probabilities of a checked
        candidate after a context ending in `suffix`, the suffix growing
        through the candidate; EOS_CHAR in a candidate scores a lyric's end."""
        keep = self.order - 1
        levels = self._levels
        log_sum = 0.0
        for ch in candidate:
            # P(ch | suffix), discounted by BACKOFF_FACTOR per fallback hop
            table, denom, factor = levels.get(suffix) or self._level(suffix)
            if table is None:
                p = factor / _SIZE
            else:
                p = factor * ((table.get(ch, 0) + self.k) / denom)
            if p == 0.0:
                return 0.0
            log_sum += math.log(p)
            if keep:
                suffix = (suffix + ch)[-keep:]
        return math.exp(log_sum / len(candidate))

    def score_with_spacing(self, context: str, syllable_text: str) -> ContinuationScore:
        """Score both renderings of a syllable and keep the better one, ties to
        the unspaced variant. A syllable is the end marker, which has a single
        rendering (the reserved character), or corpus syllable text, `[a-z']+`."""
        return self.score_candidates(context, (syllable_text,))[0]

    def score_candidates(self, context: str, syllables: tuple[str, ...]) -> tuple:
        """`score_with_spacing` of each syllable against one context, memoized in
        the context suffix's row per syllable and per tuple; an entry is stored
        once its syllables passed their checks, so a hit checks the context alone."""
        _check_chars(context)
        suffix = self._suffix(context)
        scores = self._rows.get(suffix, _NO_ROW).get(syllables)
        if scores is None:
            scores = tuple([self._scored_syllable(context, suffix, text) for text in syllables])
            self._store(suffix, syllables, scores)
        elif not context and EOS_TEXT in syllables:
            raise ValueError("end marker needs a non-empty context")
        return scores

    def _scored_syllable(self, context: str, suffix: str, syllable_text: str) -> ContinuationScore:
        """score_with_spacing after checked `context`, which ends in `suffix`."""
        if syllable_text == EOS_TEXT and not context:
            raise ValueError("end marker needs a non-empty context")
        score = self._rows.get(suffix, _NO_ROW).get(syllable_text)
        if score is None:
            if syllable_text != EOS_TEXT and not _SYLLABLE_RE.match(syllable_text):
                if not syllable_text:
                    raise ValueError("syllable must be non-empty")
                _check_chars(syllable_text)
                raise ValueError(f"illegal syllable text: {syllable_text!r}")
            score = self._store(suffix, syllable_text, self._score_spacing(suffix, syllable_text))
        return score

    def _store(self, suffix: str, key, value):
        """`value`, stored under `key` in the row of `suffix`; the whole table
        is emptied first when it holds 2 * MEMO_LIMIT entries."""
        if self._entries >= 2 * MEMO_LIMIT:
            self._rows.clear()
            self._entries = 0
        self._entries += 1
        self._rows.setdefault(suffix, {})[key] = value
        return value

    def _score_spacing(self, suffix: str, syllable_text: str) -> ContinuationScore:
        if syllable_text == EOS_TEXT:
            return ContinuationScore(self._continuation(suffix, EOS_CHAR), UNSPACED)
        unspaced = self._continuation(suffix, syllable_text)
        spaced = self._continuation(suffix, " " + syllable_text)
        return ContinuationScore(*((unspaced, UNSPACED) if unspaced >= spaced else (spaced, SPACED)))

    def nsp_score(self, context: str, candidate: str) -> float:
        """The score of one row, once `context` and `candidate` are a row the
        builder can write (`nsp.check_row`): the candidate's underscore marks a
        leading space, and a context may embed the end marker mid-string
        (corruption rows). One call computes its continuation afresh: only
        `score_nsp_file` keeps a memo, for the length of its call."""
        check_row(context, candidate)
        return self._continuation(self._suffix(_nsp_encoded(context)), _nsp_encoded(candidate))

    def score_nsp_file(self, path) -> list[tuple[float, int]]:
        """(nsp_score, label) of each row of the NSP TSV file at `path`, as
        `read_nsp_blocks` checks and yields it; a bad line raises its
        ValueError. The file is read in `nsp.halves`, on two processes where
        it can, and each process scores its rows with a memo of its own
        (`_scored_blocks`), so each computes each continuation its rows ask
        for once. The pairs `marshal` loads keep the sharing the child's had,
        so its equal pairs of one key and label stay one tuple."""
        return halves(path, lambda start, stop: self._scored_blocks(read_nsp_blocks(path, start, stop)))

    def _scored_blocks(self, blocks: Iterable[list[tuple[str, str, str]]]) -> list[tuple[float, int]]:
        """(nsp_score, label) of each row of checked NSP `blocks`. Each run of
        equal contexts is encoded once and finds its suffix's row of the
        memo, candidate as written -> (score, label), once. The memo lives
        for this call alone. A candidate is encoded only on a miss, as the
        row grammar gives each encoding one spelling. A hit appends the
        stored pair, or its twin of the other label, kept once per pair in
        `flipped`, so each key's pairs of one label are one tuple."""
        scored = []
        memo: dict[str, dict[str, tuple[float, int]]] = {}
        flipped: dict[tuple[float, int], tuple[float, int]] = {}
        last = None
        for block in blocks:
            for context, candidate, label in block:
                if context != last:
                    last, suffix = context, self._suffix(_nsp_encoded(context))
                    row = memo.get(suffix)
                    if row is None:
                        row = memo[suffix] = {}
                pair = row.get(candidate)
                if pair is None:
                    pair = row[candidate] = (self._continuation(suffix, _nsp_encoded(candidate)), _LABELS[label])
                elif pair[1] != _LABELS[label]:
                    twin = flipped.get(pair)
                    if twin is None:
                        twin = flipped[pair] = (pair[0], _LABELS[label])
                    pair = twin
                scored.append(pair)
        return scored

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        # the codec's sort_keys orders every context and character
        fields = {"order": self.order, "k": self.k, "tables": self._tables}
        modelfile.save(path, _FORMAT, _VERSION, {"alphabet": DEFAULT_ALPHABET, **fields})

    @classmethod
    @modelfile.gc_paused()
    def load(cls, path) -> "CharNgramModel":
        """A saved model, once its file names DEFAULT_ALPHABET and holds
        `order` count levels whose level-L contexts are L alphabet characters
        long, each mapping alphabet characters to non-negative integer counts."""
        with naming(path):
            return cls._from_payload(modelfile.load(path, _FORMAT, _VERSION, _SCHEMA))

    @classmethod
    def _from_payload(cls, payload: dict) -> "CharNgramModel":
        """The model of a payload whose header and field types `load` checked."""
        if payload["alphabet"] != DEFAULT_ALPHABET:
            raise ValueError(f"alphabet must be {DEFAULT_ALPHABET!r}")
        tables = payload["tables"]
        if len(tables) != payload["order"]:
            raise ValueError(f"{len(tables)} count levels for order {payload['order']}")
        model = cls(payload["order"], payload["k"])
        for length, level in enumerate(tables):
            if type(level) is not dict:
                raise ValueError(f"count level {length} is not a JSON object")
            for context, counts in level.items():
                if len(context) != length:
                    raise ValueError(f"level-{length} context {context!r} has length {len(context)}")
                _check_chars(context)
                modelfile.counts(counts, _ALPHABET)
        model._tables = tables
        return model

    def stats(self) -> dict:
        return {
            "order": self.order,
            "k": self.k,
            "alphabet_size": _SIZE,
            "contexts": sum(len(level) for level in self._tables),
        }


def train_char_ngram(texts: Sequence[str], order: int, k: float) -> CharNgramModel:
    """A model of every text's n-grams, once every text passed its check.

    Only the order-grams are counted, in one pass over one string holding
    every text after order-1 pad characters. No order-gram spans two texts,
    and each shorter gram of a text is the suffix of the order-gram ending
    where it ends, so each level's counts are summed from the level above;
    grams holding a pad character are no text's."""
    texts = list(texts)
    if not texts:
        raise ValueError("empty training corpus")
    model = CharNgramModel(order, k)
    for text in texts:
        _check_chars(text)
    gap = _PAD * (order - 1)
    stream = gap + gap.join(texts)
    grams = {"".join(gram): n for gram, n in Counter(zip(*[stream[i:] for i in range(order)])).items()}
    for table in reversed(model._tables):
        shorter: dict[str, int] = {}
        for gram, n in grams.items():
            if _PAD not in gram:
                row = table.get(gram[:-1])
                if row is None:
                    row = table[gram[:-1]] = {}
                row[gram[-1]] = n
            suffix = gram[1:]
            shorter[suffix] = shorter.get(suffix, 0) + n
        grams = shorter
    return model


def nsp_accuracy(
    scorer: Callable[[str, str], float],
    dataset: Iterable,
    threshold: float = 0.5,
) -> dict[str, float]:
    """nsp_metrics of a continuation scorer, which maps each example's
    (context, candidate) to a score."""
    return nsp_metrics([(scorer(ex.context, ex.candidate), ex.label) for ex in dataset], threshold)


def nsp_metrics(scored: Sequence[tuple[float, int]], threshold: float = 0.5) -> dict[str, float]:
    """Thresholded accuracy and rank AUC of (score, label) pairs.

    A pair is counted correct when (score >= threshold) agrees with its
    label. AUC is the Mann-Whitney rank statistic with midranks for ties; it
    is NaN when the pairs contain a single class.
    """
    if not scored:
        raise ValueError("empty dataset")

    correct = sum(1 for s, label in scored if (s >= threshold) == (label == 1))
    accuracy = correct / len(scored)

    n_pos = sum(1 for _, label in scored if label == 1)
    n_neg = len(scored) - n_pos
    if n_pos == 0 or n_neg == 0:
        return {"accuracy": accuracy, "auc": float("nan")}

    ordered = sorted(scored, key=itemgetter(0))
    # one pass over the tie groups, each adding its midrank once per positive
    rank_sum_pos = 0.0
    start, first, positives = 0, ordered[0][0], 0
    for i, (score, label) in enumerate(ordered):
        if score != first:
            rank_sum_pos += (start + 1 + i) / 2.0 * positives
            start, first, positives = i, score, 0
        positives += label == 1
    rank_sum_pos += (start + 1 + len(ordered)) / 2.0 * positives
    auc = (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return {"accuracy": accuracy, "auc": auc}


def lyric_lm_text(rendered: str) -> str:
    """Training-text form of a rendered lyric: the text with the literal end
    marker mapped to EOS_CHAR, plus EOS_CHAR. Raises ValueError naming the
    first out-of-alphabet character position."""
    encoded = rendered.replace(EOS_TEXT, EOS_CHAR) + EOS_CHAR
    _check_chars(encoded)
    return encoded
