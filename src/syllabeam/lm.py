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
from .corpus import _SYLLABLE_RE, EOS_TEXT
from .nsp import _CANDIDATE_RE

EOS_CHAR = "$"
# every character a lyric in the corpus grammar encodes to: syllables match
# [a-z']+, words are joined by spaces, and the end marker encodes to EOS_CHAR
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz' " + EOS_CHAR
_ALPHABET = frozenset(DEFAULT_ALPHABET)
_SIZE = len(DEFAULT_ALPHABET)
# the pad train_char_ngram puts between texts: a character outside the alphabet
_PAD = "\0"
BACKOFF_FACTOR = 0.4

SPACED = "spaced"
UNSPACED = "unspaced"

_FORMAT = "syllabeam-charlm"
_VERSION = 1

# entries each per-model cache holds before it is emptied
MEMO_LIMIT = 1 << 14


def _check_chars(text: str) -> None:
    """Raise ValueError naming the first character of `text` not in the alphabet."""
    if not _ALPHABET.issuperset(text):
        for pos, ch in enumerate(text):
            if ch not in _ALPHABET:
                raise ValueError(f"character {ch!r} at position {pos} not in alphabet")


def encode_text(text: str) -> str:
    """Map the literal end marker to its reserved character and validate.

    Raises ValueError naming the first out-of-alphabet character position.
    """
    encoded = text.replace(EOS_TEXT, EOS_CHAR)
    _check_chars(encoded)
    return encoded


@dataclass(frozen=True)
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
    suffix multiplies the per-character probability by BACKOFF_FACTOR
    (so backed-off scores are discounted, while conditional_distribution
    always reports the proper add-k distribution of the resolved level).
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
        # (context suffix, syllable) -> score_with_spacing result
        self._memo: dict[tuple[str, str], ContinuationScore] = {}
        # (context suffix, candidate) -> score_continuation result
        self._continuations: dict[tuple[str, str], float] = {}
        # (context suffix, syllables) -> score_candidates result
        self._candidates: dict[tuple[str, tuple[str, ...]], tuple[ContinuationScore, ...]] = {}

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

    def char_prob(self, ch: str, context: str) -> float:
        """P(ch | context), discounted by BACKOFF_FACTOR per fallback hop."""
        if ch not in _ALPHABET:
            raise ValueError(f"character {ch!r} not in alphabet")
        table, denom, factor = self._level(self._suffix(context))
        if table is None:
            return factor / _SIZE
        return factor * ((table.get(ch, 0) + self.k) / denom)

    def conditional_distribution(self, context: str) -> dict[str, float]:
        """Proper add-k distribution over the alphabet at the resolved level."""
        table, denom, _ = self._level(self._suffix(context))
        if table is None:
            return {ch: 1.0 / _SIZE for ch in DEFAULT_ALPHABET}
        return {ch: (table.get(ch, 0) + self.k) / denom for ch in DEFAULT_ALPHABET}

    # -- scoring ----------------------------------------------------------

    def score_continuation(self, context: str, candidate: str) -> float:
        """Geometric mean of per-character probabilities of `candidate`
        following `context`, the context growing through the candidate.

        Both may be any alphabet text: a candidate holding EOS_CHAR scores
        the end of a lyric, and one holding a space crosses a word boundary."""
        if not candidate:
            raise ValueError("candidate must be non-empty")
        _check_chars(context)
        return self._scored(self._suffix(context), candidate)

    def _scored(self, suffix: str, candidate: str) -> float:
        """score_continuation after a checked context ending in `suffix`,
        memoized per (suffix, candidate); a key is stored only once its
        candidate passed its check, so only a miss needs one."""
        key = (suffix, candidate)
        score = self._continuations.get(key)
        if score is None:
            _check_chars(candidate)
            if len(self._continuations) >= MEMO_LIMIT:
                self._continuations.clear()
            score = self._continuations[key] = self._continuation(suffix, candidate)
        return score

    def _continuation(self, suffix: str, candidate: str) -> float:
        """score_continuation of a checked candidate after a context ending
        in `suffix`; only the running suffix is carried."""
        keep = self.order - 1
        levels = self._levels
        log_sum = 0.0
        for ch in candidate:
            # char_prob's arithmetic, inlined: this loop is the LM's hot path
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
        """Score both renderings of a syllable and keep the better one.

        A syllable is the end marker, which has a single rendering (the
        reserved character), or corpus syllable text, `[a-z']+`. Ties break
        to the unspaced variant. Results are memoized per (last order-1
        context characters, syllable).
        """
        _check_chars(context)
        return self._scored_spacing(context, self._suffix(context), syllable_text)

    def _scored_spacing(self, context: str, suffix: str, syllable_text: str) -> ContinuationScore:
        """score_with_spacing after checked `context`, which ends in `suffix`.
        A key holds the whole syllable and is stored only once the syllable
        passed its check, so only a miss needs one."""
        if syllable_text == EOS_TEXT and not context:
            raise ValueError("end marker needs a non-empty context")
        key = (suffix, syllable_text)
        score = self._memo.get(key)
        if score is None:
            if syllable_text != EOS_TEXT and not _SYLLABLE_RE.match(syllable_text):
                if not syllable_text:
                    raise ValueError("syllable must be non-empty")
                _check_chars(syllable_text)
                raise ValueError(f"illegal syllable text: {syllable_text!r}")
            if len(self._memo) >= MEMO_LIMIT:
                self._memo.clear()
            score = self._memo[key] = self._score_spacing(suffix, syllable_text)
        return score

    def score_candidates(self, context: str, syllables: tuple[str, ...]) -> tuple:
        """`score_with_spacing` of each syllable against one context, memoized
        per (context suffix, syllables). A result is stored only once every
        syllable passed its checks, so a hit checks the context alone."""
        _check_chars(context)
        key = (self._suffix(context), syllables)
        scores = self._candidates.get(key)
        if scores is None:
            scores = tuple([self._scored_spacing(context, key[0], text) for text in syllables])
            if len(self._candidates) >= MEMO_LIMIT:
                self._candidates.clear()
            self._candidates[key] = scores
        elif not context and EOS_TEXT in syllables:
            raise ValueError("end marker needs a non-empty context")
        return scores

    def _score_spacing(self, suffix: str, syllable_text: str) -> ContinuationScore:
        if syllable_text == EOS_TEXT:
            return ContinuationScore(self._continuation(suffix, EOS_CHAR), UNSPACED)
        unspaced = self._continuation(suffix, syllable_text)
        spaced = self._continuation(suffix, " " + syllable_text)
        if unspaced >= spaced:
            return ContinuationScore(unspaced, UNSPACED)
        return ContinuationScore(spaced, SPACED)

    def nsp_score(self, context: str, candidate: str) -> float:
        """Score a dataset-notation candidate against a dataset-notation context.

        A candidate matches `_?(?:[a-z']+|<eos>)`: one syllable or the end
        marker, the underscore marking a leading space; contexts may embed
        the end marker mid-string (corruption rows). The reserved character
        the end marker encodes to is rejected in both.
        Scores are memoized per (context suffix, encoded candidate).
        """
        if EOS_CHAR in context + candidate:
            raise ValueError(f"character {EOS_CHAR!r} is reserved for {EOS_TEXT}")
        encoded_context = encode_text(context)
        if not _CANDIDATE_RE.fullmatch(candidate):
            spaced = candidate.startswith("_")
            body = candidate[spaced:]
            if not body:
                raise ValueError("no syllable after '_'" if spaced else "candidate must be non-empty")
            _check_chars(body)
            raise ValueError(f"candidate {candidate!r} does not match {_CANDIDATE_RE.pattern}")
        text = candidate.replace("_", " ").replace(EOS_TEXT, EOS_CHAR)
        return self._scored(self._suffix(encoded_context), text)

    def score_nsp_rows(self, rows: Iterable) -> list[tuple[float, int]]:
        """(nsp_score, label) of each row `nsp.read_nsp_tsv` yields. Those rows
        are in the dataset grammar, which encodes into the alphabet, so each run
        of equal contexts is encoded once and no candidate is checked again."""
        scored = []
        memo = self._continuations
        last = suffix = None
        for context, candidate, label in rows:
            if context != last:
                last, suffix = context, self._suffix(context.replace(EOS_TEXT, EOS_CHAR))
            text = candidate.replace("_", " ").replace(EOS_TEXT, EOS_CHAR)
            score = memo.get((suffix, text))  # _scored's lookup, inlined
            scored.append((self._scored(suffix, text) if score is None else score, label))
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
        payload = modelfile.load(
            path, _FORMAT, _VERSION, {"order": int, "k": float, "alphabet": str, "tables": list}
        )
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
    """Training-text form of a rendered lyric: the text plus the end character."""
    return encode_text(rendered) + EOS_CHAR
