"""Overlap metrics for generated lyrics and the LLM-judge prompt pack.

Metrics operate on syllable tokens by default, matching the generation
granularity; a word-level mode tokenizes the rendered text instead.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import EOS_TEXT, LyricSequence, render_text

# the clipped-match count BLEU gives an n-gram order that has no matches
SMOOTHING_EPSILON = 0.1

LLM_EVAL_PROMPT = (
    "I will send you three sets of generated candidate lyrics for 20-note "
    "melodies. I want you to evaluate them in terms of naturality, "
    "correctness, coherence (staying on topic), originality, and poetic "
    "value. Try to give numerical scores to all three candidate methods of "
    "lyric generation. I will send them in separate messages, please "
    "evaluate them after the third message. Is it clear?"
)
LLM_EVAL_NOTE = (
    "Note: the lyrics are syllable-split, lowercase, and without punctuation."
)


@dataclass(frozen=True, slots=True)
class EvalPair:
    candidate: LyricSequence
    reference: LyricSequence

    def __post_init__(self) -> None:
        # a candidate may be empty (a decode that ended at once) and scores 0
        if not self.reference.syllables():
            raise ValueError("reference must have at least one syllable")


def _clean(tokens: Sequence[str]) -> list[str]:
    return [t for t in tokens if t != EOS_TEXT]


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _prf(overlap: float, cand_total: int, ref_total: int) -> dict[str, float]:
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> dict[str, float]:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(_clean(candidate), n)
    ref = _ngrams(_clean(reference), n)
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return _prf(overlap, sum(cand.values()), sum(ref.values()))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b):
            curr.append(prev[j] + 1 if x == y else max(prev[j + 1], curr[j]))
        prev = curr
    return prev[len(b)]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> dict[str, float]:
    """Longest-common-subsequence precision/recall/F1."""
    cand = _clean(candidate)
    ref = _clean(reference)
    lcs = _lcs_length(cand, ref)
    return _prf(lcs, len(cand), len(ref))


def sentence_bleu(candidate: Sequence[str], reference: Sequence[str], max_n: int) -> float:
    """Sentence BLEU with uniform 1/max_n weights and brevity penalty.

    Zero clipped-match counts are replaced by SMOOTHING_EPSILON matches;
    orders longer than the candidate leave the score at 0.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    cand = _clean(candidate)
    ref = _clean(reference)
    if not cand or not ref:
        return 0.0

    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_grams = _ngrams(cand, n)
        total = sum(cand_grams.values())
        if total == 0:
            return 0.0
        ref_grams = _ngrams(ref, n)
        matches = sum(min(count, ref_grams[gram]) for gram, count in cand_grams.items())
        log_sum += math.log((matches or SMOOTHING_EPSILON) / total) / max_n

    brevity = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return brevity * math.exp(log_sum)


@dataclass(frozen=True, slots=True)
class EvalReport:
    rouge1: float
    rouge2: float
    rougeL: float
    bleu2: float
    bleu3: float
    bleu4: float
    pairs: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_table(self) -> str:
        rows = [
            ("rouge-1 f", self.rouge1),
            ("rouge-2 f", self.rouge2),
            ("rouge-l f", self.rougeL),
            ("bleu-2", self.bleu2),
            ("bleu-3", self.bleu3),
            ("bleu-4", self.bleu4),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value:.4f}" for name, value in rows]
        lines.append(f"{'pairs':<{width}}  {self.pairs}")
        return "\n".join(lines)


def _pair_tokens(pair: EvalPair, word_level: bool) -> tuple[list[str], list[str]]:
    if word_level:
        return (
            render_text(pair.candidate).split(),
            render_text(pair.reference).split(),
        )
    return pair.candidate.syllable_texts(), pair.reference.syllable_texts()


def corpus_eval(pairs: Sequence[EvalPair], word_level: bool = False) -> EvalReport:
    """Arithmetic means of the per-pair metrics."""
    if not pairs:
        raise ValueError("no evaluation pairs")
    sums = [0.0] * 6
    for pair in pairs:
        cand, ref = _pair_tokens(pair, word_level)
        sums[0] += rouge_n(cand, ref, 1)["f1"]
        sums[1] += rouge_n(cand, ref, 2)["f1"]
        sums[2] += rouge_l(cand, ref)["f1"]
        sums[3] += sentence_bleu(cand, ref, 2)
        sums[4] += sentence_bleu(cand, ref, 3)
        sums[5] += sentence_bleu(cand, ref, 4)
    n = len(pairs)
    return EvalReport(*(total / n for total in sums), pairs=n)


def emit_llm_eval_prompt(sets: Sequence[tuple[str, Sequence[str]]], variant: str = "basic") -> str:
    """The LLM-judge prompt followed by three named lyric blocks.

    The annotated variant prepends the note describing the lyric formatting.
    """
    if len(sets) != 3:
        raise ValueError(f"exactly 3 lyric sets required, got {len(sets)}")
    if variant not in ("basic", "annotated"):
        raise ValueError(f"unknown variant: {variant!r}")
    parts = []
    if variant == "annotated":
        parts.append(LLM_EVAL_NOTE)
    parts.append(LLM_EVAL_PROMPT)
    for name, lyrics in sets:
        block = [f"=== {name} ==="]
        block.extend(lyrics)
        parts.append("\n".join(block))
    return "\n\n".join(parts) + "\n"
