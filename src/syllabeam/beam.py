"""Fused beam search over a melody-conditioned generator and a character LM.

Step 0 ranks first syllables by generator probability alone. From step 1 on,
each surviving hypothesis proposes its top generator candidates; every
candidate is scored by the LM against the hypothesis's rendered text (both
spacing variants, best one kept), and the per-step fused value

    lambda_gen * generator_prob + lambda_lm * lm_score    (lambda_gen = 1 - lambda_lm)

is added to the parent's cumulative score. Hypotheses that emitted the end
token are frozen and compete on their frozen cumulative score. Selection
keeps the best `beam_size` by cumulative score; ties resolve by parent
index, then candidate vocabulary id, so decoding is fully deterministic.

The LM's chosen spacing variant becomes the new token's word boundary and
extends the rendered text, which is the LM context for the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .corpus import EOS_TEXT, LyricSequence, MelodySequence, SyllableToken
from .lm import SPACED, UNSPACED, ContinuationScore

AUDIT_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class FusionConfig:
    """Search settings; the generator weight is the LM weight's complement."""

    beam_size: int = 5
    lambda_lm: float = 0.75
    max_len: int = 20
    lambda_gen: float = field(init=False)

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if not 0 <= self.lambda_lm <= 1:  # nan fails both comparisons
            raise ValueError(f"lambda_lm must be in [0, 1], got {self.lambda_lm!r}")
        object.__setattr__(self, "lambda_gen", 1.0 - self.lambda_lm)


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One decoding step: raw scorer values, spacing choice, fused contribution."""

    generator_prob: float
    lm_score: Optional[float]
    variant: str
    contribution: float


# the token that ends a hypothesis
_END = SyllableToken(EOS_TEXT, False)


class DecodeResult(NamedTuple):
    lyric: LyricSequence
    cumulative: float
    trace: tuple[TraceStep, ...]


def _silent(context: str, syllable_text: str) -> ContinuationScore:
    """The LM score in a search that gives the LM no weight."""
    return ContinuationScore(0.0, UNSPACED if syllable_text == EOS_TEXT else SPACED)


def _seams(generator, lm) -> tuple:
    """The generator and the LM's batch and end-token scorers the search reads."""
    if lm is None:
        return generator, lambda context, texts: tuple(_silent(context, t) for t in texts), _silent
    return generator, lm.score_candidates, lm.score_with_spacing


def _unwind(node, memo: dict) -> tuple[tuple[SyllableToken, ...], tuple[TraceStep, ...]]:
    """A hypothesis's tokens and trace, unwound from its node. `memo` keeps
    each unwound node's (token, trace step) by the node's id, so hypotheses
    sharing a prefix build its objects once; the nodes it names must outlive
    it, or a new node could reuse an id."""
    made = []
    while node is not None:
        step = memo.get(id(node))
        if step is None:
            _, _, _, text, prob, scored, contribution = node[1]
            end = text == EOS_TEXT
            variant = UNSPACED if end else SPACED if scored is None else scored.chosen_variant
            token = _END if end else SyllableToken(text, variant == SPACED)
            lm_score = None if scored is None else scored.value
            step = memo[id(node)] = token, TraceStep(prob, lm_score, variant, contribution)
        made.append(step)
        node = node[0]
    return tuple(zip(*made[::-1]))


def _search(hyps: list, seams: tuple, melody: MelodySequence, t: int, config: FusionConfig) -> list:
    """Step `t` of the search: propose, score, and keep the best `beam_size`.

    A hypothesis is (cumulative, finished, rendered, generator key, node),
    its node None at the root or a (parent node, pool entry) back-pointer. A
    candidate adds lambda_gen * generator_prob + lambda_lm * lm_score to its
    parent's score; at step 0, the generator probability alone.
    """
    generator, batch, single = seams
    note = melody.notes[t] if t < len(melody.notes) else None
    bucket, end_id = generator.bucket(note), (generator.vocab.id_of(EOS_TEXT),)
    width, lambda_gen, lambda_lm = config.beam_size, config.lambda_gen, config.lambda_lm

    # pool entries: (-cumulative, parent index, candidate id, text, generator
    # prob, LM score or None, contribution), in natural order; id -1 keeps a
    # frozen hypothesis ahead of same-score expansions of its parent. A pool
    # of twice `width` entries is cut to its best `width`, sorted once per
    # `width` entries added. A candidate no better than the last one kept is
    # skipped unbuilt: on a tie, its larger parent index sorts it after.
    pool: list[tuple] = []
    bound = math.inf
    for parent, (base, finished, rendered, key, _) in enumerate(hyps):
        if len(pool) >= 2 * width:
            pool.sort()
            del pool[width:]
            bound = pool[-1][0]
        if finished:
            pool.append((-base, parent, -1))
            continue
        if note is None:  # past the final note, only the end token
            top = (EOS_TEXT,), (generator.prob_by_key(key, None, EOS_TEXT),), end_id
        else:
            top = generator.top_by_key(key, bucket, width)
        if t == 0:
            pool += [(-(base + p), parent, i, text, p, None, p) for text, p, i in zip(*top)]
            continue
        scores = batch(rendered, top[0]) if note is not None else (single(rendered, EOS_TEXT),)
        for text, prob, cid, scored in zip(*top, scores):
            contribution = lambda_gen * prob + lambda_lm * scored.value
            cost = -(base + contribution)
            if cost < bound:
                pool.append((cost, parent, cid, text, prob, scored, contribution))

    pool.sort()
    kept = []
    for entry in pool[:width]:
        _, _, rendered, key, node = hyp = hyps[entry[1]]
        if entry[2] == -1:
            kept.append(hyp)
        elif entry[3] == EOS_TEXT:
            kept.append((-entry[0], True, rendered, key, (node, entry)))
        else:
            text, scored = entry[3], entry[5]
            spaced = scored is None or scored.chosen_variant == SPACED
            rendered += " " + text if spaced and rendered else text
            key = generator.next_key(key, text, spaced)
            kept.append((-entry[0], False, rendered, key, (node, entry)))
    return kept


def decode(melody: MelodySequence, generator, lm, config: FusionConfig) -> list[DecodeResult]:
    """Full fused beam search over a melody; the results come best first.

    Expands until every hypothesis has ended or max_len steps have run;
    a hypothesis still open at the cutoff is closed with an unscored end
    token. Steps past the final note propose only the end token, so no
    output ever has more syllables than the melody has notes. Requires an
    LM unless lambda_lm is 0.
    """
    if lm is None and config.lambda_lm != 0:
        raise ValueError("an LM is required when lambda_lm > 0")
    seams = _seams(generator, lm)
    hyps = [(0.0, False, "", seams[0].history_key(()), None)]
    for t in range(config.max_len):
        if all(hyp[1] for hyp in hyps):
            break
        hyps = _search(hyps, seams, melody, t, config)
    results, memo = [], {}
    for cumulative, finished, _, _, node in hyps:
        tokens, trace = _unwind(node, memo)
        tokens = tokens if finished else tokens + (_END,)
        results.append(DecodeResult(LyricSequence(tokens), cumulative, trace))
    return results  # _search keeps its hypotheses best first


def audit_trace(results: Sequence[DecodeResult]) -> bool:
    """Recompute every cumulative score from its trace contributions."""
    return not any(
        abs(sum(step.contribution for step in result.trace) - result.cumulative) > AUDIT_TOLERANCE
        for result in results
    )
