"""Fused beam search over a melody-conditioned generator and a character LM.

Step 0 ranks first syllables by generator probability alone. From step 1 on,
each surviving hypothesis proposes its top generator candidates; every
candidate is scored by the LM against the hypothesis's rendered text (both
spacing variants, best one kept), and the per-step fused value

    lambda_gen * generator_prob + lambda_lm * lm_score

is added to the parent's cumulative score. Hypotheses that emitted the end
token are frozen and compete on their frozen cumulative score. Selection
keeps the best `beam_size` by cumulative score; ties resolve by parent
index, then candidate vocabulary id, so decoding is fully deterministic.

The LM's chosen spacing variant becomes the new token's word boundary and
extends the rendered text, which is the LM context for the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from .corpus import EOS_TEXT, LyricSequence, MelodyNote, MelodySequence, SyllableToken
from .lm import SPACED, UNSPACED

AUDIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FusionConfig:
    beam_size: int = 5
    lambda_lm: float = 0.75
    lambda_gen: float = 0.25
    max_len: int = 20

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.lambda_lm < 0 or self.lambda_gen < 0:
            raise ValueError("fusion weights must be non-negative")
        if not math.isclose(self.lambda_lm + self.lambda_gen, 1.0, abs_tol=1e-12):
            raise ValueError(
                f"fusion weights must sum to 1, got {self.lambda_lm + self.lambda_gen!r}"
            )


@dataclass(frozen=True)
class TraceStep:
    """One decoding step: raw scorer values, spacing choice, fused contribution."""

    generator_prob: float
    lm_score: Optional[float]
    variant: str
    contribution: float


@dataclass(frozen=True)
class Beam:
    """One partial hypothesis; rendered text always reflects the chosen variants."""

    tokens: tuple[SyllableToken, ...]
    rendered: str
    cumulative: float
    finished: bool
    trace: tuple[TraceStep, ...]


# the hypothesis every search starts from, and the token that ends one
_ROOT = Beam((), "", 0.0, False, ())
_END = SyllableToken(EOS_TEXT, False)


class DecodeResult(NamedTuple):
    lyric: LyricSequence
    cumulative: float
    trace: tuple[TraceStep, ...]


def _ranked_candidates(generator, distribution: dict[str, float]) -> list[tuple[str, float]]:
    vocab = generator.vocab
    return sorted(distribution.items(), key=lambda item: (-item[1], vocab.id_of(item[0])))


def _proposals(
    generator, history: Sequence[SyllableToken], note: Optional[MelodyNote], width: int
) -> list[tuple[str, float]]:
    """The generator's `width` most probable (text, probability) candidates,
    ties broken by vocabulary id; past the final note (`note` None) only the
    end token. Uses the generator's `top_candidates`/`prob` when it has them
    and ranks its full `next_distribution` otherwise."""
    if hasattr(generator, "top_candidates"):
        if note is None:
            return [(EOS_TEXT, generator.prob(history, None, EOS_TEXT))]
        return generator.top_candidates(history, note, width)
    distribution = generator.next_distribution(history, note)
    if note is None:
        return [(EOS_TEXT, distribution[EOS_TEXT])]
    return _ranked_candidates(generator, distribution)[:width]


def first_step(generator, melody: MelodySequence, config: FusionConfig) -> list[Beam]:
    """The `beam_size` most probable first syllables, generator-only scored.

    The first syllable always starts a word. Ties break by vocabulary id.
    """
    beams = _select([_ROOT], generator, None, melody, 0, config)
    if config.beam_size > len(beams):
        raise ValueError(f"beam_size {config.beam_size} exceeds {len(beams)} candidates")
    return beams


def _extend(beam: Beam, text: str, cumulative: float, step: TraceStep) -> Beam:
    if text == EOS_TEXT:
        token, rendered, finished = _END, beam.rendered, True
    else:
        spaced = step.variant == SPACED
        token, finished = SyllableToken(text, spaced), False
        rendered = beam.rendered + ((" " + text) if spaced and beam.rendered else text)
    return Beam(beam.tokens + (token,), rendered, cumulative, finished, beam.trace + (step,))


def expand_step(
    beams: Sequence[Beam],
    generator,
    lm,
    melody: MelodySequence,
    t: int,
    config: FusionConfig,
) -> list[Beam]:
    """One fused search step: propose, score, and keep the best `beam_size`.

    Finished hypotheses pass through unchanged. Past the final note only the
    end token may be proposed. Requires t >= 1 and at least one unfinished
    hypothesis.
    """
    if t < 1:
        raise ValueError("expand_step applies from step 1 onward")
    if all(beam.finished for beam in beams):
        raise ValueError("no unfinished hypothesis to expand")
    return _select(beams, generator, lm, melody, t, config)


def _select(
    beams: Sequence[Beam], generator, lm, melody: MelodySequence, t: int, config: FusionConfig
) -> list[Beam]:
    """Step `t` of the search: propose, score, and keep the best `beam_size`.

    A candidate adds lambda_gen * generator_prob + lambda_lm * lm_score to
    its parent's score; from the root, the generator probability alone.
    """
    note = melody.notes[t] if t < len(melody.notes) else None
    id_of = generator.vocab.id_of
    lambda_gen, lambda_lm = config.lambda_gen, config.lambda_lm
    score = lm.score_with_spacing if lm is not None else None

    # pool entries: (cumulative, parent index, candidate id, text, generator
    # prob, lm score, variant, contribution); id -1 (text None) keeps a frozen
    # hypothesis ahead of same-score expansions of the same parent. Only kept
    # entries become trace steps and hypotheses.
    pool: list[tuple] = []
    for parent, beam in enumerate(beams):
        base = beam.cumulative
        if beam.finished:
            pool.append((base, parent, -1, None, None, None, None, None))
            continue
        rendered, root = beam.rendered, not beam.tokens
        for text, prob in _proposals(generator, beam.tokens, note, config.beam_size):
            if root:
                lm_score, contribution = None, prob
                variant = UNSPACED if text == EOS_TEXT else SPACED
            else:
                if text == EOS_TEXT:
                    lm_score = score(rendered, EOS_TEXT).value if score is not None else 0.0
                    variant = UNSPACED
                elif score is not None:
                    scored = score(rendered, text)
                    lm_score, variant = scored.value, scored.chosen_variant
                else:
                    lm_score, variant = 0.0, SPACED
                contribution = lambda_gen * prob + lambda_lm * lm_score
            pool.append(
                (base + contribution, parent, id_of(text), text, prob, lm_score, variant, contribution)
            )

    pool.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
    return [
        beams[parent]
        if text is None
        else _extend(beams[parent], text, cumulative, TraceStep(prob, lm_score, variant, contribution))
        for cumulative, parent, _, text, prob, lm_score, variant, contribution in pool[: config.beam_size]
    ]


def decode(
    melody: MelodySequence,
    generator,
    lm,
    config: FusionConfig,
) -> list[DecodeResult]:
    """Full fused beam search over a melody.

    Expands until every hypothesis has ended or max_len steps have run;
    a hypothesis still open at the cutoff is closed with an unscored end
    token. Steps past the final note propose only the end token, so no
    output ever has more syllables than the melody has notes. When
    beam_size exceeds the candidate count the first step starts with every
    candidate and the beam set grows through expansion. Requires an LM
    unless lambda_lm is 0.
    """
    if lm is None and config.lambda_lm != 0:
        raise ValueError("an LM is required when lambda_lm > 0")
    beams = [_ROOT]
    for t in range(config.max_len):
        if all(beam.finished for beam in beams):
            break
        beams = _select(beams, generator, lm, melody, t, config)

    closed = [b if b.finished else replace(b, tokens=b.tokens + (_END,), finished=True) for b in beams]
    ranked = sorted(enumerate(closed), key=lambda item: (-item[1].cumulative, item[0]))
    return [
        DecodeResult(LyricSequence(beam.tokens), beam.cumulative, beam.trace)
        for _, beam in ranked
    ]


def audit_trace(results: Sequence[DecodeResult]) -> bool:
    """Recompute every cumulative score from its trace contributions."""
    for result in results:
        total = sum(step.contribution for step in result.trace)
        if abs(total - result.cumulative) > AUDIT_TOLERANCE:
            return False
    return True
