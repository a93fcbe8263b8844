"""Decode's rules, stated once for every search oracle of the test suite.

`children` yields what decode's step `t` may keep of one hypothesis, and
`close` ends a hypothesis still open at the cutoff with an unscored end
token. `reference_steps` and `reference_decode` run the beam over them:
every child of every hypothesis, sorted by (-cumulative, parent, id), the
best `beam_size` kept. `exhaustive` walks every path over them instead, so
its result is the optimum of decode's own score under decode's own rules.
A generator is read through `vocab` and `next_distribution(history, note)`,
an LM through `score_with_spacing`; nothing here shares code with decode.
"""

from __future__ import annotations

from typing import NamedTuple

from syllabeam.beam import DecodeResult, TraceStep
from syllabeam.corpus import EOS_TEXT, LyricSequence, SyllableToken
from syllabeam.lm import SPACED, UNSPACED

END = SyllableToken(EOS_TEXT, False)


class Hypothesis(NamedTuple):
    """One hypothesis of a search; `rendered` is its LM context."""

    tokens: tuple[SyllableToken, ...]
    rendered: str
    cumulative: float
    finished: bool
    trace: tuple[TraceStep, ...]


ROOT = Hypothesis((), "", 0.0, False, ())


def children(hyp, t, melody, generator, lm, config):
    """Each (vocabulary id, child) that decode's step `t` may keep of `hyp`.

    An ended hypothesis is its own child, with id -1. An open one proposes
    the generator's `beam_size` most probable texts by (-probability, id),
    or only the end token past the final note. At step 0 a child adds its
    generator probability alone; later it adds lambda_gen * probability +
    lambda_lm * LM score, and the LM's spacing choice decides whether the
    syllable starts a word. The end token never does.
    """
    if hyp.finished:
        yield -1, hyp
        return
    note = melody.notes[t] if t < len(melody.notes) else None
    dist, id_of = generator.next_distribution(hyp.tokens, note), generator.vocab.id_of
    texts = [EOS_TEXT] if note is None else sorted(dist, key=lambda s: (-dist[s], id_of(s)))[: config.beam_size]
    for text in texts:
        prob, end = dist[text], text == EOS_TEXT
        lm_score, spaced, contribution = None, not end, prob
        if t > 0:
            lm_score = 0.0
            if lm is not None:
                scored = lm.score_with_spacing(hyp.rendered, text)
                lm_score, spaced = scored.value, scored.chosen_variant == SPACED and not end
            contribution = config.lambda_gen * prob + config.lambda_lm * lm_score
        token = END if end else SyllableToken(text, spaced)
        rendered = hyp.rendered if end else hyp.rendered + (" " + text if spaced and hyp.rendered else text)
        step = TraceStep(prob, lm_score, SPACED if spaced else UNSPACED, contribution)
        yield id_of(text), Hypothesis(
            hyp.tokens + (token,), rendered, hyp.cumulative + contribution, end, hyp.trace + (step,)
        )


def close(hyp):
    """`hyp` as a decode result; one still open ends with an unscored end token."""
    tokens = hyp.tokens if hyp.finished else hyp.tokens + (END,)
    return DecodeResult(LyricSequence(tokens), hyp.cumulative, hyp.trace)


def reference_steps(melody, generator, lm, config):
    """The beam after each step, step 0 first: every child of every
    hypothesis, sorted by (-cumulative, parent, id), the best `beam_size`
    kept, until every hypothesis has ended or `max_len` steps have run."""
    beams, steps = [ROOT], []
    for t in range(config.max_len):
        if all(hyp.finished for hyp in beams):
            break
        pool = [
            (-child.cumulative, parent, cid, child)
            for parent, hyp in enumerate(beams)
            for cid, child in children(hyp, t, melody, generator, lm, config)
        ]
        pool.sort(key=lambda entry: entry[:3])
        beams = [child for *_, child in pool[: config.beam_size]]
        steps.append(beams)
    return steps


def reference_decode(melody, generator, lm, config):
    """decode's results from the beam, best first."""
    return [close(hyp) for hyp in reference_steps(melody, generator, lm, config)[-1]]


def exhaustive(melody, generator, lm, config):
    """The best closed result over every path of `children` from the root to
    the end token or the cutoff, depth first; the first path found wins a
    tie."""

    def walk(hyp, t):
        if hyp.finished or t == config.max_len:
            return close(hyp)
        found = (walk(child, t + 1) for _, child in children(hyp, t, melody, generator, lm, config))
        return max(found, key=lambda result: result.cumulative)

    return walk(ROOT, 0)
