"""The NSP dataset's rules, stated row by row for the tests' oracle.

`build_examples_for_lyric` writes one lyric's rows as `NspExample`s, each
drawn through `SplitMix64`'s own `randrange` and `bernoulli`, and
`corrupted_context` renders a context with one slot replaced. The library
builds each lyric's TSV text in one pass (`nsp._lyric_text`, its draws
inlined); the tests hold that text equal to `nsp_line` of these rows.
Nothing here shares code with that builder: `SplitMix64` states the
recurrence of `rng` on its own, started at the state `rng.substream` gives.
"""

from __future__ import annotations

from typing import Sequence

from syllabeam.corpus import EOS_TEXT, LyricSequence, SyllableToken, render_text
from syllabeam.nsp import BuilderConfig, NspExample

MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood, 2014), each derived draw defined by
    `next_uint64`; never uses global state."""

    def __init__(self, seed: int):
        self._state = seed & MASK

    def next_uint64(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of one draw / 2**53."""
        return (self.next_uint64() >> 11) / 2**53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n): one draw reduced mod n."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        return self.next_uint64() % n

    def bernoulli(self, p: float) -> bool:
        """True with probability p; consumes exactly one draw."""
        return self.random() < p


def marker(text: str, spaced: bool) -> str:
    """A candidate as a row writes it: a leading underscore means a space."""
    return "_" + text if spaced else text


def corrupted_context(
    syllables: Sequence[SyllableToken], slot: int, replacement: str, spaced: bool
) -> str:
    """Render a context with one syllable slot replaced.

    The replacement is rendered literally (the end marker included) and
    joined to its neighbours according to `spaced`; all other syllables
    keep their own word boundaries.
    """
    pieces = [(tok.text, tok.word_initial) for tok in syllables]
    pieces[slot] = (replacement, spaced)
    return "".join(" " + text if i and initial else text for i, (text, initial) in enumerate(pieces))


def build_examples_for_lyric(
    lyric: LyricSequence, config: BuilderConfig, rng: SplitMix64
) -> list[NspExample]:
    """All dataset rows of one lyric, in position order.

    Position i (1-based) predicts syllable i from the first i syllables;
    the final position predicts the end marker from the whole lyric.
    """
    syllables = lyric.syllables()
    if len(syllables) < 2:
        raise ValueError("must contain at least 2 syllables")

    # (text, spaced) occurrence list the negatives draw from; the end
    # marker is a drawable candidate and corruption symbol too.
    occurrences = [(tok.text, tok.word_initial) for tok in syllables]
    occurrences.append((EOS_TEXT, False))

    examples: list[NspExample] = []
    for i in range(1, len(syllables) + 1):
        context = render_text(LyricSequence(syllables[:i]))
        true_text, true_spaced = true = occurrences[i]  # the end marker at the final position
        true_candidate = marker(true_text, true_spaced)

        examples.append(NspExample(context, true_candidate, 1))

        pool = [occ for occ in occurrences if occ != true]
        rand_text, rand_spaced = pool[rng.randrange(len(pool))]
        examples.append(NspExample(context, marker(rand_text, rand_spaced), 0))

        if i <= config.always_spacing_first_k or rng.bernoulli(config.spacing_negative_rate):
            examples.append(NspExample(context, marker(true_text, not true_spaced), 0))

        if rng.bernoulli(config.context_swap_rate):
            slot = rng.randrange(i)
            slot_text = syllables[slot].text
            swap_pool = [occ for occ in occurrences if occ[0] != slot_text]
            replacement = swap_pool[rng.randrange(len(swap_pool))][0]
            spaced = rng.bernoulli(config.swap_space_rate)
            corrupted = corrupted_context(syllables[:i], slot, replacement, spaced)
            examples.append(NspExample(corrupted, true_candidate, 0))

    return examples
