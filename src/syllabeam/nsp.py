"""Construction of the next-syllable-prediction fine-tuning dataset.

Every lyric position (each syllable after the first, plus the final
end-of-sequence prediction) yields one positive row and a configurable set
of negative rows:

  * random candidate: another syllable of the same lyric, its spacing
    marker preserved from where it originally occurred;
  * wrong spacing: the true candidate with its word-boundary marker
    flipped, always for the first few positions and with a fixed
    probability afterwards;
  * corrupted context: one context syllable swapped for another syllable
    of the same lyric (end marker included), glued to the previous word or
    preceded by a space at a coin flip, with the true candidate.

Rows are (context, candidate, label) where a candidate's leading
underscore marks a preceding space. Output is deterministic for a given
seed: each lyric draws from its own substream keyed by (seed, lyric index).
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from .corpus import EOS_TEXT, LyricSequence, SyllableToken
from .rng import SplitMix64, substream

# The rows build_dataset writes. A context is (?:[a-z' ]|<eos>)+; the context
# pattern matches the same strings, the empty one aside, without branching per
# character. A candidate `_<eos>` is the end marker with its spacing flipped.
_CONTEXT_RE = re.compile(r"[a-z' ]*(?:<eos>[a-z' ]*)*")
_CANDIDATE_RE = re.compile(r"_?(?:[a-z']+|<eos>)")
# a whole row in one match, so that a valid line costs one regex call
_ROW_RE = re.compile(f"({_CONTEXT_RE.pattern})\t({_CANDIDATE_RE.pattern})\t([01])\n?")


class NspExample(namedtuple("NspExample", "context candidate label")):
    """One dataset row; a tuple, so it compares equal to (context, candidate, label)."""

    __slots__ = ()

    def __new__(cls, context: str, candidate: str, label: int) -> "NspExample":
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        return tuple.__new__(cls, (context, candidate, label))


_row = partial(tuple.__new__, NspExample)  # a row whose label is known to be 0 or 1


@dataclass(frozen=True)
class BuilderConfig:
    spacing_negative_rate: float = 0.6
    always_spacing_first_k: int = 3
    context_swap_rate: float = 0.4
    swap_space_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("spacing_negative_rate", "context_swap_rate", "swap_space_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.always_spacing_first_k < 0:
            raise ValueError("always_spacing_first_k must be >= 0")


def candidate_marker(text: str, spaced: bool) -> str:
    """Dataset notation for a candidate: leading underscore means a space."""
    return ("_" + text) if spaced else text


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
        raise ValueError("lyric must contain at least 2 syllables")

    # (text, spaced) occurrence list the negatives draw from; the end
    # marker is a drawable candidate and corruption symbol too.
    occurrences = [(tok.text, tok.word_initial) for tok in syllables]
    occurrences.append((EOS_TEXT, False))

    examples: list[NspExample] = []
    context = ""  # render_text of the first i syllables, grown one syllable per position
    for i in range(1, len(syllables) + 1):
        last = syllables[i - 1]
        context += " " + last.text if i > 1 and last.word_initial else last.text
        true = occurrences[i]  # the end marker at the final position
        true_text, true_spaced = true
        true_candidate = candidate_marker(true_text, true_spaced)

        examples.append(_row((context, true_candidate, 1)))

        pool = [occ for occ in occurrences if occ != true]
        rand_text, rand_spaced = pool[rng.randrange(len(pool))]
        examples.append(_row((context, candidate_marker(rand_text, rand_spaced), 0)))

        if i <= config.always_spacing_first_k or rng.bernoulli(config.spacing_negative_rate):
            examples.append(_row((context, candidate_marker(true_text, not true_spaced), 0)))

        if rng.bernoulli(config.context_swap_rate):
            slot = rng.randrange(i)
            slot_text = syllables[slot].text
            swap_pool = [occ for occ in occurrences if occ[0] != slot_text]
            replacement = swap_pool[rng.randrange(len(swap_pool))][0]
            spaced = rng.bernoulli(config.swap_space_rate)
            corrupted = corrupted_context(syllables[:i], slot, replacement, spaced)
            examples.append(_row((corrupted, true_candidate, 0)))

    return examples


def check_corpus(corpus: Sequence[LyricSequence]) -> None:
    """Raise ValueError unless the corpus has a lyric and each has 2 syllables or more."""
    if not corpus:
        raise ValueError("empty corpus")
    for index, lyric in enumerate(corpus):
        if len(lyric.syllables()) < 2:
            raise ValueError(f"lyric {index}: must contain at least 2 syllables")


def build_dataset(
    corpus: Sequence[LyricSequence],
    config: BuilderConfig,
    sink: Callable[[NspExample], None],
) -> dict[str, int]:
    """Stream every lyric's rows to `sink` in lyric order once `check_corpus` passes; return counts."""
    check_corpus(corpus)
    positives = total = 0
    for index, lyric in enumerate(corpus):
        for example in build_examples_for_lyric(lyric, config, substream(config.seed, index)):
            sink(example)
            positives += example.label
            total += 1
    return {"positives": positives, "negatives": total - positives, "total": total}


def nsp_line(example: NspExample) -> str:
    """The TSV line of one row: context, candidate and label, tab-separated."""
    return f"{example[0]}\t{example[1]}\t{example[2]}\n"


def read_nsp_tsv(path) -> Iterator[NspExample]:
    """Each row of an NSP TSV file as its line is read, once it is a row the builder can write.

    A context matches `(?:[a-z' ]|<eos>)+` and a candidate
    `_?(?:[a-z']+|<eos>)`; the label is 0 or 1. Blank lines are skipped.
    Iteration raises ValueError when it reaches a bad line, naming it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = _ROW_RE.fullmatch(line)
            if row and row[1]:
                yield _row((row[1], row[2], int(row[3])))  # _ROW_RE has checked the label
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns, got {len(parts)}")
            context, candidate, label = parts
            if label not in ("0", "1"):
                raise ValueError(f"line {lineno}: bad label {label!r}")
            if not (context and _CONTEXT_RE.fullmatch(context)):
                raise ValueError(f"line {lineno}: bad context {context!r}")
            # three columns, a good label and context: _ROW_RE failed on the candidate
            raise ValueError(f"line {lineno}: bad candidate {candidate!r}")
