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

import os
import re
import signal
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NoReturn, Sequence

from .corpus import EOS_TEXT, LyricSequence, SyllableToken, read_lines
from .rng import SplitMix64, substream

# The rows build_dataset writes. A context is (?:[a-z' ]|<eos>)+; the context
# pattern matches the same strings, the empty one aside, without branching per
# character. A candidate `_<eos>` is the end marker with its spacing flipped.
_CONTEXT_RE = re.compile(r"[a-z' ]*(?:<eos>[a-z' ]*)*")
_CANDIDATE_RE = re.compile(r"_?(?:[a-z']+|<eos>)")
# a whole row in one match, so that a valid line costs one regex call
_ROW_RE = re.compile(f"({_CONTEXT_RE.pattern})\t({_CANDIDATE_RE.pattern})\t([01])")


# One dataset row; a tuple, so it compares equal to (context, candidate, label).
NspExample = namedtuple("NspExample", "context candidate label")
# builds a row from one tuple, about half the cost of the NspExample call
_row = partial(tuple.__new__, NspExample)


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
    syllables = checked_lyric(lyric).syllables()

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


def checked_lyric(lyric: LyricSequence) -> LyricSequence:
    """`lyric`, once it has the 2 syllables or more that its rows need."""
    if len(lyric.syllables()) < 2:
        raise ValueError("must contain at least 2 syllables")
    return lyric


def check_corpus(corpus: Sequence[LyricSequence]) -> None:
    """Raise ValueError unless the corpus has a lyric and each lyric I passes
    `checked_lyric`, the message then starting `lyric I: `."""
    if not corpus:
        raise ValueError("empty corpus")
    for index, lyric in enumerate(corpus):
        try:
            checked_lyric(lyric)
        except ValueError as exc:
            raise ValueError(f"lyric {index}: {exc}") from None


def _build(
    corpus: Sequence[LyricSequence], first: int, config: BuilderConfig, sink: Callable[[NspExample], None]
) -> int:
    """Stream the rows of `corpus` to `sink` in lyric order, its lyric i drawing
    from the substream of index `first + i`; return the number of rows."""
    total = 0
    for index, lyric in enumerate(corpus, start=first):
        examples = build_examples_for_lyric(lyric, config, substream(config.seed, index))
        for example in examples:
            sink(example)
        total += len(examples)
    return total


def _summary(corpus: Sequence[LyricSequence], total: int) -> dict[str, int]:
    """The counts of `total` rows built from `corpus`: one positive per position."""
    positives = sum(len(lyric.syllables()) for lyric in corpus)
    return {"positives": positives, "negatives": total - positives, "total": total}


def build_dataset(
    corpus: Sequence[LyricSequence],
    config: BuilderConfig,
    sink: Callable[[NspExample], None],
) -> dict[str, int]:
    """Stream every lyric's rows to `sink` in lyric order once `check_corpus` passes; return counts."""
    check_corpus(corpus)
    return _summary(corpus, _build(corpus, 0, config, sink))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def write_dataset(corpus: Sequence[LyricSequence], config: BuilderConfig, path) -> dict[str, int]:
    """`build_dataset` with each row written to a new file at `path` as its
    `nsp_line`, opened once `check_corpus` passes; return counts.

    Where `os.fork` exists, two CPUs are free and the corpus has two lyrics
    or more, a forked child builds the rows of the second half of the
    lyrics into an unlinked temporary file while this process writes those
    of the first half, then this process copies the child's rows after its
    own in chunks. Each lyric draws from its own substream, so the file is
    the same byte for byte either way. The child leaves by `os._exit`,
    flushing none of this process's buffers; it is always reaped, and killed
    first if this process fails. A child that fails raises
    ChildProcessError. Like the collector pause, this assumes one thread:
    a fork beside other threads may copy a lock another thread holds."""
    check_corpus(corpus)
    half = len(corpus) // 2
    with open(path, "w", encoding="utf-8", newline="") as fh:

        def write(example: NspExample) -> None:
            fh.write(nsp_line(example))

        if not (half and hasattr(os, "fork") and _cpus() > 1):
            return _summary(corpus, _build(corpus, 0, config, write))
        with tempfile.TemporaryFile() as spill:
            pid = os.fork()
            if pid == 0:
                _build_in_child(corpus[half:], half, config, spill.fileno())
            try:
                total = _build(corpus[:half], 0, config, write)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                last = len(corpus) - 1
                raise ChildProcessError(f"the process building lyrics {half} to {last} exited with code {code}")
            spill.seek(0)
            fh.flush()
            while chunk := spill.read(1 << 16):
                fh.buffer.write(chunk)
                total += chunk.count(b"\n")  # rows hold no line break
    return _summary(corpus, total)


def _build_in_child(corpus: Sequence[LyricSequence], first: int, config: BuilderConfig, fd: int) -> NoReturn:
    """In a forked child: write the rows of `corpus`, lyric `first` onwards,
    to the file open at `fd`, then leave by `os._exit`, with code 0 once
    every row is written and 1 on any failure."""
    code = 1
    try:
        with open(fd, "w", encoding="utf-8", newline="", closefd=False) as out:
            _build(corpus, first, config, lambda example: out.write(nsp_line(example)))
        code = 0
    finally:
        os._exit(code)


def nsp_line(example: NspExample) -> str:
    """The TSV line of one row: context, candidate and label, tab-separated."""
    return f"{example[0]}\t{example[1]}\t{example[2]}\n"


def check_row(context: str, candidate: str, label: str = "1") -> None:
    """Raise ValueError unless the columns are a row the builder can write: a
    label of 0 or 1, a context of `(?:[a-z' ]|<eos>)+` and a candidate of
    `_?(?:[a-z']+|<eos>)`, checked in that order. A scorer's query has no
    label, and takes the default."""
    if label not in ("0", "1"):
        raise ValueError(f"bad label {label!r}")
    if not (context and _CONTEXT_RE.fullmatch(context)):
        raise ValueError(f"bad context {context!r}")
    if not _CANDIDATE_RE.fullmatch(candidate):
        raise ValueError(f"bad candidate {candidate!r}")


def _parse_row(line: str) -> NspExample:
    """The row of one TSV line; a valid line costs one regex call."""
    row = _ROW_RE.fullmatch(line)
    if row and row[1]:
        return _row((row[1], row[2], int(row[3])))  # _ROW_RE has checked the label
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"expected 3 columns, got {len(parts)}")
    check_row(*parts)  # raises: _ROW_RE matches every row it passes


def read_nsp_tsv(path) -> Iterator[NspExample]:
    """Each row of an NSP TSV file as its line is read (`read_lines`), once it
    is a row the builder can write (`check_row`). Iteration raises ValueError
    when it reaches a bad line, naming the file and the line (`naming`)."""
    return read_lines(path, _parse_row)
