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
`_lyric_text` is the one builder; `tests/nsp_rules.py` states the same rules
row by row as the tests' oracle. Building a dataset (`write_dataset`) and
scoring one (`lm.CharNgramModel.score_nsp_file`) each read their file in
`halves`, on two processes where they can, as the CLI's training commands
read the corpus.
"""

from __future__ import annotations

import marshal
import os
import re
import shutil
import signal
import tempfile
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .corpus import EOS_TEXT, LyricSequence, aligned_pair_parser, naming, open_input, read_lines
from .rng import _GAMMA, _MASK, _MIX1, _MIX2, _UNIT, SplitMix64, substream

# The rows the builder writes. A context is (?:[a-z' ]|<eos>)+; the context
# pattern matches the same strings, the empty one aside, without branching per
# character. A candidate `_<eos>` is the end marker with its spacing flipped.
_CONTEXT_RE = re.compile(r"[a-z' ]*(?:<eos>[a-z' ]*)*")
_CANDIDATE_RE = re.compile(r"_?(?:[a-z']+|<eos>)")
# a row on a line of its own, its context non-empty: one `findall` reads a
# block of lines; a hint above 16 KiB raises nsp-eval's peak
_ROWS_RE = re.compile(f"^(?!\t)({_CONTEXT_RE.pattern})\t({_CANDIDATE_RE.pattern})\t([01])$", re.MULTILINE)
_BLOCK_HINT = 1 << 14


# One dataset row; a tuple, so it compares equal to (context, candidate, label).
NspExample = namedtuple("NspExample", "context candidate label")
# builds a row from one tuple, about half the cost of the NspExample call
_row = partial(tuple.__new__, NspExample)


@dataclass(frozen=True, slots=True)
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


def _draw_from(rng: SplitMix64) -> Callable[[], int]:
    """A function returning what `rng.next_uint64()` would, call after call,
    with the recurrence inlined in it; `rng` itself does not advance."""
    state = rng._state

    def draw() -> int:
        nonlocal state
        state = (state + _GAMMA) & _MASK
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    return draw


def _outside(n: int, skip: list[int]) -> int:
    """The n-th index, counted from 0, of those not in `skip`, an ascending list."""
    for j in skip:
        if j <= n:
            n += 1
    return n


def _lyric_text(lyric: LyricSequence, config: BuilderConfig, index: int) -> str:
    """The `nsp_line`s of every row of `lyric` in position order, drawn from
    `substream(config.seed, index)`; checks nothing, as `check_corpus` has.

    Position i (1-based) predicts syllable i from the first i syllables; the
    final position predicts the end marker from the whole lyric. The
    markers, rendered contexts and the indices each draw pool leaves out
    are built once per lyric, and `draw` is `_draw_from` the lyric's
    substream: `randrange(n)` is `draw() % n` and `bernoulli(p)` is
    `(draw() >> 11) * _UNIT < p`, the same draws in the same order."""
    draw = _draw_from(substream(config.seed, index))

    # (text, spaced) occurrence list the negatives draw from; the end
    # marker is a drawable candidate and corruption symbol too.
    occurrences = [(tok.text, tok.word_initial) for tok in lyric.syllables()]
    occurrences.append((EOS_TEXT, False))
    markers = [candidate_marker(text, spaced) for text, spaced in occurrences]
    flipped = [candidate_marker(text, not spaced) for text, spaced in occurrences]
    # the random negative's pool is the occurrences unequal to the true one,
    # the swap's those of another text: each the list less the indices here
    same_occurrence: dict[tuple[str, bool], list[int]] = {}
    same_text: dict[str, list[int]] = {}
    for j, occ in enumerate(occurrences):
        same_occurrence.setdefault(occ, []).append(j)
        same_text.setdefault(occ[0], []).append(j)
    size = len(occurrences)
    first_k, spacing_rate = config.always_spacing_first_k, config.spacing_negative_rate
    swap_rate, space_rate = config.context_swap_rate, config.swap_space_rate

    lines = []
    contexts = [""]  # contexts[i]: render_text of the first i syllables
    context = ""
    for i, (text, initial) in enumerate(occurrences[:-1], start=1):
        context += " " + text if i > 1 and initial else text
        contexts.append(context)
        positive = markers[i]  # the end marker at the final position
        skip = same_occurrence[occurrences[i]]
        negative = markers[_outside(draw() % (size - len(skip)), skip)]
        lines.append(f"{context}\t{positive}\t1\n{context}\t{negative}\t0\n")

        if i <= first_k or (draw() >> 11) * _UNIT < spacing_rate:
            lines.append(f"{context}\t{flipped[i]}\t0\n")

        if (draw() >> 11) * _UNIT < swap_rate:
            slot = draw() % i
            skip = same_text[occurrences[slot][0]]
            replacement = occurrences[_outside(draw() % (size - len(skip)), skip)][0]
            # the replacement is preceded by a space at a coin flip, glued to
            # the previous word otherwise; the first slot never has a space
            if (draw() >> 11) * _UNIT < space_rate and slot:
                replacement = " " + replacement
            corrupted = contexts[slot] + replacement + context[len(contexts[slot + 1]) :]
            lines.append(f"{corrupted}\t{positive}\t0\n")

    return "".join(lines)


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
    lyrics: Iterable[LyricSequence], first: int, config: BuilderConfig, write: Callable[[str], object]
) -> tuple[int, int, int]:
    """Hand each lyric's text (`_lyric_text`) to `write` in lyric order, its
    lyric i drawing from the substream of index `first + i`; return the
    numbers of lyrics, of positives (one per position) and of rows."""
    count = positives = total = 0
    for count, lyric in enumerate(lyrics, start=1):
        text = _lyric_text(lyric, config, first + count - 1)
        write(text)
        positives += len(lyric.syllables())
        total += text.count("\n")  # rows hold no line break
    return count, positives, total


def _summary(positives: int, total: int) -> dict[str, int]:
    """The counts of `total` rows of which `positives` are positive."""
    return {"positives": positives, "negatives": total - positives, "total": total}


def build_dataset(
    corpus: Sequence[LyricSequence],
    config: BuilderConfig,
    sink: Callable[[NspExample], None],
) -> dict[str, int]:
    """Hand every lyric's rows to `sink` in lyric order once `check_corpus`
    passes, each an `NspExample` of one line of the text `write_dataset`
    writes; return counts."""
    check_corpus(corpus)

    def split(text: str) -> None:
        for line in text.splitlines():
            context, candidate, label = line.split("\t")
            sink(_row((context, candidate, 1 if label == "1" else 0)))

    _, positives, total = _build(corpus, 0, config, split)
    return _summary(positives, total)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forks() -> bool:
    """Whether work may be split with a forked child: `os.fork` exists and
    two CPUs are free."""
    return hasattr(os, "fork") and _cpus() > 1


@contextmanager
def _forked(child: Callable[[], object], work: str) -> Iterator[None]:
    """Run `child()` in a forked child process while the body runs in this one.

    The child leaves by `os._exit`, flushing none of this process's buffers,
    with the exit code the CLI gives a failure of its kind: 0 once `child()`
    returns, 2 on a ValueError and 1 on anything else. It is always reaped,
    and killed first if the body fails. Once the body is done, a child that
    failed raises ValueError (code 2) or ChildProcessError, each naming
    `work` and the code. Like the collector pause, this assumes one thread:
    a fork beside other threads may copy a lock another thread holds."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child()
            code = 0
        except ValueError:
            code = 2
        finally:
            os._exit(code)
    try:
        yield
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        message = f"the process {work} exited with code {code}"
        raise ValueError(message) if code == 2 else ChildProcessError(message)


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


def read_nsp_blocks(path, start: int = 0, stop: Optional[int] = None) -> Iterator[list[tuple[str, str, str]]]:
    """The rows of an NSP TSV file a block of lines at a time, each the
    (context, candidate, label) columns of a line that is a row the builder
    can write (`check_row`); only an empty line is skipped. A block holding
    another line is read again line by line, its rows yielded up to the
    ValueError of that line, which names the file and the line (`naming`).
    Given `start` or `stop`, only the file's bytes from `start` up to `stop`
    (the end by default) are read (`open_input`), their lines counted from 1."""
    with naming(path) as place, open_input(path, start, stop) as fh:
        first = 1
        while block := fh.readlines(_BLOCK_HINT):
            rows = _ROWS_RE.findall("".join(block))
            if len(rows) == len(block) - block.count("\n"):
                yield rows
            else:
                for place.line, line in enumerate(block, first):
                    row = _ROWS_RE.fullmatch(line := line.rstrip("\n"))
                    if row:
                        yield [row.groups()]
                    elif line:
                        parts = line.split("\t")
                        if len(parts) != 3:
                            raise ValueError(f"expected 3 columns, got {len(parts)}")
                        check_row(*parts)  # raises: _ROWS_RE matches every row it passes
            first += len(block)


def _split(path) -> Optional[int]:
    """The byte just past the first line break at or after the middle byte of
    the regular file at `path`, where a byte follows it."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(size // 2)
        fh.readline()
        split = fh.tell()
    return split if split < size else None


def halves(path, part: Callable[[int, Optional[int]], list]) -> list:
    """`part(0, None)`: the list `part` makes of the whole file at `path`,
    `part(start, stop)` reading only the file's bytes from `start` up to
    `stop` (the end for None).

    Where the work may be split (`_forks`) and a line break at or past the
    middle byte has bytes after it (`_split`), a `_forked` child makes
    `part(0, split)` while this process makes `part(split, None)`, each part
    of the file read once. Only the child reads a part that stops early, so
    only the child holds its part's bytes (`open_input`). The child dumps its
    list with `marshal` to an unlinked temporary file, and this process
    appends its own list to the child's. On a ValueError of either part, a
    bad line, the whole file is read again in this process alone, so the
    error raised is the one-process read's, its line and message the same."""
    split = _split(path) if _forks() else None
    if split is not None:
        try:
            with tempfile.TemporaryFile() as spill:
                with _forked(partial(_dump, part, split, spill.fileno()), f"reading {path} up to byte {split}"):
                    tail = part(split, None)
                spill.seek(0)
                made = marshal.loads(spill.read())
            made.extend(tail)
            return made
        except ValueError:
            pass  # a bad line: the read below fails on it as it would alone
    return part(0, None)


def _dump(part: Callable[[int, Optional[int]], list], stop: int, fd: int) -> None:
    """Write `part(0, stop)`, marshalled, to the file open at `fd`."""
    with open(fd, "wb", closefd=False) as out:
        out.write(marshal.dumps(part(0, stop)))


def _records_before(path, stop: int) -> int:
    """The number of records, lines that are not empty, in the first `stop`
    bytes of the file at `path`, each line ending where `read_lines` ends
    it: at a line feed, a carriage return and line feed, or a lone
    carriage return, as `bytes.splitlines` splits. The bytes are read a
    block at a time, so the command, which counts the child's part, never
    holds it; a record that a block's end cuts is counted once."""
    if not stop:
        return 0
    records, cut = 0, False
    with open(path, "rb") as fh:
        while stop > 0 and (block := fh.read(min(stop, _BLOCK_HINT))):
            stop -= len(block)
            records += len(list(filter(None, block.splitlines()))) - (cut and block[:1] not in b"\r\n")
            cut = block[-1:] not in b"\r\n"
    return records


def write_dataset(path, config: BuilderConfig, out) -> dict[str, int]:
    """The rows of every lyric of the corpus file at `path`, written to a new
    file at `out`, which is opened once every lyric has passed; return the
    counts of lyrics and rows.

    Each lyric is checked (`checked_lyric`) as its line is read, so a short
    one fails at its line, and its rows (`_lyric_text`) go to an unlinked
    temporary file, so no process holds them. The corpus is read in
    `halves`: where it is split, a child builds the rows of the lyrics before
    the split into a file of its own while this process builds those past
    it, their substreams offset by the records before the split
    (`_records_before`), and this process copies both files into `out` in
    order. Each lyric draws from its own substream, so `out` is the same
    byte for byte either way."""
    pair = aligned_pair_parser()

    def lyric(line: str) -> LyricSequence:
        return checked_lyric(pair(line).lyric)

    with tempfile.TemporaryFile() as head, tempfile.TemporaryFile() as tail:

        def part(start: int, stop: Optional[int]) -> list[tuple[int, int, int]]:
            """[(lyrics, positives, rows)] of the rows built afresh into `head`
            from the first byte, or into `tail` from a later one."""
            spill = tail if start else head
            spill.seek(0)
            spill.truncate()
            with open(spill.fileno(), "w", encoding="utf-8", newline="", closefd=False) as rows:
                return [_build(read_lines(path, lyric, start, stop), _records_before(path, start), config, rows.write)]

        parts = halves(path, part)  # head's counts, then tail's unless read on one process
        lyrics, positives, total = map(sum, zip(*parts))
        if not lyrics:
            with naming(path):
                raise ValueError("corpus is empty")
        with open(out, "wb") as fh:
            for spill in (head, tail)[: len(parts)]:
                spill.seek(0)
                shutil.copyfileobj(spill, fh)
    return {"lyrics": lyrics, **_summary(positives, total)}

