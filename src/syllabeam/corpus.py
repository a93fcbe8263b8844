"""Data model and I/O for syllable-level lyrics aligned with symbolic melodies.

A lyric is a sequence of syllables, each flagged as word-initial or not;
rendering joins syllables into words by inserting a space before every
word-initial syllable. A melody is a sequence of (pitch, duration, rest)
notes, one note per syllable.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

BOS_TEXT = "<bos>"
EOS_TEXT = "<eos>"

_RECORD_KEYS = frozenset(("syllables", "word_initial", "notes"))
_SYLLABLE_RE = re.compile(r"[a-z']+\Z")
# melody text: ASCII decimal literals only, no digit-group underscores; the
# non-finite spellings pass here so that MelodyNote rejects them by name
_PITCH_RE = re.compile(r"[+-]?[0-9]+")
_NUMBER_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


class naming:
    """The one way an input error names its place. A ValueError raised in the
    body, or the OverflowError or RecursionError of a number or a nesting the
    input holds, is raised again as a ValueError reading `PATH: message`, or
    `PATH:LINE: message` once `line`, a 1-based file line, is set. Every input
    is opened under it (`open_input`), and a line reader (`read_lines`,
    `nsp.read_nsp_blocks`) sets `line`, so only a failure formats; a decoding
    error names no line, as text is decoded by the chunk."""

    __slots__ = ("path", "line")

    def __init__(self, path) -> None:
        self.path, self.line = path, None

    def __enter__(self) -> "naming":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, (ValueError, OverflowError, RecursionError)):
            if self.line is None or isinstance(exc, UnicodeDecodeError):
                raise ValueError(f"{self.path}: {exc}") from exc
            raise ValueError(f"{self.path}:{self.line}: {exc}") from exc


def open_input(path, start: int = 0, stop: Optional[int] = None):
    """The input file at `path`, open for reading as UTF-8 text with universal
    newlines; call it under `naming`. A missing path raises ValueError `no
    such file`, and a directory, FIFO or device `not a regular file`, before
    anything is opened, so a FIFO never blocks. Given `start` or `stop`, only
    the file's bytes from `start` up to `stop` (the end by default) are read:
    a part that runs to the end is the file opened at `start`, and one that
    stops early is read in one read, so its bytes are held while it is open."""
    if not os.path.isfile(path):
        raise ValueError("not a regular file" if os.path.exists(path) else "no such file")
    binary = open(path, "rb")
    binary.seek(start)
    if stop is not None:
        with binary:
            binary = io.BytesIO(binary.read(stop - start))
    return io.TextIOWrapper(binary, encoding="utf-8")


def read_lines(path, parse: Callable[[str], object], start: int = 0, stop: Optional[int] = None) -> Iterator:
    """`parse(line)` of each line of the input file at `path`, its newline
    removed, as the line is read. Only an empty line is skipped: any other
    line, blanks and all, is one record and is passed as written. The file is
    opened at the first record asked for; its errors and those of `parse` are
    named under `naming`, the latter with their line. Given `start` or
    `stop`, only the file's bytes from `start` up to `stop` (the end by
    default) are read (`open_input`), their lines counted from 1."""
    with naming(path) as place, open_input(path, start, stop) as fh:
        for place.line, line in enumerate(fh, start=1):
            if line != "\n":
                yield parse(line.rstrip("\n"))


@dataclass(frozen=True, slots=True)
class SyllableToken:
    """One syllable plus its word-boundary flag (the atomic generation unit)."""

    text: str
    word_initial: bool

    def __post_init__(self) -> None:
        if self.text == EOS_TEXT:
            if self.word_initial:
                raise ValueError("end token cannot be word-initial")
        elif not _SYLLABLE_RE.match(self.text):
            raise ValueError(f"illegal syllable text: {self.text!r}")

    @property
    def is_eos(self) -> bool:
        return self.text == EOS_TEXT


@dataclass(frozen=True, slots=True)
class LyricSequence:
    """Ordered syllable tokens; the end token may only appear last."""

    tokens: tuple[SyllableToken, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("lyric must contain at least one token")
        if EOS_TEXT in [tok.text for tok in self.tokens[:-1]]:
            raise ValueError(f"{EOS_TEXT} only allowed in final position")
        # a first token that is the end token is the whole lyric
        if not (self.tokens[0].is_eos or self.tokens[0].word_initial):
            raise ValueError("first syllable must be word-initial")

    def syllables(self) -> tuple[SyllableToken, ...]:
        """Tokens without the trailing end token."""
        if self.tokens and self.tokens[-1].is_eos:
            return self.tokens[:-1]
        return self.tokens

    def syllable_texts(self) -> list[str]:
        return [t.text for t in self.syllables()]


@dataclass(frozen=True, slots=True)
class MelodyNote:
    """One symbolic note: MIDI pitch, duration in beats, following rest in beats."""

    pitch: int
    duration: float
    rest: float

    def __post_init__(self) -> None:
        if type(self.pitch) is not int or not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch must be an integer in [0, 127], got {self.pitch!r}")
        if type(self.duration) not in (int, float) or not (
            math.isfinite(self.duration) and self.duration > 0
        ):
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")
        if type(self.rest) not in (int, float) or not (math.isfinite(self.rest) and self.rest >= 0):
            raise ValueError(f"rest must be finite and non-negative, got {self.rest!r}")


@dataclass(frozen=True, slots=True)
class MelodySequence:
    """Non-empty ordered note list."""

    notes: tuple[MelodyNote, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.notes, tuple):
            object.__setattr__(self, "notes", tuple(self.notes))
        if not self.notes:
            raise ValueError("melody must contain at least one note")

    def __len__(self) -> int:
        return len(self.notes)


@dataclass(frozen=True, slots=True)
class AlignedPair:
    """A melody and its lyric, one syllable per note."""

    melody: MelodySequence
    lyric: LyricSequence

    def __post_init__(self) -> None:
        n_syl = len(self.lyric.syllables())
        if n_syl != len(self.melody.notes):
            raise ValueError(
                f"alignment mismatch: {n_syl} syllables vs {len(self.melody.notes)} notes"
            )


class Vocabulary:
    """Bijective syllable-text/id map with reserved ids for BOS and the end token.

    Id 0 is BOS, id 1 is the end token, remaining syllables get ids in sorted
    text order, so equal corpora always produce identical maps.
    """

    def __init__(self, syllable_texts: Iterable[str]):
        extra = sorted(set(syllable_texts) - {BOS_TEXT, EOS_TEXT})
        for text in extra:
            if not _SYLLABLE_RE.match(text):
                raise ValueError(f"illegal syllable text: {text!r}")
        self._texts: tuple[str, ...] = (BOS_TEXT, EOS_TEXT, *extra)
        self._emittable = self._texts[1:]
        self._ids = {text: i for i, text in enumerate(self._texts)}

    def id_of(self, text: str) -> int:
        return self._ids[text]

    def emittable(self) -> tuple[str, ...]:
        """Every token a generator may emit: all entries except BOS."""
        return self._emittable

    def syllable_texts(self) -> tuple[str, ...]:
        """Non-reserved entries, in id order."""
        return self._texts[2:]

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def __len__(self) -> int:
        return len(self._texts)


def parse_lyric_line(line: str) -> LyricSequence:
    """Parse one lyric line of pieces separated by ASCII spaces and tabs.

    A leading underscore marks a word-initial syllable ("_ger" starts a new
    word, "ger" continues the previous one). The first syllable of a line is
    always word-initial, marker or not. A trailing end token is accepted, so
    a line of only the end token is a lyric with no syllables. Any other
    whitespace is part of a piece, which then is no legal syllable.
    """
    pieces = [piece for piece in re.split("[ \t]+", line) if piece]
    if not pieces:
        raise ValueError("empty lyric line")
    tokens = []
    for i, piece in enumerate(pieces):
        if piece == EOS_TEXT:  # LyricSequence rejects one before the last piece
            tokens.append(SyllableToken(EOS_TEXT, False))
            continue
        word_initial = piece.startswith("_")
        text = piece[1:] if word_initial else piece
        if i == 0:
            word_initial = True
        tokens.append(SyllableToken(text, word_initial))
    return LyricSequence(tuple(tokens))


def serialize_lyric_line(lyric: LyricSequence) -> str:
    """Inverse of parse_lyric_line."""
    # the end token is never word-initial, so it is written as its text
    return " ".join("_" + t.text if i and t.word_initial else t.text for i, t in enumerate(lyric.tokens))


def parse_melody_line(line: str) -> MelodySequence:
    """Parse pitch:duration:rest triplets, an ASCII decimal integer pitch and two
    ASCII decimal numbers, separated by ASCII spaces, tabs and line ends."""
    pieces = [piece for piece in re.split("[ \t\r\n]+", line) if piece]
    if not pieces:
        raise ValueError("empty melody line")
    notes = []
    for piece in pieces:
        parts = piece.split(":")
        if not (
            len(parts) == 3
            and _PITCH_RE.fullmatch(parts[0])
            and _NUMBER_RE.fullmatch(parts[1])
            and _NUMBER_RE.fullmatch(parts[2])
        ):
            raise ValueError(f"malformed note triplet: {piece!r}")
        notes.append(MelodyNote(int(parts[0]), float(parts[1]), float(parts[2])))
    return MelodySequence(tuple(notes))


def render_text(lyric: LyricSequence) -> str:
    """Join syllables into words: a space precedes every word-initial syllable
    except the first; the end token is omitted."""
    syllables = lyric.syllables()
    return "".join(" " + t.text if i and t.word_initial else t.text for i, t in enumerate(syllables))


def build_vocabulary(corpus: Sequence[LyricSequence]) -> Vocabulary:
    """Collect every distinct syllable of the corpus into a Vocabulary."""
    if not corpus:
        raise ValueError("empty corpus")
    return Vocabulary({tok.text for lyric in corpus for tok in lyric.syllables()})


def _token(seen: dict, text: str, flag: bool) -> SyllableToken:
    """SyllableToken(text, flag), made once per text string and flag in `seen`."""
    token = seen.get((text, flag))
    if token is None:
        token = seen[text, flag] = SyllableToken(text, flag)
    return token


def _note(seen: dict, pitch, duration, rest) -> MelodyNote:
    """MelodyNote(pitch, duration, rest), made once per key in `seen`. The key
    holds each value's type, as True == 1 == 1.0, and the sign of the rest, as
    0.0 == -0.0; values no key can hold go to MelodyNote, which names them."""
    try:
        key = (pitch, duration, rest, type(pitch), type(duration), type(rest), math.copysign(1.0, rest))
        note = seen.get(key)
    except (TypeError, OverflowError):
        return MelodyNote(pitch, duration, rest)
    if note is None:
        note = seen[key] = MelodyNote(pitch, duration, rest)
    return note


def _object(pairs: list) -> dict:
    """The dict of one JSON object's (key, value) pairs, once no key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"repeated key {next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))!r}")
    return obj


# json.loads builds a decoder per call that names a hook; records share this one
_RECORD_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def decode_json(decoder: json.JSONDecoder, text: str):
    """`decoder.decode(text)`, once `text` passes json.loads's own check for a
    leading byte order mark, which a bare decoder lacks."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return decoder.decode(text)


def load_aligned_corpus(path) -> list[AlignedPair]:
    """Read aligned pairs from JSONL, one record a line (`read_lines`), each
    as `aligned_pair_parser` parses it. An error names the file and the
    record's 1-based line, blank lines counted (`naming`)."""
    return list(read_lines(path, aligned_pair_parser()))


def aligned_pair_parser() -> Callable[[str], AlignedPair]:
    """A parser of corpus record lines, each a JSON object of exactly the keys
    "syllables", "word_initial" and "notes", once each, all JSON arrays of one
    length: syllables JSON strings, flags JSON booleans, notes JSON arrays of
    3, pitches JSON integers, durations and rests JSON numbers. The pairs one
    parser returns share their equal tokens and notes."""
    tokens_seen, notes_seen = {}, {}

    def pair(line: str) -> AlignedPair:
        record = decode_json(_RECORD_DECODER, line)
        if type(record) is not dict:
            raise ValueError("not a JSON object")
        if record.keys() != _RECORD_KEYS:
            extra, missing = record.keys() - _RECORD_KEYS, _RECORD_KEYS - record.keys()
            raise ValueError(f"unknown key {min(extra)!r}" if extra else f"missing key {min(missing)!r}")
        for name in ("syllables", "word_initial", "notes"):
            if type(record[name]) is not list:
                raise ValueError(f"{name!r} is not a JSON array")
        syllables, flags, notes = record["syllables"], record["word_initial"], record["notes"]
        if not (len(syllables) == len(flags) == len(notes)):
            raise ValueError(
                f"lists disagree in length: {len(syllables)} syllables, "
                f"{len(flags)} flags, {len(notes)} notes"
            )
        for i, (text, flag, note) in enumerate(zip(syllables, flags, notes)):
            if type(text) is not str:
                raise ValueError(f"syllable {i} is not a JSON string")
            if type(flag) is not bool:
                raise ValueError(f"word_initial flag {i} is not a JSON boolean")
            if type(note) is not list or len(note) != 3:
                raise ValueError(f"note {i} is not a JSON array of 3")
        tokens = tuple(_token(tokens_seen, text, flag) for text, flag in zip(syllables, flags))
        melody = MelodySequence(tuple(_note(notes_seen, p, d, r) for p, d, r in notes))
        return AlignedPair(melody, LyricSequence(tokens))

    return pair


def write_aligned_corpus(pairs: Iterable[AlignedPair], path) -> None:
    """Inverse of load_aligned_corpus."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            record = {
                "syllables": [t.text for t in pair.lyric.syllables()],
                "word_initial": [t.word_initial for t in pair.lyric.syllables()],
                "notes": [[n.pitch, n.duration, n.rest] for n in pair.melody.notes],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
