"""Data model and I/O for syllable-level lyrics aligned with symbolic melodies.

A lyric is a sequence of syllables, each flagged as word-initial or not;
rendering joins syllables into words by inserting a space before every
word-initial syllable. A melody is a sequence of (pitch, duration, rest)
notes, one note per syllable.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

BOS_TEXT = "<bos>"
EOS_TEXT = "<eos>"

_SYLLABLE_RE = re.compile(r"[a-z']+\Z")
# melody text: ASCII decimal literals only, no digit-group underscores; the
# non-finite spellings pass here so that MelodyNote rejects them by name
_PITCH_RE = re.compile(r"[+-]?[0-9]+")
_NUMBER_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def text_of(self, idx: int) -> str:
        return self._texts[idx]

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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._texts == other._texts


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
        if piece == EOS_TEXT:
            if i != len(pieces) - 1:
                raise ValueError(f"{EOS_TEXT} only allowed at end of line")
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
    """Parse whitespace-separated pitch:duration:rest triplets: an ASCII
    decimal integer pitch, and duration and rest as ASCII decimal numbers."""
    pieces = line.split()
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


def _token(seen: dict, text, flag: bool) -> SyllableToken:
    """SyllableToken(text, flag), made once per text string and flag in `seen`."""
    if type(text) is not str:
        return SyllableToken(text, flag)
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


def load_aligned_corpus(path) -> list[AlignedPair]:
    """Read aligned pairs from JSONL.

    Each record is a JSON object {"syllables": [...], "word_initial": [...],
    "notes": [[pitch, duration, rest], ...]} of JSON arrays of one length,
    flags JSON booleans, pitches JSON integers and durations and rests JSON
    numbers. Errors are reported with the offending record index.
    """
    pairs = []
    tokens_seen, notes_seen = {}, {}  # equal tokens and notes, shared
    with open(path, "r", encoding="utf-8") as fh:
        for idx, raw in enumerate(fh):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
                if type(record) is not dict:
                    raise ValueError("not a JSON object")
                for name in ("syllables", "word_initial", "notes"):
                    if type(record[name]) is not list:
                        raise ValueError(f"{name!r} is not a JSON array")
                syllables, flags, notes = record["syllables"], record["word_initial"], record["notes"]
                if not (len(syllables) == len(flags) == len(notes)):
                    raise ValueError(
                        f"lists disagree in length: {len(syllables)} syllables, "
                        f"{len(flags)} flags, {len(notes)} notes"
                    )
                for flag in flags:
                    if type(flag) is not bool:
                        raise ValueError(f"word_initial flag {flag!r} is not a boolean")
                tokens = tuple(_token(tokens_seen, text, flag) for text, flag in zip(syllables, flags))
                melody = MelodySequence(tuple(_note(notes_seen, p, d, r) for p, d, r in notes))
                pairs.append(AlignedPair(melody, LyricSequence(tokens)))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"record {idx}: {exc}") from exc
    return pairs


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
