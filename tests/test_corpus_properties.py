"""Property tests: lyric and melody lines read back what was written."""

from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam.corpus import (
    EOS_TEXT,
    LyricSequence,
    MelodyNote,
    SyllableToken,
    parse_lyric_line,
    parse_melody_line,
    serialize_lyric_line,
)

texts = st.text("abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=6)


@st.composite
def lyrics(draw):
    """A lyric of up to 12 syllables, the first word-initial, maybe ended by the end token."""
    pieces = draw(st.lists(st.tuples(texts, st.booleans()), max_size=12))
    tokens = [SyllableToken(text, i == 0 or flag) for i, (text, flag) in enumerate(pieces)]
    if not tokens or draw(st.booleans()):
        tokens.append(SyllableToken(EOS_TEXT, False))
    return LyricSequence(tuple(tokens))


@settings(max_examples=200, deadline=None)
@given(lyric=lyrics())
def test_lyric_line_round_trip(lyric):
    assert parse_lyric_line(serialize_lyric_line(lyric)) == lyric


spacing = st.text(" \t", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(lyric=lyrics(), gaps=st.lists(spacing, min_size=13, max_size=13), ends=st.tuples(spacing, spacing))
def test_any_ascii_spacing_reads_as_the_canonical_line(lyric, gaps, ends):
    pieces = serialize_lyric_line(lyric).split(" ")
    line = ends[0] + "".join(piece + gap for piece, gap in zip(pieces[:-1], gaps)) + pieces[-1] + ends[1]
    assert parse_lyric_line(line) == lyric


numbers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
notes = st.builds(
    MelodyNote,
    st.integers(0, 127),
    numbers.filter(lambda d: d > 0),
    numbers,
)


@settings(max_examples=200, deadline=None)
@given(melody=st.lists(notes, min_size=1, max_size=20), separator=st.sampled_from([" ", "\t", "  \n "]))
def test_melody_line_round_trip(melody, separator):
    line = separator.join(f"{n.pitch}:{n.duration!r}:{n.rest!r}" for n in melody) + "\n"
    parsed = parse_melody_line(line).notes
    assert [repr(n) for n in parsed] == [repr(n) for n in melody]
