import json
import random
import re

import pytest

from syllabeam.corpus import (
    AlignedPair,
    EOS_TEXT,
    LyricSequence,
    MelodyNote,
    MelodySequence,
    SyllableToken,
    Vocabulary,
    build_vocabulary,
    load_aligned_corpus,
    parse_lyric_line,
    parse_melody_line,
    render_text,
    serialize_lyric_line,
    write_aligned_corpus,
)

from conftest import make_corpus, make_lyric


class TestSyllableToken:
    def test_valid(self):
        tok = SyllableToken("don't", True)
        assert tok.text == "don't"

    def test_eos_not_word_initial(self):
        with pytest.raises(ValueError):
            SyllableToken(EOS_TEXT, True)

    @pytest.mark.parametrize("bad", ["", "Hi", "a b", "a-b", "ab1", "_ab"])
    def test_illegal_text(self, bad):
        with pytest.raises(ValueError):
            SyllableToken(bad, True)


class TestLyricSequence:
    def test_eos_only_final(self):
        eos = SyllableToken(EOS_TEXT, False)
        word = SyllableToken("hey", True)
        with pytest.raises(ValueError):
            LyricSequence((eos, word))
        LyricSequence((word, eos))

    def test_first_syllable_word_initial(self):
        with pytest.raises(ValueError):
            LyricSequence((SyllableToken("hey", False),))

    def test_a_list_is_stored_as_a_tuple(self):
        tokens = [SyllableToken("hey", True), SyllableToken("you", False)]
        assert LyricSequence(tokens).tokens == tuple(tokens)

    def test_syllables_strips_eos(self):
        lyric = parse_lyric_line("hey _you <eos>")
        assert [t.text for t in lyric.syllables()] == ["hey", "you"]


class TestParseLyricLine:
    def test_all_word_initial(self):
        lyric = parse_lyric_line("i _know _why _your _mean _to _me _when")
        assert len(lyric.tokens) == 8
        assert all(t.word_initial for t in lyric.tokens)

    def test_single_word(self):
        lyric = parse_lyric_line("tel e phone")
        assert [(t.text, t.word_initial) for t in lyric.tokens] == [
            ("tel", True),
            ("e", False),
            ("phone", False),
        ]

    def test_empty_line(self):
        with pytest.raises(ValueError):
            parse_lyric_line("")
        with pytest.raises(ValueError):
            parse_lyric_line("   ")

    def test_illegal_token(self):
        with pytest.raises(ValueError):
            parse_lyric_line("hey There")

    def test_eos_mid_line_rejected(self):
        with pytest.raises(ValueError):
            parse_lyric_line("hey <eos> you")

    def test_trailing_eos_accepted(self):
        lyric = parse_lyric_line("hey _you <eos>")
        assert lyric.tokens[-1].is_eos

    def test_round_trip(self):
        rnd = random.Random(7)
        for _ in range(50):
            lyric = make_lyric(rnd, rnd.randint(2, 15))
            assert parse_lyric_line(serialize_lyric_line(lyric)) == lyric

    def test_round_trip_with_eos(self):
        lyric = parse_lyric_line("tel e phone _home <eos>")
        assert parse_lyric_line(serialize_lyric_line(lyric)) == lyric


class TestParseMelodyLine:
    def test_two_notes(self):
        melody = parse_melody_line("60:1:0 62:0.5:0.5")
        assert len(melody) == 2
        assert [n.pitch for n in melody.notes] == [60, 62]

    def test_singleton(self):
        assert len(parse_melody_line("60:1:0")) == 1

    def test_a_list_is_stored_as_a_tuple(self):
        notes = [MelodyNote(60, 1, 0), MelodyNote(62, 0.5, 0.5)]
        assert MelodySequence(notes).notes == tuple(notes)

    def test_pitch_out_of_range(self):
        with pytest.raises(ValueError):
            parse_melody_line("200:1:0")

    @pytest.mark.parametrize("bad", ["60:1", "60", "x:1:0", "60:0:0", "60:1:-1", "60:1:0:0"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_melody_line(bad)

    @pytest.mark.parametrize("bad", ["60:1:nan", "60:inf:0", "60:nan:0", "60:1:inf", "60:-inf:0"])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            parse_melody_line("62:1:0 " + bad)

    @pytest.mark.parametrize(
        "bad",
        ["6_0:1:0", "\u0666\u0660:1:0", "\uff16\uff10:1:0", "60:1_0:0", "60:1:0_5", "60:\u0661:0",
         "60:1:\u0660", "60::0", "60:.:0", "60:1e:0", "0x3c:1:0", "60:1:0.0.0"],
    )
    def test_only_ascii_decimal_literals(self, bad):
        with pytest.raises(ValueError, match="malformed note triplet"):
            parse_melody_line("62:1:0 " + bad)

    def test_decimal_literal_forms(self):
        notes = parse_melody_line("+60:1.:.5 61:1e0:0 62:25E-2:0.0 63:2:1").notes
        assert [(n.pitch, n.duration, n.rest) for n in notes] == [
            (60, 1.0, 0.5), (61, 1.0, 0.0), (62, 0.25, 0.0), (63, 2.0, 1.0)
        ]


class TestRenderText:
    def test_one_word(self):
        assert render_text(parse_lyric_line("tel e phone")) == "telephone"

    def test_single(self):
        assert render_text(parse_lyric_line("i")) == "i"

    def test_two_words(self):
        assert render_text(parse_lyric_line("big _ideas")) == "big ideas"

    def test_eos_omitted(self):
        assert render_text(parse_lyric_line("big _ideas <eos>")) == "big ideas"

    def test_space_count_matches_word_count(self):
        rnd = random.Random(11)
        for _ in range(50):
            lyric = make_lyric(rnd, rnd.randint(1, 15))
            n_initial = sum(1 for t in lyric.syllables() if t.word_initial)
            assert render_text(lyric).count(" ") == n_initial - 1


class TestVocabulary:
    def test_reserved_and_sorted(self):
        vocab = build_vocabulary([parse_lyric_line("i _know")])
        assert len(vocab) == 4
        assert vocab.id_of("<bos>") == 0
        assert vocab.id_of(EOS_TEXT) == 1
        assert vocab.id_of("i") == 2
        assert vocab.id_of("know") == 3

    def test_duplicates_collapse(self):
        vocab = build_vocabulary([parse_lyric_line("i _know"), parse_lyric_line("i _i")])
        assert len(vocab) == 4

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_deterministic(self):
        corpus = [p.lyric for p in make_corpus(20, seed=3)]
        a = build_vocabulary(corpus)
        b = build_vocabulary(list(reversed(corpus)))
        assert a.syllable_texts() == b.syllable_texts()

    def test_emittable_excludes_bos(self):
        vocab = Vocabulary(["la"])
        assert vocab.emittable() == (EOS_TEXT, "la")


class TestAlignedCorpusIO:
    def test_round_trip(self, tmp_path):
        pairs = make_corpus(10, seed=5)
        path = tmp_path / "corpus.jsonl"
        write_aligned_corpus(pairs, path)
        assert load_aligned_corpus(path) == pairs

    def test_alignment_mismatch_reports_index(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {
            "syllables": ["hey", "you"],
            "word_initial": [True, True],
            "notes": [[60, 1, 0], [62, 1, 0]],
        }
        bad = {
            "syllables": ["hey", "you"],
            "word_initial": [True, True],
            "notes": [[60, 1, 0]],
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(good) + "\n")
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: lists disagree in length"):
            load_aligned_corpus(path)

    @pytest.mark.parametrize("note", ["[60, NaN, 0]", "[60, Infinity, 0]", "[60, 1, NaN]",
                                      "[60, 1, Infinity]", '[60, "nan", 0]', '[60, 1, "inf"]'])
    def test_non_finite_note_reports_index(self, tmp_path, note):
        path = tmp_path / "bad.jsonl"
        good = '{"syllables": ["hey"], "word_initial": [true], "notes": [[60, 1, 0]]}'
        bad = '{"syllables": ["hey"], "word_initial": [true], "notes": [%s]}' % note
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*must be finite"):
            load_aligned_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_aligned_corpus(path) == []

    def test_twenty_syllables_twenty_notes(self, tmp_path):
        pairs = make_corpus(1, seed=9, min_syllables=20, max_syllables=20)
        assert len(pairs[0].lyric.syllables()) == 20
        path = tmp_path / "c.jsonl"
        write_aligned_corpus(pairs, path)
        assert load_aligned_corpus(path)[0] == pairs[0]


class TestAlignedPair:
    def test_count_mismatch(self):
        melody = MelodySequence((MelodyNote(60, 1.0, 0.0),))
        lyric = parse_lyric_line("hey _you")
        with pytest.raises(ValueError):
            AlignedPair(melody, lyric)


def test_integer_duration_and_rest_are_numbers(tmp_path):
    # JSON integers are JSON numbers; the loader rejects only other types
    # (tests/test_loader_fuzz.py)
    path = tmp_path / "c.jsonl"
    path.write_text('{"syllables": ["hey"], "word_initial": [true], "notes": [[60, 2, 1]]}\n')
    assert load_aligned_corpus(path)[0].melody.notes[0] == MelodyNote(60, 2.0, 1.0)
