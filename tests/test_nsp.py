import random

import pytest

from syllabeam.corpus import EOS_TEXT, LyricSequence, SyllableToken, parse_lyric_line, render_text
from syllabeam.nsp import (
    BuilderConfig,
    NspExample,
    build_dataset,
    build_examples_for_lyric,
    candidate_marker,
    corrupted_context,
    nsp_line,
    read_nsp_tsv,
)
from syllabeam.lm import nsp_accuracy, nsp_metrics
from syllabeam.rng import substream

from conftest import expected_dataset_size, make_corpus, make_lyric

# the running example lyric: "i know why your mean to me when i call on the telephone"
PHONE_LINE = "i _know _why _your _mean _to _me _when _i _call _on _the _tel e phone"
PHONE = parse_lyric_line(PHONE_LINE)

ALL_RULES = BuilderConfig(
    spacing_negative_rate=1.0, context_swap_rate=1.0, swap_space_rate=1.0, seed=1
)
NO_RANDOM_RULES = BuilderConfig(
    spacing_negative_rate=0.0, always_spacing_first_k=0, context_swap_rate=0.0, seed=1
)


def rows_for(lyric, config, seed_index=0):
    return build_examples_for_lyric(lyric, config, substream(config.seed, seed_index))


def test_contexts_are_rendered_prefixes():
    # NO_RANDOM_RULES writes a positive and a random negative per position,
    # both with the uncorrupted context
    for index, pair in enumerate([PHONE, *[p.lyric for p in make_corpus(30, seed=65)]]):
        syllables = pair.syllables()
        prefixes = [render_text(LyricSequence(syllables[:i])) for i in range(1, len(syllables) + 1)]
        contexts = [row.context for row in rows_for(pair, NO_RANDOM_RULES, index)]
        assert contexts == [prefix for prefix in prefixes for _ in range(2)]


class TestCandidateMarker:
    def test_marker_notation(self):
        assert candidate_marker("i", True) == "_i"
        assert candidate_marker("i", False) == "i"
        assert candidate_marker(EOS_TEXT, False) == EOS_TEXT
        assert candidate_marker(EOS_TEXT, True) == "_" + EOS_TEXT


class TestCorruptedContext:
    def test_spaced_replacement(self):
        # "know" replaced by "e" with a space inserted
        assert (
            corrupted_context(PHONE.syllables()[:8], 1, "e", True)
            == "i e why your mean to me when"
        )

    def test_glued_replacement(self):
        # "your" replaced by "tel" glued to the previous word
        assert (
            corrupted_context(PHONE.syllables()[:9], 3, "tel", False)
            == "i know whytel mean to me when i"
        )

    def test_end_marker_replacement(self):
        # "me" replaced by the literal end marker, glued to "to"; the
        # following syllable keeps its own word boundary
        assert (
            corrupted_context(PHONE.syllables()[:12], 6, EOS_TEXT, False)
            == "i know why your mean to<eos> when i call on the"
        )

    def test_identity_restore(self):
        rnd = random.Random(2)
        for _ in range(50):
            lyric = make_lyric(rnd, rnd.randint(2, 12))
            syllables = lyric.syllables()
            slot = rnd.randrange(len(syllables))
            restored = corrupted_context(
                syllables, slot, syllables[slot].text, syllables[slot].word_initial
            )
            assert restored == render_text(lyric)


class TestBuilderConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            BuilderConfig(spacing_negative_rate=1.5)
        with pytest.raises(ValueError):
            BuilderConfig(context_swap_rate=-0.1)
        with pytest.raises(ValueError):
            BuilderConfig(always_spacing_first_k=-1)

    def test_defaults(self):
        config = BuilderConfig()
        assert config.spacing_negative_rate == 0.6
        assert config.always_spacing_first_k == 3
        assert config.context_swap_rate == 0.4
        assert config.swap_space_rate == 0.5


class TestBuildExamples:
    def test_position_8_positive(self):
        rows = rows_for(PHONE, BuilderConfig(seed=3))
        assert NspExample("i know why your mean to me when", "_i", 1) in rows

    def test_position_8_spacing_negative(self):
        rows = rows_for(PHONE, ALL_RULES)
        assert NspExample("i know why your mean to me when", "i", 0) in rows

    def test_final_position_positive(self):
        rows = rows_for(PHONE, BuilderConfig(seed=3))
        assert (
            NspExample("i know why your mean to me when i call on the telephone", EOS_TEXT, 1)
            in rows
        )

    def test_mid_word_positives(self):
        rows = rows_for(PHONE, BuilderConfig(seed=3))
        assert NspExample("i know why your mean to me when i call on the tel", "e", 1) in rows
        assert NspExample("i know why your mean to me when i call on the tele", "phone", 1) in rows

    def test_all_positives_present(self):
        rows = rows_for(PHONE, BuilderConfig(seed=3))
        positives = [r for r in rows if r.label == 1]
        syllables = PHONE.syllables()
        assert len(positives) == len(syllables)
        for i in range(1, len(syllables)):
            context = render_text(LyricSequence(syllables[:i]))
            marker = candidate_marker(syllables[i].text, syllables[i].word_initial)
            assert NspExample(context, marker, 1) in positives

    def test_spacing_negative_always_for_first_positions(self):
        config = BuilderConfig(
            spacing_negative_rate=0.0, always_spacing_first_k=3, context_swap_rate=0.0, seed=1
        )
        rows = rows_for(PHONE, config)
        spacing = [r for r in rows if r.label == 0]
        assert NspExample("i", "know", 0) in spacing
        assert NspExample("i know", "why", 0) in spacing
        assert NspExample("i know why", "your", 0) in spacing
        assert len(spacing) == len(PHONE.syllables()) + 3  # random negatives + 3 spacing

    def test_lyric_too_short(self):
        lyric = LyricSequence((SyllableToken("hey", True),))
        with pytest.raises(ValueError):
            rows_for(lyric, BuilderConfig())

    def test_all_rules_count(self):
        # every rule fires at every position: 4 rows per position
        lyric13 = make_lyric(random.Random(4), 13)
        assert len(rows_for(lyric13, ALL_RULES)) == 13 * 4 == 52
        lyric14 = make_lyric(random.Random(4), 14)
        assert len(rows_for(lyric14, ALL_RULES)) == 14 * 4 == 56

    def test_no_random_rules_count(self):
        lyric13 = make_lyric(random.Random(4), 13)
        assert len(rows_for(lyric13, NO_RANDOM_RULES)) == 13 * 2 == 26

    def test_random_negative_preserves_marker_of_origin(self):
        # every random-negative candidate matches some occurrence of the lyric
        rnd = random.Random(6)
        for trial in range(30):
            lyric = make_lyric(rnd, rnd.randint(3, 12))
            occurrences = {
                candidate_marker(t.text, t.word_initial) for t in lyric.syllables()
            }
            occurrences.add(EOS_TEXT)
            rows = rows_for(lyric, NO_RANDOM_RULES, seed_index=trial)
            negatives = [r for r in rows if r.label == 0]
            assert negatives
            for row in negatives:
                assert row.candidate in occurrences

    def test_negatives_differ_from_positive(self):
        rnd = random.Random(8)
        for trial in range(30):
            lyric = make_lyric(rnd, rnd.randint(3, 12))
            rows = rows_for(lyric, ALL_RULES, seed_index=trial)
            position_positive = None
            for row in rows:
                if row.label == 1:
                    position_positive = row
                else:
                    assert (row.context, row.candidate) != (
                        position_positive.context,
                        position_positive.candidate,
                    )

    def test_corrupted_context_differs_from_clean(self):
        config = BuilderConfig(
            spacing_negative_rate=0.0, always_spacing_first_k=0, context_swap_rate=1.0, seed=5
        )
        rnd = random.Random(10)
        for trial in range(30):
            lyric = make_lyric(rnd, rnd.randint(3, 12))
            rows = rows_for(lyric, config, seed_index=trial)
            clean = None
            for row in rows:
                if row.label == 1:
                    clean = row
                elif row.candidate == clean.candidate:
                    # corruption row: true candidate, corrupted context
                    assert row.context != clean.context

    def test_spacing_negative_flips_marker_only(self):
        config = BuilderConfig(
            spacing_negative_rate=1.0, always_spacing_first_k=0, context_swap_rate=0.0, seed=5
        )
        rows = rows_for(PHONE, config)
        # rows come in (positive, random negative, spacing negative) triples
        for i in range(0, len(rows), 3):
            positive, _, spacing = rows[i : i + 3]
            assert spacing.context == positive.context
            assert spacing.candidate != positive.candidate
            assert spacing.candidate.lstrip("_") == positive.candidate.lstrip("_")


class TestBuildDataset:
    def test_determinism(self):
        corpus = [p.lyric for p in make_corpus(20, seed=61)]
        config = BuilderConfig(seed=123)
        a, b = [], []
        build_dataset(corpus, config, a.append)
        build_dataset(corpus, config, b.append)
        assert a == b

    def test_seed_changes_output(self):
        corpus = [p.lyric for p in make_corpus(20, seed=61)]
        a, b = [], []
        build_dataset(corpus, BuilderConfig(seed=1), a.append)
        build_dataset(corpus, BuilderConfig(seed=2), b.append)
        assert a != b

    def test_summary_counts(self):
        corpus = [p.lyric for p in make_corpus(10, seed=62)]
        rows = []
        summary = build_dataset(corpus, BuilderConfig(seed=7), rows.append)
        assert summary["total"] == len(rows)
        assert summary["positives"] == sum(1 for r in rows if r.label == 1)
        assert summary["negatives"] == sum(1 for r in rows if r.label == 0)
        assert summary["positives"] == sum(len(l.syllables()) for l in corpus)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_dataset([], BuilderConfig(), lambda e: None)

    def test_counts_match_expectation_within_3_sigma(self):
        # 1000 lyrics x 10 syllables = 10,000 positions at the default rates
        corpus = [p.lyric for p in make_corpus(1000, seed=63, min_syllables=10, max_syllables=10)]
        config = BuilderConfig(seed=20240817)
        rows = []
        summary = build_dataset(corpus, config, rows.append)
        mean, sigma = expected_dataset_size(corpus, config)
        assert abs(summary["total"] - mean) <= 3 * sigma


class TestTsv:
    def test_round_trip(self, tmp_path):
        corpus = [p.lyric for p in make_corpus(5, seed=64)]
        rows = []
        build_dataset(corpus, BuilderConfig(seed=9), rows.append)
        path = tmp_path / "data.tsv"
        path.write_text("".join(map(nsp_line, rows)), encoding="utf-8")
        assert list(read_nsp_tsv(path)) == rows

    def test_serialized_positive_row(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text(nsp_line(NspExample("i know why your mean to me when", "_i", 1)), encoding="utf-8")
        assert path.read_text(encoding="utf-8") == "i know why your mean to me when\t_i\t1\n"

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ctx\tcand\t2\n")
        with pytest.raises(ValueError, match="line 1"):
            list(read_nsp_tsv(path))

    def test_bad_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ctx\tcand\n")
        with pytest.raises(ValueError, match="3 columns"):
            list(read_nsp_tsv(path))

    def test_every_row_kind_the_builder_writes(self, tmp_path):
        rows = [
            NspExample("i know why", "_your", 1),
            NspExample("i know why", "your", 0),
            NspExample("don't tel", "e", 1),
            NspExample("mean to<eos> when", "_i", 0),
            NspExample("<eos>", "_i", 0),
            NspExample("tel e phone", "<eos>", 1),
            NspExample("tel e phone", "_<eos>", 0),
        ]
        path = tmp_path / "data.tsv"
        path.write_text("".join(map(nsp_line, rows)), encoding="utf-8")
        assert list(read_nsp_tsv(path)) == rows

    @pytest.mark.parametrize(
        "context, candidate",
        [
            ("i know", ""),
            ("i know", "Ve"),
            ("i know", "__ve"),
            ("i know", "ve<eos>"),
            ("\ufeffi know", "_ve"),
            ("i kn$w", "_ve"),
            ("i know<eo", "_ve"),
            ("", "_ve"),
        ],
    )
    def test_rows_outside_the_grammar(self, tmp_path, context, candidate):
        path = tmp_path / "bad.tsv"
        path.write_text(f"i know\t_why\t1\n{context}\t{candidate}\t1\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            list(read_nsp_tsv(path))
        bad = f"context {context!r}" if candidate == "_ve" else f"candidate {candidate!r}"
        assert str(info.value) == f"line 2: bad {bad}"


class TestMetric:
    def test_scored_pairs_by_hand(self):
        # midranks 1, 2.5, 2.5, 4: positives sum to 6.5, so AUC = (6.5 - 3) / 4
        result = nsp_metrics([(1.0, 1), (0.0, 0), (0.5, 1), (0.5, 0)], threshold=0.5)
        assert result == {"accuracy": 0.75, "auc": 0.875}

    def test_empty(self):
        with pytest.raises(ValueError, match="empty dataset"):
            nsp_metrics([])

    def test_accuracy_is_the_metric_of_the_scorer(self):
        rows = []
        build_dataset([p.lyric for p in make_corpus(20, seed=66)], BuilderConfig(seed=4), rows.append)
        scorer = lambda context, candidate: (len(context) + len(candidate)) % 7 / 7
        pairs = [(scorer(row.context, row.candidate), row.label) for row in rows]
        assert nsp_accuracy(scorer, rows, 0.4) == nsp_metrics(pairs, 0.4)
