import os
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam import halves, nsp
from syllabeam.corpus import EOS_TEXT, LyricSequence, SyllableToken, parse_lyric_line, render_text, write_aligned_corpus
from syllabeam.nsp import (
    _ROWS_RE,
    BuilderConfig,
    NspExample,
    _draw_from,
    _lyric_text,
    build_dataset,
    candidate_marker,
    check_row,
    nsp_line,
    write_dataset,
)
from syllabeam.lm import nsp_accuracy, nsp_metrics
from syllabeam.rng import _UNIT, substream

from conftest import expected_dataset_size, make_corpus, make_lyric, tsv_rows
from nsp_rules import SplitMix64, build_examples_for_lyric, corrupted_context

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
    return build_examples_for_lyric(lyric, config, SplitMix64(substream(config.seed, seed_index)))


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
        with pytest.raises(ValueError, match="^lyric 1: must contain at least 2 syllables$"):
            build_dataset([PHONE, lyric], BuilderConfig(), lambda row: None)

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


# few syllable texts, so that a lyric repeats some, each spaced or glued;
# the first syllable of a lyric always starts a word
LYRICS = st.lists(st.tuples(st.sampled_from(["la", "mi", "so", "tel", "e", "don't"]), st.booleans()),
                  min_size=2, max_size=20).map(
    lambda pairs: LyricSequence(tuple(SyllableToken(text, spaced or not i) for i, (text, spaced) in enumerate(pairs)))
)
RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    lyric=LYRICS,
    config=st.builds(
        BuilderConfig,
        spacing_negative_rate=RATES,
        always_spacing_first_k=st.integers(0, 5),
        context_swap_rate=RATES,
        swap_space_rate=RATES,
        seed=st.integers(0, 2**64 - 1),
    ),
    index=st.integers(0, 10**6),
)
def test_builder_text_is_the_oracle_rows_lines(lyric, config, index):
    """The one builder writes, as one string, the `nsp_line`s of the rows the
    oracle states rule by rule, drawing through `SplitMix64` itself."""
    rows = build_examples_for_lyric(lyric, config, SplitMix64(substream(config.seed, index)))
    assert _lyric_text(lyric, config, index) == "".join(map(nsp_line, rows))


def test_inlined_draws_are_splitmix64s():
    # the builder's randrange(n) is draw() % n and its bernoulli(p) is
    # (draw() >> 11) * _UNIT < p, one draw each, as SplitMix64 defines them
    rnd = random.Random(12)
    for seed in [0, 1, 2**63, 2**64 - 1, *(rnd.getrandbits(64) for _ in range(500))]:
        rng, draw = SplitMix64(seed), _draw_from(seed)
        for n in (1, 2, 3, 7, 21, 2**40 + 1):
            assert draw() % n == rng.randrange(n)
        for p in (0.0, 0.4, 0.5, 0.6, 1.0, rnd.random()):
            assert ((draw() >> 11) * _UNIT < p) == rng.bernoulli(p)
        assert draw() == rng.next_uint64()


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


@pytest.mark.parametrize("cpus", [1, 2], ids=["one cpu", "forked"])
def test_build_dataset_rows_are_the_written_file(tmp_path, monkeypatch, cpus):
    """`build_dataset` hands over the rows `write_dataset` writes from the
    corpus file, on either path, and they are the oracle's rows lyric by lyric."""
    pairs = make_corpus(41, seed=67)
    write_aligned_corpus(pairs, tmp_path / "corpus.jsonl")
    corpus = [p.lyric for p in pairs]
    config = BuilderConfig(seed=8)
    forks = []
    fork = os.fork
    monkeypatch.setattr(halves, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    written = write_dataset(tmp_path / "corpus.jsonl", config, tmp_path / "nsp.tsv")
    rows = []
    assert {"lyrics": len(corpus), **build_dataset(corpus, config, rows.append)} == written
    assert len(forks) == cpus - 1
    assert tsv_rows(tmp_path / "nsp.tsv") == rows
    oracle = [row for index, lyric in enumerate(corpus) for row in rows_for(lyric, config, index)]
    assert rows == oracle and all(type(row) is NspExample for row in rows)


class TestTsv:
    def test_round_trip(self, tmp_path):
        corpus = [p.lyric for p in make_corpus(5, seed=64)]
        rows = []
        build_dataset(corpus, BuilderConfig(seed=9), rows.append)
        path = tmp_path / "data.tsv"
        path.write_text("".join(map(nsp_line, rows)), encoding="utf-8")
        assert tsv_rows(path) == rows

    def test_serialized_positive_row(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text(nsp_line(NspExample("i know why your mean to me when", "_i", 1)), encoding="utf-8")
        assert path.read_text(encoding="utf-8") == "i know why your mean to me when\t_i\t1\n"

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ctx\tcand\t2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: bad label '2'$"):
            tsv_rows(path)

    def test_bad_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ctx\tcand\n")
        with pytest.raises(ValueError, match="3 columns"):
            tsv_rows(path)

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
        assert tsv_rows(path) == rows

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
            tsv_rows(path)
        bad = f"context {context!r}" if candidate == "_ve" else f"candidate {candidate!r}"
        assert str(info.value) == f"{path}:2: bad {bad}"


# a column is drawn from the grammar's pieces, or from those and look-alikes
# and separators outside the grammar
def column(*pieces, min_size=0):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=5).map("".join)


ANY = column("a", "z", "'", " ", "<eos>", "_", "0", "1", "<", "eos>", "$", "A", "9", "\u00e9", "\ufeff",
             "\x0b", "\r", "\n")
GOOD_CONTEXTS = column("a", "z", "'", " ", "<eos>", min_size=1)
GOOD_CANDIDATES = st.builds(str.__add__, st.sampled_from(["", "_"]),
                            st.one_of(st.just("<eos>"), column("a", "z", "'", min_size=1)))
CONTEXTS = st.one_of(GOOD_CONTEXTS, ANY)
CANDIDATES = st.one_of(GOOD_CANDIDATES, ANY)
LABELS = st.one_of(st.sampled_from(["0", "1"]), ANY)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(context=CONTEXTS, candidate=CANDIDATES, label=LABELS)
def test_row_pattern_accepts_exactly_the_checked_rows(context, candidate, label):
    """A line the block pattern matches whole is a row `check_row` passes,
    and no other: its `(?!\t)` rejects the empty context."""
    match = _ROWS_RE.fullmatch(f"{context}\t{candidate}\t{label}")
    try:
        check_row(context, candidate, label)
    except ValueError:
        assert not match
    else:
        assert match and match.groups() == (context, candidate, label)


def per_line_rows(path):
    """The rows of the NSP TSV file at `path` up to its first bad line, read
    line by line and checked by `check_row` alone, and the error that line
    raises, `PATH:LINE: message`, or None."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            parts = line.rstrip("\n").split("\t")
            try:
                if len(parts) != 3:
                    raise ValueError(f"expected 3 columns, got {len(parts)}")
                check_row(*parts)
            except ValueError as exc:
                return rows, f"{path}:{number}: {exc}"
            rows.append(tuple(parts))
    return rows, None


# a file's lines: rows and blank lines, and then up to two lines put in at
# drawn places, from columns that may be bad or from any text, tabs and
# line breaks among it
ROW_LINES = st.lists(
    st.one_of(st.tuples(GOOD_CONTEXTS, GOOD_CANDIDATES, st.sampled_from(["0", "1"])).map("\t".join), st.just("")),
    max_size=30,
)
ODD_LINES = st.lists(
    st.tuples(st.integers(0, 30), st.one_of(st.tuples(CONTEXTS, CANDIDATES, LABELS).map("\t".join), ANY)),
    max_size=2,
)
LINE_ENDS = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=32, max_size=32)


@pytest.fixture(scope="module")
def tsv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tsv") / "nsp.tsv"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(lines=ROW_LINES, odd=ODD_LINES, ends=LINE_ENDS, final_newline=st.booleans(),
       hint=st.sampled_from([1, 8, 40, 200]))
def test_block_reader_is_the_per_line_reader(tsv_path, lines, odd, ends, final_newline, hint):
    """`read_nsp_blocks` yields the rows a line-by-line read checked by
    `check_row` yields, and raises the same error at the same row, whatever
    the line ends and wherever the blocks of lines split the file."""
    for position, line in odd:
        lines.insert(position, line)
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not final_newline:
        text = text[: -len(ends[len(lines) - 1])]
    tsv_path.write_text(text, encoding="utf-8", newline="")
    rows, error = [], None
    with mock.patch.object(nsp, "_BLOCK_HINT", hint):
        try:
            for block in nsp.read_nsp_blocks(tsv_path):
                rows.extend(block)
        except ValueError as exc:
            error = str(exc)
    assert (rows, error) == per_line_rows(tsv_path)


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
