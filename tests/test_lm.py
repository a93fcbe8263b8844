import math
import random

import pytest

from syllabeam.lm import (
    BACKOFF_FACTOR,
    DEFAULT_ALPHABET,
    EOS_CHAR,
    SPACED,
    UNSPACED,
    CharNgramModel,
    ContinuationScore,
    lyric_lm_text,
    nsp_accuracy,
    train_char_ngram,
)
from syllabeam.nsp import NspExample, read_nsp_blocks

from conftest import NaiveWalker, continuation_scores

A = len(DEFAULT_ALPHABET)  # 26 letters + apostrophe + space + end char = 29


def random_text(rnd, length):
    return "".join(rnd.choice(DEFAULT_ALPHABET) for _ in range(length))


def score(model, context, text):
    """The continuation score of alphabet `text` after `context`; for one
    character, P(ch | context) discounted per backoff hop."""
    [value] = continuation_scores(model, context, [text])
    return value


class TestTraining:
    def test_single_symbol_corpus(self):
        model = train_char_ngram(["aaa"], order=2, k=0.0)
        assert score(model, "a", "a") == 1.0

    def test_count_ratio(self):
        model = train_char_ngram(["ab", "ab"], order=2, k=0.0)
        assert score(model, "a", "b") == 1.0

    def test_add_k_by_hand(self):
        assert A == 29
        model = train_char_ngram(["ab"], order=2, k=1.0)
        # one observation of context "a": (1 + 1) / (1 + 29)
        assert math.isclose(score(model, "a", "b"), 2 / 30, abs_tol=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            train_char_ngram([], order=2, k=0.0)

    def test_out_of_alphabet_reports_position(self):
        with pytest.raises(ValueError, match="position 1"):
            train_char_ngram(["aB"], order=2, k=0.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            CharNgramModel(order=0, k=0.0)


class TestBackoff:
    def test_unseen_context_discounted(self):
        model = train_char_ngram(["abc"], order=3, k=0.0)
        # context "xb" unseen, suffix "b" seen with only "c" following
        assert math.isclose(score(model, "xb", "c"), 0.4 * 1.0, abs_tol=1e-12)

    def test_two_hops(self):
        model = train_char_ngram(["abc"], order=3, k=0.0)
        # context "xy": neither "xy" nor "y" seen, unigram serves
        unigram = score(model, "", "a")
        assert math.isclose(score(model, "xy", "a"), 0.4 * 0.4 * unigram, abs_tol=1e-12)

    def test_long_context_truncated_to_order(self):
        model = train_char_ngram(["abcabc"], order=2, k=0.0)
        assert score(model, "zzzzza", "b") == score(model, "a", "b")


class TestDistributions:
    """The per-character scores at a context: the add-k distribution of the
    level serving it, discounted by BACKOFF_FACTOR per hop to that level."""

    def test_stored_contexts_sum_to_one(self):
        model = train_char_ngram(["hello world", "hold the line"], order=3, k=0.5)
        # "zz" and "qq" back off twice, to the unigram level
        hops = {"": 0, "h": 0, "he": 0, "l": 0, " ": 0, "zz": 2, "qq": 2}
        for context, n in hops.items():
            total = sum(continuation_scores(model, context, DEFAULT_ALPHABET))
            assert math.isclose(total, BACKOFF_FACTOR**n, abs_tol=1e-9)

    def test_random_contexts_sum_to_one(self):
        model = train_char_ngram(["the rain in spain"], order=4, k=0.1)
        rnd = random.Random(5)
        for _ in range(300):
            context = random_text(rnd, rnd.randint(0, 6))
            total = sum(continuation_scores(model, context, DEFAULT_ALPHABET))
            assert any(math.isclose(total, BACKOFF_FACTOR**n, abs_tol=1e-9) for n in range(4))

    def test_smoothing_makes_scores_positive(self):
        model = train_char_ngram(["abc"], order=2, k=0.01)
        rnd = random.Random(9)
        for _ in range(100):
            candidate = random_text(rnd, rnd.randint(1, 5))
            assert score(model, "", candidate) > 0.0


class TestScoreContinuation:
    """The continuation score behind every LM query, read through
    `continuation_scores` where a case needs any alphabet text and through
    `score_candidates` where it needs a rejection; `NaiveWalker`, which
    counts the same texts itself, is its oracle."""

    def test_certainty(self):
        model = train_char_ngram(["ab", "ab"], order=2, k=0.0)
        assert score(model, "a", "b") == 1.0

    def test_geometric_mean_by_hand(self):
        # P(b | a) = 0.5 and P(c | b) = 0.5, so score("a", "bc") = sqrt(0.25)
        model = train_char_ngram(["ab", "ac", "bc", "bd"], order=2, k=0.0)
        assert math.isclose(score(model, "a", "bc"), 0.5, abs_tol=1e-12)

    def test_uniform_single_char(self):
        # every alphabet char appears exactly once: unigram is uniform
        model = train_char_ngram([DEFAULT_ALPHABET], order=2, k=0.0)
        for value in continuation_scores(model, "", DEFAULT_ALPHABET):
            assert math.isclose(value, 1 / A, abs_tol=1e-12)

    def test_matches_naive_walker(self):
        texts = ["the rain in spain stays", "sing a song"]
        model, walker = train_char_ngram(texts, order=3, k=0.2), NaiveWalker(texts, 3, 0.2)
        rnd = random.Random(13)
        for _ in range(100):
            context = random_text(rnd, rnd.randint(0, 8))
            candidate = random_text(rnd, rnd.randint(1, 6))
            # the walker counts the texts itself and walks the whole context
            assert score(model, context, candidate) == walker.score_continuation(context, candidate)

    def test_range(self):
        model = train_char_ngram(["some words here"], order=3, k=0.3)
        rnd = random.Random(17)
        for _ in range(200):
            value = score(model, random_text(rnd, 4), random_text(rnd, 3))
            assert 0.0 <= value <= 1.0

    def test_empty_candidate_rejected(self):
        model = train_char_ngram(["ab"], order=2, k=0.0)
        with pytest.raises(ValueError, match="^syllable must be non-empty$"):
            model.score_candidates("a", ("",))

    def test_out_of_alphabet_rejected(self):
        model = train_char_ngram(["ab"], order=2, k=0.0)
        with pytest.raises(ValueError, match="position 1"):
            model.score_candidates("aQ", ("b",))
        with pytest.raises(ValueError, match="position 1"):
            model.score_candidates("a", ("b9",))


class TestScoreWithSpacing:
    def test_word_joining_preferred_when_trained(self):
        texts = ["don't get any bigger", "bigger and bigger", "the bigger the better"]
        model = train_char_ngram(texts, order=4, k=0.01)
        result = model.score_with_spacing("don't get any big", "ger")
        assert result.chosen_variant == UNSPACED

    def test_new_word_preferred_when_trained(self):
        texts = ["don't get any big ideas", "big ideas are great ideas"]
        model = train_char_ngram(texts, order=4, k=0.01)
        result = model.score_with_spacing("don't get any big", "ideas")
        assert result.chosen_variant == SPACED

    def test_empty_context_takes_max(self):
        texts = ["i am", "am i"]
        model, walker = train_char_ngram(texts, order=2, k=0.1), NaiveWalker(texts, 2, 0.1)
        result = model.score_with_spacing("", "i")
        assert result.value == max(walker.score_continuation("", "i"), walker.score_continuation("", " i"))

    def test_value_is_exact_max(self):
        texts = ["hello world", "hell of a ride"]
        model, walker = train_char_ngram(texts, order=3, k=0.05), NaiveWalker(texts, 3, 0.05)
        rnd = random.Random(21)
        for _ in range(100):
            context = random_text(rnd, rnd.randint(1, 8))
            syllable = "".join(rnd.choice("abcdefgh'") for _ in range(rnd.randint(1, 4)))
            result = model.score_with_spacing(context, syllable)
            unspaced = walker.score_continuation(context, syllable)
            spaced = walker.score_continuation(context, " " + syllable)
            assert result.value == max(spaced, unspaced)
            if unspaced >= spaced:
                assert result.chosen_variant == UNSPACED

    def test_tie_breaks_to_unspaced(self):
        model = train_char_ngram(["zz"], order=1, k=0.0)
        result = model.score_with_spacing("z", "a")
        assert result.value == 0.0
        assert result.chosen_variant == UNSPACED

    def test_eos_single_variant(self):
        model = train_char_ngram([lyric_lm_text("telephone")], order=3, k=0.1)
        result = model.score_with_spacing("telephone", "<eos>")
        assert result.value == score(model, "telephone", EOS_CHAR)
        assert result.chosen_variant == UNSPACED

    def test_eos_requires_context(self):
        model = train_char_ngram(["ab"], order=2, k=0.1)
        with pytest.raises(ValueError):
            model.score_with_spacing("", "<eos>")


class TestEncodeText:
    def test_end_marker_mapped(self):
        assert lyric_lm_text("mean to<eos>when") == "mean to" + EOS_CHAR + "when" + EOS_CHAR

    def test_rejects_unknown_chars(self):
        with pytest.raises(ValueError, match="position 2"):
            lyric_lm_text("ab9")

    def test_lyric_lm_text_appends_end(self):
        assert lyric_lm_text("big ideas") == "big ideas" + EOS_CHAR


class TestNspScore:
    def test_marker_means_space(self):
        # each rendering wins the spacing choice once, and scores as its row
        model = train_char_ngram(["big ideas", "bigger"], order=3, k=0.1)
        assert model.score_with_spacing("big", "ideas") == ContinuationScore(
            model.nsp_score("big", "_ideas"), SPACED
        )
        assert model.score_with_spacing("big", "ger") == ContinuationScore(
            model.nsp_score("big", "ger"), UNSPACED
        )

    def test_eos_candidate(self):
        model = train_char_ngram([lyric_lm_text("telephone")], order=3, k=0.1)
        expected = model.score_with_spacing("telephone", "<eos>")
        assert model.nsp_score("telephone", "<eos>") == expected.value

    def test_corrupted_context_scored(self):
        model = train_char_ngram([lyric_lm_text("mean to me when")], order=3, k=0.1)
        score = model.nsp_score("mean to<eos>when", "_i")
        assert 0.0 <= score <= 1.0

    @pytest.mark.parametrize(
        "context, candidate, message",
        [("", "_la", "bad context ''"), ("la$", "_ve", "bad context 'la$'"), ("i Know", "_ve", "bad context 'i Know'"),
         ("la", "", "bad candidate ''"), ("la", "Ve", "bad candidate 'Ve'"), ("la", "_<eos>x", "bad candidate '_<eos>x'")],
    )
    def test_rejects_what_the_dataset_reader_rejects(self, tmp_path, context, candidate, message):
        # one row grammar: the query fails as the TSV line of its row does
        path = tmp_path / "row.tsv"
        path.write_text(f"{context}\t{candidate}\t1\n", encoding="utf-8")
        model = train_char_ngram([lyric_lm_text("la mi")], order=3, k=0.1)
        with pytest.raises(ValueError) as by_score:
            model.nsp_score(context, candidate)
        with pytest.raises(ValueError) as by_reader:
            list(read_nsp_blocks(path))
        assert (str(by_score.value), str(by_reader.value)) == (message, f"{path}:1: {message}")


class TestNspAccuracy:
    DATASET = [
        NspExample("big", "_ideas", 1),
        NspExample("big", "ger", 0),
        NspExample("small", "_world", 1),
        NspExample("small", "est", 0),
        NspExample("small", "_town", 0),
    ]

    def test_oracle_scorer(self):
        labels = {(ex.context, ex.candidate): ex.label for ex in self.DATASET}
        result = nsp_accuracy(lambda c, s: float(labels[(c, s)]), self.DATASET)
        assert result["accuracy"] == 1.0
        assert result["auc"] == 1.0

    def test_constant_scorer(self):
        result = nsp_accuracy(lambda c, s: 0.5, self.DATASET, threshold=0.5)
        assert result["accuracy"] == 2 / 5
        assert result["auc"] == 0.5

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            nsp_accuracy(lambda c, s: 1.0, [])


class TestPersistence:
    def test_round_trip_scores(self, tmp_path):
        model = train_char_ngram(["the rain in spain", "sing a song"], order=3, k=0.25)
        path = tmp_path / "lm.json"
        model.save(path)
        loaded = CharNgramModel.load(path)
        assert loaded.order == model.order
        assert loaded.k == model.k
        assert loaded.stats() == model.stats()
        rnd = random.Random(31)
        for _ in range(50):
            context = random_text(rnd, rnd.randint(0, 6))
            candidate = random_text(rnd, rnd.randint(1, 4))
            assert score(loaded, context, candidate) == score(model, context, candidate)

    def test_save_is_deterministic(self, tmp_path):
        model = train_char_ngram(["hello world"], order=3, k=0.5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            CharNgramModel.load(path)


def test_continuation_score_validation():
    with pytest.raises(ValueError):
        ContinuationScore(1.5, SPACED)
    with pytest.raises(ValueError):
        ContinuationScore(0.5, "sideways")
