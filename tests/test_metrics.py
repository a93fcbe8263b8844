import itertools
import math
import random
from collections import Counter

import pytest

from syllabeam.corpus import parse_lyric_line
from syllabeam.metrics import (
    EvalPair,
    LLM_EVAL_PROMPT,
    SMOOTHING_EPSILON,
    corpus_eval,
    emit_llm_eval_prompt,
    rouge_l,
    rouge_n,
    sentence_bleu,
)


def brute_force_lcs(a, b):
    """Longest subsequence of `a` that is also a subsequence of `b`."""

    def is_subsequence(needle, haystack):
        it = iter(haystack)
        return all(any(x == y for y in it) for x in needle)

    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            if is_subsequence(combo, b):
                return r
    return best


def reference_bleu(candidate, reference, max_n):
    """Independent sentence BLEU: explicit precision list, log-free product; an
    order without matches counts 0.1 of one."""
    if not candidate:
        return 0.0
    product = 1.0
    for n in range(1, max_n + 1):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        if not cand_grams:
            return 0.0
        ref_grams = Counter(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
        cand_counts = Counter(cand_grams)
        matched = sum(min(c, ref_grams[g]) for g, c in cand_counts.items())
        p = (matched if matched else 0.1) / len(cand_grams)
        product *= p ** (1.0 / max_n)
    bp = 1.0 if len(candidate) > len(reference) else math.exp(1.0 - len(reference) / len(candidate))
    return bp * product


TOKENS = ["la", "mi", "so", "fa", "re", "do", "ti", "ru"]


def random_tokens(rnd, max_len=8):
    return [rnd.choice(TOKENS) for _ in range(rnd.randint(1, max_len))]


class TestRougeN:
    def test_identical(self):
        assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 1)["f1"] == 1.0
        assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 2)["f1"] == 1.0

    def test_hand_counted_unigrams(self):
        result = rouge_n(["a", "b", "c"], ["a", "b", "d"], 1)
        assert math.isclose(result["precision"], 2 / 3, abs_tol=1e-12)
        assert math.isclose(result["recall"], 2 / 3, abs_tol=1e-12)
        assert math.isclose(result["f1"], 2 / 3, abs_tol=1e-12)

    def test_disjoint(self):
        assert rouge_n(["a", "b"], ["c", "d"], 1)["f1"] == 0.0

    def test_no_ngrams(self):
        assert rouge_n(["a"], ["a", "b"], 2)["f1"] == 0.0

    def test_clipping(self):
        # "a" appears once in the reference, so only one of three counts
        result = rouge_n(["a", "a", "a"], ["a", "b", "c"], 1)
        assert math.isclose(result["precision"], 1 / 3, abs_tol=1e-12)

    def test_eos_ignored(self):
        assert rouge_n(["a", "b", "<eos>"], ["a", "b"], 1)["f1"] == 1.0

    def test_n_zero(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            rouge_n(["a"], ["a"], 0)


class TestRougeL:
    def test_hand_lcs(self):
        result = rouge_l(["a", "b", "c"], ["a", "x", "c"])
        assert math.isclose(result["f1"], 2 / 3, abs_tol=1e-12)

    def test_identical(self):
        assert rouge_l(["a", "b"], ["a", "b"])["f1"] == 1.0

    def test_disjoint(self):
        assert rouge_l(["a"], ["b"])["f1"] == 0.0

    def test_against_brute_force(self):
        rnd = random.Random(17)
        for _ in range(100):
            cand = random_tokens(rnd)
            ref = random_tokens(rnd)
            lcs = brute_force_lcs(cand, ref)
            result = rouge_l(cand, ref)
            if lcs == 0:
                assert result["f1"] == 0.0
            else:
                assert math.isclose(result["precision"], lcs / len(cand), abs_tol=1e-12)
                assert math.isclose(result["recall"], lcs / len(ref), abs_tol=1e-12)


class TestSentenceBleu:
    def test_max_n_zero(self):
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            sentence_bleu(["a"], ["a"], 0)

    def test_identical(self):
        tokens = ["a", "b", "c", "d", "e"]
        for n in (2, 3, 4):
            assert math.isclose(sentence_bleu(tokens, tokens, n), 1.0, abs_tol=1e-12)

    def test_brevity_penalty_by_hand(self):
        # full precision, candidate 4 tokens vs reference 5: exp(1 - 5/4)
        cand = ["a", "b", "c", "d"]
        ref = ["a", "b", "c", "d", "e"]
        assert math.isclose(sentence_bleu(cand, ref, 2), math.exp(1 - 5 / 4), abs_tol=1e-12)

    def test_no_overlap_counts_epsilon_matches(self):
        # no unigram or bigram matches, equal lengths: sqrt(0.1/3 * 0.1/2)
        got = sentence_bleu(["a", "b", "c"], ["x", "y", "z"], 2)
        assert math.isclose(got, math.sqrt(SMOOTHING_EPSILON / 3 * SMOOTHING_EPSILON / 2), rel_tol=1e-12)
        assert SMOOTHING_EPSILON == 0.1

    def test_matches_independent_reference(self):
        rnd = random.Random(23)
        for _ in range(10):
            cand = random_tokens(rnd, 10)
            ref = random_tokens(rnd, 10)
            for n in (2, 3, 4):
                assert math.isclose(
                    sentence_bleu(cand, ref, n), reference_bleu(cand, ref, n), abs_tol=1e-9
                )

    def test_range(self):
        rnd = random.Random(29)
        for _ in range(100):
            score = sentence_bleu(random_tokens(rnd), random_tokens(rnd), 4)
            assert 0.0 <= score <= 1.0


class TestCorpusEval:
    def test_all_identical(self):
        lyric = parse_lyric_line("la _mi _so _fa _re")
        report = corpus_eval([EvalPair(lyric, lyric)] * 3)
        assert report.rouge1 == report.rouge2 == report.rougeL == 1.0
        assert math.isclose(report.bleu2, 1.0, abs_tol=1e-12)
        assert math.isclose(report.bleu4, 1.0, abs_tol=1e-12)

    def test_single_pair_equals_pair_metrics(self):
        cand = parse_lyric_line("la _mi _so")
        ref = parse_lyric_line("la _mi _fa")
        report = corpus_eval([EvalPair(cand, ref)])
        assert report.rouge1 == rouge_n(["la", "mi", "so"], ["la", "mi", "fa"], 1)["f1"]
        assert report.bleu2 == sentence_bleu(["la", "mi", "so"], ["la", "mi", "fa"], 2)

    def test_mean_of_two_pairs(self):
        same = parse_lyric_line("la _mi")
        cand = parse_lyric_line("la _mi _so")
        ref = parse_lyric_line("la _mi _fa")
        report = corpus_eval([EvalPair(same, same), EvalPair(cand, ref)])
        single = rouge_n(["la", "mi", "so"], ["la", "mi", "fa"], 1)["f1"]
        assert math.isclose(report.rouge1, (1.0 + single) / 2, abs_tol=1e-12)

    def test_eos_invariant(self):
        with_eos = parse_lyric_line("la _mi <eos>")
        without = parse_lyric_line("la _mi")
        a = corpus_eval([EvalPair(with_eos, without)])
        b = corpus_eval([EvalPair(without, without)])
        assert a == b

    def test_word_level_mode(self):
        cand = parse_lyric_line("tel e phone")
        ref = parse_lyric_line("tel e phone")
        syllable = corpus_eval([EvalPair(cand, ref)])
        word = corpus_eval([EvalPair(cand, ref)], word_level=True)
        assert syllable.rouge1 == word.rouge1 == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_eval([])

    def test_report_serialization(self):
        lyric = parse_lyric_line("la _mi")
        report = corpus_eval([EvalPair(lyric, lyric)])
        assert '"rouge1"' in report.to_json()
        table = report.to_table()
        assert "rouge-1 f" in table and "bleu-4" in table


class TestPromptPack:
    SETS = [
        ("reference", ["la mi so", "fa re do"]),
        ("baseline", ["mi mi mi", "so so so"]),
        ("fused", ["la re do", "ti ru fa"]),
    ]

    def test_basic_contains_criteria_phrase(self):
        text = emit_llm_eval_prompt(self.SETS, variant="basic")
        assert (
            "naturality, correctness, coherence (staying on topic), originality, "
            "and poetic value" in text
        )
        assert text.count("===") == 6
        assert "syllable-split" not in text

    def test_annotated_prepends_note(self):
        text = emit_llm_eval_prompt(self.SETS, variant="annotated")
        assert "syllable-split" in text
        assert text.index("syllable-split") < text.index(LLM_EVAL_PROMPT)

    def test_blocks_in_order(self):
        text = emit_llm_eval_prompt(self.SETS)
        assert text.index("=== reference ===") < text.index("=== baseline ===")
        assert text.index("=== baseline ===") < text.index("=== fused ===")
        assert "la mi so" in text

    def test_wrong_set_count(self):
        with pytest.raises(ValueError):
            emit_llm_eval_prompt(self.SETS[:2])
        with pytest.raises(ValueError):
            emit_llm_eval_prompt(self.SETS + [("extra", [])])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            emit_llm_eval_prompt(self.SETS, variant="fancy")
