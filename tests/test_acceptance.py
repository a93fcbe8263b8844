"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import functools
import json
import math
import random

from syllabeam.beam import FusionConfig, audit_trace, decode, expand_step
from syllabeam.cli import main
from syllabeam.corpus import (
    EOS_TEXT,
    LyricSequence,
    SyllableToken,
    Vocabulary,
    build_vocabulary,
    parse_lyric_line,
    render_text,
    write_aligned_corpus,
)
from syllabeam.generator import train_generator
from syllabeam.lm import (
    DEFAULT_ALPHABET,
    SPACED,
    UNSPACED,
    ContinuationScore,
    lyric_lm_text,
    nsp_accuracy,
    train_char_ngram,
)
from syllabeam.metrics import EvalPair, corpus_eval, rouge_l, rouge_n, sentence_bleu
from syllabeam.nsp import (
    BuilderConfig,
    NspExample,
    build_dataset,
    candidate_marker,
    nsp_line,
)

from conftest import Batched, expected_dataset_size, make_corpus, make_melody
from test_beam import (
    ConstantLM,
    RandomLM,
    RandomTableGenerator,
    SpacedRandomLM,
    StubGenerator,
    brute_force_decode,
    melody_of,
    project,
    reference_expand,
    word_beam,
)
from test_metrics import brute_force_lcs, reference_bleu, random_tokens


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {description}")
                raise
            print(f"[PASS] criterion {number:2d}: {description}")

        return run

    return wrap


def trained_models(tmp_path, n_pairs=100, seed=2024):
    corpus = make_corpus(n_pairs, seed=seed, min_syllables=8, max_syllables=16)
    vocab = build_vocabulary([p.lyric for p in corpus])
    gen = train_generator(corpus, vocab, history=2, k=0.05)
    lm = train_char_ngram(
        [lyric_lm_text(render_text(p.lyric)) for p in corpus], order=4, k=0.1
    )
    return corpus, gen, lm


@criterion(1, "generate defaults to lambda_lm=0.75 / lambda_gen=0.25 (header echo)")
def test_criterion_01_fusion_defaults(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(12, seed=1, min_syllables=5, max_syllables=8), corpus_path)
    melody_path = tmp_path / "melody.txt"
    melody_path.write_text("60:1:0 62:1:0 64:1:0 65:1:0\n")
    lm_path, gen_path = str(tmp_path / "lm.json"), str(tmp_path / "gen.json")
    assert main(["train-lm", "--corpus", str(corpus_path), "--out", lm_path]) == 0
    assert main(["train-generator", "--corpus", str(corpus_path), "--out", gen_path]) == 0
    capsys.readouterr()
    assert (
        main(["generate", "--melody", str(melody_path), "--generator", gen_path, "--lm", lm_path])
        == 0
    )
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    assert header["config"]["lambda_lm"] == 0.75
    assert header["config"]["lambda_gen"] == 0.25


@criterion(2, "worked fusion example re-ranks 'ideas' first at 0.50 +- 1e-9")
def test_criterion_02_worked_example():
    vocab = Vocabulary(["any", "big", "don't", "ger", "get", "ideas"])
    history = ("don't", "get", "any", "big")
    gen = StubGenerator(vocab, {history: {"ger": 0.3, "ideas": 0.2}})

    class FixedLM(Batched):
        def score_with_spacing(self, context, syllable):
            if syllable == "ideas":
                return ContinuationScore(0.6, SPACED)
            return ContinuationScore(0.1, UNSPACED)  # below the 0.167 break-even

    parent = word_beam(list(history))
    config = FusionConfig(beam_size=2, lambda_lm=0.75)
    beams = expand_step([parent], gen, FixedLM(), melody_of(6), 4, config)
    assert beams[0].tokens[-1].text == "ideas"
    assert abs(beams[0].cumulative - 0.50) <= 1e-9
    assert abs(beams[1].cumulative - 0.15) <= 1e-9


@criterion(3, "expand_step equals materialize-and-sort reference on 200 random instances")
def test_criterion_03_beam_step_oracle():
    rnd = random.Random(424242)
    for _ in range(200):
        n_texts = rnd.randint(2, 7)  # plus the end token: at most 8 candidates
        texts = [f"s{chr(ord('a') + i)}" for i in range(n_texts)]
        vocab = Vocabulary(texts)
        gen = RandomTableGenerator(vocab, rnd.randrange(10**9), eos_weight=rnd.choice([0.0, 0.1]))
        lm = RandomLM(rnd.randrange(10**9))
        beam_size = rnd.randint(1, 4)
        lambda_lm = rnd.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        config = FusionConfig(
            beam_size=beam_size, lambda_lm=lambda_lm, max_len=10
        )
        parents = []
        n_parents = rnd.randint(1, beam_size)
        for i in range(n_parents):
            tokens = [rnd.choice(texts) for _ in range(rnd.randint(1, 3))]
            finished = rnd.random() < 0.2 and i < n_parents - 1
            parents.append(word_beam(tokens, cumulative=rnd.uniform(0.0, 2.0), finished=finished))
        if all(p.finished for p in parents):
            parents[0] = word_beam([texts[0]], cumulative=0.5)
        melody = melody_of(rnd.randint(5, 8))
        t = rnd.randint(1, 4)
        got = expand_step(parents, gen, lm, melody, t, config)
        assert project(got) == reference_expand(parents, gen, lm, melody, t, config)


@criterion(4, "decode with beam 27 attains the brute-force optimum for V=3, L=3")
def test_criterion_04_global_optimum():
    vocab = Vocabulary(["la", "mi", "so"])
    gen = RandomTableGenerator(vocab, seed=12345, eos_weight=0.0)
    lm = SpacedRandomLM(seed=54321, eos_score=0.0)
    melody = melody_of(3)
    config = FusionConfig(beam_size=27, lambda_lm=0.75, max_len=3)
    results = decode(melody, gen, lm, config)
    best_seq, best_score = brute_force_decode(melody, gen, lm, config, 3)
    assert tuple(t.text for t in results[0].lyric.syllables()) == best_seq
    assert results[0].cumulative == best_score


@criterion(5, "lambda_lm=0 equals generator-only search; constant LM picks the same tokens")
def test_criterion_05_degeneracy(tmp_path):
    corpus, gen, lm = trained_models(tmp_path)

    def generator_only_search(melody, beam_size, max_len):
        # independent reference: plain cumulative-probability beam search
        dist = gen.next_distribution([], melody.notes[0])
        ranked = sorted(dist.items(), key=lambda kv: (-kv[1], gen.vocab.id_of(kv[0])))
        beams = []
        for text, prob in ranked[: min(beam_size, len(ranked))]:
            beams.append(([text], prob, text == EOS_TEXT))
        limit = min(max_len, len(melody.notes))
        for t in range(1, limit):
            if all(b[2] for b in beams):
                break
            pool = []
            for parent, (seq, cum, fin) in enumerate(beams):
                if fin:
                    pool.append((cum, parent, -1, seq, True))
                    continue
                history = [SyllableToken(s, True) for s in seq]
                dist = gen.next_distribution(history, melody.notes[t])
                ranked = sorted(dist.items(), key=lambda kv: (-kv[1], gen.vocab.id_of(kv[0])))
                for text, prob in ranked[:beam_size]:
                    pool.append(
                        (cum + prob, parent, gen.vocab.id_of(text), seq + [text], text == EOS_TEXT)
                    )
            pool.sort(key=lambda e: (-e[0], e[1], e[2]))
            beams = [(seq, cum, fin) for cum, _, _, seq, fin in pool[:beam_size]]
        out = []
        for seq, cum, fin in beams:
            syllables = [s for s in seq if s != EOS_TEXT]
            out.append((tuple(syllables), cum))
        out.sort(key=lambda item: -item[1])
        return out

    for trial in range(5):
        melody = make_melody(random.Random(trial), 10)
        for beam_size in (1, 3, 5):
            config0 = FusionConfig(beam_size=beam_size, lambda_lm=0.0, max_len=10)
            got = decode(melody, gen, None, config0)
            want = generator_only_search(melody, beam_size, 10)
            assert [tuple(t.text for t in r.lyric.syllables()) for r in got] == [
                seq for seq, _ in want
            ]
            # a constant LM shifts every same-step expansion equally
            config_c = FusionConfig(
                beam_size=beam_size, lambda_lm=0.75, max_len=10
            )
            constant = decode(melody, gen, ConstantLM(0.37), config_c)
            assert [tuple(t.text for t in r.lyric.tokens) for r in constant] == [
                tuple(t.text for t in r.lyric.tokens) for r in got
            ]


@criterion(6, "builder reproduces the worked dataset rows; counts match within 3 sigma")
def test_criterion_06_dataset_builder(tmp_path):
    phone = parse_lyric_line("i _know _why _your _mean _to _me _when _i _call _on _the _tel e phone")
    syllables = phone.syllables()

    # deterministic rows under default rates, any seed, checked against the
    # literal TSV serialization
    rows = []
    build_dataset([phone], BuilderConfig(seed=99), rows.append)
    tsv_path = tmp_path / "phone.tsv"
    tsv_path.write_text("".join(map(nsp_line, rows)), encoding="utf-8")
    tsv_lines = set(tsv_path.read_text(encoding="utf-8").splitlines())
    for i in range(1, len(syllables)):
        context = render_text(LyricSequence(syllables[:i]))
        marker = candidate_marker(syllables[i].text, syllables[i].word_initial)
        assert f"{context}\t{marker}\t1" in tsv_lines
    assert "i know why your mean to me when\t_i\t1" in tsv_lines
    assert "i know why your mean to me when i call on the telephone\t<eos>\t1" in tsv_lines
    assert "i\tknow\t0" in tsv_lines
    assert "i know\twhy\t0" in tsv_lines
    assert "i know why\tyour\t0" in tsv_lines

    # with every rule forced on, the wrong-spacing row for position 8 appears
    forced = []
    build_dataset(
        [phone],
        BuilderConfig(spacing_negative_rate=1.0, context_swap_rate=1.0, swap_space_rate=1.0, seed=1),
        forced.append,
    )
    assert NspExample("i know why your mean to me when", "i", 0) in forced

    # empirical counts across 10,000 positions at the published rates
    corpus = [p.lyric for p in make_corpus(1000, seed=63, min_syllables=10, max_syllables=10)]
    assert sum(len(l.syllables()) for l in corpus) == 10000
    config = BuilderConfig(seed=20240817)
    emitted = []
    summary = build_dataset(corpus, config, emitted.append)
    mean, sigma = expected_dataset_size(corpus, config)
    assert abs(summary["total"] - mean) <= 3 * sigma


@criterion(7, "dataset building, training, and decoding are byte-identical across reruns")
def test_criterion_07_determinism(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(30, seed=7, min_syllables=6, max_syllables=12), corpus_path)
    melody_path = tmp_path / "melody.txt"
    melody_path.write_text("60:1:0 62:0.5:0 64:1:0.5 65:1:0 67:2:0 69:1:0\n")

    def run_twice(command, extra=()):
        captured = []
        for tag in ("x", "y"):
            out = str(tmp_path / f"{command}-{tag}.out")
            argv = [command, "--corpus", str(corpus_path), "--out", out, *extra]
            assert main(argv) == 0
            stdout = capsys.readouterr().out.replace(out, "OUT")
            with open(out, "rb") as fh:
                captured.append((stdout, fh.read()))
        assert captured[0] == captured[1]

    run_twice("build-nsp-dataset", ["--seed", "7"])
    run_twice("train-lm")
    run_twice("train-generator")
    capsys.readouterr()
    generate = [
        "generate",
        "--melody",
        str(melody_path),
        "--generator",
        str(tmp_path / "train-generator-x.out"),
        "--lm",
        str(tmp_path / "train-lm-x.out"),
        "--trace",
    ]
    assert main(generate) == 0
    first = capsys.readouterr().out
    assert main(generate) == 0
    second = capsys.readouterr().out
    assert first == second


@criterion(8, "metric oracles: hand counts, brute-force LCS, independent BLEU")
def test_criterion_08_metrics():
    result = rouge_n(["a", "b", "c"], ["a", "b", "d"], 1)
    assert abs(result["f1"] - 2 / 3) <= 1e-12

    rnd = random.Random(88)
    for _ in range(100):
        cand = random_tokens(rnd, 8)
        ref = random_tokens(rnd, 8)
        lcs = brute_force_lcs(cand, ref)
        got = rouge_l(cand, ref)
        if lcs == 0:
            assert got["f1"] == 0.0
        else:
            assert abs(got["precision"] - lcs / len(cand)) <= 1e-12
            assert abs(got["recall"] - lcs / len(ref)) <= 1e-12

    for _ in range(10):
        cand = random_tokens(rnd, 10)
        ref = random_tokens(rnd, 10)
        for n in (2, 3, 4):
            assert abs(sentence_bleu(cand, ref, n) - reference_bleu(cand, ref, n)) <= 1e-9

    tokens = ["la", "mi", "so", "fa", "re"]
    assert rouge_n(tokens, tokens, 1)["f1"] == 1.0
    assert rouge_n(tokens, tokens, 2)["f1"] == 1.0
    assert rouge_l(tokens, tokens)["f1"] == 1.0
    for n in (2, 3, 4):
        assert abs(sentence_bleu(tokens, tokens, n) - 1.0) <= 1e-12


@criterion(9, "LM contracts: distributions normalize, spacing max exact, oracle accuracy 1.0")
def test_criterion_09_lm_contracts():
    corpus = make_corpus(50, seed=909, min_syllables=6, max_syllables=14)
    model = train_char_ngram(
        [lyric_lm_text(render_text(p.lyric)) for p in corpus], order=4, k=0.2
    )
    rnd = random.Random(910)
    alphabet = DEFAULT_ALPHABET
    for _ in range(1000):
        context = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 7)))
        total = sum(model.conditional_distribution(context).values())
        assert abs(total - 1.0) <= 1e-9

    for _ in range(200):
        context = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 7)))
        syllable = "".join(rnd.choice("abcdefgh'") for _ in range(rnd.randint(1, 4)))
        got = model.score_with_spacing(context, syllable)
        assert got.value == max(
            model.score_continuation(context, syllable),
            model.score_continuation(context, " " + syllable),
        )

    lyrics = [p.lyric for p in corpus[:20]]
    examples = []
    build_dataset(lyrics, BuilderConfig(seed=11), examples.append)
    labels = iter([float(ex.label) for ex in examples])
    result = nsp_accuracy(lambda c, s: next(labels), examples)
    assert result["accuracy"] == 1.0
    assert result["auc"] == 1.0


@criterion(10, "end-to-end: train, decode a 20-note melody, audit, evaluate")
def test_criterion_10_end_to_end(tmp_path):
    corpus, gen, lm = trained_models(tmp_path, n_pairs=100, seed=1001)
    melody = make_melody(random.Random(1002), 20)
    results = decode(melody, gen, lm, FusionConfig(beam_size=5, max_len=20))
    assert len(results) == 5
    for result in results:
        assert result.lyric.tokens[-1].is_eos
        assert len(result.lyric.syllables()) <= 20
    assert audit_trace(results)

    references = [p.lyric for p in corpus[:5]]
    pairs = [
        EvalPair(result.lyric, reference)
        for result, reference in zip(results, references)
    ]
    report = corpus_eval(pairs)
    for value in report.to_dict().values():
        assert math.isfinite(value)
        assert value >= 0.0
