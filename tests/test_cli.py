import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from syllabeam.beam import FusionConfig
from syllabeam.cli import build_parser, main
from syllabeam.corpus import write_aligned_corpus

from conftest import make_corpus


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_aligned_corpus(make_corpus(40, seed=101, min_syllables=6, max_syllables=14), path)
    return str(path)


@pytest.fixture
def melody_path(tmp_path):
    path = tmp_path / "melody.txt"
    path.write_text("60:1:0 62:0.5:0 64:1:0.5 65:1:0 67:2:0 65:1:0 64:0.5:0 62:1:0.5\n")
    return str(path)


@pytest.fixture
def models(tmp_path, corpus_path, capsys):
    lm_path = str(tmp_path / "lm.json")
    gen_path = str(tmp_path / "gen.json")
    assert main(["train-lm", "--corpus", corpus_path, "--out", lm_path]) == 0
    assert main(["train-generator", "--corpus", corpus_path, "--out", gen_path]) == 0
    capsys.readouterr()
    return lm_path, gen_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def header_of(out):
    return json.loads(out.splitlines()[0])


class TestBuildNspDataset:
    def test_deterministic_across_runs(self, tmp_path, corpus_path, capsys):
        out1, out2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        code1, stdout1 = run(
            capsys, ["build-nsp-dataset", "--corpus", corpus_path, "--out", out1, "--seed", "7"]
        )
        code2, stdout2 = run(
            capsys, ["build-nsp-dataset", "--corpus", corpus_path, "--out", out2, "--seed", "7"]
        )
        assert code1 == code2 == 0
        with open(out1, "rb") as a, open(out2, "rb") as b:
            assert a.read() == b.read()
        assert stdout1.replace(out1, "") == stdout2.replace(out2, "")

    def test_default_rates_echoed(self, tmp_path, corpus_path, capsys):
        out = str(tmp_path / "d.tsv")
        code, stdout = run(capsys, ["build-nsp-dataset", "--corpus", corpus_path, "--out", out])
        assert code == 0
        config = header_of(stdout)["config"]
        assert config["spacing_negative_rate"] == 0.6
        assert config["context_swap_rate"] == 0.4
        assert config["swap_space_rate"] == 0.5
        summary = json.loads(stdout.splitlines()[1])
        assert summary["total"] == summary["positives"] + summary["negatives"]

    def test_bad_rate_is_usage_error(self, tmp_path, corpus_path, capsys):
        code, _ = run(
            capsys,
            [
                "build-nsp-dataset",
                "--corpus",
                corpus_path,
                "--out",
                str(tmp_path / "x.tsv"),
                "--spacing-negative-rate",
                "1.5",
            ],
        )
        assert code == 2

    def test_missing_corpus(self, tmp_path, capsys):
        code, _ = run(
            capsys,
            ["build-nsp-dataset", "--corpus", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "x.tsv")],
        )
        assert code == 2


class TestTrain:
    def test_retrain_identical_files(self, tmp_path, corpus_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["train-lm", "--corpus", corpus_path, "--out", a]) == 0
        assert main(["train-lm", "--corpus", corpus_path, "--out", b]) == 0
        capsys.readouterr()
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

        ga, gb = str(tmp_path / "ga.json"), str(tmp_path / "gb.json")
        assert main(["train-generator", "--corpus", corpus_path, "--out", ga]) == 0
        assert main(["train-generator", "--corpus", corpus_path, "--out", gb]) == 0
        capsys.readouterr()
        with open(ga, "rb") as fa, open(gb, "rb") as fb:
            assert fa.read() == fb.read()

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        code, _ = run(
            capsys, ["train-lm", "--corpus", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["train-lm", "build-nsp-dataset"])
    def test_out_in_a_missing_directory_exits_1(self, tmp_path, corpus_path, capsys, command):
        out = tmp_path / "missing" / "out"
        code = main([command, "--corpus", corpus_path, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: [Errno 2] ") and captured.err.count("\n") == 1

    def test_order_zero_usage_error(self, tmp_path, corpus_path, capsys):
        code, _ = run(
            capsys,
            ["train-lm", "--corpus", corpus_path, "--out", str(tmp_path / "m.json"), "--order", "0"],
        )
        assert code == 2

    @pytest.mark.parametrize("command, flag", [("train-lm", "--order"), ("train-generator", "--history")])
    @pytest.mark.parametrize("value", ["33", "1000000"])
    def test_a_size_past_the_bound_is_rejected(self, tmp_path, corpus_path, capsys, command, flag, value):
        # the constructor rejects it before anything of that size is built
        out = tmp_path / "out"
        code = main([command, "--corpus", corpus_path, "--out", str(out), flag, value])
        captured = capsys.readouterr()
        name = flag.removeprefix("--")
        assert (code, captured.out, captured.err) == (2, "", f"error: {name} must be <= 32\n")
        assert not out.exists()


class TestGenerate:
    def test_default_lambdas_echoed(self, melody_path, models, capsys):
        lm_path, gen_path = models
        code, stdout = run(
            capsys, ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        )
        assert code == 0
        config = header_of(stdout)["config"]
        assert config["lambda_lm"] == 0.75
        assert config["lambda_gen"] == 0.25
        assert config["beam_size"] == 5
        assert config["max_len"] == 20

    def test_results_are_ranked_json(self, melody_path, models, capsys):
        lm_path, gen_path = models
        code, stdout = run(
            capsys,
            ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path, "--trace"],
        )
        assert code == 0
        lines = stdout.splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert [r["rank"] for r in records] == list(range(1, len(records) + 1))
        scores = [r["score"] for r in records]
        assert scores == sorted(scores, reverse=True)
        assert all("trace" in r and "text" in r and "syllables" in r for r in records)

    def test_greedy_generator_only(self, melody_path, models, capsys):
        _, gen_path = models
        code, stdout = run(
            capsys,
            [
                "generate",
                "--melody",
                melody_path,
                "--generator",
                gen_path,
                "--lambda-lm",
                "0",
                "--beam-size",
                "1",
            ],
        )
        assert code == 0
        records = [json.loads(line) for line in stdout.splitlines()[1:]]
        assert len(records) == 1

    def test_lambda_gen_is_not_a_setting(self, melody_path, models, capsys):
        """The generator weight is 1 - lambda_lm, so no flag sets it."""
        lm_path, gen_path = models
        argv = ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        assert main([*argv, "--lambda-gen", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --lambda-gen" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
    def test_lambda_lm_outside_unit_interval(self, melody_path, models, capsys, value):
        lm_path, gen_path = models
        argv = ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        assert main([*argv, "--lambda-lm", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lambda_lm must be in [0, 1], got {float(value)!r}\n"

    @pytest.mark.parametrize("value", ["0.3", "0.1", "1"])
    def test_lambda_gen_echo_is_lambda_lms_complement(self, melody_path, models, capsys, value):
        lm_path, gen_path = models
        argv = ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        code, stdout = run(capsys, [*argv, "--lambda-lm", value])
        assert code == 0
        config = header_of(stdout)["config"]
        assert (config["lambda_lm"], config["lambda_gen"]) == (float(value), 1.0 - float(value))

    def test_deterministic(self, melody_path, models, capsys):
        lm_path, gen_path = models
        argv = ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda counts: counts.__setitem__("zzz", 1), "not an emittable vocabulary entry"),
            (lambda counts: counts.__setitem__("<eos>", 1.7), "is not a non-negative integer"),
            (lambda counts: counts.__setitem__("<eos>", True), "is not a non-negative integer"),
        ],
    )
    def test_corrupt_generator_counts(self, melody_path, models, capsys, edit, message):
        lm_path, gen_path = models
        with open(gen_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        edit(payload["hist_bucket"][0][-1])
        with open(gen_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code = main(["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("note", ["60:1:nan", "60:inf:0"])
    def test_non_finite_melody(self, tmp_path, models, capsys, note):
        lm_path, gen_path = models
        path = tmp_path / "bad_melody.txt"
        path.write_text("62:1:0 " + note + "\n")
        code = main(["generate", "--melody", str(path), "--generator", gen_path, "--lm", lm_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be finite" in captured.err

    def test_lm_required_when_weighted(self, melody_path, models, capsys):
        _, gen_path = models
        code, _ = run(capsys, ["generate", "--melody", melody_path, "--generator", gen_path])
        assert code == 2

    def test_failed_trace_audit_exits_1_and_prints_nothing(self, melody_path, models, capsys, monkeypatch):
        lm_path, gen_path = models
        monkeypatch.setattr("syllabeam.cli.audit_trace", lambda results: False)
        code = main(["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: trace audit failed\n")

    def test_defaults_are_fusion_configs(self):
        args = build_parser().parse_args(["generate", "--melody", "melody.txt", "--generator", "gen.json"])
        config = FusionConfig()
        settings = [field.name for field in fields(FusionConfig) if field.init]
        assert [(getattr(args, name), type(getattr(args, name))) for name in settings] == [
            (getattr(config, name), type(getattr(config, name))) for name in settings
        ]


class TestEvaluate:
    def test_identical_files_all_ones(self, tmp_path, capsys):
        # lines need at least 4 syllables for 4-gram precision to exist
        lines = "la _mi _so _fa _re\nfa _re _do _ti _ru\n"
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text(lines)
        ref.write_text(lines)
        code, stdout = run(
            capsys, ["evaluate", "--candidates", str(cand), "--references", str(ref), "--json"]
        )
        assert code == 0
        report = json.loads(stdout.splitlines()[-1])
        for key in ("rouge1", "rouge2", "rougeL", "bleu2", "bleu3", "bleu4"):
            assert report[key] == pytest.approx(1.0)

    def test_line_count_mismatch(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("la _mi\n")
        ref.write_text("la _mi\nfa _re\n")
        code, _ = run(capsys, ["evaluate", "--candidates", str(cand), "--references", str(ref)])
        assert code == 2

    @pytest.mark.parametrize("cand_lines, ref_lines", [(2, 1), (1, 2)])
    def test_line_count_mismatch_names_both_files(self, tmp_path, capsys, cand_lines, ref_lines):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("la _mi\n\n" * cand_lines)  # empty lines are skipped, not counted
        ref.write_text("fa _re\n" * ref_lines)
        code = main(["evaluate", "--candidates", str(cand), "--references", str(ref)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {cand}: {cand_lines} lyric lines, but {ref_lines} in {ref}\n"

    def test_sample_lyrics_score_in_range(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("you got ta treat me to may be un der stand you\n")
        ref.write_text("in their mas que rade no the out to get you\n")
        code, stdout = run(
            capsys, ["evaluate", "--candidates", str(cand), "--references", str(ref), "--json"]
        )
        assert code == 0
        report = json.loads(stdout.splitlines()[-1])
        for key in ("rouge1", "rouge2", "rougeL", "bleu2", "bleu3", "bleu4"):
            assert 0.0 <= report[key] <= 1.0

    def test_reference_without_syllables_names_its_line(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("la _mi\nfa _re\n")
        ref.write_text("la _mi\n<eos>\n")
        code = main(["evaluate", "--candidates", str(cand), "--references", str(ref)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {ref}:2: reference must have at least one syllable\n"

    def test_no_pairs_is_usage_error(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("")
        ref.write_text("\n\n")  # empty lines are skipped, leaving none
        code = main(["evaluate", "--candidates", str(cand), "--references", str(ref)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {cand}: no lyric lines, and none in {ref}\n"

    def test_table_output(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("la _mi\n")
        ref.write_text("la _mi\n")
        code, stdout = run(capsys, ["evaluate", "--candidates", str(cand), "--references", str(ref)])
        assert code == 0
        assert "rouge-1 f" in stdout


class TestNspEval:
    def test_lm_scorer_runs(self, tmp_path, corpus_path, models, capsys):
        lm_path, _ = models
        tsv = str(tmp_path / "data.tsv")
        assert main(["build-nsp-dataset", "--corpus", corpus_path, "--out", tsv, "--seed", "3"]) == 0
        capsys.readouterr()
        code, stdout = run(capsys, ["nsp-eval", "--dataset", tsv, "--lm", lm_path])
        assert code == 0
        assert header_of(stdout)["config"]["lm"] == lm_path
        result = json.loads(stdout.splitlines()[-1])
        assert 0.0 <= result["accuracy"] <= 1.0
        assert 0.0 <= result["auc"] <= 1.0

    @pytest.mark.parametrize("threshold", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_threshold(self, tmp_path, corpus_path, models, capsys, threshold):
        lm_path, _ = models
        tsv = str(tmp_path / "data.tsv")
        assert main(["build-nsp-dataset", "--corpus", corpus_path, "--out", tsv, "--seed", "3"]) == 0
        capsys.readouterr()
        code = main(["nsp-eval", "--dataset", tsv, "--lm", lm_path, f"--threshold={threshold}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must be finite")
        assert captured.err.count("\n") == 1

    def test_scorer_is_not_an_option(self, tmp_path, models, capsys):
        """nsp-eval scores through the LM alone: `--scorer` is argparse's
        unrecognised-argument error, reported before anything is read."""
        lm_path, _ = models
        tsv = str(tmp_path / "missing.tsv")
        code = main(["nsp-eval", "--dataset", tsv, "--lm", lm_path, "--scorer", "lm"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("usage: syllabeam")
        assert captured.err.endswith("error: unrecognized arguments: --scorer lm\n")


class TestEmitPrompt:
    def make_sets(self, tmp_path):
        args = []
        for name in ("reference", "baseline", "fused"):
            path = tmp_path / f"{name}.txt"
            path.write_text("la mi so\nfa re do\n")
            args += ["--set", f"{name}={path}"]
        return args

    def test_contains_criteria_phrase(self, tmp_path, capsys):
        code, stdout = run(capsys, ["emit-prompt", *self.make_sets(tmp_path)])
        assert code == 0
        assert "naturality, correctness, coherence (staying on topic)" in stdout

    def test_annotated_variant(self, tmp_path, capsys):
        code, stdout = run(
            capsys, ["emit-prompt", *self.make_sets(tmp_path), "--variant", "annotated"]
        )
        assert code == 0
        assert "syllable-split" in stdout

    def test_set_without_a_file_is_usage_error(self, tmp_path, capsys):
        args = self.make_sets(tmp_path)
        args[3] = "a"
        code = main(["emit-prompt", *args])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: --set expects NAME=FILE, got 'a'\n")

    def test_two_sets_usage_error(self, tmp_path, capsys):
        args = self.make_sets(tmp_path)[:4]
        code, _ = run(capsys, ["emit-prompt", *args])
        assert code == 2

    @pytest.mark.parametrize(
        "lines, lineno, message",
        [
            ("la mi\nLA bad\xa0x\n", 2, "illegal syllable text: 'LA'"),
            ("\nla <eos> mi\n", 2, "<eos> only allowed in final position"),
            ("la\n\n  \nla\tmi\nmi\u2003so\n", 3, "empty lyric line"),
            ("la\n\nla\tmi\nmi\u2003so\n", 4, "illegal syllable text: 'mi\\u2003so'"),
            ("la mi\n \t \n", 2, "empty lyric line"),
            ("la mi\n\x0c\n", 2, "illegal syllable text: '\\x0c'"),
        ],
    )
    def test_bad_lyric_line_names_its_line(self, tmp_path, capsys, lines, lineno, message):
        args = self.make_sets(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text(lines, encoding="utf-8")
        args[3] = f"baseline={bad}"
        code = main(["emit-prompt", *args])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {bad}:{lineno}: {message}\n"

    def test_lines_are_copied_as_written(self, tmp_path, capsys):
        args = self.make_sets(tmp_path)
        odd = tmp_path / "odd.txt"
        odd.write_text("\n la  _mi\tso <eos>\n\n\nfa\n", encoding="utf-8")
        args[3] = f"baseline={odd}"
        code, stdout = run(capsys, ["emit-prompt", *args])
        assert code == 0
        assert "=== baseline ===\n la  _mi\tso <eos>\nfa\n\n=== fused ===" in stdout

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "prompt.txt"
        code, _ = run(capsys, ["emit-prompt", *self.make_sets(tmp_path), "--out", str(out)])
        assert code == 0
        assert "Is it clear?" in out.read_text()


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_readme_synopsis_lists_every_option(self):
        """The README's CLI synopsis has one line per command, naming exactly
        that command's options."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        synopsis = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = {line.split()[1]: line for line in synopsis.splitlines()}
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(lines) == sorted(sub.choices)
        for command, parser in sub.choices.items():
            options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
            assert set(re.findall(r"--[a-z-]+", lines[command])) == options - {"--help"}, command

    def test_readme_names_only_real_options(self):
        """Every --option README.md names, in prose too, is an option of some
        command, of pip or of perfbench."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {o for parser in sub.choices.values() for a in parser._actions for o in a.option_strings}
        others = {"--no-build-isolation", "--workload", "--seconds"}
        assert set(re.findall(r"--[a-z][a-z-]*", readme)) - options - others == set()

    @pytest.mark.parametrize(
        "command", ["train-lm", "train-generator", "build-nsp-dataset", "generate", "evaluate", "nsp-eval"]
    )
    def test_config_is_not_an_option(self, tmp_path, corpus_path, melody_path, models, capsys, command):
        """Settings are flags only: `--config FILE` is an unknown argument, even
        when FILE exists."""
        lm_path, gen_path = models
        lines = tmp_path / "lines.txt"
        lines.write_text("la _mi _so\nfa _re\n")
        tsv = tmp_path / "data.tsv"
        tsv.write_text("la\t_mi\t1\n")
        out = tmp_path / "out"
        argv = {
            "train-lm": ["--corpus", corpus_path, "--out", str(out)],
            "train-generator": ["--corpus", corpus_path, "--out", str(out)],
            "build-nsp-dataset": ["--corpus", corpus_path, "--out", str(out)],
            "generate": ["--melody", melody_path, "--generator", gen_path, "--lm", lm_path],
            "evaluate": ["--candidates", str(lines), "--references", str(lines)],
            "nsp-eval": ["--dataset", str(tsv), "--lm", lm_path],
        }[command]
        config_file = tmp_path / "run.cfg"
        config_file.write_text("# no settings\n")
        code = main([command, *argv, "--config", str(config_file)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "unrecognized arguments: --config" in captured.err
        assert not out.exists()
