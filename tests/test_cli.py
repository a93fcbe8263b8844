import argparse
import json
import re
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

    def test_order_zero_usage_error(self, tmp_path, corpus_path, capsys):
        code, _ = run(
            capsys,
            ["train-lm", "--corpus", corpus_path, "--out", str(tmp_path / "m.json"), "--order", "0"],
        )
        assert code == 2


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

    def test_lambda_gen_is_not_a_setting(self, tmp_path, melody_path, models, capsys):
        """The generator weight is 1 - lambda_lm, so neither a flag nor a
        config key sets it."""
        lm_path, gen_path = models
        argv = ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        assert main([*argv, "--lambda-gen", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --lambda-gen" in captured.err
        config_file = tmp_path / "run.cfg"
        config_file.write_text("lambda_gen=0.3\n")
        assert main([*argv, "--config", str(config_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {config_file}:1: key 'lambda_gen' unknown")
        assert captured.err.count("\n") == 1

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
        edit(payload["unigram"])
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

    def test_config_file_and_flag_precedence(self, tmp_path, melody_path, models, capsys):
        lm_path, gen_path = models
        config_file = tmp_path / "run.cfg"
        config_file.write_text("beam_size=2\nlambda_lm=0.5\n# comment\n")
        code, stdout = run(
            capsys,
            [
                "generate",
                "--melody",
                melody_path,
                "--generator",
                gen_path,
                "--lm",
                lm_path,
                "--config",
                str(config_file),
            ],
        )
        assert code == 0
        config = header_of(stdout)["config"]
        assert config["beam_size"] == 2
        assert config["lambda_lm"] == 0.5
        assert config["lambda_gen"] == 0.5

        code, stdout = run(
            capsys,
            [
                "generate",
                "--melody",
                melody_path,
                "--generator",
                gen_path,
                "--lm",
                lm_path,
                "--config",
                str(config_file),
                "--beam-size",
                "3",
            ],
        )
        assert code == 0
        assert header_of(stdout)["config"]["beam_size"] == 3

    def test_config_file_sets_its_own_call_only(self, tmp_path, melody_path, models, capsys):
        """`main` parses with one parser per process, so the defaults a config
        file sets must not outlive its call."""
        lm_path, gen_path = models
        config_file = tmp_path / "run.cfg"
        config_file.write_text("beam_size=2\nlambda_lm=0.5\n")
        argv = ["generate", "--melody", melody_path, "--generator", gen_path, "--lm", lm_path]
        code, stdout = run(capsys, [*argv, "--config", str(config_file)])
        assert code == 0
        assert header_of(stdout)["config"]["beam_size"] == 2
        code, stdout = run(capsys, argv)
        assert code == 0
        config = header_of(stdout)["config"]
        assert (config["beam_size"], config["lambda_lm"], config["lambda_gen"]) == (
            FusionConfig.beam_size, FusionConfig.lambda_lm, 1.0 - FusionConfig.lambda_lm
        )


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
        ref.write_text("\n\n")  # trailing blank lines are dropped, leaving none
        code = main(["evaluate", "--candidates", str(cand), "--references", str(ref)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: no evaluation pairs\n")

    def test_table_output(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("la _mi\n")
        ref.write_text("la _mi\n")
        code, stdout = run(capsys, ["evaluate", "--candidates", str(cand), "--references", str(ref)])
        assert code == 0
        assert "rouge-1 f" in stdout


class TestNspEval:
    def test_oracle_scorer_perfect(self, tmp_path, corpus_path, capsys):
        tsv = str(tmp_path / "data.tsv")
        assert main(["build-nsp-dataset", "--corpus", corpus_path, "--out", tsv, "--seed", "3"]) == 0
        capsys.readouterr()
        code, stdout = run(capsys, ["nsp-eval", "--dataset", tsv, "--scorer", "oracle"])
        assert code == 0
        result = json.loads(stdout.splitlines()[-1])
        assert result["accuracy"] == 1.0
        assert result["auc"] == 1.0

    def test_lm_scorer_runs(self, tmp_path, corpus_path, models, capsys):
        lm_path, _ = models
        tsv = str(tmp_path / "data.tsv")
        assert main(["build-nsp-dataset", "--corpus", corpus_path, "--out", tsv, "--seed", "3"]) == 0
        capsys.readouterr()
        code, stdout = run(capsys, ["nsp-eval", "--dataset", tsv, "--lm", lm_path])
        assert code == 0
        result = json.loads(stdout.splitlines()[-1])
        assert 0.0 <= result["accuracy"] <= 1.0
        assert 0.0 <= result["auc"] <= 1.0

    @pytest.mark.parametrize("threshold", ["nan", "NaN", "inf", "-inf"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_non_finite_threshold(self, tmp_path, corpus_path, capsys, threshold, route):
        tsv = str(tmp_path / "data.tsv")
        assert main(["build-nsp-dataset", "--corpus", corpus_path, "--out", tsv, "--seed", "3"]) == 0
        capsys.readouterr()
        argv = ["nsp-eval", "--dataset", tsv, "--scorer", "oracle"]
        if route == "flag":
            argv += [f"--threshold={threshold}"]
        else:
            config_file = tmp_path / "eval.cfg"
            config_file.write_text(f"threshold={threshold}\n")
            argv += ["--config", str(config_file)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must be finite")
        assert captured.err.count("\n") == 1


class TestConfigFile:
    # command, config value, echoed key, value the file sets, a flag for the
    # same key, value the flag sets over the file
    CASES = [
        ("build-nsp-dataset", "swap_space_rate=0.25", "swap_space_rate", 0.25, ["--swap-space-rate", "0.75"], 0.75),
        ("train-lm", "order=3", "order", 3, ["--order", "2"], 2),
        ("train-generator", "history=1", "history", 1, ["--history", "3"], 3),
        ("generate", "max_len=6", "max_len", 6, ["--max-len", "4"], 4),
        ("evaluate", "word_level=yes", "word_level", True, ["--word-level"], True),
        ("evaluate", "word_level=no", "word_level", False, ["--word-level"], True),
        ("nsp-eval", "scorer=oracle", "scorer", "oracle", ["--scorer", "lm"], "lm"),
    ]

    @pytest.fixture
    def argv_of(self, tmp_path, corpus_path, melody_path, models, capsys):
        lm_path, gen_path = models
        tsv = str(tmp_path / "data.tsv")
        assert main(["build-nsp-dataset", "--corpus", corpus_path, "--out", tsv, "--seed", "3"]) == 0
        capsys.readouterr()
        lines = tmp_path / "lines.txt"
        lines.write_text("la _mi _so\nfa _re\n")
        train = ["--corpus", corpus_path, "--out", str(tmp_path / "out")]
        return {
            "build-nsp-dataset": train,
            "train-lm": train,
            "train-generator": train,
            "generate": ["--melody", melody_path, "--generator", gen_path, "--lm", lm_path],
            "evaluate": ["--candidates", str(lines), "--references", str(lines)],
            "nsp-eval": ["--dataset", tsv, "--lm", lm_path],
        }

    @pytest.mark.parametrize("command, line, key, from_file, flag, from_flag", CASES)
    def test_file_sets_the_default_and_a_flag_wins(
        self, tmp_path, capsys, argv_of, command, line, key, from_file, flag, from_flag
    ):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(line + "\n")
        argv = [command, *argv_of[command], "--config", str(config_file)]
        code, stdout = run(capsys, argv)
        assert code == 0
        assert header_of(stdout)["config"][key] == from_file
        code, stdout = run(capsys, argv + flag)
        assert code == 0
        assert header_of(stdout)["config"][key] == from_flag

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("nsp-eval", "scorer=bogus", "key 'scorer': expected lm or oracle, got 'bogus'"),
            ("evaluate", "json=maybe", "key 'json': expected a boolean, got 'maybe'"),
            ("train-lm", "order=x", "key 'order': not an ASCII decimal int: 'x'"),
        ],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, argv_of, command, line, message):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(line + "\n")
        code = main([command, *argv_of[command], "--config", str(config_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {config_file}:1: {message}\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_path(self, tmp_path, corpus_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        out = tmp_path / "lm.json"
        code = main(["train-lm", "--corpus", corpus_path, "--out", str(out), "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"error: config file not found: {path}\n"


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

    def test_two_sets_usage_error(self, tmp_path, capsys):
        args = self.make_sets(tmp_path)[:4]
        code, _ = run(capsys, ["emit-prompt", *args])
        assert code == 2

    @pytest.mark.parametrize(
        "lines, lineno, message",
        [
            ("la mi\nLA bad\xa0x\n", 2, "illegal syllable text: 'LA'"),
            ("\nla <eos> mi\n", 2, "<eos> only allowed at end of line"),
            ("la\n\n  \nla\tmi\nmi\u2003so\n", 5, "illegal syllable text: 'mi\\u2003so'"),
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
        odd.write_text("\n la  _mi\tso <eos>\n\n  \nfa\n", encoding="utf-8")
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
