"""Command-line entry point for dataset building, training, decoding, and evaluation.

Every command resolves its settings as: explicit flags, then a key=value
config file given with --config, then built-in defaults. The effective
configuration is echoed as a JSON header line so runs are reproducible.
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .beam import FusionConfig, audit_trace, decode
from .corpus import (
    LyricSequence,
    load_aligned_corpus,
    parse_lyric_line,
    parse_melody_line,
    render_text,
    serialize_lyric_line,
    build_vocabulary,
)
from .generator import MelodyConditionedNgram, train_generator
from .lm import CharNgramModel, lyric_lm_text, nsp_accuracy, nsp_metrics, train_char_ngram
from .metrics import EvalPair, corpus_eval, emit_llm_eval_prompt
from .nsp import BuilderConfig, build_dataset, read_nsp_tsv, write_nsp_tsv


class UsageError(Exception):
    pass


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class Settings:
    """Flag > config file > default resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._file = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, cast, default):
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        if key in self._file:
            try:
                return cast(self._file[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        return default

    def explicit(self, key: str, cast):
        """Value only when the flag or the config file provides it."""
        return self.get(key, cast, None)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _echo(command: str, config: dict) -> None:
    print(json.dumps({"command": command, "config": config}, sort_keys=True))


def _read_lyric_lines(path: str) -> list[LyricSequence]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    while lines and not lines[-1]:
        lines.pop()
    lyrics = []
    for lineno, line in enumerate(lines, start=1):
        try:
            lyrics.append(parse_lyric_line(line))
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return lyrics


# -- commands ---------------------------------------------------------------


def cmd_build_nsp_dataset(args: argparse.Namespace) -> int:
    settings = Settings(args)
    corpus_path = _require_file(args.corpus, "corpus")
    try:
        config = BuilderConfig(
            spacing_negative_rate=settings.get("spacing_negative_rate", float, 0.6),
            always_spacing_first_k=settings.get("always_spacing_first_k", int, 3),
            context_swap_rate=settings.get("context_swap_rate", float, 0.4),
            swap_space_rate=settings.get("swap_space_rate", float, 0.5),
            seed=settings.get("seed", int, 0),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    lyrics = [pair.lyric for pair in load_aligned_corpus(corpus_path)]
    examples = []
    summary = build_dataset(lyrics, config, examples.append)
    write_nsp_tsv(examples, args.out)

    _echo(
        "build-nsp-dataset",
        {
            "corpus": corpus_path,
            "out": args.out,
            "seed": config.seed,
            "spacing_negative_rate": config.spacing_negative_rate,
            "always_spacing_first_k": config.always_spacing_first_k,
            "context_swap_rate": config.context_swap_rate,
            "swap_space_rate": config.swap_space_rate,
        },
    )
    summary["lyrics"] = len(lyrics)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train_lm(args: argparse.Namespace) -> int:
    settings = Settings(args)
    corpus_path = _require_file(args.corpus, "corpus")
    order = settings.get("order", int, 4)
    k = settings.get("k", float, 0.1)

    pairs = load_aligned_corpus(corpus_path)
    texts = [lyric_lm_text(render_text(pair.lyric)) for pair in pairs]
    model = train_char_ngram(texts, order, k)
    model.save(args.out)

    _echo("train-lm", {"corpus": corpus_path, "out": args.out, "order": order, "k": k})
    print(json.dumps({"texts": len(texts), **model.stats()}, sort_keys=True))
    return 0


def cmd_train_generator(args: argparse.Namespace) -> int:
    settings = Settings(args)
    corpus_path = _require_file(args.corpus, "corpus")
    history = settings.get("history", int, 2)
    k = settings.get("k", float, 0.1)

    pairs = load_aligned_corpus(corpus_path)
    if not pairs:
        raise UsageError(f"corpus is empty: {corpus_path}")
    vocab = build_vocabulary([pair.lyric for pair in pairs])
    model = train_generator(pairs, vocab, history, k)
    model.save(args.out)

    _echo(
        "train-generator",
        {"corpus": corpus_path, "out": args.out, "history": history, "k": k},
    )
    print(json.dumps({"pairs": len(pairs), **model.stats()}, sort_keys=True))
    return 0


def _resolve_lambdas(settings: Settings) -> tuple[float, float]:
    lambda_lm = settings.explicit("lambda_lm", float)
    lambda_gen = settings.explicit("lambda_gen", float)
    if lambda_lm is None and lambda_gen is None:
        return 0.75, 0.25
    if lambda_lm is None:
        return 1.0 - lambda_gen, lambda_gen
    if lambda_gen is None:
        return lambda_lm, 1.0 - lambda_lm
    return lambda_lm, lambda_gen


def cmd_generate(args: argparse.Namespace) -> int:
    settings = Settings(args)
    melody_path = _require_file(args.melody, "melody file")
    generator_path = _require_file(args.generator, "generator model")
    lambda_lm, lambda_gen = _resolve_lambdas(settings)
    try:
        config = FusionConfig(
            beam_size=settings.get("beam_size", int, 5),
            lambda_lm=lambda_lm,
            lambda_gen=lambda_gen,
            max_len=settings.get("max_len", int, 20),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    lm = None
    if config.lambda_lm != 0 or args.lm is not None:
        if args.lm is None:
            raise UsageError("--lm is required when lambda_lm > 0")
        lm = CharNgramModel.load(_require_file(args.lm, "lm model"))
    generator = MelodyConditionedNgram.load(generator_path)

    with open(melody_path, "r", encoding="utf-8") as fh:
        melody = parse_melody_line(fh.read())
    results = decode(melody, generator, lm, config)
    if not audit_trace(results):
        print("error: trace audit failed", file=sys.stderr)
        return 1

    _echo(
        "generate",
        {
            "melody": melody_path,
            "generator": generator_path,
            "lm": args.lm,
            "lambda_lm": config.lambda_lm,
            "lambda_gen": config.lambda_gen,
            "beam_size": config.beam_size,
            "max_len": config.max_len,
        },
    )
    for rank, result in enumerate(results, start=1):
        record = {
            "rank": rank,
            "score": result.cumulative,
            "syllables": serialize_lyric_line(result.lyric),
            "text": render_text(result.lyric),
        }
        if args.trace:
            record["trace"] = [
                [step.generator_prob, step.lm_score, step.variant, step.contribution]
                for step in result.trace
            ]
        print(json.dumps(record, sort_keys=True))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    settings = Settings(args)
    cand_path = _require_file(args.candidates, "candidates file")
    ref_path = _require_file(args.references, "references file")
    word_level = settings.get("word_level", _parse_bool, False)

    candidates = _read_lyric_lines(cand_path)
    references = _read_lyric_lines(ref_path)
    if len(candidates) != len(references):
        raise UsageError(
            f"line count mismatch: {len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise UsageError("no evaluation pairs")

    pairs = [EvalPair(c, r) for c, r in zip(candidates, references)]
    report = corpus_eval(pairs, word_level=word_level)
    _echo(
        "evaluate",
        {"candidates": cand_path, "references": ref_path, "word_level": word_level},
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.to_table())
    return 0


def cmd_nsp_eval(args: argparse.Namespace) -> int:
    settings = Settings(args)
    dataset_path = _require_file(args.dataset, "dataset")
    threshold = settings.get("threshold", float, 0.5)
    if not math.isfinite(threshold):
        raise UsageError(f"threshold must be finite, got {threshold!r}")
    dataset = read_nsp_tsv(dataset_path)
    if not dataset:
        raise UsageError(f"dataset is empty: {dataset_path}")

    if args.scorer == "oracle":
        # scores each row with its own label
        result = nsp_metrics([(float(ex.label), ex.label) for ex in dataset], threshold)
    else:
        if args.lm is None:
            raise UsageError("--lm is required for the lm scorer")
        model = CharNgramModel.load(_require_file(args.lm, "lm model"))
        result = nsp_accuracy(model.nsp_score, dataset, threshold)
    _echo(
        "nsp-eval",
        {"dataset": dataset_path, "scorer": args.scorer, "threshold": threshold},
    )
    print(json.dumps({**result, "examples": len(dataset)}, sort_keys=True))
    return 0


def cmd_emit_prompt(args: argparse.Namespace) -> int:
    sets = []
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects NAME=FILE, got {item!r}")
        name, _, path = item.partition("=")
        _require_file(path, f"lyric set {name!r}")
        with open(path, "r", encoding="utf-8") as fh:
            lyrics = [line.rstrip("\n") for line in fh if line.strip()]
        sets.append((name, lyrics))
    try:
        text = emit_llm_eval_prompt(sets, variant=args.variant)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syllabeam",
        description="Syllable-level lyric generation from symbolic melody",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")

    p = sub.add_parser("build-nsp-dataset", help="build the NSP fine-tuning dataset")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--seed", type=int)
    p.add_argument("--spacing-negative-rate", type=float, dest="spacing_negative_rate")
    p.add_argument("--always-spacing-first-k", type=int, dest="always_spacing_first_k")
    p.add_argument("--context-swap-rate", type=float, dest="context_swap_rate")
    p.add_argument("--swap-space-rate", type=float, dest="swap_space_rate")
    add_config(p)
    p.set_defaults(func=cmd_build_nsp_dataset)

    p = sub.add_parser("train-lm", help="train the character LM scorer")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--order", type=int)
    p.add_argument("--k", type=float)
    add_config(p)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("train-generator", help="train the melody-conditioned generator")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--history", type=int)
    p.add_argument("--k", type=float)
    add_config(p)
    p.set_defaults(func=cmd_train_generator)

    p = sub.add_parser("generate", help="decode lyrics for a melody")
    p.add_argument("--melody", required=True, help="melody file of pitch:duration:rest triplets")
    p.add_argument("--generator", required=True, help="generator model path")
    p.add_argument("--lm", help="character LM model path")
    p.add_argument("--lambda-lm", type=float, dest="lambda_lm")
    p.add_argument("--lambda-gen", type=float, dest="lambda_gen")
    p.add_argument("--beam-size", type=int, dest="beam_size")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--trace", action="store_true", help="include per-step score traces")
    add_config(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="overlap metrics for candidate vs reference lyrics")
    p.add_argument("--candidates", required=True, help="one lyric line per row")
    p.add_argument("--references", required=True, help="one lyric line per row")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--word-level", action="store_true", dest="word_level", default=None)
    add_config(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("nsp-eval", help="score a scorer against an NSP dataset")
    p.add_argument("--dataset", required=True, help="TSV dataset path")
    p.add_argument("--lm", help="character LM model path")
    p.add_argument("--scorer", choices=("lm", "oracle"), default="lm")
    p.add_argument("--threshold", type=float)
    add_config(p)
    p.set_defaults(func=cmd_nsp_eval)

    p = sub.add_parser("emit-prompt", help="emit the LLM-judge evaluation prompt")
    p.add_argument("--set", action="append", help="NAME=FILE, exactly three")
    p.add_argument("--variant", choices=("basic", "annotated"), default="basic")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_emit_prompt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
