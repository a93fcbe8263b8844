"""Command-line entry point for dataset building, training, decoding, and evaluation.

Each optional flag is a setting, resolved as the flag, then its dest as a key
of the --config key=value file (an unknown or repeated key fails), then the
default. The effective configuration is echoed as a JSON header line. Exit
codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from .beam import FusionConfig, audit_trace, decode
from .corpus import (
    _NUMBER_RE,
    _PITCH_RE,
    LyricSequence,
    load_aligned_corpus,
    parse_lyric_line,
    parse_melody_line,
    render_text,
    serialize_lyric_line,
    build_vocabulary,
)
from .generator import MelodyConditionedNgram, train_generator
from .lm import CharNgramModel, lyric_lm_text, nsp_metrics, train_char_ngram
from .metrics import EvalPair, corpus_eval, emit_llm_eval_prompt
from .nsp import BuilderConfig, build_dataset, read_nsp_tsv, write_nsp_tsv


class UsageError(ValueError):
    """Bad input to a command: exit 2, like any other ValueError."""


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _decimal(cast, pattern):
    """`cast` of the ASCII decimal literals `pattern` matches in melody text."""

    def parse(text: str):
        if not pattern.fullmatch(text):
            raise ValueError(f"not an ASCII decimal {cast.__name__}: {text!r}")
        return cast(text)

    parse.__name__ = cast.__name__  # argparse names the type in its message
    return parse


_int, _float = _decimal(int, _PITCH_RE), _decimal(float, _NUMBER_RE)
_CASTS = {int: _int, float: _float}


def _load_config_file(path: str, keys: frozenset) -> dict[str, str]:
    """The key=value lines of a config file, each key one of `keys`, once."""
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
            key = key.strip()
            if key not in keys or key in values:
                why = "repeated" if key in values else f"unknown (keys: {', '.join(sorted(keys))})"
                raise UsageError(f"{path}:{lineno}: key {key!r} {why}")
            values[key] = value.strip()
    return values


class Settings:
    """Flag > config file > default resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._file = _load_config_file(args.config, args.config_keys) if args.config else {}

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


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _echo(command: str, config: dict) -> None:
    print(json.dumps({"command": command, "config": config}, sort_keys=True))


def _at_line(path: str, lineno: int, check, *args):
    """`check(*args)`, its ValueError reported at `path:lineno:`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(f"{path}:{lineno}: {exc}") from exc


def _read_lyric_lines(path: str) -> list[LyricSequence]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    while lines and not lines[-1]:
        lines.pop()
    return [_at_line(path, lineno, parse_lyric_line, line) for lineno, line in enumerate(lines, start=1)]


# -- commands ---------------------------------------------------------------


def cmd_build_nsp_dataset(args: argparse.Namespace) -> int:
    settings = Settings(args)
    corpus_path = _require_file(args.corpus, "corpus")
    # every builder setting is read as the type of its default
    defaults = {f.name: f.default for f in fields(BuilderConfig)}
    config = BuilderConfig(**{key: settings.get(key, _CASTS[type(d)], d) for key, d in defaults.items()})

    lyrics = [pair.lyric for pair in load_aligned_corpus(corpus_path)]
    examples = []
    summary = build_dataset(lyrics, config, examples.append)
    write_nsp_tsv(examples, args.out)

    _echo("build-nsp-dataset", {"corpus": corpus_path, "out": args.out, **asdict(config)})
    summary["lyrics"] = len(lyrics)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train_lm(args: argparse.Namespace) -> int:
    settings = Settings(args)
    corpus_path = _require_file(args.corpus, "corpus")
    order = settings.get("order", _int, 4)
    k = settings.get("k", _float, 0.1)

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
    history = settings.get("history", _int, 2)
    k = settings.get("k", _float, 0.1)

    pairs = load_aligned_corpus(corpus_path)
    if not pairs:
        raise UsageError(f"corpus is empty: {corpus_path}")
    vocab = build_vocabulary([pair.lyric for pair in pairs])
    model = train_generator(pairs, vocab, history, k)
    model.save(args.out)

    _echo("train-generator", {"corpus": corpus_path, "out": args.out, "history": history, "k": k})
    print(json.dumps({"pairs": len(pairs), **model.stats()}, sort_keys=True))
    return 0


def _resolve_lambdas(settings: Settings) -> tuple[float, float]:
    lambda_lm = settings.get("lambda_lm", _float, None)
    lambda_gen = settings.get("lambda_gen", _float, None)
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
    lm_path = settings.get("lm", str, None)
    lambda_lm, lambda_gen = _resolve_lambdas(settings)
    config = FusionConfig(
        beam_size=settings.get("beam_size", _int, 5),
        lambda_lm=lambda_lm,
        lambda_gen=lambda_gen,
        max_len=settings.get("max_len", _int, 20),
    )

    lm = None
    if config.lambda_lm != 0 or lm_path is not None:
        if lm_path is None:
            raise UsageError("--lm is required when lambda_lm > 0")
        lm = CharNgramModel.load(_require_file(lm_path, "lm model"))
    generator = MelodyConditionedNgram.load(generator_path)

    with open(melody_path, "r", encoding="utf-8") as fh:
        melody = parse_melody_line(fh.read())
    trace = settings.get("trace", _parse_bool, False)
    results = decode(melody, generator, lm, config)
    if not audit_trace(results):
        print("error: trace audit failed", file=sys.stderr)
        return 1

    paths = {"melody": melody_path, "generator": generator_path, "lm": lm_path}
    _echo("generate", {**paths, **asdict(config)})
    for rank, result in enumerate(results, start=1):
        record = {
            "rank": rank,
            "score": result.cumulative,
            "syllables": serialize_lyric_line(result.lyric),
            "text": render_text(result.lyric),
        }
        if trace:
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

    texts = enumerate(zip(candidates, references), start=1)
    pairs = [_at_line(ref_path, n, EvalPair, cand, ref) for n, (cand, ref) in texts]
    report = corpus_eval(pairs, word_level=word_level)
    _echo("evaluate", {"candidates": cand_path, "references": ref_path, "word_level": word_level})
    if settings.get("json", _parse_bool, False):
        print(report.to_json())
    else:
        print(report.to_table())
    return 0


def cmd_nsp_eval(args: argparse.Namespace) -> int:
    settings = Settings(args)
    dataset_path = _require_file(args.dataset, "dataset")
    threshold = settings.get("threshold", _float, 0.5)
    if not math.isfinite(threshold):
        raise UsageError(f"threshold must be finite, got {threshold!r}")
    scorer = settings.get("scorer", str, "lm")
    if scorer not in ("lm", "oracle"):
        raise UsageError(f"config key scorer: expected lm or oracle, got {scorer!r}")
    lm_path = settings.get("lm", str, None)
    dataset = read_nsp_tsv(dataset_path)
    if not dataset:
        raise UsageError(f"dataset is empty: {dataset_path}")

    if scorer == "oracle":
        # scores each row with its own label
        result = nsp_metrics([(float(ex.label), ex.label) for ex in dataset], threshold)
    else:
        if lm_path is None:
            raise UsageError("--lm is required for the lm scorer")
        model = CharNgramModel.load(_require_file(lm_path, "lm model"))
        result = nsp_metrics(model.score_nsp_rows(dataset), threshold)
    _echo("nsp-eval", {"dataset": dataset_path, "scorer": scorer, "threshold": threshold})
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
            lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1) if line.strip()]
        for n, line in lines:
            _at_line(path, n, parse_lyric_line, line)
        sets.append((name, [line for _, line in lines]))
    text = emit_llm_eval_prompt(sets, variant=args.variant)
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

    def add_config(p: argparse.ArgumentParser, command) -> None:
        """A config file may set what any optional flag of its command sets."""
        p.add_argument("--config", help="key=value config file")
        flags = {action.dest for action in p._actions if action.option_strings and not action.required}
        p.set_defaults(func=command, config_keys=frozenset(flags - {"help", "config"}))

    p = sub.add_parser("build-nsp-dataset", help="build the NSP fine-tuning dataset")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--seed", type=_int)
    p.add_argument("--spacing-negative-rate", type=_float, dest="spacing_negative_rate")
    p.add_argument("--always-spacing-first-k", type=_int, dest="always_spacing_first_k")
    p.add_argument("--context-swap-rate", type=_float, dest="context_swap_rate")
    p.add_argument("--swap-space-rate", type=_float, dest="swap_space_rate")
    add_config(p, cmd_build_nsp_dataset)

    p = sub.add_parser("train-lm", help="train the character LM scorer")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--order", type=_int)
    p.add_argument("--k", type=_float)
    add_config(p, cmd_train_lm)

    p = sub.add_parser("train-generator", help="train the melody-conditioned generator")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--history", type=_int)
    p.add_argument("--k", type=_float)
    add_config(p, cmd_train_generator)

    p = sub.add_parser("generate", help="decode lyrics for a melody")
    p.add_argument("--melody", required=True, help="melody file of pitch:duration:rest triplets")
    p.add_argument("--generator", required=True, help="generator model path")
    p.add_argument("--lm", help="character LM model path")
    p.add_argument("--lambda-lm", type=_float, dest="lambda_lm")
    p.add_argument("--lambda-gen", type=_float, dest="lambda_gen")
    p.add_argument("--beam-size", type=_int, dest="beam_size")
    p.add_argument("--max-len", type=_int, dest="max_len")
    p.add_argument("--trace", action="store_true", default=None, help="include per-step score traces")
    add_config(p, cmd_generate)

    p = sub.add_parser("evaluate", help="overlap metrics for candidate vs reference lyrics")
    p.add_argument("--candidates", required=True, help="one lyric line per row")
    p.add_argument("--references", required=True, help="one lyric line per row")
    p.add_argument("--json", action="store_true", default=None, help="emit the report as JSON")
    p.add_argument("--word-level", action="store_true", dest="word_level", default=None)
    add_config(p, cmd_evaluate)

    p = sub.add_parser("nsp-eval", help="score a scorer against an NSP dataset")
    p.add_argument("--dataset", required=True, help="TSV dataset path")
    p.add_argument("--lm", help="character LM model path")
    p.add_argument("--scorer", choices=("lm", "oracle"))
    p.add_argument("--threshold", type=_float)
    add_config(p, cmd_nsp_eval)

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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
