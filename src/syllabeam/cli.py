"""Command-line entry point for dataset building, training, decoding, and evaluation.

Each optional flag is a setting. A --config key=value file, keyed by flag
dest (an unknown or repeated key fails), sets the command's defaults, so a
setting resolves as the flag, then the file, then the parser's default. The
effective configuration is echoed as a JSON header line. Exit codes: 0
success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import modelfile
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
from .nsp import BuilderConfig, build_dataset, check_corpus, nsp_line, read_nsp_tsv


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


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _load_config_file(path: str, flags: dict) -> dict:
    """The key=value lines of a config file, each key the dest of one of
    `flags` (dest -> argparse action), once, its value cast by that flag's
    type (`_parse_bool` for a switch) and checked against its choices."""
    values: dict = {}
    with open(_require_file(path, "config file"), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in flags or key in values:
                why = "repeated" if key in values else f"unknown (keys: {', '.join(sorted(flags))})"
                raise UsageError(f"{path}:{lineno}: key {key!r} {why}")
            action = flags[key]
            # a switch (store_true, nargs 0) reads a boolean; a flag without a type, text
            cast = _parse_bool if action.nargs == 0 else action.type or str
            try:
                value = cast(value.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
            if action.choices is not None and value not in action.choices:  # set_defaults skips this
                expected = " or ".join(action.choices)
                raise UsageError(f"{path}:{lineno}: key {key!r}: expected {expected}, got {value!r}")
            values[key] = value
    return values


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
    corpus_path = _require_file(args.corpus, "corpus")
    config = BuilderConfig(**{f.name: getattr(args, f.name) for f in fields(BuilderConfig)})

    lyrics = [pair.lyric for pair in load_aligned_corpus(corpus_path)]
    check_corpus(lyrics)  # before --out is opened, so a bad lyric leaves it as it was
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        summary = build_dataset(lyrics, config, lambda example: fh.write(nsp_line(example)))

    _echo("build-nsp-dataset", {"corpus": corpus_path, "out": args.out, **asdict(config)})
    summary["lyrics"] = len(lyrics)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train_lm(args: argparse.Namespace) -> int:
    corpus_path = _require_file(args.corpus, "corpus")

    pairs = load_aligned_corpus(corpus_path)
    texts = [lyric_lm_text(render_text(pair.lyric)) for pair in pairs]
    model = train_char_ngram(texts, args.order, args.k)
    model.save(args.out)

    _echo("train-lm", {"corpus": corpus_path, "out": args.out, "order": args.order, "k": args.k})
    print(json.dumps({"texts": len(texts), **model.stats()}, sort_keys=True))
    return 0


def cmd_train_generator(args: argparse.Namespace) -> int:
    corpus_path = _require_file(args.corpus, "corpus")

    pairs = load_aligned_corpus(corpus_path)
    if not pairs:
        raise UsageError(f"corpus is empty: {corpus_path}")
    vocab = build_vocabulary([pair.lyric for pair in pairs])
    model = train_generator(pairs, vocab, args.history, args.k)
    model.save(args.out)

    config = {"corpus": corpus_path, "out": args.out, "history": args.history, "k": args.k}
    _echo("train-generator", config)
    print(json.dumps({"pairs": len(pairs), **model.stats()}, sort_keys=True))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    melody_path = _require_file(args.melody, "melody file")
    generator_path = _require_file(args.generator, "generator model")
    config = FusionConfig(args.beam_size, args.lambda_lm, args.max_len)

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

    paths = {"melody": melody_path, "generator": generator_path, "lm": args.lm}
    _echo("generate", {**paths, **asdict(config)})
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
    cand_path = _require_file(args.candidates, "candidates file")
    ref_path = _require_file(args.references, "references file")

    candidates = _read_lyric_lines(cand_path)
    references = _read_lyric_lines(ref_path)
    if len(candidates) != len(references):
        raise UsageError(
            f"line count mismatch: {len(candidates)} candidates vs {len(references)} references"
        )

    texts = enumerate(zip(candidates, references), start=1)
    pairs = [_at_line(ref_path, n, EvalPair, cand, ref) for n, (cand, ref) in texts]
    report = corpus_eval(pairs, word_level=args.word_level)
    _echo("evaluate", {"candidates": cand_path, "references": ref_path, "word_level": args.word_level})
    if args.json:
        print(report.to_json())
    else:
        print(report.to_table())
    return 0


def cmd_nsp_eval(args: argparse.Namespace) -> int:
    dataset_path = _require_file(args.dataset, "dataset")
    if not math.isfinite(args.threshold):
        raise UsageError(f"threshold must be finite, got {args.threshold!r}")
    rows = read_nsp_tsv(dataset_path)  # lazily: the scorer is ready, or has failed, before row 1
    if args.scorer == "oracle":
        scored = [((0.0, 0), (1.0, 1))[label] for _, _, label in rows]  # each row scored by its label
    else:
        if args.lm is None:
            raise UsageError("--lm is required for the lm scorer")
        scored = CharNgramModel.load(_require_file(args.lm, "lm model")).score_nsp_rows(rows)
    if not scored:
        raise UsageError(f"dataset is empty: {dataset_path}")
    result = nsp_metrics(scored, args.threshold)
    _echo("nsp-eval", {"dataset": dataset_path, "scorer": args.scorer, "threshold": args.threshold})
    print(json.dumps({**result, "examples": len(scored)}, sort_keys=True))
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


@functools.cache  # one per process: a parser is cyclic, so one per call is garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syllabeam",
        description="Syllable-level lyric generation from symbolic melody",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser, command) -> None:
        """A config file may set what any optional flag of its command sets."""
        p.add_argument("--config", help="key=value config file")
        flags = {a.dest: a for a in p._actions if a.option_strings and not a.required}
        del flags["help"], flags["config"]
        p.set_defaults(func=command, command_parser=p, config_flags=flags)

    p = sub.add_parser("build-nsp-dataset", help="build the NSP fine-tuning dataset")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output TSV path")
    for field in fields(BuilderConfig):
        cast = _int if type(field.default) is int else _float
        p.add_argument("--" + field.name.replace("_", "-"), type=cast, default=field.default)
    add_config(p, cmd_build_nsp_dataset)

    p = sub.add_parser("train-lm", help="train the character LM scorer")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--order", type=_int, default=4)
    p.add_argument("--k", type=_float, default=0.1)
    add_config(p, cmd_train_lm)

    p = sub.add_parser("train-generator", help="train the melody-conditioned generator")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--history", type=_int, default=2)
    p.add_argument("--k", type=_float, default=0.1)
    add_config(p, cmd_train_generator)

    p = sub.add_parser("generate", help="decode lyrics for a melody")
    p.add_argument("--melody", required=True, help="melody file of pitch:duration:rest triplets")
    p.add_argument("--generator", required=True, help="generator model path")
    p.add_argument("--lm", help="character LM model path")
    p.add_argument("--lambda-lm", type=_float, default=FusionConfig.lambda_lm)
    p.add_argument("--beam-size", type=_int, default=FusionConfig.beam_size)
    p.add_argument("--max-len", type=_int, default=FusionConfig.max_len)
    p.add_argument("--trace", action="store_true", help="include per-step score traces")
    add_config(p, cmd_generate)

    p = sub.add_parser("evaluate", help="overlap metrics for candidate vs reference lyrics")
    p.add_argument("--candidates", required=True, help="one lyric line per row")
    p.add_argument("--references", required=True, help="one lyric line per row")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--word-level", action="store_true")
    add_config(p, cmd_evaluate)

    p = sub.add_parser("nsp-eval", help="score a scorer against an NSP dataset")
    p.add_argument("--dataset", required=True, help="TSV dataset path")
    p.add_argument("--lm", help="character LM model path")
    p.add_argument("--scorer", choices=("lm", "oracle"), default="lm")
    p.add_argument("--threshold", type=_float, default=0.5)
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
        if getattr(args, "config", None):
            # the file's values become the command's defaults for one parse, so
            # a flag still wins and the next call parses against the parser's own
            values = _load_config_file(args.config, args.config_flags)
            command = args.command_parser
            previous = {dest: command.get_default(dest) for dest in values}
            command.set_defaults(**values)
            try:
                args = parser.parse_args(argv)
            finally:
                command.set_defaults(**previous)
        with modelfile.gc_paused():
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
