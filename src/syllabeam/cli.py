"""Command-line entry point for dataset building, training, decoding, and evaluation.

Each optional flag is a setting. The effective configuration is echoed as
a JSON header line. Exit codes: 0 success, 1 runtime failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from typing import Callable

from . import modelfile
from .beam import FusionConfig, audit_trace, decode
from .corpus import (
    _NUMBER_RE,
    _PITCH_RE,
    Vocabulary,
    aligned_pair_parser,
    naming,
    open_input,
    parse_lyric_line,
    parse_melody_line,
    read_lines,
    render_text,
    serialize_lyric_line,
)
from .generator import MelodyConditionedNgram, training_record, write_trained
from .halves import halves
from .lm import CharNgramModel, lyric_lm_text, nsp_metrics, train_char_ngram
from .metrics import EvalPair, corpus_eval, emit_llm_eval_prompt
from .nsp import BuilderConfig, write_dataset


def _decimal(cast, pattern):
    """`cast` of the ASCII decimal literals `pattern` matches in melody text."""

    def parse(text: str):
        if not pattern.fullmatch(text):
            raise ValueError(f"not an ASCII decimal {cast.__name__}: {text!r}")
        return cast(text)

    parse.__name__ = cast.__name__  # argparse names the type in its message
    return parse


_int, _float = _decimal(int, _PITCH_RE), _decimal(float, _NUMBER_RE)


def _echo(command: str, config: dict) -> None:
    print(json.dumps({"command": command, "config": config}, sort_keys=True))


def _lyric_line(line: str) -> str:
    """`line` as written, once it parses as a lyric line."""
    parse_lyric_line(line)
    return line


def _read_corpus(path: str, parse: Callable[[str], object]) -> list:
    """What `parse` makes of each record line of the corpus file at `path`,
    which must hold one, the file read in `halves`."""
    records = halves(path, lambda start, stop: list(read_lines(path, parse, start, stop)))
    if not records:
        with naming(path):
            raise ValueError("corpus is empty")
    return records


# -- commands ---------------------------------------------------------------


def cmd_build_nsp_dataset(args: argparse.Namespace) -> int:
    config = BuilderConfig(**{f.name: getattr(args, f.name) for f in fields(BuilderConfig)})

    summary = write_dataset(args.corpus, config, args.out)

    _echo("build-nsp-dataset", {"corpus": args.corpus, "out": args.out, **asdict(config)})
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train_lm(args: argparse.Namespace) -> int:
    pair = aligned_pair_parser()
    texts = _read_corpus(args.corpus, lambda line: lyric_lm_text(render_text(pair(line).lyric)))
    model = train_char_ngram(texts, args.order, args.k)
    model.save(args.out)

    _echo("train-lm", {"corpus": args.corpus, "out": args.out, "order": args.order, "k": args.k})
    print(json.dumps({"texts": len(texts), **model.stats()}, sort_keys=True))
    return 0


def cmd_train_generator(args: argparse.Namespace) -> int:
    pair, record = aligned_pair_parser(), training_record()
    records = _read_corpus(args.corpus, lambda line: record(pair(line)))
    vocab = Vocabulary(text for texts, _ in records for text in texts)
    stats = write_trained(args.out, records, vocab, args.history, args.k)

    config = {"corpus": args.corpus, "out": args.out, "history": args.history, "k": args.k}
    _echo("train-generator", config)
    print(json.dumps({"pairs": len(records), **stats}, sort_keys=True))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = FusionConfig(args.beam_size, args.lambda_lm, args.max_len)
    lm = None if args.lm is None else CharNgramModel.load(args.lm)
    generator = MelodyConditionedNgram.load(args.generator)
    with naming(args.melody), open_input(args.melody) as fh:
        melody = parse_melody_line(fh.read())
    results = decode(melody, generator, lm, config)
    if not audit_trace(results):
        print("error: trace audit failed", file=sys.stderr)
        return 1

    paths = {"melody": args.melody, "generator": args.generator, "lm": args.lm}
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
    cand_path, ref_path = args.candidates, args.references
    candidates = list(read_lines(cand_path, parse_lyric_line))
    # each reference pairs with its candidate as its line is read, so that
    # EvalPair's check names the line; a reference past the last candidate
    # pairs with None, and the count check rejects the pair list
    rest = iter(candidates)
    pairs = list(read_lines(ref_path, lambda line: EvalPair(next(rest, None), parse_lyric_line(line))))
    with naming(cand_path):
        if len(pairs) != len(candidates):
            raise ValueError(f"{len(candidates)} lyric lines, but {len(pairs)} in {ref_path}")
        if not pairs:
            raise ValueError(f"no lyric lines, and none in {ref_path}")
    report = corpus_eval(pairs, word_level=args.word_level)
    _echo("evaluate", {"candidates": cand_path, "references": ref_path, "word_level": args.word_level})
    if args.json:
        print(report.to_json())
    else:
        print(report.to_table())
    return 0


def cmd_nsp_eval(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise ValueError(f"threshold must be finite, got {args.threshold!r}")
    # the LM is loaded, or has failed, before the dataset is opened
    scored = CharNgramModel.load(args.lm).score_nsp_file(args.dataset)
    if not scored:
        with naming(args.dataset):
            raise ValueError("dataset is empty")
    result = nsp_metrics(scored, args.threshold)
    config = {"dataset": args.dataset, "lm": args.lm, "scorer": "lm", "threshold": args.threshold}
    _echo("nsp-eval", config)
    print(json.dumps({**result, "examples": len(scored)}, sort_keys=True))
    return 0


def cmd_emit_prompt(args: argparse.Namespace) -> int:
    sets = []
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects NAME=FILE, got {item!r}")
        name, _, path = item.partition("=")
        sets.append((name, list(read_lines(path, _lyric_line))))
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

    p = sub.add_parser("build-nsp-dataset", help="build the NSP fine-tuning dataset")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output TSV path")
    for field in fields(BuilderConfig):
        cast = _int if type(field.default) is int else _float
        p.add_argument("--" + field.name.replace("_", "-"), type=cast, default=field.default)
    p.set_defaults(func=cmd_build_nsp_dataset)

    p = sub.add_parser("train-lm", help="train the character LM scorer")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--order", type=_int, default=4)
    p.add_argument("--k", type=_float, default=0.1)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("train-generator", help="train the melody-conditioned generator")
    p.add_argument("--corpus", required=True, help="aligned corpus JSONL")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--history", type=_int, default=2)
    p.add_argument("--k", type=_float, default=0.1)
    p.set_defaults(func=cmd_train_generator)

    p = sub.add_parser("generate", help="decode lyrics for a melody")
    p.add_argument("--melody", required=True, help="melody file of pitch:duration:rest triplets")
    p.add_argument("--generator", required=True, help="generator model path")
    p.add_argument("--lm", help="character LM model path")
    defaults = {field.name: field.default for field in fields(FusionConfig)}
    p.add_argument("--lambda-lm", type=_float, default=defaults["lambda_lm"])
    p.add_argument("--beam-size", type=_int, default=defaults["beam_size"])
    p.add_argument("--max-len", type=_int, default=defaults["max_len"])
    p.add_argument("--trace", action="store_true", help="include per-step score traces")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="overlap metrics for candidate vs reference lyrics")
    p.add_argument("--candidates", required=True, help="one lyric line per row")
    p.add_argument("--references", required=True, help="one lyric line per row")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--word-level", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("nsp-eval", help="score a scorer against an NSP dataset")
    p.add_argument("--dataset", required=True, help="TSV dataset path")
    p.add_argument("--lm", required=True, help="character LM model path")
    p.add_argument("--threshold", type=_float, default=0.5)
    p.set_defaults(func=cmd_nsp_eval)

    p = sub.add_parser("emit-prompt", help="emit the LLM-judge evaluation prompt")
    p.add_argument("--set", action="append", help="NAME=FILE, exactly three")
    p.add_argument("--variant", choices=("basic", "annotated"), default="basic")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_emit_prompt)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
