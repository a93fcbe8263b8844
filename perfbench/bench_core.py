"""Workloads, measurement, output checks and report of the syllabeam benchmark.

The load is a closed loop: one caller in one thread of one process sends
each request when the previous one returns. An end-to-end run repeats one
round of phases, so that every metric samples the whole run:

1. set-up: `train-lm` and `train-generator` through the CLI, then both
   models loaded back through the library (`setup_s`);
2. `build-nsp-dataset`, then `nsp-eval`;
3. library `decode` of held-out melodies in a closed loop, for
   `--seconds` divided by the number of rounds (`decode_*`);
4. `generate`, one call per melody, each reloading both models;
5. `evaluate` of the top lyric of the first held-out melodies against their
   references.

CLI commands run in-process through `syllabeam.cli.main` with stdout
captured; `cli_pipeline_s` is the sum of their medians, one call of each.
Every time is reported at the reference host speed (see `Speedometer`).
A traced run (`--trace 1`) walks the same layers through their public
functions instead and reports the per-layer split as measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from syllabeam import cli
from syllabeam.beam import DecodeResult, FusionConfig, audit_trace, decode
from syllabeam.corpus import (
    MelodySequence,
    build_vocabulary,
    load_aligned_corpus,
    render_text,
    serialize_lyric_line,
    write_aligned_corpus,
)
from syllabeam.generator import MelodyConditionedNgram, train_generator
from syllabeam.lm import CharNgramModel, lyric_lm_text, nsp_accuracy, train_char_ngram
from syllabeam.metrics import EvalPair, corpus_eval
from syllabeam.nsp import BuilderConfig, build_dataset

from bench_inputs import Inputs, build_inputs
from bench_trace import TimedProxy, Tracer, method_stats

# model settings, passed explicitly to the CLI and to the traced library calls
LM_ORDER = 4
LM_K = 0.1
GEN_HISTORY = 2
GEN_K = 0.1

CORPUS_FILE = "corpus.jsonl"
LM_FILE = "lm.json"
GEN_FILE = "generator.json"
NSP_FILE = "nsp.tsv"
CANDIDATES_FILE = "candidates.txt"
REFERENCES_FILE = "references.txt"

# median calibration_kernel time on the reference host (2-vCPU VM, Python
# 3.11.7) in its usual, slower spell; it only sets the scale of reference times
KERNEL_REFERENCE_S = 1.6e-3
KERNEL_REPEATS = 3

T = TypeVar("T")

SWEEP_BEAMS = (1, 5, 10, 20)
WARMUP_DECODES = 2
CLI_PHASES = ("train-lm", "train-generator", "build-nsp-dataset", "nsp-eval", "generate", "evaluate")
PHASES = ("set-up", "decode", *CLI_PHASES)

END_TO_END_UNITS = {
    "setup_s": "s",
    "decode_melodies_per_s": "1/s",
    "decode_p50_ms": "ms",
    "decode_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_pipeline_s": "s",
}

PER_LAYER_UNITS = {
    "beam.decode.s": "s",
    "beam.self_s": "s",
    "beam.self_frac": "ratio",
    "generator.s": "s",
    "generator.frac": "ratio",
    "generator.next_distribution.calls": "count",
    "generator.next_distribution.s": "s",
    "generator.entries_used_ratio": "ratio",
    "lm.s": "s",
    "lm.frac": "ratio",
    "lm.score_with_spacing.calls": "count",
    "lm.score_with_spacing.s": "s",
    "lm.distinct_key_ratio": "ratio",
    "lm.nsp_score.calls": "count",
    "lm.nsp_score.s": "s",
    "lm.train_s": "s",
    "lm.save_s": "s",
    "lm.load_s": "s",
    "lm.model_bytes": "bytes",
    "generator.train_s": "s",
    "generator.save_s": "s",
    "generator.load_s": "s",
    "generator.model_bytes": "bytes",
    "corpus.load_aligned_corpus.s": "s",
    "nsp.build_dataset.s": "s",
    "nsp.rows": "count",
    "metrics.corpus_eval.s": "s",
    **{f"cli.{phase.replace('-', '_')}.s": "s" for phase in CLI_PHASES},
    "trace.overhead_frac": "ratio",
    **{f"beam.decode_ms.b{b}": "ms" for b in SWEEP_BEAMS},
}


@dataclass(frozen=True)
class Workload:
    name: str
    vocab: str  # "small": the 16-word inventory; "large": the random-syllable pool
    pairs: int  # training pairs
    beam: int
    rounds: int  # each phase runs once per round; decode gets --seconds / rounds
    generate_calls: int  # CLI generate calls per round
    melody_notes: int = 20
    held_out: int = 400  # melodies decoded in turn, with their reference lyrics
    eval_melodies: int = 5  # first melodies, evaluated and digested
    evaluate_calls: int = 8  # per round
    trace_melodies: int = 10
    sweep_melodies: int = 3


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("decode-small-vocab", "small", 2000, 10, rounds=7, generate_calls=2),
        Workload("decode-large-vocab", "large", 1500, 5, rounds=7, generate_calls=1),
    )
}


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    report: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            },
            sort_keys=True,
        )


class Ledger:
    """Operations attempted, the failed ones with reasons, and an output digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def digest(self, text: str) -> None:
        self._digest.update(text.encode("utf-8") + b"\n")

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def settle() -> None:
    """Collect garbage, then exempt every live object from later collections,
    so that a timed call pays only for collecting the objects it creates, as
    it would in a fresh process."""
    gc.collect()
    gc.freeze()


def calibration_kernel() -> None:
    """Fixed pure-Python work of the program's kind: string keys, dict
    counting, a keyed sort and a JSON round trip."""
    counts: dict[str, int] = {}
    for i in range(3000):
        key = str(i % 577)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    json.loads(json.dumps(ranked))


@dataclass(frozen=True)
class Timing:
    seconds: float  # wall time as measured
    slowness: float  # host slowness while it ran; 1.0 at the reference speed

    @property
    def reference_seconds(self) -> float:
        """The wall time as it would read at the reference host speed."""
        return self.seconds / self.slowness


class Speedometer:
    """Reads the host's current speed from the calibration kernel.

    On a shared virtual machine the CPU speed a process gets can swing by up
    to half between fast and slow spells lasting seconds to minutes, and a
    spell moves the program's pure-Python work and the kernel alike. Each
    timed call is bracketed by two readings, and its reference time divides
    out their mean, so that the end-to-end metrics measure the program
    rather than the spell a run fell into.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def reading(self) -> float:
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - start)
        slowness = statistics.median(times) / KERNEL_REFERENCE_S
        self.readings.append(slowness)
        return slowness

    def measure(self, call: Callable[[], T], collect: bool = True) -> tuple[T, Timing]:
        """`call()` and its timing; `collect` settles the heap first."""
        before = self.reading()
        if collect:
            settle()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        return result, Timing(seconds, (before + self.reading()) / 2)


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    timing: Timing


def run_cli(argv: list[str], speed: Speedometer) -> CliRun:
    """One in-process CLI call, timed, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(argv)
        except Exception:
            err.write(traceback.format_exc())
            return -1

    code, timing = speed.measure(call)
    return CliRun(code, out.getvalue(), err.getvalue(), timing)


def cli_problems(run: CliRun) -> list[str]:
    if run.code == 0:
        return []
    last = run.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return [f"exit code {run.code}: {last[0]}"]


def result_rows(results: list[DecodeResult]) -> list[tuple[str, float]]:
    return [(serialize_lyric_line(r.lyric), r.cumulative) for r in results]


def check_decode(melody: MelodySequence, results: list[DecodeResult], beam: int) -> list[str]:
    """The output contract of one decode."""
    if not results:
        return ["no results"]
    problems = []
    if len(results) > beam:
        problems.append(f"{len(results)} results for beam {beam}")
    if not audit_trace(results):
        problems.append("trace audit failed")
    scores = [r.cumulative for r in results]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores not in non-increasing order")
    if any(len(r.lyric.syllables()) > len(melody) for r in results):
        problems.append("a lyric is longer than its melody")
    return problems


def parse_generate(run: CliRun, melody: MelodySequence, beam: int) -> tuple[list[tuple[str, float]], list[str]]:
    """Rows (syllables, score) of a `generate` call, and its contract breaches."""
    problems = cli_problems(run)
    if problems:
        return [], problems
    lines = run.stdout.splitlines()
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
        rows = [(r["syllables"], r["score"]) for r in records]
    except (IndexError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return [], [f"unreadable output: {exc!r}"]
    if header.get("command") != "generate":
        problems.append("missing generate header")
    if not records or len(records) > beam:
        problems.append(f"{len(records)} results for beam {beam}")
    if [r.get("rank") for r in records] != list(range(1, len(records) + 1)):
        problems.append("ranks are not 1..n")
    scores = [score for _, score in rows]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores not in non-increasing order")
    if any(len(s.replace("<eos>", "").split()) > len(melody) for s, _ in rows):
        problems.append("a lyric is longer than its melody")
    return rows, problems


def second_line_json(run: CliRun) -> dict:
    lines = run.stdout.splitlines()
    try:
        return json.loads(lines[1])
    except (IndexError, json.JSONDecodeError):
        return {}


def tail_percentile(samples: int) -> int:
    """Highest whole percentile up to 90 with at least ten samples above it;
    50 when no percentile has."""
    if samples <= 20:
        return 50
    return min(90, math.floor(100 * (samples - 10) / samples))


def median_of(values: list[float], what: str) -> float:
    if not values:
        raise RuntimeError(f"every {what} call failed; nothing to report")
    return statistics.median(values)


def block_rates(latencies: list[float], block_seconds: float = 1.0) -> list[float]:
    """Completions per second in consecutive blocks of at least `block_seconds`
    of busy time; a trailing shorter block counts only when it is the only one."""
    rates, count, busy = [], 0, 0.0
    for latency in latencies:
        count += 1
        busy += latency
        if busy >= block_seconds:
            rates.append(count / busy)
            count, busy = 0, 0.0
    if count and not rates:
        rates.append(count / busy)
    return rates


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@contextmanager
def working_directory(path: Path) -> Iterator[None]:
    """Run inside a fresh `path`, removed afterwards; CLI paths stay relative,
    so CLI output is the same from run to run."""
    path.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


class Runner:
    """One run of one workload on one seed."""

    def __init__(self, wl: Workload, seed: int, inputs: Inputs) -> None:
        self.wl = wl
        self.seed = seed
        self.inputs = inputs
        self.ledger = Ledger()
        self.vocabulary_size = len(build_vocabulary([p.lyric for p in inputs.corpus]))
        self.lm: Optional[CharNgramModel] = None
        self.generator: Optional[MelodyConditionedNgram] = None
        # rows of the first `eval_melodies` held-out melodies, by index
        self.decoded: dict[int, list[tuple[str, float]]] = {}
        self.first_outputs: dict[str, str] = {}
        self.config = FusionConfig(beam_size=wl.beam)
        self.decoded_count = 0  # melodies the decode loop has taken, in order
        self.generated = 0  # melodies the generate calls have taken, in order
        self.speed = Speedometer()
        self.times: dict[str, list[Timing]] = {phase: [] for phase in PHASES}
        self.report: list[str] = []
        write_aligned_corpus(inputs.corpus, CORPUS_FILE)

    def melody(self, index: int) -> MelodySequence:
        return self.inputs.held_out[index % len(self.inputs.held_out)].melody

    def melody_file(self, index: int) -> str:
        path = f"melody{index}.txt"
        if not os.path.exists(path):
            notes = self.melody(index).notes
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(" ".join(f"{n.pitch}:{n.duration}:{n.rest}" for n in notes) + "\n")
        return path

    def same_as_first(self, command: str, output: str) -> list[str]:
        """Digest the first output of `command`; every later one must equal it."""
        if command not in self.first_outputs:
            self.first_outputs[command] = output
            self.ledger.digest(output)
            return []
        return [] if output == self.first_outputs[command] else [f"output differs from the first {command}"]

    def keep_rows(self, index: int, rows: list[tuple[str, float]]) -> None:
        """Digest the rows of the first melodies, whose count never varies."""
        if index < self.wl.eval_melodies and index not in self.decoded:
            self.decoded[index] = rows
            self.ledger.digest(f"melody {index}: {rows!r}")

    # -- end-to-end phases, run in interleaved rounds ------------------------

    def cli(self, argv: list[str]) -> CliRun:
        return run_cli(argv, self.speed)

    def setup_round(self, rnd: int) -> None:
        """train-lm and train-generator through the CLI, then load both models back."""
        self.lm = self.generator = None
        train_lm = self.cli(
            ["train-lm", "--corpus", CORPUS_FILE, "--out", LM_FILE,
             "--order", str(LM_ORDER), "--k", str(LM_K)]
        )
        train_gen = self.cli(
            ["train-generator", "--corpus", CORPUS_FILE, "--out", GEN_FILE,
             "--history", str(GEN_HISTORY), "--k", str(GEN_K)]
        )
        try:
            (lm, generator), load = self.speed.measure(
                lambda: (CharNgramModel.load(LM_FILE), MelodyConditionedNgram.load(GEN_FILE))
            )
        except Exception:
            self.ledger.check(f"set-up {rnd}", [traceback.format_exc(limit=-1).strip()])
            return

        problems = cli_problems(train_lm) + cli_problems(train_gen)
        if second_line_json(train_lm).get("texts") != len(self.inputs.corpus):
            problems.append("train-lm reports another text count")
        if second_line_json(train_gen).get("vocabulary_size") != self.vocabulary_size:
            problems.append("train-generator reports another vocabulary size")
        if len(generator.vocab) != self.vocabulary_size:
            problems.append("loaded generator has another vocabulary size")
        problems += self.same_as_first("train-lm", train_lm.stdout)
        problems += self.same_as_first("train-generator", train_gen.stdout)
        if self.ledger.check(f"set-up {rnd}", problems):
            parts = (train_lm.timing, train_gen.timing, load)
            seconds = sum(t.seconds for t in parts)
            self.times["train-lm"].append(train_lm.timing)
            self.times["train-generator"].append(train_gen.timing)
            self.times["set-up"].append(
                Timing(seconds, seconds / sum(t.reference_seconds for t in parts))
            )
            self.lm, self.generator = lm, generator

    def nsp_round(self, rnd: int) -> None:
        """build-nsp-dataset, then nsp-eval on the rows it wrote."""
        build = self.cli(
            ["build-nsp-dataset", "--corpus", CORPUS_FILE, "--out", NSP_FILE, "--seed", str(self.seed)]
        )
        summary = second_line_json(build)
        problems = cli_problems(build)
        if not problems:
            with open(NSP_FILE, "r", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            if summary.get("total") != rows or summary.get("lyrics") != len(self.inputs.corpus):
                problems.append("summary disagrees with the dataset written")
            problems += self.same_as_first("build-nsp-dataset", build.stdout)
        if self.ledger.check(f"build-nsp-dataset {rnd}", problems):
            self.times["build-nsp-dataset"].append(build.timing)

        evaluation = self.cli(["nsp-eval", "--dataset", NSP_FILE, "--lm", LM_FILE])
        scores = second_line_json(evaluation)
        problems = cli_problems(evaluation)
        if not problems:
            if scores.get("examples") != summary.get("total"):
                problems.append("nsp-eval scored another row count")
            if not all(0.0 <= scores.get(key, -1.0) <= 1.0 for key in ("accuracy", "auc")):
                problems.append("accuracy or AUC outside [0, 1]")
            problems += self.same_as_first("nsp-eval", evaluation.stdout)
        if self.ledger.check(f"nsp-eval {rnd}", problems):
            self.times["nsp-eval"].append(evaluation.timing)

    def decode_melody(self, index: int) -> None:
        """One library decode; its timing counts unless it raised."""
        melody = self.melody(index)
        try:
            results, timing = self.speed.measure(
                lambda: decode(melody, self.generator, self.lm, self.config), collect=False
            )
        except Exception:
            self.ledger.check(f"decode {index}", [traceback.format_exc(limit=-1).strip()])
            return
        self.times["decode"].append(timing)
        if self.ledger.check(f"decode {index}", check_decode(melody, results, self.wl.beam)):
            self.keep_rows(index, result_rows(results))

    def generate_melody(self, index: int) -> None:
        """One CLI generate call; its timing counts when it exits 0."""
        run = self.cli(
            ["generate", "--melody", self.melody_file(index), "--generator", GEN_FILE,
             "--lm", LM_FILE, "--beam-size", str(self.wl.beam)]
        )
        rows, problems = parse_generate(run, self.melody(index), self.wl.beam)
        if not problems and index in self.decoded and rows != self.decoded[index]:
            problems.append("generate output differs from the library decode")
        if run.code == 0:
            self.times["generate"].append(run.timing)
        if self.ledger.check(f"generate {index}", problems):
            self.keep_rows(index, rows)

    def decode_slice(self, seconds: float) -> None:
        """Library decode over held-out melodies in a closed loop for
        `seconds`, continued until the first `eval_melodies` are done."""
        settle()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or self.decoded_count < self.wl.eval_melodies:
            self.decode_melody(self.decoded_count)
            self.decoded_count += 1

    def evaluate_round(self, rnd: int) -> None:
        """evaluate the top lyric of each of the first melodies against its reference."""
        indices = [i for i in range(self.wl.eval_melodies) if i in self.decoded]
        if rnd == 0:
            with open(CANDIDATES_FILE, "w", encoding="utf-8") as fh:
                fh.writelines(self.decoded[i][0][0] + "\n" for i in indices)
            with open(REFERENCES_FILE, "w", encoding="utf-8") as fh:
                fh.writelines(serialize_lyric_line(self.inputs.held_out[i].lyric) + "\n" for i in indices)
        for call in range(self.wl.evaluate_calls):
            run = self.cli(
                ["evaluate", "--candidates", CANDIDATES_FILE, "--references", REFERENCES_FILE, "--json"]
            )
            problems = cli_problems(run)
            report = second_line_json(run)
            if not problems:
                if report.get("pairs") != len(indices):
                    problems.append("evaluate scored another pair count")
                if not all(0.0 <= v <= 1.0 for k, v in report.items() if k != "pairs"):
                    problems.append("a metric outside [0, 1]")
                problems += self.same_as_first("evaluate", run.stdout)
            if self.ledger.check(f"evaluate {rnd}.{call}", problems):
                self.times["evaluate"].append(run.timing)

    def end_to_end(self, seconds: float) -> dict[str, float]:
        wl = self.wl
        for rnd in range(wl.rounds):
            self.setup_round(rnd)
            if self.lm is None:
                continue
            if rnd == 0:
                for index in range(WARMUP_DECODES):
                    decode(self.melody(index), self.generator, self.lm, self.config)
            self.nsp_round(rnd)
            self.decode_slice(seconds / wl.rounds)
            for _ in range(wl.generate_calls):
                self.generate_melody(self.generated)
                self.generated += 1
            self.evaluate_round(rnd)
        if self.lm is None or not self.times["decode"]:
            raise RuntimeError("no set-up or no decode succeeded; nothing to report")
        rows = result_rows(decode(self.melody(0), self.generator, self.lm, self.config))
        self.ledger.check("re-decode", [] if rows == self.decoded.get(0) else ["re-decode differs"])

        def median_seconds(phase: str, measured: bool = False) -> float:
            return median_of(
                [t.seconds if measured else t.reference_seconds for t in self.times[phase]], phase
            )

        latencies = [t.reference_seconds for t in self.times["decode"]]
        tail = tail_percentile(len(latencies))
        readings = self.speed.readings
        self.report += [
            f"{wl.rounds} rounds; samples per phase: "
            + ", ".join(f"{phase} {len(values)}" for phase, values in self.times.items())
            + f"; decode_p90_ms is p{tail}",
            f"host slowness over {len(readings)} readings: median {statistics.median(readings):.3f},"
            f" range {min(readings):.3f}-{max(readings):.3f}",
            "median seconds per phase at reference speed: "
            + ", ".join(f"{phase} {median_seconds(phase):.6g}" for phase in PHASES),
            "median seconds per phase as measured: "
            + ", ".join(f"{phase} {median_seconds(phase, True):.6g}" for phase in PHASES),
        ]
        return {
            "setup_s": median_seconds("set-up"),
            "decode_melodies_per_s": statistics.median(block_rates(latencies)),
            "decode_p50_ms": statistics.median(latencies) * 1000.0,
            "decode_p90_ms": percentile(latencies, tail) * 1000.0,
            "peak_rss_mb": peak_rss_mb(),
            "cli_pipeline_s": sum(median_seconds(phase) for phase in CLI_PHASES),
        }

    def traced(self) -> dict[str, float]:
        """The per-layer split: spans around the benchmark's calls into each module."""
        wl, ledger, tracer = self.wl, self.ledger, Tracer()
        with tracer.span("corpus.load_aligned_corpus"):
            pairs = load_aligned_corpus(CORPUS_FILE)
        ledger.check("load corpus", [] if len(pairs) == len(self.inputs.corpus) else ["pair count differs"])
        lyrics = [pair.lyric for pair in pairs]

        with tracer.span("lm.train"):
            lm = train_char_ngram([lyric_lm_text(render_text(l)) for l in lyrics], LM_ORDER, LM_K)
        with tracer.span("lm.save"):
            lm.save(LM_FILE)
        with tracer.span("lm.load"):
            lm = CharNgramModel.load(LM_FILE)
        with tracer.span("generator.train"):
            generator = train_generator(pairs, build_vocabulary(lyrics), GEN_HISTORY, GEN_K)
        with tracer.span("generator.save"):
            generator.save(GEN_FILE)
        with tracer.span("generator.load"):
            generator = MelodyConditionedNgram.load(GEN_FILE)

        rows = []
        with tracer.span("nsp.build_dataset"):
            summary = build_dataset(lyrics, BuilderConfig(seed=self.seed), rows.append)
        ledger.check("nsp.build_dataset", [] if summary["total"] == len(rows) else ["row count differs"])
        nsp_lm = TimedProxy(lm)
        with tracer.span("lm.nsp_accuracy"):
            nsp_result = nsp_accuracy(nsp_lm.nsp_score, rows)
        ledger.check("lm.nsp_accuracy", [] if 0.0 <= nsp_result["accuracy"] <= 1.0 else ["accuracy outside [0, 1]"])
        nsp_stats = method_stats(nsp_lm)["nsp_score"]

        # decode split: each melody bare (untimed by spans) then proxied
        config = self.config
        gen_proxy = TimedProxy(generator)
        lm_proxy = TimedProxy(lm, keep_args=("score_with_spacing",))
        melodies = [self.melody(i) for i in range(wl.trace_melodies)]
        decode(melodies[0], generator, lm, config)
        untraced = 0.0
        eval_pairs = []
        for index, melody in enumerate(melodies):
            start = time.perf_counter()
            bare = decode(melody, generator, lm, config)
            untraced += time.perf_counter() - start
            with tracer.span("beam.decode"):
                proxied = decode(melody, gen_proxy, lm_proxy, config)
            problems = check_decode(melody, proxied, wl.beam)
            if result_rows(proxied) != result_rows(bare):
                problems.append("proxied decode differs from the bare one")
            ledger.check(f"traced decode {index}", problems)
            self.keep_rows(index, result_rows(bare))
            eval_pairs.append(EvalPair(bare[0].lyric, self.inputs.held_out[index].lyric))
        decode_s = tracer.total("beam.decode")
        gen_stats, lm_stats = method_stats(gen_proxy), method_stats(lm_proxy)
        gen_s = sum(s.seconds for s in gen_stats.values())
        lm_s = sum(s.seconds for s in lm_stats.values())
        scored = lm_stats["score_with_spacing"]
        suffix = lm.order - 1
        distinct_keys = {(context[len(context) - suffix:] if suffix else "", syllable)
                         for context, syllable in scored.args}

        sweep = {}
        for beam in SWEEP_BEAMS:
            beam_config = FusionConfig(beam_size=beam)
            times = []
            for index, melody in enumerate(melodies[: wl.sweep_melodies]):
                with tracer.span(f"beam.decode.b{beam}"):
                    results = decode(melody, generator, lm, beam_config)
                ledger.check(f"sweep b{beam} decode {index}", check_decode(melody, results, beam))
                times.append(tracer.spans[-1][1])
            sweep[f"beam.decode_ms.b{beam}"] = statistics.median(times) * 1000.0

        with tracer.span("metrics.corpus_eval"):
            report = corpus_eval(eval_pairs)
        ledger.check("metrics.corpus_eval", [] if report.pairs == len(eval_pairs) else ["pair count differs"])

        # each CLI command once, as the end-to-end rounds call it
        self.setup_round(0)
        self.nsp_round(0)
        self.generate_melody(0)
        self.evaluate_round(0)
        for phase in CLI_PHASES:
            if self.times[phase]:
                tracer.record(f"cli.main {phase}", self.times[phase][0].seconds)

        for name, count, total in tracer.summary():
            self.report.append(f"span {name}: {count} calls, {total:.6f} s")
        for owner, stats in (("generator", gen_stats), ("lm", lm_stats), ("lm", {"nsp_score": nsp_stats})):
            for method, s in stats.items():
                self.report.append(
                    f"proxy {owner}.{method}: {s.calls} calls, {s.seconds:.6f} s, {s.entries} entries"
                )
        next_distribution = gen_stats.get("next_distribution")
        entries = sum(s.entries for s in gen_stats.values())
        return {
            "beam.decode.s": decode_s,
            "beam.self_s": decode_s - gen_s - lm_s,
            "beam.self_frac": (decode_s - gen_s - lm_s) / decode_s,
            "generator.s": gen_s,
            "generator.frac": gen_s / decode_s,
            "generator.next_distribution.calls": next_distribution.calls if next_distribution else 0,
            "generator.next_distribution.s": next_distribution.seconds if next_distribution else 0.0,
            "generator.entries_used_ratio": scored.calls / entries if entries else 0.0,
            "lm.s": lm_s,
            "lm.frac": lm_s / decode_s,
            "lm.score_with_spacing.calls": scored.calls,
            "lm.score_with_spacing.s": scored.seconds,
            "lm.distinct_key_ratio": len(distinct_keys) / scored.calls if scored.calls else 0.0,
            "lm.nsp_score.calls": nsp_stats.calls,
            "lm.nsp_score.s": nsp_stats.seconds,
            "lm.train_s": tracer.total("lm.train"),
            "lm.save_s": tracer.total("lm.save"),
            "lm.load_s": tracer.total("lm.load"),
            "lm.model_bytes": os.path.getsize(LM_FILE),
            "generator.train_s": tracer.total("generator.train"),
            "generator.save_s": tracer.total("generator.save"),
            "generator.load_s": tracer.total("generator.load"),
            "generator.model_bytes": os.path.getsize(GEN_FILE),
            "corpus.load_aligned_corpus.s": tracer.total("corpus.load_aligned_corpus"),
            "nsp.build_dataset.s": tracer.total("nsp.build_dataset"),
            "nsp.rows": len(rows),
            "metrics.corpus_eval.s": tracer.total("metrics.corpus_eval"),
            **{f"cli.{phase.replace('-', '_')}.s": tracer.total(f"cli.main {phase}") for phase in CLI_PHASES},
            "trace.overhead_frac": decode_s / untraced - 1.0,
            **sweep,
        }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Build the seeded inputs, run one workload in `workdir`, and check it."""
    inputs = build_inputs(wl.name, wl.vocab, wl.pairs, wl.held_out, wl.melody_notes, seed)
    settle()
    try:
        with working_directory(workdir):
            runner = Runner(wl, seed, inputs)
            metrics = runner.traced() if trace else runner.end_to_end(seconds)
    finally:
        gc.unfreeze()
    ledger = runner.ledger
    report = [
        f"workload {wl.name} seed {seed} trace {int(trace)}: vocabulary {runner.vocabulary_size},"
        f" training pairs {len(inputs.corpus)}, {wl.melody_notes}-note melodies, beam {wl.beam}",
        *runner.report,
        f"attempted {ledger.attempted} failed {ledger.failed}"
        f" failed_frac {ledger.failed / max(ledger.attempted, 1)}",
        *(f"failure {failure}" for failure in ledger.failures),
        f"output digest sha256:{ledger.hexdigest()}",
    ]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return Result(ledger.attempted, ledger.failed, metrics, units, report)


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workdir = root / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    for line in result.report:
        print(line)
    for name, value in result.metrics.items():
        print(f"metric {name} = {value} {result.units[name]}")
    print(result.to_json())
    return 0
