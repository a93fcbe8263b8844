"""Golden outputs: the offline pipeline and evaluation on fixed seeded corpora.

Each CLI command runs once per corpus with the CPU probe reporting one CPU,
and once with it reporting two, so both the serial and the forked readers
are pinned; each run has a working directory of its own so that the paths
its header echoes are the same on every run. The sha256 of
every model file, the NSP TSV and every stdout must equal the digest recorded
here. A change that alters any of them on purpose records the new digests
and says why.
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from syllabeam.cli import main
from syllabeam.corpus import serialize_lyric_line, write_aligned_corpus

from conftest import counting_forks, make_corpus, random_syllable_corpus

COMMANDS = {
    "train-lm": ["train-lm", "--corpus", "corpus.jsonl", "--out", "lm.json", "--order", "4", "--k", "0.1"],
    "train-generator": ["train-generator", "--corpus", "corpus.jsonl", "--out", "gen.json"],
    "build-nsp-dataset": ["build-nsp-dataset", "--corpus", "corpus.jsonl", "--out", "nsp.tsv", "--seed", "11"],
    "nsp-eval lm": ["nsp-eval", "--dataset", "nsp.tsv", "--lm", "lm.json"],
    "nsp-eval lm threshold 0.7": ["nsp-eval", "--dataset", "nsp.tsv", "--lm", "lm.json", "--threshold", "0.7"],
    "generate": ["generate", "--melody", "melody.txt", "--generator", "gen.json", "--lm", "lm.json",
                 "--beam-size", "4", "--trace"],
    "generate lambda-lm 0.3": ["generate", "--melody", "melody.txt", "--generator", "gen.json",
                               "--lm", "lm.json", "--beam-size", "4", "--lambda-lm", "0.3", "--trace"],
    "generate lambda-lm 0": ["generate", "--melody", "melody.txt", "--generator", "gen.json",
                             "--beam-size", "4", "--lambda-lm", "0", "--trace"],
    "generate no trace": ["generate", "--melody", "melody.txt", "--generator", "gen.json", "--lm", "lm.json",
                          "--beam-size", "4"],
    "evaluate": ["evaluate", "--candidates", "candidates.txt", "--references", "references.txt", "--json"],
    "evaluate table": ["evaluate", "--candidates", "candidates.txt", "--references", "references.txt"],
    "evaluate word-level": ["evaluate", "--candidates", "candidates.txt", "--references", "references.txt",
                            "--word-level", "--json"],
    "emit-prompt": ["emit-prompt", "--set", "references=references.txt", "--set", "candidates=candidates.txt",
                    "--set", "references again=references.txt", "--variant", "annotated"],
}
FILES = ("lm.json", "gen.json", "nsp.tsv")
# the CPU counts the probe reports (`halves._cpus`): one reads serially, two fork
CPUS = (1, 2)

CORPORA = {
    "words": lambda: make_corpus(70, seed=4242),
    "syllables": lambda: random_syllable_corpus(70, seed=4243),
}


def run_pipeline(corpus, workdir):
    """The sha256 of every output of COMMANDS and FILES, run in `workdir`."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        train, held_out = corpus[:60], corpus[60:]
        write_aligned_corpus(train, "corpus.jsonl")
        with open("melody.txt", "w", encoding="utf-8") as fh:
            fh.write(" ".join(f"{n.pitch}:{n.duration}:{n.rest}" for n in held_out[0].melody.notes) + "\n")
        with open("references.txt", "w", encoding="utf-8") as fh:
            fh.writelines(serialize_lyric_line(p.lyric) + "\n" for p in held_out[:5])
        with open("candidates.txt", "w", encoding="utf-8") as fh:
            fh.writelines(serialize_lyric_line(p.lyric) + "\n" for p in held_out[5:])
        digests = {}
        for name, argv in COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert (code, err.getvalue()) == (0, ""), name
            digests[name] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        for name in FILES:
            with open(name, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests
    finally:
        os.chdir(previous)


GOLDEN = {
    "words": {
        "train-lm": "54403be88b53d5c0748a0b72b4611cc0c801ee0eef67aecfa13aa60591e75500",
        "train-generator": "a36200061604c142013f917fd84e6ff76d5468e4fc5fcb45dc9103350df283ae",
        "build-nsp-dataset": "d3325488ae91a40b631593a8ad49464dbe557f62666557e9a7b3f37541a407b2",
        "nsp-eval lm": "3b8e8f2229ccd80640365c6ed8bdbd3cd1a722ce9a7a4aa73815c4d94cf0b9ef",
        "nsp-eval lm threshold 0.7": "d8ca7018d8c2cd10380e8ab65a16b6c5b7e904a9305c13eef3bd81578ff317a2",
        "generate": "6533c4aa85b498f25cc36bb2fc397c6da2199c1dc8b3667784f9d7cca31853fa",
        "generate lambda-lm 0.3": "3a232aad931637c0e832131ad86c536ce0209ad55b275b8a350407921e773427",
        "generate lambda-lm 0": "c9bd11c5fdec1535567c5d950c54ba3300fb1b9e732e26bd5212e47e2545c4cb",
        "generate no trace": "368ff7a44816d233c2e5c54700e03eb7a9a5aace301b591e1d3e466cc2828d97",
        "evaluate": "8be09d30790df76fdbdff1662e781acf5997cdc3d5950a5e28cad53eda6d6968",
        "evaluate table": "0aebbc57d8af5ef7024d42fa4f58f060a4823965831e02f1382e7e0ac83ab7b2",
        "evaluate word-level": "97afb3beb2c09a631db7efe79894b237be558e84def06286990340f9a85988c7",
        "emit-prompt": "5d35f31c273ca24072d40597318711bd26fb67cc98c0a7ad80928a151f5bcc06",
        "lm.json": "11d87ed8a6f29c5a09b002e11efbb793fd097331182f1d265dd81cf95398a348",
        "gen.json": "55ec32888cb52ed2d13059473286d675a125f05b1376e773f5f991f613c0b743",
        "nsp.tsv": "33e34458bf5f3125a2ff6e1a321b6c4f01675a6295d81480e5a126f208258886",
    },
    "syllables": {
        "train-lm": "4c9ae016f9206868bc85aa60a07efa691b2fba80a74e8cc1fff55044f571e269",
        "train-generator": "129a417cbb5e312fd2abfe7d317db3f3070afca18d4ccbf3616b598bd7fd668d",
        "build-nsp-dataset": "0d82e9ad80bc85c47e7c531808d648054cba2caa6bd7fbcd3c8e5f539852adf6",
        "nsp-eval lm": "b46205154ea4e6821c04a963f6752857bec7b70c07bd4c56ee91b77c8e36872c",
        "nsp-eval lm threshold 0.7": "76eb4e47105f63fbd8b0edbb14e149d70f57ca9bcf06fa100467de3996803792",
        "generate": "742496770262028a0d490f264ba0ede44cedbead84e787de2b71a53d43c047fa",
        "generate lambda-lm 0.3": "bea54841faac381a77614f0b5cf5e4d61e8cd09f82affef317af797fac84b1d8",
        "generate lambda-lm 0": "986f758c25093d5741a3caa685e0f8a787cf1ab670b3672268005d4a731fac85",
        "generate no trace": "263c600a23ddbfffd0b218bf6e1c4bc648e57c35b91e8505168ed8b988801bf4",
        "evaluate": "26927aaf73ac5601314dd6237da0f7ab881f024cd4bae2201fb0d5dc6505cedb",
        "evaluate table": "3f1ba45c8a492616f604d3e7bf3dc1f0c77396817a38a99282701ae0c7b38319",
        "evaluate word-level": "7c5f5f4a1180a134e29e3ca3c7ca66e5e6e4a05b831885295060d0a4625a33c9",
        "emit-prompt": "77f2ebcb4a19a094bbd3d30b3941f06e8c687bbbf36ff6d516ac70271401f450",
        "lm.json": "1b00ef7a7f721dd54bb910420c51fd9254a325518ae095a473a574a6e46a6fea",
        "gen.json": "e76aa5e2553407255746cb9308b75ede6a976ca9834d851a7580f1791f92433c",
        "nsp.tsv": "207f5e44166f03a766d622b22718ea6cdd6fbd5e5c317d85a1ac981887377a63",
    },
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The digests of each corpus's pipeline by (CPUs, corpus), and the forks
    of each run by CPUs, with the CPU probe reporting each of CPUS."""
    digests, forks = {}, {}
    for cpus in CPUS:
        with pytest.MonkeyPatch.context() as patch:
            counted = counting_forks(patch, cpus)
            for corpus, make in CORPORA.items():
                digests[cpus, corpus] = run_pipeline(make(), tmp_path_factory.mktemp(f"{corpus}-{cpus}cpu"))
        forks[cpus] = len(counted)
    return digests, forks


@pytest.mark.parametrize("corpus", list(CORPORA))
@pytest.mark.parametrize("output", [*COMMANDS, *FILES])
def test_output_matches_its_recorded_digest(runs, corpus, output):
    digests, _ = runs
    assert [digests[cpus, corpus][output] for cpus in CPUS] == [GOLDEN[corpus][output]] * len(CPUS)


def test_only_the_two_cpu_runs_fork(runs):
    _, forks = runs
    assert forks[1] == 0 and forks[2] > 0
