"""Golden outputs: the offline pipeline and evaluation on fixed seeded corpora.

Each CLI command runs once per corpus, in a working directory of its own so
that the paths its header echoes are the same on every run. The sha256 of
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

from conftest import make_corpus, random_syllable_corpus

COMMANDS = {
    "train-lm": ["train-lm", "--corpus", "corpus.jsonl", "--out", "lm.json", "--order", "4", "--k", "0.1"],
    "train-generator": ["train-generator", "--corpus", "corpus.jsonl", "--out", "gen.json"],
    "build-nsp-dataset": ["build-nsp-dataset", "--corpus", "corpus.jsonl", "--out", "nsp.tsv", "--seed", "11"],
    "nsp-eval lm": ["nsp-eval", "--dataset", "nsp.tsv", "--lm", "lm.json"],
    "nsp-eval oracle": ["nsp-eval", "--dataset", "nsp.tsv", "--scorer", "oracle", "--threshold", "0.7"],
    "generate": ["generate", "--melody", "melody.txt", "--generator", "gen.json", "--lm", "lm.json",
                 "--beam-size", "4", "--trace"],
    "generate lambda-lm 0.3": ["generate", "--melody", "melody.txt", "--generator", "gen.json",
                               "--lm", "lm.json", "--beam-size", "4", "--lambda-lm", "0.3", "--trace"],
    "generate lambda-lm 0": ["generate", "--melody", "melody.txt", "--generator", "gen.json",
                             "--beam-size", "4", "--lambda-lm", "0", "--trace"],
    "evaluate": ["evaluate", "--candidates", "candidates.txt", "--references", "references.txt", "--json"],
}
FILES = ("lm.json", "gen.json", "nsp.tsv")

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
        "nsp-eval lm": "e7ff6fb8945b4505ddc94d5334f3e5b97916a7f65f5f5fa287c1226aa8ba13a0",
        "nsp-eval oracle": "bf19b21c407575d697cd3057e50f8484f880cd6ac5e5da1c4079e9926485050d",
        "generate": "6533c4aa85b498f25cc36bb2fc397c6da2199c1dc8b3667784f9d7cca31853fa",
        "generate lambda-lm 0.3": "3a232aad931637c0e832131ad86c536ce0209ad55b275b8a350407921e773427",
        "generate lambda-lm 0": "c9bd11c5fdec1535567c5d950c54ba3300fb1b9e732e26bd5212e47e2545c4cb",
        "evaluate": "8be09d30790df76fdbdff1662e781acf5997cdc3d5950a5e28cad53eda6d6968",
        "lm.json": "11d87ed8a6f29c5a09b002e11efbb793fd097331182f1d265dd81cf95398a348",
        "gen.json": "688eaa6cfa2d375071248b17994143800f9ed360d988e04dd9673dad18bec66f",
        "nsp.tsv": "33e34458bf5f3125a2ff6e1a321b6c4f01675a6295d81480e5a126f208258886",
    },
    "syllables": {
        "train-lm": "4c9ae016f9206868bc85aa60a07efa691b2fba80a74e8cc1fff55044f571e269",
        "train-generator": "129a417cbb5e312fd2abfe7d317db3f3070afca18d4ccbf3616b598bd7fd668d",
        "build-nsp-dataset": "0d82e9ad80bc85c47e7c531808d648054cba2caa6bd7fbcd3c8e5f539852adf6",
        "nsp-eval lm": "2547ae64e1b3c5adf3d20612a601270201cb1fd3e6261a1b417661917581b400",
        "nsp-eval oracle": "b45c75eeea78a8b7c43b739953614d4e912abb37a61818057bd2ea9d7a60add3",
        "generate": "742496770262028a0d490f264ba0ede44cedbead84e787de2b71a53d43c047fa",
        "generate lambda-lm 0.3": "bea54841faac381a77614f0b5cf5e4d61e8cd09f82affef317af797fac84b1d8",
        "generate lambda-lm 0": "986f758c25093d5741a3caa685e0f8a787cf1ab670b3672268005d4a731fac85",
        "evaluate": "26927aaf73ac5601314dd6237da0f7ab881f024cd4bae2201fb0d5dc6505cedb",
        "lm.json": "1b00ef7a7f721dd54bb910420c51fd9254a325518ae095a473a574a6e46a6fea",
        "gen.json": "011eb89c564b18e76ddd4a1ff3a9d4eea12fdb4322c3a3247408cf8ba78d6947",
        "nsp.tsv": "207f5e44166f03a766d622b22718ea6cdd6fbd5e5c317d85a1ac981887377a63",
    },
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return {
        corpus: run_pipeline(make(), tmp_path_factory.mktemp(corpus)) for corpus, make in CORPORA.items()
    }


@pytest.mark.parametrize("corpus", list(CORPORA))
@pytest.mark.parametrize("output", [*COMMANDS, *FILES])
def test_output_matches_its_recorded_digest(digests, corpus, output):
    assert digests[corpus][output] == GOLDEN[corpus][output]
