"""The library is what the CLI reaches, and each function it does not reach
is named here with its reason.

A fresh interpreter runs this module as a script: it sets a profile
(`sys.setprofile`) before it imports the package, then runs the success path
of every command through `cli.main`, once with the CPU probe reporting one
CPU and once two, so the set of functions entered does not depend on the
host. The test compares the `def`s of `src/syllabeam` (nested ones
included) that were never entered with `UNREACHED`. A function that leaves
or joins the unreached set fails the test by name.
"""

import ast
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "syllabeam"

LIBRARY = "a library entry that README documents, or a function only such an entry calls"
PERFBENCH = "only perfbench calls it"
CHILD = "it runs only in a forked child, which the profile of the command does not follow"

# each function no command's success path enters, with its one reason
UNREACHED = {
    "corpus.build_vocabulary": LIBRARY,
    "corpus.load_aligned_corpus": LIBRARY,
    "generator.train_generator": LIBRARY,
    "generator.train_records": LIBRARY,  # train_generator's; train-generator writes its rows unsummed
    "lm.CharNgramModel.nsp_score": LIBRARY,
    "nsp.build_dataset": LIBRARY,
    "nsp.build_dataset.split": LIBRARY,
    "nsp.check_corpus": LIBRARY,  # build_dataset's check
    "nsp.check_row": LIBRARY,  # nsp_score's check; the TSV reader's on a bad line
    "nsp.nsp_line": LIBRARY,
    "corpus.MelodySequence.__len__": PERFBENCH,
    "corpus.write_aligned_corpus": PERFBENCH,
    "lm.nsp_accuracy": PERFBENCH,
    "halves._dump": CHILD,
}

# each module of the package to the package modules it imports
IMPORTS = {
    "__init__": {"beam", "corpus", "generator", "lm"},
    "beam": {"corpus", "lm"},
    "cli": {"beam", "corpus", "generator", "halves", "lm", "metrics", "modelfile", "nsp"},
    "corpus": set(),
    "generator": {"corpus", "modelfile"},
    "halves": set(),
    "lm": {"corpus", "halves", "modelfile", "nsp"},
    "metrics": {"corpus"},
    "modelfile": {"corpus"},
    "nsp": {"corpus", "halves", "rng"},
    "rng": set(),
}


def defs() -> dict[tuple[str, int, str], str]:
    """Every `def` of the package by (file name, first line, name), the key a
    code object gives, to its dotted name (module, then enclosing defs and
    classes). A decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[file, first, child.name] = name
                visit(child, name, file)
            else:
                visit(child, prefix, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def test_the_import_graph_is_pinned():
    # `from .module import ...` and `from . import module`
    found = {}
    for path in sorted(SRC.glob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        imports = [node for node in nodes if isinstance(node, ast.ImportFrom) and node.level]
        found[path.stem] = {node.module or alias.name for node in imports for alias in node.names}
    assert found == IMPORTS


def commands(workdir: Path) -> list[list[str]]:
    """The argv of each command's success paths on the files in `workdir`."""
    corpus, lm, gen, tsv = (str(workdir / name) for name in ("corpus.jsonl", "lm.json", "gen.json", "nsp.tsv"))
    lyrics, melody = str(workdir / "lyrics.txt"), str(workdir / "melody.txt")
    evaluate = ["evaluate", "--candidates", lyrics, "--references", lyrics]
    emit = ["emit-prompt", *(f"--set={name}={lyrics}" for name in "abc")]
    return [
        ["train-lm", "--corpus", corpus, "--out", lm],
        ["train-generator", "--corpus", corpus, "--out", gen],
        ["build-nsp-dataset", "--corpus", corpus, "--out", tsv],
        ["nsp-eval", "--dataset", tsv, "--lm", lm],
        # a melody shorter than --max-len, so the search reaches the end token
        ["generate", "--melody", melody, "--generator", gen, "--lm", lm, "--trace"],
        ["generate", "--melody", melody, "--generator", gen, "--lambda-lm", "0"],
        [*evaluate, "--json", "--word-level"],
        evaluate,
        [*emit, "--variant", "annotated", "--out", str(workdir / "prompt.txt")],
        emit,
    ]


def entered(workdir: Path) -> set[tuple[str, int, str]]:
    """(file name, first line, name) of each package function this process
    enters while it imports the CLI and runs `commands` on one CPU and on two."""
    seen = set()
    prefix = str(SRC) + os.sep

    def probe(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            seen.add((Path(code.co_filename).name, code.co_firstlineno, code.co_name))

    sys.setprofile(probe)
    try:
        from syllabeam.cli import main

        for cpus in (1, 2):
            # the CPU probe reads the affinity set; it reports `cpus` CPUs
            os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
            for argv in commands(workdir):
                assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    return seen


def test_unreached_functions_are_the_allowlist(tmp_path):
    # imported here: run as a script, the module imports the package only once its profile is set
    from syllabeam.corpus import serialize_lyric_line, write_aligned_corpus

    from conftest import make_corpus

    pairs = make_corpus(12, seed=7, max_syllables=10)
    write_aligned_corpus(pairs, tmp_path / "corpus.jsonl")
    notes = pairs[0].melody.notes[:4]
    (tmp_path / "melody.txt").write_text(" ".join(f"{n.pitch}:{n.duration}:{n.rest}" for n in notes) + "\n")
    (tmp_path / "lyrics.txt").write_text("".join(serialize_lyric_line(p.lyric) + "\n" for p in pairs[:3]))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    seen = {tuple(key) for key in json.loads(done.stdout.splitlines()[-1])}
    unreached = {name for key, name in defs().items() if key not in seen}
    # (newly unreached, newly reached)
    assert (unreached - UNREACHED.keys(), UNREACHED.keys() - unreached) == (set(), set())


if __name__ == "__main__":
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        keys = entered(Path(sys.argv[1]))
    print(json.dumps(sorted(keys)))
