"""Run the listed text mutants of the source against a set of tests.

    python tools/mutants.py [PYTEST_TARGET ...]

Reads every `tools/mutants_*.txt`. Each file names the pytest targets its
mutants run against by default, and each mutant changes the source file the
last `file` line before it names; targets given on the command line replace
those of every file. Each mutant is applied to its own copy of the
repository under a temporary directory, never to the checkout, and the
targets run there under pytest with `-x` and a fixed `--hypothesis-seed`, at
most two copies at a time. Each file's targets first run on an unmutated
copy and must pass. Prints one line per mutant, killed (with the first
failing test) or survived, and exits 1 if any survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANT_FILES = sorted(Path(__file__).resolve().parent.glob("mutants_*.txt"))
ARROW = " → "
TIMEOUT_S = 900
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_run")


def load(path: Path) -> tuple[list[str], list[tuple[str, str, str, str]]]:
    """The default pytest targets and the (id, target file, old, new)
    mutants a mutant file lists."""
    target, tests, mutants = None, None, []
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        ident, _, rest = line.partition(" ")
        if ident == "file":
            target = rest
            continue
        if ident == "tests":
            tests = rest.split()
            continue
        old, arrow, new = rest.partition(ARROW)
        if not arrow or not old or target is None:
            raise ValueError(f"{path}:{n}: expected 'ID old{ARROW}new' after a 'file' line")
        mutants.append((ident, target, old.replace("\\n", "\n"), new.replace("\\n", "\n")))
    if not mutants or not tests:
        raise ValueError(f"{path}: no mutant or no 'tests' line")
    return tests, mutants


def mutate(text: str, old: str, new: str) -> str:
    """`text` with its one occurrence of `old` replaced by `new`."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{old!r} occurs {count} times, not once")
    return text.replace(old, new)


def run(mutant, pytest_args: list[str]) -> tuple[bool, str]:
    """(passed, first failing test) of the tests on a copy carrying `mutant`,
    a (target file, old, new) triple, or on an unmutated copy for None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        if mutant is not None:
            target, old, new = mutant
            path = copy / target
            path.write_text(mutate(path.read_text(encoding="utf-8"), old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *pytest_args]
        try:
            done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return False, line.split(" ", 1)[1].split(" - ", 1)[0]  # an id may hold spaces
    return False, f"pytest exit {done.returncode}"


def main(argv: list[str]) -> int:
    baselines, jobs = [], []  # (name, None, tests) and (id, (target, old, new), tests)
    for path in MUTANT_FILES:
        tests, mutants = load(path)
        tests = argv or tests
        for ident, target, old, new in mutants:
            try:
                mutate((ROOT / target).read_text(encoding="utf-8"), old, new)
            except ValueError as exc:
                print(f"error: {ident}: {exc}", file=sys.stderr)
                return 2
            jobs.append((ident, (target, old, new), tests))
        baselines.append((path.name, None, tests))
    with ThreadPoolExecutor(max_workers=2) as pool:
        for (name, *_), (passed, failing) in zip(baselines, pool.map(lambda job: run(*job[1:]), baselines)):
            if not passed:
                print(f"error: {name}: the unmutated tests fail: {failing}", file=sys.stderr)
                return 2
        outcomes = list(pool.map(lambda job: run(*job[1:]), jobs))
    for (ident, *_), (passed, failing) in zip(jobs, outcomes):
        print(f"{ident}  survived" if passed else f"{ident}  killed  {failing}")
    return 1 if any(passed for passed, _ in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
