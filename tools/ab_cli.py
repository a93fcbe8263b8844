"""In-process A/B timing of one CLI command from two checkouts.

    python tools/ab_cli.py BASE CHANGE [--rounds N] [--pad-mb MB] -- COMMAND ARGS...

Copies `BASE/src/syllabeam` and `CHANGE/src/syllabeam` into a temporary
directory under two package names, imports both into this process, and calls
`main([COMMAND, *ARGS])` of each in turn, `--rounds` times, the first of each
pair alternating. Each side runs in a directory of its own, so give inputs as
absolute paths and outputs as relative ones: both sides then echo the same
paths, and their output files can be compared byte for byte. `--pad-mb`
allocates that many MB of small objects first, so a fork copies a heap of
about the size a longer-lived process has.

Prints the median seconds of each side, the median of the per-pair ratios
change/base, the pairs the change won, and whether stdout and every output
file were equal on every call. Two processes run one after the other can
differ by far more than a change does on a busy host; pairs in one process
share its state and its noise.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")


def load(root: Path, name: str, into: Path):
    """The `cli` module of the checkout at `root`, imported as package `name`."""
    shutil.copytree(root / "src" / "syllabeam", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def call(cli, argv: list[str], workdir: Path) -> tuple[float, int, str]:
    """(seconds, exit code, stdout) of one `cli.main(argv)` run in `workdir`."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return seconds, code, out.getvalue()


def same_files(left: Path, right: Path) -> bool:
    """Whether the two directories hold the same names with the same bytes."""
    names = sorted(p.name for p in left.iterdir())
    if names != sorted(p.name for p in right.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(left, right, names, shallow=False)
    return not (mismatch or errors)


def compare(base: Path, change: Path, argv: list[str], rounds: int, pad_mb: int = 0) -> dict:
    """The timings of `rounds` alternating pairs of calls, as `main` prints them."""
    padding = [(i,) for i in range(pad_mb * 1024 * 1024 // 64)]  # about 64 bytes a tuple
    times = {side: [] for side in SIDES}
    equal, codes = True, set()
    with tempfile.TemporaryDirectory(prefix="ab-cli-") as tmp:
        root = Path(tmp)
        tag = root.name.replace("-", "_")
        sys.path.insert(0, tmp)
        try:
            clis = {side: load(path, f"{side}_{tag}", root) for side, path in zip(SIDES, (base, change))}
            dirs = {side: root / f"{side}-run" for side in SIDES}
            for index in range(rounds):
                stdout = {}
                for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                    shutil.rmtree(dirs[side], ignore_errors=True)
                    dirs[side].mkdir()
                    seconds, code, stdout[side] = call(clis[side], argv, dirs[side])
                    times[side].append(seconds)
                    codes.add(code)
                equal = equal and stdout["base"] == stdout["change"] and same_files(dirs["base"], dirs["change"])
        finally:
            sys.path.remove(tmp)
            for name in [name for name in sys.modules if name.split(".")[0].endswith(tag)]:
                del sys.modules[name]
    del padding
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    return {
        "base_s": statistics.median(times["base"]),
        "change_s": statistics.median(times["change"]),
        "ratio": statistics.median(ratios),
        "won": sum(r < 1 for r in ratios),
        "rounds": rounds,
        "outputs_equal": equal,
        "exit_codes": sorted(codes),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--pad-mb", type=int, default=0)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    if not command or args.rounds < 1:
        parser.error("give a command after --, and one round or more")
    result = compare(args.base, args.change, command, args.rounds, args.pad_mb)
    print(
        f"{command[0]}: base {result['base_s'] * 1000:.2f} ms, change {result['change_s'] * 1000:.2f} ms"
        f" (medians); ratio {result['ratio']:.3f}; change won {result['won']}/{result['rounds']};"
        f" outputs {'equal' if result['outputs_equal'] else 'DIFFER'}; exit codes {result['exit_codes']}"
    )
    return 0 if result["outputs_equal"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
