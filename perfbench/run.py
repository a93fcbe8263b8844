"""Benchmark entry point; run it from the root of a syllabeam checkout:

    python3 perfbench/run.py --workload decode-small-vocab --seed 1 --seconds 10 --trace 0

It imports the package from the checkout's own `src/` (nothing is built),
prints a report, and ends with one JSON line holding the results. Without
`src/syllabeam` beside it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main() -> int:
    package = SOURCE / "syllabeam"
    if not (package / "__init__.py").is_file():
        print(f"error: no syllabeam sources at {package}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import syllabeam

    if Path(syllabeam.__file__).resolve().parent != package:
        print(f"error: imported syllabeam from {syllabeam.__file__}, not {package}", file=sys.stderr)
        return 2
    import bench_core

    try:
        return bench_core.main(sys.argv[1:], ROOT)
    finally:
        # the per-run directories are removed as each run ends
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
