"""Layered benchmark for the permlog disc and strip pipelines.

Usage (from the repository root):

    python3 perfbench/run.py --workload disc-full --seed 1 --seconds 35 --trace 0

Builds the workload's operations from the seed, runs whole rounds of them
for about --seconds seconds, checks every answer against an exact oracle or
a rank-one closed form, and prints one line per metric followed by a JSON
summary as the last line. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics. See perfbench/README.md.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    # the package under test is always this checkout's src/, never an install
    if not (SRC / "permlog" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no permlog sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
