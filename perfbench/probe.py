"""Set-up probe, run in a fresh interpreter by run.py.

Times `import permlog` plus one tiny warm-up call of each pipeline the
workload uses, and prints the seconds as its last line.

Usage: python3 perfbench/probe.py <workload> <workdir> <src-dir>
"""

import os
import sys
import time

t0 = time.perf_counter()
import permlog  # noqa: E402

from workloads import PIPELINES, warm_up  # noqa: E402


def main():
    workload, workdir, src = sys.argv[1:4]
    if not os.path.abspath(permlog.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"probe: permlog imported from {permlog.__file__}, not {src}\n")
        return 2
    warm_up(PIPELINES[workload], workdir)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
