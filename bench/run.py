"""Benchmark of fellbundles CLI certification sessions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: group-ladder, crossed-products,
refutations (see workloads.py); "all" runs each in turn.  Set-up imports
the package, writes the seeded inputs under .bench_work/ and runs one
warm-up job in this process; it is repeated and its median reported as
setup_s.  Then whole sessions (passes) run, one CLI job at a time, each job
in a child forked from this warmed process, until the next pass would end
after S seconds; each job's time is its median over the passes.  With
--trace 0 the end-to-end metrics are printed, with --trace 1 untraced and
traced passes alternate and the per-layer metrics of spans.py are printed,
with the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("group-ladder", "crossed-products", "refutations")


def pin_threads(environ=os.environ) -> int:
    """Default every BLAS/OpenMP pool to one thread; refuse more than nproc.
    Must run before numpy is imported.  Returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = environ.setdefault(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            raise SystemExit(f"{var}={value}: need a whole number of threads "
                             f"from 1 to nproc={nproc}")
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    if not (ROOT / "src" / "fellbundles").is_dir():
        raise SystemExit(f"no src/fellbundles under {ROOT}: run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure  # imports numpy and fellbundles

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        measure(args, workload, nproc, ROOT, SETUP_REPEATS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
