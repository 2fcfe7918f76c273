"""Run one fuzzykan benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload train-fuzzy-kan --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It imports the package from ``src/`` of
the checkout it sits in.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
line before it holds the run's details and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_tmp"  # generated dataset files live here during set-up
# one BLAS thread: on a 2-core machine shared with other tenants, a second
# thread made train-step times swing by 3x
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment():
    """Fix the BLAS thread count and put the checkout's package on the path.

    Must run before numpy is imported: BLAS reads the thread count once.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    if not (SRC / "fuzzykan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fuzzykan package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")

    details, line = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORKDIR)
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
