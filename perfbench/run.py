"""Benchmark entry point for the P2B pipeline.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

with W one of ``deploy_rounds``, ``replay_mixed``, ``serve_churn``.

Run from the repository root; the library is imported from ``src/``.
BLAS/OpenMP pools are pinned to one thread before numpy loads, so every
run stays within the machine's cores and no pool resizes under load.
"""

import os
import sys
from pathlib import Path

#: BLAS/OpenMP pool sizes pinned before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no library sources at {root / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    from importlib import import_module

    sys.path[:0] = [str(root / "src"), str(root)]
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(import_module("perfbench.harness").main())
