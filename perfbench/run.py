#!/usr/bin/env python3
"""fhrmon benchmark: real-time factor, FHR accuracy and per-stage cost.

Run from the repository root:

    python3 perfbench/run.py --workload rec30k_soft [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process

``--trace 0`` times whole passes with tracing off and reports the end-to-end
metrics.  ``--trace 1`` makes one op-counting pass, then alternates untraced
and span-traced passes, runs the FPU micro-bench on operands sampled from
the counting pass, and reports the per-layer metrics.  Either way every
pass is checked for correctness, human-readable lines go first and the last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The package is imported from ``src/`` of the checkout this
script sits in; nothing under ``src/`` is modified.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "fhrmon" / "__init__.py").is_file():
        print(f"perfbench: no fhrmon package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # single-threaded numpy, set before it is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
