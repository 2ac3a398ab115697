"""jxcircuit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload univ-n4 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` alternates plain and traced rounds of one input and reports
the per-layer metrics.  Earlier lines of standard output describe the
machine, the checks and every metric; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``.perfbench_out/`` at the checkout root.  See README.md.
"""

import os
import sys

if __name__ == "__main__":
    # every workload runs its numerics on one BLAS thread; set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from harness import main

    sys.exit(main())
