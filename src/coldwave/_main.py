"""Console entry point.

COLDWAVE_THREADS caps internal parallelism (the BLAS pools of numpy and
SciPy); it must take effect before numpy loads, so the heavy imports
happen inside main().
"""

import os
import sys


def main():
    n = os.environ.get("COLDWAVE_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)
    from coldwave.cli import main as run
    return run()


if __name__ == "__main__":
    sys.exit(main())
