"""Run one benchmark workload: python3 perfbench/run.py --workload NAME
[--seed N] [--seconds S] [--trace 0|1].

BLAS runs on one thread, set before numpy loads: with two, single
small eigh calls stalled (over 435 timings of a 160x160 eigh, median
2.8 ms, the standard deviation was 4.7 times the median).
"""

import os
import sys


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


if __name__ == "__main__":
    pin_blas_threads()
    import bench

    sys.exit(bench.main())
