"""One BLAS thread and one CPU for a benchmark process; call before numpy loads.

With the default OpenBLAS pool the same N=12 `eigen_operators` call took
0.07 s to 1.0 s, and with the scan thread pool spread over both CPUs of a
2-vCPU machine five seeded runs of 41x21 scans spread by 0.32 of their
median, 0.14 pinned (see README.md).  Children, such as the set-up interpreters,
inherit both settings.
"""

import os


def pin_process() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
