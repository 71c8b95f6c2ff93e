"""Run the tests at one BLAS thread unless the environment names a count.

The crystal solve's last bits follow the BLAS thread count, and at
OpenBLAS's default of one thread per CPU it is also several times slower,
so a plain ``pytest`` sees the bits and the speed of a pinned run.  The
variables must be set before numpy loads, which a root conftest precedes.
A count set in the environment, through any of the variables OpenBLAS
reads (``crystal._one_blas_thread``), is kept as it is.
"""

import os

if not any(name in os.environ for name in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
