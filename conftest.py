"""Test-session set-up for tests/ and perfbench/.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy first loads it, so this
file sets it before any test module imports numpy.  One thread is what CI
and perfbench use; on a 2-core host a second thread made the end-to-end fit
slower, not faster (28 against 20 ms per step).  A value set by the caller
is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
