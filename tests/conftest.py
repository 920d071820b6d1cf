"""Load shiftbench before any test module loads numpy.

Importing the package pins BLAS to one thread, but BLAS reads its thread
count only once, when numpy loads.  A test module that imports numpy first
would leave the whole test process on threaded BLAS.
"""

import shiftbench  # noqa: F401
