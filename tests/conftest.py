"""Pin BLAS to one thread before numpy loads, unless the caller set the variables.

The solver's matrices have at most a few hundred rows, so threaded BLAS only
adds contention: with one other busy process on a two-core machine an AVP
SOCSE-8 solve runs many times slower unpinned.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
