"""Pin BLAS to one thread before numpy loads.

The samplers and counters multiply 2 x 2 to 5 x 5 matrices, which gain
nothing from threads; multi-threaded OpenBLAS makes them many times
slower while another process holds a core.  A value set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
