"""Pin BLAS to one thread and to OpenBLAS's Haswell kernels before numpy is
imported.

Some float bits depend on the BLAS thread count: at d = 200 the
cross-fitted nuisance and the ridge pilot of the lasso penalty round
differently on one thread than on two, and the wide lasso golden
(tests/golden/wide_fits.txt) sees it.  The benchmark (perfbench/run.py)
pins one thread the same way, so the suite and the benchmark see the same
bits on any host.

The golden files also depend on the kernels OpenBLAS picks for the CPU:
SkylakeX, Haswell and Sandybridge round some products differently.  They
hold the Haswell kernels' bytes, which every AVX2 x86-64 machine can run.
The core is only a default, so that a run that forces another core keeps
it; builds without OpenBLAS ignore the variable.  `python tests/test_golden.py`
imports this module for the same pins when it regenerates the golden files.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
