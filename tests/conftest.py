"""Pin BLAS to one thread before numpy is imported.

Some float bits depend on the BLAS thread count: at d = 200 the
cross-fitted nuisance and the ridge pilot of the lasso penalty round
differently on one thread than on two, and the wide lasso golden
(tests/golden/wide_fits.txt) sees it.  The benchmark (perfbench/run.py)
pins one thread the same way, so the suite and the benchmark see the same
bits on any host.  `python tests/test_golden.py` imports this module for
the same pin when it regenerates the golden files.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
