"""Run numpy's BLAS on one thread, as perfbench/run.py runs its children.

The wall-clock gates in test_acceptance.py assume one core's worth of
work; a BLAS that spreads over every core slows both of two concurrent
test processes. pytest loads this file before any test module imports
numpy, so the settings take effect; a value already in the environment
wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
