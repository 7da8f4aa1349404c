"""Desk-scale lab for tracking SHAP explanation drift under continual learning."""

import os

# OpenBLAS splits some products across threads, which changes their rounding and so
# the output bytes; BLAS reads these when numpy loads it, so set them before that
BLAS_THREADS = 1
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                str(BLAS_THREADS)))

__version__ = "0.1.0"
