"""Fixtures shared by the test modules."""

import sys

# shapdrift pins BLAS to one thread, which OpenBLAS reads only when numpy loads
# it; so shapdrift comes before numpy, or the tests would run unpinned, and
# the recorded flag lets a test check that nothing loaded numpy earlier
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
import shapdrift  # noqa: F401

import numpy as np
import pytest

from shapdrift.tensor import Tensor, _make, softmax_cross_entropy


def sigmoid(a):
    """A logistic sigmoid tape node with the arithmetic of ``tensor.lstm``'s
    gates, ``1 / (1 + exp(-a))``, for the cell composition that the lstm is
    compared against bit for bit."""
    s = np.divide(1.0, 1.0 + np.exp(-a.data))
    out = _make(s, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * s * (1.0 - s), fresh=True)
        out._backward = _bw
    return out


def tape_loop_gradients(model, xs, ys):
    """The reference for ``Model.example_gradients``: one batch-1 taped forward
    and backward pass per row, each row's gradient flattened over
    ``trainable_parameters()`` in sorted-name order; every ``grad`` is left None."""
    params = model.trainable_parameters()
    names = sorted(params)
    out = np.zeros((len(xs), sum(params[name].size for name in names)))
    for r in range(len(xs)):
        softmax_cross_entropy(model.forward(Tensor(xs[r:r + 1])),
                              np.asarray(ys[r:r + 1], dtype=np.int64)).backward()
        lo = 0
        for name in names:
            p = params[name]
            if p.grad is not None:
                out[r, lo:lo + p.size] = p.grad.ravel()
                p.grad = None
            lo += p.size
    return out


@pytest.fixture
def tape_loop():
    return tape_loop_gradients
