"""Dense float64 tensors with reverse-mode automatic differentiation.

The substrate for every other module: matrix multiply, 1D/2D convolution,
2D average pooling, elementwise nonlinearities, a fused LSTM sequence
(``lstm``: one tape node per sequence, hand-written backprop through time)
and a fused softmax cross-entropy. Operations whose inputs require
gradients are recorded on an implicit tape (the operation graph);
``backward`` replays it once in reverse topological order and releases it.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Arrayish = Union["Tensor", np.ndarray, float, int, Sequence]

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables tape recording on the current thread."""

    def __enter__(self):
        self._saved = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._saved
        return False


class Tensor:
    """A float64 n-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")

    def __init__(self, data: Arrayish, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple = ()
        self._backward = None
        self._op = "leaf"

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- tape machinery ------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar; each tape node is visited exactly once.

        The tape is consumed: closures and parent links of visited interior
        nodes are dropped afterwards.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward on a tensor with requires_grad=False (empty tape)")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._prev = ()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def sum(self, axis=None):
        return tsum(self, axis)


def _wrap(x: Arrayish) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Iterable[Tensor], op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._op = op
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise and structural primitives -----------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes do not broadcast: {a.shape} vs {b.shape}") from None
    out = _make(data, (a, b), "add")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes do not broadcast: {a.shape} vs {b.shape}") from None
    out = _make(data, (a, b), "mul")
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b_data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a_data, b.shape))
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul supports 2D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ: {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def _bw(g):
            if a.requires_grad:
                a._accumulate(g @ b_data.T)
            if b.requires_grad:
                b._accumulate(a_data.T @ g)
        out._backward = _bw
    return out


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = _make(t, (a,), "tanh")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * (1.0 - t * t))
        out._backward = _bw
    return out


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)
    out = _make(s, (a,), "sigmoid")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * s * (1.0 - s))
        out._backward = _bw
    return out


def relu(a: Tensor) -> Tensor:
    out = _make(np.maximum(a.data, 0.0), (a,), "relu")
    if out.requires_grad:
        mask = a.data > 0
        def _bw(g):
            a._accumulate(g * mask)
        out._backward = _bw
    return out


def tsum(a: Tensor, axis=None) -> Tensor:
    out = _make(a.data.sum(axis=axis), (a,), "sum")
    if out.requires_grad:
        shape = a.shape
        def _bw(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, shape))
            else:
                a._accumulate(np.broadcast_to(np.expand_dims(g, axis), shape))
        out._backward = _bw
    return out


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis) * (1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    out = _make(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        orig = a.shape
        def _bw(g):
            a._accumulate(g.reshape(orig))
        out._backward = _bw
    return out


def swap_last2(a: Tensor) -> Tensor:
    """Transpose the last two axes, e.g. (B, T, F) -> (B, F, T)."""
    out = _make(np.swapaxes(a.data, -1, -2), (a,), "swap_last2")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(np.swapaxes(g, -1, -2))
        out._backward = _bw
    return out


def _slice(a: Tensor, key: tuple, op: str) -> Tensor:
    """Select ``a.data[key]``; backward adds into that region of the parent's
    gradient, allocating zeros only for the parent's first gradient."""
    out = _make(a.data[key], (a,), op)
    if out.requires_grad:
        def _bw(g):
            if a.grad is None:
                a.grad = np.zeros(a.shape)
                a.grad[key] = g
            else:
                region = a.grad[key]  # a view: ``+=`` on it skips a write-back copy
                region += g
        out._backward = _bw
    return out


def time_slice(a: Tensor, t: int) -> Tensor:
    """Select step t of a (batch, steps, features) tensor -> (batch, features)."""
    if a.ndim != 3:
        raise ValueError(f"time_slice expects a 3D tensor, got shape {a.shape}")
    return _slice(a, (slice(None), t, slice(None)), "time_slice")


def col_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Select columns [start:stop) of a 2D tensor."""
    if a.ndim != 2:
        raise ValueError(f"col_slice expects a 2D tensor, got shape {a.shape}")
    return _slice(a, (slice(None), slice(start, stop)), "col_slice")


# -- recurrence ---------------------------------------------------------------


def lstm(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """Final hidden state of a single-layer LSTM run over a whole sequence.

    x: (batch, steps, features); w_ih: (features, 4H); w_hh: (H, 4H);
    bias: (4H,), gate blocks in the order input, forget, cell, output. The
    state starts at zero. The sequence is one tape node whose backward is
    hand-written backprop through time; it repeats the arithmetic, operand
    order and array views of the per-step cell composed from ``matmul``,
    ``col_slice``, ``sigmoid``, ``tanh``, ``mul`` and ``add``, so values and
    gradients are bit-identical to that composition.
    """
    if x.ndim != 3 or w_ih.ndim != 2 or w_hh.ndim != 2 or bias.ndim != 1:
        raise ValueError(f"lstm expects 3D input, 2D weights and 1D bias, got "
                         f"{x.shape}, {w_ih.shape}, {w_hh.shape}, {bias.shape}")
    batch, steps, features = x.shape
    hs = w_hh.shape[0]
    if w_ih.shape != (features, 4 * hs) or w_hh.shape != (hs, 4 * hs) or bias.shape != (4 * hs,):
        raise ValueError(f"lstm: weight shapes {w_ih.shape}, {w_hh.shape}, {bias.shape} "
                         f"do not fit input {x.shape} and hidden size {hs}")
    parents = (x, w_ih, w_hh, bias)
    track = _grad_enabled() and any(p.requires_grad for p in parents)
    x_data, w_ih_data, w_hh_data = x.data, w_ih.data, w_hh.data
    h = np.zeros((batch, hs))
    c = np.zeros((batch, hs))
    cache = []
    for t in range(steps):
        z = x_data[:, t, :] @ w_ih_data + h @ w_hh_data + bias.data
        i = _sigmoid_np(z[:, :hs])
        f = _sigmoid_np(z[:, hs:2 * hs])
        g = np.tanh(z[:, 2 * hs:3 * hs])
        o = _sigmoid_np(z[:, 3 * hs:])
        c_prev = c
        c = f * c + i * g
        tc = np.tanh(c)
        if track:
            cache.append((h, c_prev, i, f, g, o, tc))
        h = o * tc

    out = _make(h, parents, "lstm")
    if out.requires_grad:
        def _bw(grad):
            dx = np.empty(x.shape) if x.requires_grad else None
            dh, dc_next = grad, None
            for t in range(steps - 1, -1, -1):
                h_prev, c_prev, i, f, g, o, tc = cache[t]
                dc = (dh * o) * (1.0 - tc * tc)
                if dc_next is not None:
                    dc += dc_next
                dz = np.empty((batch, 4 * hs))
                dz[:, :hs] = ((dc * g) * i) * (1.0 - i)
                dz[:, hs:2 * hs] = ((dc * c_prev) * f) * (1.0 - f)
                dz[:, 2 * hs:3 * hs] = (dc * i) * (1.0 - g * g)
                dz[:, 3 * hs:] = ((dh * tc) * o) * (1.0 - o)
                # one _accumulate per step, latest step first, as the per-step
                # tape adds its terms into a leaf that may already hold a gradient
                if w_ih.requires_grad:
                    w_ih._accumulate(x_data[:, t, :].T @ dz)
                if w_hh.requires_grad:
                    w_hh._accumulate(h_prev.T @ dz)
                if bias.requires_grad:
                    bias._accumulate(dz.sum(axis=0))
                if dx is not None:
                    dx[:, t, :] = dz @ w_ih_data.T
                if t:
                    dh = dz @ w_hh_data.T
                    dc_next = dc * f
            if dx is not None:
                x._accumulate(dx)
        out._backward = _bw
    return out


# -- convolution and pooling --------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Valid 2D convolution, stride 1.

    x: (batch, in_ch, H, W); w: (out_ch, in_ch, kh, kw); b: (out_ch,).
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4D input and weights, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d: channel mismatch: input {x.shape} vs weights {w.shape}")
    batch, in_ch, h, wd = x.shape
    out_ch, _, kh, kw = w.shape
    if kh > h or kw > wd:
        raise ValueError(f"conv2d: kernel {(kh, kw)} larger than input {(h, wd)}")
    oh, ow = h - kh + 1, wd - kw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * oh * ow, in_ch * kh * kw)
    wmat = w.data.reshape(out_ch, in_ch * kh * kw)
    res = (cols @ wmat.T).reshape(batch, oh, ow, out_ch).transpose(0, 3, 1, 2)
    if b is not None:
        res = res + b.data.reshape(1, out_ch, 1, 1)

    parents = (x, w) if b is None else (x, w, b)
    out = _make(res, parents, "conv2d")
    if out.requires_grad:
        def _bw(g):
            g2 = g.transpose(0, 2, 3, 1).reshape(batch * oh * ow, out_ch)
            if w.requires_grad:
                w._accumulate((g2.T @ cols).reshape(out_ch, in_ch, kh, kw))
            if x.requires_grad:
                dcols = (g2 @ wmat).reshape(batch, oh, ow, in_ch, kh, kw)
                dx = np.zeros((batch, in_ch, h, wd))
                for i in range(kh):
                    for j in range(kw):
                        dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                x._accumulate(dx)
            if b is not None and b.requires_grad:
                b._accumulate(g.sum(axis=(0, 2, 3)))
        out._backward = _bw
    return out


def conv1d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Valid 1D convolution, stride 1: conv2d over a unit-height view.

    x: (batch, in_ch, T); w: (out_ch, in_ch, k); b: (out_ch,).
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError(f"conv1d expects 3D input and weights, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv1d: channel mismatch: input {x.shape} vs weights {w.shape}")
    batch, in_ch, steps = x.shape
    out_ch, _, k = w.shape
    if k > steps:
        raise ValueError(f"conv1d: kernel {k} larger than input length {steps}")
    out = conv2d(reshape(x, (batch, in_ch, 1, steps)), reshape(w, (out_ch, in_ch, 1, k)), b)
    return reshape(out, (batch, out_ch, steps - k + 1))


def avgpool2d(x: Tensor, kernel: int) -> Tensor:
    """Average pooling over non-overlapping kernel x kernel windows of the
    trailing two axes of a 2D or 4D tensor.

    Output extent per pooled axis is floor(extent / kernel); trailing
    remainder cells are dropped and get a zero gradient.
    """
    if kernel < 1:
        raise ValueError(f"avgpool2d: kernel must be >= 1, got {kernel}")
    if x.ndim not in (2, 4):
        raise ValueError(f"avgpool2d expects a 2D or 4D tensor, got shape {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    if kernel > h or kernel > w:
        raise ValueError(f"avgpool2d: kernel {kernel} larger than input extents {(h, w)}")
    oh, ow = h // kernel, w // kernel

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kernel, kernel), axis=(-2, -1))
    windows = windows[..., ::kernel, ::kernel, :, :]
    out = _make(windows.mean(axis=(-2, -1)), (x,), "avgpool2d")
    if out.requires_grad:
        shape = x.shape
        scale = 1.0 / (kernel * kernel)
        def _bw(g):
            dx = np.zeros(shape)
            dx[..., :oh * kernel, :ow * kernel] += np.repeat(
                np.repeat(g * scale, kernel, axis=-2), kernel, axis=-1)
            x._accumulate(dx)
        out._backward = _bw
    return out


# -- normalization and loss ---------------------------------------------------

ZSCORE_EPS = 1e-8


def normalize_zscore(x: Tensor) -> Tensor:
    """Shift and scale each map to zero mean and unit variance (population variance).

    A tensor of at most two axes is one map; a higher-rank tensor is a stack
    of maps over its trailing two axes, each normalized on its own. Constant
    maps become all zeros via the epsilon guard instead of erroring; all-zero
    attribution maps legitimately occur for dead classes.
    """
    x = _wrap(x)
    axes = None if x.ndim <= 2 else (-2, -1)
    keep = axes is not None  # one map reduces to scalars, which are cheaper
    mu = x.data.mean(axis=axes, keepdims=keep)
    var = x.data.var(axis=axes, keepdims=keep)
    s = np.sqrt(var + ZSCORE_EPS)
    y = (x.data - mu) / s
    out = _make(y, (x,), "normalize_zscore")
    if out.requires_grad:
        ratio = var / (var + ZSCORE_EPS)
        def _bw(g):
            gm = g.mean(axis=axes, keepdims=keep)
            gy = (g * y).mean(axis=axes, keepdims=keep)
            x._accumulate((g - gm - y * gy * ratio) / s)
        out._backward = _bw
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    logits: (batch, classes); labels: (batch,) ints. Stable via max shift.
    """
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects 2D logits, got {logits.shape}")
    labels = np.asarray(labels)
    batch = logits.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    softm = ez / ez.sum(axis=1, keepdims=True)
    logp = z - np.log(ez.sum(axis=1, keepdims=True))
    loss_val = -logp[np.arange(batch), labels].mean()

    out = _make(np.asarray(loss_val), (logits,), "softmax_cross_entropy")
    if out.requires_grad:
        def _bw(g):
            d = softm.copy()
            d[np.arange(batch), labels] -= 1.0
            logits._accumulate(g * d / batch)
        out._backward = _bw
    return out
