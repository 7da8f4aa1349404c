"""Dense float64 tensors with reverse-mode automatic differentiation.

The substrate for every other module: matrix multiply, 1D/2D convolution,
2D average pooling, elementwise nonlinearities, a fused LSTM sequence
(``lstm``: one tape node per sequence, hand-written backprop through time)
and a fused softmax cross-entropy. Operations whose inputs require
gradients are recorded on an implicit tape (the operation graph);
``backward`` replays it in reverse topological order from a seed gradient
and releases it, or keeps it for a further pass from another seed.

In ``per_example`` mode each row keeps its own parameter gradient, byte for
byte a batch-1 pass of that row (Goodfellow 2015, arXiv:1510.01799): products
with a weight (``matmul``'s right operand) take the rows as a stack of batch-1
operands, which ``np.matmul`` runs with the batch-1 kernel, and gradients of
operands without rows keep a rows axis instead of a sum over it.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Iterator, Optional, Sequence, Union

import numpy as np

Arrayish = Union[np.ndarray, float, int, Sequence]


class _State(threading.local):
    grad_enabled = True
    blocks = None  # per-example mode: {parameter: its (rows, *shape) gradient block}


_state = _State()


@contextlib.contextmanager
def per_example(blocks: dict) -> Iterator[None]:
    """Per-example mode for one taped pass, its loss seeded with one 1 per row.

    Each parameter's gradient is written into, then added to, its (rows,
    *shape) array in ``blocks``. On exit, also by an exception, the mode is
    off, every ``grad`` is None, and blocks that got no gradient hold zeros.
    """
    for p in blocks:
        p.grad = None
    _state.blocks = blocks
    try:
        yield
    finally:
        _state.blocks = None
        for p, block in blocks.items():
            if p.grad is None:
                block[...] = 0.0
            p.grad = None


def _take_block(t: Tensor) -> Optional[np.ndarray]:
    """The per-example block that takes parameter ``t``'s first gradient, now
    also its ``grad``, or None; call it only while ``t.grad`` is None."""
    blocks = _state.blocks
    block = blocks.get(t) if blocks else None
    if block is not None:
        t.grad = block
    return block


def grad_enabled() -> bool:
    """Whether the tape records on the current thread (False inside ``no_grad``)."""
    return _state.grad_enabled


class no_grad:
    """Context manager that disables tape recording on the current thread."""

    def __enter__(self):
        self._saved = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._saved
        return False


class Tensor:
    """A float64 n-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")

    def __init__(self, data: Arrayish, requires_grad: bool = False):
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- tape machinery ------------------------------------------------------

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into this tensor's gradient. A ``fresh`` g, made by the caller
        and held by nothing else, becomes the first gradient itself; any other is
        copied, so no two tensors' gradients share memory."""
        if self.grad is not None:
            self.grad += g
        elif (block := _take_block(self)) is not None:
            block[...] = g
        elif fresh:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=np.float64, copy=True)

    def backward(self, grad: Optional[np.ndarray] = None, keep_graph: bool = False) -> None:
        """Backpropagate ``grad`` (ones for a scalar) from this tensor; each
        interior tape node is visited exactly once, and leaf gradients accumulate.

        By default the tape is consumed: closures and parent links of visited
        interior nodes are dropped afterwards. With ``keep_graph`` they are
        kept and every interior node's ``grad`` is cleared first, so each
        further pass over the same graph starts from its own seed alone.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        elif np.shape(grad) != self.shape:
            raise ValueError(f"backward seed shape {np.shape(grad)} != tensor shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward on a tensor with requires_grad=False (empty tape)")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # pushes interior nodes only: a leaf has no backward to run
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if keep_graph and node._prev:
                node.grad = None
            stack.append((node, True))
            for parent in node._prev:
                if parent._prev and id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = (np.ones_like(self.data) if grad is None
                     else np.array(grad, dtype=np.float64, copy=True))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                if not keep_graph:
                    node._backward = None
                    node._prev = ()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def sum(self, axis=None):
        return tsum(self, axis)


def _wrap(x: Tensor | Arrayish) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, op: str) -> Tensor:
    """An op's output; ``data`` is used as is when it is an array (ops make float64)."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = out._backward = None
    out.requires_grad, out._prev, out._op = False, (), "leaf"
    if _state.grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._prev, out._op = True, parents, op
                break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass.

    In per-example mode an operand without rows keeps the rows axis: each row
    sums over its own size-1 batch axis, as a batch of one does (which turns
    a -0.0 into +0.0)."""
    if g.shape == shape:
        return g
    lead = 0
    if g.ndim > len(shape) and _state.blocks is not None:
        g, lead = g[:, None], 1
    while g.ndim > len(shape) + lead:
        g = g.sum(axis=lead)
    for axis, extent in enumerate(shape, lead):
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
            for p in (a, b):
                if p.requires_grad:
                    pg = _unbroadcast(g, p.shape)  # g itself when nothing was summed
                    p._accumulate(pg, fresh=pg is not g)
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
                a._accumulate(_unbroadcast(g * b_data, a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a_data, b.shape), fresh=True)
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul supports 2D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ: {a.shape} @ {b.shape}")
    rows = _state.blocks is not None  # per-example: each row a (1, K) operand
    a_data, b_data = a.data, b.data
    out = _make((a_data[:, None] @ b_data)[:, 0] if rows else a_data @ b_data, (a, b), "matmul")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate((g[:, None] @ b_data.T)[:, 0] if rows else g @ b_data.T, fresh=True)
            if b.requires_grad:
                _accumulate_product(b, a_data, g, rows)
        out._backward = _bw
    return out


def _accumulate_product(p: Tensor, a: np.ndarray, g: np.ndarray, rows: bool,
                        scratch: Optional[np.ndarray] = None) -> None:
    """Add the weight gradient ``aᵀ @ g`` to p's gradient; in per-example mode,
    each row's own outer product ``a[r]ᵀ g[r]``. No index is summed there, so
    each entry is one rounded product, as in the batch-1 (K, 1) @ (1, N);
    ``np.einsum`` forms it faster than a ``np.matmul`` stack, into ``scratch``
    when the caller passes a (rows, *p.shape) array to reuse."""
    if not rows:
        p._accumulate(a.T @ g, fresh=True)
    elif p.grad is None and (block := _take_block(p)) is not None:
        np.einsum("rk,rn->rkn", a, g, out=block)
    else:
        p._accumulate(np.einsum("rk,rn->rkn", a, g, out=scratch), fresh=scratch is None)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = _make(t, (a,), "tanh")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * (1.0 - t * t), fresh=True)
        out._backward = _bw
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = np.divide(1.0, 1.0 + np.exp(-a.data))
    out = _make(s, (a,), "sigmoid")
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * s * (1.0 - s), fresh=True)
        out._backward = _bw
    return out


def relu(a: Tensor) -> Tensor:
    out = _make(np.maximum(a.data, 0.0), (a,), "relu")
    if out.requires_grad:
        mask = a.data > 0
        def _bw(g):
            a._accumulate(g * mask, fresh=True)
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
    data = a.data.reshape(shape)
    out = _make(data, (a,), "reshape")
    if out.requires_grad:
        orig, ndim = a.shape, data.ndim
        def _bw(g):  # leading axes beyond the output's are per-example rows; they stay
            a._accumulate(g.reshape(g.shape[:g.ndim - ndim] + orig))
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


def crop2d(a: Tensor, h: int, w: int) -> Tensor:
    """Select the leading h x w window of the trailing two axes; the gradient
    outside it is +0.0."""
    if a.ndim < 2 or not (0 < h <= a.shape[-2] and 0 < w <= a.shape[-1]):
        raise ValueError(f"crop2d: window {(h, w)} does not fit shape {a.shape}")
    return _slice(a, (..., slice(h), slice(w)), "crop2d")


# -- recurrence ---------------------------------------------------------------


def lstm(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """Final hidden state of a single-layer LSTM run over a whole sequence.

    x: (batch, steps, features); w_ih: (features, 4H); w_hh: (H, 4H);
    bias: (4H,), gate blocks in the order input, forget, cell, output. The
    state starts at zero. The sequence is one tape node whose backward is
    hand-written backprop through time. Its products are the full-width ones
    of the per-step cell composed from ``matmul``, ``col_slice``, ``sigmoid``,
    ``tanh``, ``mul`` and ``add``; its elementwise work runs on gate-major
    cache slots, so the three sigmoid gates, and their errors, are one call
    chain over a (3, batch, H) block. It repeats that cell's arithmetic and
    operand order, so values and gradients are bit-identical to the composition.
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
    track = _state.grad_enabled and any(p.requires_grad for p in parents)
    rows = _state.blocks is not None  # per-example: each row's products as batch-1 operands
    x_data, w_ih_data, w_hh_data = x.data, w_ih.data, w_hh.data
    x_in = x_data[:, :, None] if rows else x_data  # step t's input operand: x_in[:, t]
    h = np.zeros((batch, hs))
    h_in = h[:, None] if rows else h  # the recurrent product's view of h
    c = np.zeros((batch, hs))
    # one block per call: fresh arrays each step, freed at once, made malloc trim the heap;
    # `shapdrift run` fixes malloc's thresholds, but library callers run without that.
    # Slots are gate-major: h_prev, i, f, o, g, c_prev, tanh(c), so s[1:4] holds the
    # three sigmoid gates and s[4:7] their backward partners g, c_prev, tanh(c).
    cache = np.empty((steps if track else 1, 7, batch, hs))
    for t in range(steps):
        s = cache[t if track else 0]
        if track:
            s[0], s[5] = h, c
        z = x_in[:, t] @ w_ih_data
        z += h_in @ w_hh_data
        z += bias.data
        z4 = z.reshape(batch, 4, hs)
        gates = s[1:4]  # i, f, o = 1 / (1 + exp(-z)), as in sigmoid
        np.negative(z4[:, :2].transpose(1, 0, 2), out=gates[:2])
        np.negative(z4[:, 3], out=gates[2])
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        i, f, o = gates
        g = np.tanh(z4[:, 2], out=s[4])
        c = f * c + i * g
        tc = np.tanh(c, out=s[6])
        np.multiply(o, tc, out=h)

    out = _make(h, parents, "lstm")
    if out.requires_grad:
        def _bw(grad):
            dx = np.empty(x.shape) if x.requires_grad else None
            dz = np.empty((batch, 4 * hs))
            dz4 = dz.reshape(batch, 4, hs)
            r = np.empty((3, batch, hs))  # dc, dc, dh, then the sigmoid gates' errors
            one_minus = np.empty((3, batch, hs))
            r[2] = grad
            # per-example mode stacks each row's operands of the products below
            dz_in, dh_out = (dz[:, None], r[2][:, None]) if rows else (dz, r[2])
            dx_out = dx[:, :, None] if rows and dx is not None else dx
            # and forms each later step's weight outer products in one scratch pair
            ih_scratch, hh_scratch = (np.empty((batch,) + w.shape) if rows and w.requires_grad
                                      else None for w in (w_ih, w_hh))
            dc_next = None
            for t in range(steps - 1, -1, -1):
                s = cache[t]
                h_prev, i, f, o, g, _, tc = s
                dc = (r[2] * o) * (1.0 - tc * tc)
                if dc_next is not None:
                    dc += dc_next
                r[:2] = dc
                r *= s[4:7]  # ((dc*g)*i)*(1-i), ((dc*c_prev)*f)*(1-f), ((dh*tc)*o)*(1-o)
                r *= s[1:4]
                r *= np.subtract(1.0, s[1:4], out=one_minus)
                dz4[:, :2] = r[:2].transpose(1, 0, 2)
                dz4[:, 3] = r[2]
                np.multiply(dc * i, 1.0 - g * g, out=dz4[:, 2])
                # one _accumulate per step, latest step first, as the per-step
                # tape adds its terms into a leaf that may already hold a gradient
                if w_ih.requires_grad:
                    _accumulate_product(w_ih, x_data[:, t], dz, rows, ih_scratch)
                if w_hh.requires_grad:
                    _accumulate_product(w_hh, h_prev, dz, rows, hh_scratch)
                if bias.requires_grad:
                    bias._accumulate(dz_in.sum(axis=-2), fresh=True)
                if dx is not None:
                    np.matmul(dz_in, w_ih_data.T, out=dx_out[:, t])
                if t:
                    np.matmul(dz_in, w_hh_data.T, out=dh_out)  # dh of step t - 1
                    dc_next = dc * f
            if dx is not None:
                x._accumulate(dx, fresh=True)
        out._backward = _bw
    return out


# -- convolution and pooling --------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The kh x kw windows of a (batch, C, H, W) array as a (batch, oh*ow, C*kh*kw)
    array: one row per output position, ordered like a flattened (C, kh, kw) kernel.

    Each item is read as one flat row in its memory order (a view for C-ordered
    input and for conv2d's channel-last output; other layouts are copied first),
    and one ``np.take`` gathers every window entry through ``_window_index``."""
    batch = x.shape[0]
    order = tuple(sorted((1, 2, 3), key=lambda a: -x.strides[a]))  # falling stride
    flat = np.ascontiguousarray(x.transpose(0, *order)).reshape(batch, -1)
    index = _window_index(x.shape[1:], order, kh, kw)
    return np.take(flat, index, axis=1).reshape(batch, -1, x.shape[1] * kh * kw)


@functools.lru_cache
def _window_index(item: tuple, order: tuple, kh: int, kw: int) -> np.ndarray:
    """The flat position of every (oh, ow, C, kh, kw) window entry within one
    (C, H, W) item whose axes lie in memory in ``order`` (axis numbers 1-3);
    read-only, as the cache shares it."""
    pos = np.arange(np.prod(item)).reshape([item[a - 1] for a in order])
    pos = pos.transpose(np.argsort(order))  # back to (C, H, W), holding memory positions
    windows = np.lib.stride_tricks.sliding_window_view(pos, (kh, kw), axis=(1, 2))
    index = windows.transpose(1, 2, 0, 3, 4).ravel()
    index.setflags(write=False)
    return index


def _col2im(dcols: np.ndarray, shape: tuple, kh: int, kw: int) -> np.ndarray:
    """The input gradient of ``_im2col``: adds each window row of ``dcols`` (any
    array of batch * oh*ow * C*kh*kw entries) back into a zero array of ``shape``.
    The adds run in channel-last memory, the order of ``dcols``'s rows; the
    result is a (batch, C, H, W) view of it."""
    batch, in_ch, h, wd = shape
    oh, ow = h - kh + 1, wd - kw + 1
    dcols = dcols.reshape(batch, oh, ow, in_ch, kh, kw)
    dx = np.zeros((batch, h, wd, in_ch))
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j]
    return dx.transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
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
    # per-example mode multiplies each row's (oh*ow, K) window matrix on its own
    rows = (batch,) if _state.blocks is not None else ()

    cols = _im2col(x.data, kh, kw).reshape(rows + (-1, in_ch * kh * kw))
    wmat = w.data.reshape(out_ch, in_ch * kh * kw)
    res = (cols @ wmat.T).reshape(batch, oh, ow, out_ch).transpose(0, 3, 1, 2)
    res += b.data.reshape(1, out_ch, 1, 1)  # in the fresh product, still channel-last

    out = _make(res, (x, w, b), "conv2d")
    if out.requires_grad:
        def _bw(g):
            if rows:  # in C order, as a batch-1 error is; the sums below follow it
                g = np.ascontiguousarray(g)
            g2 = g.transpose(0, 2, 3, 1).reshape(rows + (-1, out_ch))
            if w.requires_grad:
                w._accumulate((np.swapaxes(g2, -1, -2) @ cols).reshape(rows + w.shape), fresh=True)
            if x.requires_grad:  # copied: kept as is, this block raised the peak RSS
                # of `shapdrift run` on a cnn2d config by 1 MB (the heap's layout)
                x._accumulate(_col2im(g2 @ wmat, x.shape, kh, kw))
            if b.requires_grad:
                b._accumulate(g.sum(axis=(2, 3) if rows else (0, 2, 3)), fresh=True)
        out._backward = _bw
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
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

    Each window sum starts from 0.0 and is divided by kernel * kernel, as
    numpy's mean does, adding in numpy's order for the operand's memory layout.
    A 4D operand with more than one channel in channel-last memory (conv2d's
    output and any elementwise function of it) adds the window cells in
    row-major order, one strided add per cell over all windows, and the result
    stays channel-last. Any other operand, such as C-ordered or single-channel
    maps, takes numpy's mean over each window, which on C-ordered memory sums
    each window row first.
    """
    if kernel < 1:
        raise ValueError(f"avgpool2d: kernel must be >= 1, got {kernel}")
    if x.ndim not in (2, 4):
        raise ValueError(f"avgpool2d expects a 2D or 4D tensor, got shape {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    if kernel > h or kernel > w:
        raise ValueError(f"avgpool2d: kernel {kernel} larger than input extents {(h, w)}")

    d = x.data
    if d.ndim == 4 and d.shape[1] > 1 and d.strides[1] == d.itemsize:
        # the sums numpy's mean makes on this layout, without its inner loop of
        # only C elements per window cell
        hk, wk = h // kernel * kernel, w // kernel * kernel  # the extents windows cover
        cells = [d[..., i:hk:kernel, j:wk:kernel] for i in range(kernel) for j in range(kernel)]
        total = np.add(0.0, cells[0])
        for cell in cells[1:]:
            total += cell
        total /= kernel * kernel
    else:
        windows = np.lib.stride_tricks.sliding_window_view(d, (kernel, kernel), axis=(-2, -1))
        total = windows[..., ::kernel, ::kernel, :, :].mean(axis=(-2, -1))
    out = _make(total, (x,), "avgpool2d")
    if out.requires_grad:
        def _bw(g):
            x._accumulate(_avgpool_grad(g, x.shape, kernel), fresh=True)
        out._backward = _bw
    return out


def _avgpool_grad(g: np.ndarray, shape: tuple, kernel: int) -> np.ndarray:
    """The input gradient of ``avgpool2d`` over an input of ``shape``, from the
    output gradient ``g``: a C-ordered array (callers' sums over it add in its
    memory order) whose every window cell holds its window's ``g / kernel**2``
    and whose remainder rows and columns hold zeros. The ``+ 0.0`` gives the
    +0.0 that adding a -0.0 into zeros gives."""
    oh, ow = g.shape[-2], g.shape[-1]
    hk, wk = oh * kernel, ow * kernel
    share = g * (1.0 / (kernel * kernel)) + 0.0
    dx = np.empty(shape)
    for i in range(kernel):
        for j in range(kernel):
            dx[..., i:hk:kernel, j:wk:kernel] = share
    dx[..., hk:, :] = 0.0
    dx[..., :hk, wk:] = 0.0
    return dx


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
            x._accumulate((g - gm - y * gy * ratio) / s, fresh=True)
        out._backward = _bw
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    logits: (batch, classes); labels: (batch,) ints in [0, classes). Stable
    via max shift. In per-example mode the loss is each row's own, shaped
    (batch,), and a row's gradient is that of a batch of one.
    """
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects 2D logits, got {logits.shape}")
    labels = np.asarray(labels)
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if batch and (labels.min() < 0 or labels.max() >= classes):
        bad = labels[(labels < 0) | (labels >= classes)][0]
        raise ValueError(f"label {bad} is outside [0, {classes})")

    rows = _state.blocks is not None
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=1, keepdims=True)
    softm = ez / total
    pick = (np.arange(batch), labels)
    losses = -(z[pick] - np.log(total[:, 0]))

    out = _make(losses if rows else np.asarray(losses.mean()), (logits,), "softmax_cross_entropy")
    if out.requires_grad:
        def _bw(g):
            d = softm.copy()
            d[pick] -= 1.0
            logits._accumulate(g[:, None] * d if rows else g * d / batch, fresh=True)
        out._backward = _bw
    return out
