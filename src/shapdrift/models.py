"""Desk-scale classifiers: MLP, small CNN, 1D conv net, LSTM, and echo-state net.

Every model maps a batch tensor to per-class logits and supports gradient
flow to its input (required by gradient-based attribution). The ESN keeps
its recurrent weights frozen; only the readout trains.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .tensor import (
    Tensor,
    conv1d,
    conv2d,
    avgpool2d,
    lstm,
    matmul,
    no_grad,
    relu,
    reshape,
    softmax_cross_entropy,
    swap_last2,
    tanh,
    time_slice,
    tmean,
)

ARCHITECTURES = ("mlp", "cnn2d", "conv1d", "lstm", "esn")
ACTIVATIONS = {"tanh": tanh, "relu": relu}
_INPUT_RANKS = {"cnn2d": 3, "conv1d": 2, "lstm": 2, "esn": 2}  # mlp takes any rank
CHUNK_SIZE = 256  # rows per model pass; bounds tape memory on recurrent models


def require_numbers(owner, **kinds) -> None:
    """Raise TypeError naming the first field of ``owner`` that is not an
    instance of its ``numbers`` type (Integral or Real); bool is rejected."""
    for name, kind in kinds.items():
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is Integral else "a real number"
            raise TypeError(f"{name} must be {noun}, got {value!r}")


def _widths(name: str, widths) -> tuple:
    """Layer widths as a tuple of positive ints; the error names the field."""
    if not isinstance(widths, (tuple, list)) or any(
            isinstance(w, bool) or not isinstance(w, Integral) for w in widths):
        raise TypeError(f"{name} must be a list of integers, got {widths!r}")
    if any(w <= 0 for w in widths):
        raise ValueError(f"zero-width layer in {name}: {widths}")
    return tuple(int(w) for w in widths)


@dataclass
class ModelSpec:
    """Architecture, widths, class count and seed for a classifier.

    input_shape is (channels, H, W) for images and (steps, features) for
    sequences. Hidden sizes default to desk scale; none are given by the
    protocol itself, so all are configurable.
    """

    architecture: str
    input_shape: tuple
    num_classes: int
    seed: int = 0
    hidden: tuple = (64,)            # mlp dense widths
    conv_channels: tuple = (8, 16)   # cnn2d conv widths
    conv_kernel: int = 3
    dense_width: int = 64            # cnn2d head width
    conv1d_channels: int = 32
    conv1d_kernel: int = 5
    hidden_size: int = 128           # lstm hidden width / esn reservoir size
    esn_leak: float = 0.5
    esn_spectral_radius: float = 0.9
    esn_input_scale: float = 1.0
    activation: str = "tanh"

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}, expected one of {ARCHITECTURES}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {tuple(ACTIVATIONS)}")
        self.input_shape = tuple(int(x) for x in self.input_shape)
        self.hidden = _widths("hidden", self.hidden)
        self.conv_channels = _widths("conv_channels", self.conv_channels)
        require_numbers(self, num_classes=Integral, seed=Integral, conv_kernel=Integral,
                        dense_width=Integral, conv1d_channels=Integral,
                        conv1d_kernel=Integral, hidden_size=Integral, esn_leak=Real,
                        esn_spectral_radius=Real, esn_input_scale=Real)
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        for name in ("conv_kernel", "dense_width", "conv1d_channels", "conv1d_kernel",
                     "hidden_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.esn_leak <= 1.0:  # also rejects NaN
            raise ValueError(f"esn_leak must be in (0, 1], got {self.esn_leak}")
        for name in ("esn_spectral_radius", "esn_input_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # what each architecture needs from its input
        shape, rank = self.input_shape, _INPUT_RANKS.get(self.architecture)
        if rank is not None and len(shape) != rank:
            raise ValueError(f"architecture {self.architecture!r} needs a {rank}-axis "
                             f"input, got input shape {shape}")
        if any(n < 1 for n in shape):
            raise ValueError(f"input shape {shape} has an empty axis")
        if self.architecture == "cnn2d":
            if len(self.conv_channels) != 2:
                raise ValueError(
                    f"cnn2d needs exactly two conv_channels, got {self.conv_channels}")
            k = self.conv_kernel
            if ((min(shape[1:]) - k + 1) // 2 - k + 1) // 2 < 1:
                raise ValueError(f"input {shape} too small for two cnn2d conv-pool "
                                 f"stages with conv_kernel {k}")
        if self.architecture == "conv1d" and self.conv1d_kernel > shape[0]:
            raise ValueError(
                f"conv1d_kernel {self.conv1d_kernel} exceeds sequence length {shape[0]}")


def _uniform_fanin(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """Base classifier: named parameters plus a forward pass to logits."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.params: dict[str, Tensor] = {}

    def _param(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        t = Tensor(data, requires_grad=trainable)
        self.params[name] = t
        return t

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if v.requires_grad}

    def logits_np(self, batch: np.ndarray) -> np.ndarray:
        """No-tape forward in ``CHUNK_SIZE``-row passes; returns a (rows, classes) ndarray."""
        out = np.empty((len(batch), self.spec.num_classes))
        with no_grad():
            for lo in range(0, len(batch), CHUNK_SIZE):
                out[lo:lo + CHUNK_SIZE] = self.forward(Tensor(batch[lo:lo + CHUNK_SIZE])).data
        return out

    def example_gradients(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Each row's softmax cross-entropy loss gradient as a (rows, P) array.

        A row is flattened over ``trainable_parameters()`` in sorted-name
        order. This is one batch-1 taped forward and backward pass per row;
        every parameter's ``grad`` is left ``None``.
        """
        params = self.trainable_parameters()
        names = sorted(params)
        out = np.zeros((len(xs), sum(params[name].size for name in names)))
        for r in range(len(xs)):
            softmax_cross_entropy(self.forward(Tensor(xs[r:r + 1])),
                                  np.asarray(ys[r:r + 1], dtype=np.int64)).backward()
            lo = 0
            for name in names:
                p = params[name]
                if p.grad is not None:
                    out[r, lo:lo + p.size] = p.grad.ravel()
                    p.grad = None
                lo += p.size
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            missing = set(self.params) - set(state)
            extra = set(state) - set(self.params)
            raise ValueError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for k, v in state.items():
            v = np.asarray(v, dtype=np.float64)
            if v.shape != self.params[k].shape:
                raise ValueError(f"shape mismatch for {k}: {v.shape} vs {self.params[k].shape}")
            self.params[k].data = v.copy()

    def _check_batch(self, x: Tensor) -> None:
        if x.shape[1:] != self.spec.input_shape:
            raise ValueError(
                f"batch shape {x.shape} does not match input shape {self.spec.input_shape}"
            )


class Mlp(Model):
    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
        self.act = ACTIVATIONS[spec.activation]
        widths = [int(np.prod(spec.input_shape))] + list(spec.hidden) + [spec.num_classes]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            self._param(f"w{i}", _uniform_fanin(rng, (fan_in, fan_out), fan_in))
            self._param(f"b{i}", np.zeros(fan_out))
        self.n_layers = len(widths) - 1

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        h = reshape(x, (x.shape[0], -1))
        for i in range(self.n_layers):
            h = matmul(h, self.params[f"w{i}"]) + self.params[f"b{i}"]
            if i < self.n_layers - 1:
                h = self.act(h)
        return h

    def example_gradients(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``Model.example_gradients`` in one numpy pass over all rows.

        It repeats the tape's batch-1 arithmetic, so the result is equal bit
        for bit. Products with a weight matrix take the rows as a stack of
        (1, K) operands, which ``np.matmul`` evaluates with the same kernel as
        one (1, K) matrix; a (rows, K) operand would use another kernel and
        change the last bits. Elementwise steps run on all rows at once. A
        weight gradient is the outer product of each row's layer input and
        its back-propagated error (Goodfellow 2015, arXiv:1510.01799).
        """
        self._check_batch(xs)
        rows = len(xs)
        params = self.trainable_parameters()
        out = np.empty((rows, sum(p.size for p in params.values())))
        block, lo = {}, 0
        for name in sorted(params):
            block[name] = out[:, lo:lo + params[name].size].reshape(rows, *params[name].shape)
            lo += params[name].size
        tanh_act = self.spec.activation == "tanh"
        h = np.asarray(xs, dtype=np.float64).reshape(rows, 1, -1)
        inputs = []
        for i in range(self.n_layers):
            inputs.append(h)
            h = h @ self.params[f"w{i}"].data + self.params[f"b{i}"].data
            if i < self.n_layers - 1:
                h = np.tanh(h) if tanh_act else np.maximum(h, 0.0)
        # softmax minus one-hot: the loss gradient of a batch of one
        z = h - h.max(axis=2, keepdims=True)
        ez = np.exp(z)
        g = ez / ez.sum(axis=2, keepdims=True)
        g[np.arange(rows), 0, np.asarray(ys, dtype=np.int64)] -= 1.0
        for i in reversed(range(self.n_layers)):
            block[f"b{i}"][:] = g[:, 0]
            # no index is summed, so each entry is one rounded product, as in
            # the tape's (K, 1) @ (1, N)
            np.einsum("rk,rn->rkn", inputs[i][:, 0], g[:, 0], out=block[f"w{i}"])
            if i > 0:
                g = g @ self.params[f"w{i}"].data.T
                t = inputs[i]  # relu's output is positive exactly where its input is
                g = g * (1.0 - t * t) if tanh_act else g * (t > 0)
        return out


class Cnn2d(Model):
    """Two valid 3x3 convolutions with 2x2 pooling, then two dense layers."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
        self.act = ACTIVATIONS[spec.activation]
        in_ch, h, w = spec.input_shape
        c1, c2 = spec.conv_channels
        k = spec.conv_kernel
        self._param("conv1_w", _uniform_fanin(rng, (c1, in_ch, k, k), in_ch * k * k))
        self._param("conv1_b", np.zeros(c1))
        self._param("conv2_w", _uniform_fanin(rng, (c2, c1, k, k), c1 * k * k))
        self._param("conv2_b", np.zeros(c2))
        h1, w1 = (h - k + 1) // 2, (w - k + 1) // 2
        h2, w2 = (h1 - k + 1) // 2, (w1 - k + 1) // 2
        flat = c2 * h2 * w2
        self._param("dense_w", _uniform_fanin(rng, (flat, spec.dense_width), flat))
        self._param("dense_b", np.zeros(spec.dense_width))
        self._param("head_w", _uniform_fanin(rng, (spec.dense_width, spec.num_classes), spec.dense_width))
        self._param("head_b", np.zeros(spec.num_classes))

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        h = self.act(conv2d(x, self.params["conv1_w"], self.params["conv1_b"]))
        h = avgpool2d(h, 2)
        h = self.act(conv2d(h, self.params["conv2_w"], self.params["conv2_b"]))
        h = avgpool2d(h, 2)
        h = reshape(h, (h.shape[0], -1))
        h = self.act(matmul(h, self.params["dense_w"]) + self.params["dense_b"])
        return matmul(h, self.params["head_w"]) + self.params["head_b"]


class Conv1dNet(Model):
    """Shallow 1D conv over time with feature channels, mean-pooled head."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 2]))
        self.act = ACTIVATIONS[spec.activation]
        steps, features = spec.input_shape
        c, k = spec.conv1d_channels, spec.conv1d_kernel
        self._param("conv_w", _uniform_fanin(rng, (c, features, k), features * k))
        self._param("conv_b", np.zeros(c))
        self._param("head_w", _uniform_fanin(rng, (c, spec.num_classes), c))
        self._param("head_b", np.zeros(spec.num_classes))

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        h = self.act(conv1d(swap_last2(x), self.params["conv_w"], self.params["conv_b"]))
        h = tmean(h, axis=2)
        return matmul(h, self.params["head_w"]) + self.params["head_b"]


class Lstm(Model):
    """Single-layer LSTM; the classification head reads the final hidden state.

    The recurrence runs through the fused ``tensor.lstm`` primitive: one tape
    node for the whole sequence, with hand-written backprop through time.
    """

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))
        steps, features = spec.input_shape
        hs = spec.hidden_size
        self._param("w_ih", _uniform_fanin(rng, (features, 4 * hs), features))
        self._param("w_hh", _uniform_fanin(rng, (hs, 4 * hs), hs))
        bias = np.zeros(4 * hs)
        bias[hs:2 * hs] = 1.0  # forget gate open at init
        self._param("bias", bias)
        self._param("head_w", _uniform_fanin(rng, (hs, spec.num_classes), hs))
        self._param("head_b", np.zeros(spec.num_classes))

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        h = lstm(x, self.params["w_ih"], self.params["w_hh"], self.params["bias"])
        return matmul(h, self.params["head_w"]) + self.params["head_b"]


class Esn(Model):
    """Echo-state network: frozen random reservoir, trainable linear readout."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 4]))
        steps, features = spec.input_shape
        n = spec.hidden_size
        w_in = rng.uniform(-spec.esn_input_scale, spec.esn_input_scale, size=(features, n))
        w_raw = rng.uniform(-1.0, 1.0, size=(n, n))
        radius = float(np.abs(np.linalg.eigvals(w_raw)).max())
        w = w_raw * (spec.esn_spectral_radius / radius)
        self._param("w_in", w_in, trainable=False)
        self._param("w", w, trainable=False)
        self._param("head_w", _uniform_fanin(rng, (n, spec.num_classes), n))
        self._param("head_b", np.zeros(spec.num_classes))

    def step(self, state: Tensor, input_t: Tensor) -> Tensor:
        """state' = (1 - leak) * state + leak * tanh(input @ w_in + state @ w)."""
        lam = self.spec.esn_leak
        pre = tanh(matmul(input_t, self.params["w_in"]) + matmul(state, self.params["w"]))
        if lam == 1.0:
            return pre
        return state * (1.0 - lam) + pre * lam

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        steps, _ = self.spec.input_shape
        h = Tensor(np.zeros((x.shape[0], self.spec.hidden_size)))
        for t in range(steps):
            h = self.step(h, time_slice(x, t))
        return matmul(h, self.params["head_w"]) + self.params["head_b"]


_BUILDERS = {"mlp": Mlp, "cnn2d": Cnn2d, "conv1d": Conv1dNet, "lstm": Lstm, "esn": Esn}


def build_model(spec: ModelSpec) -> Model:
    """Instantiate a classifier; identical spec and seed give identical weights."""
    return _BUILDERS[spec.architecture](spec)


def reservoir_checksum(model: Model) -> str:
    """SHA-256 over the frozen reservoir matrices; stable across training."""
    if not isinstance(model, Esn):
        raise ValueError("reservoir_checksum applies to ESN models only")
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.params["w_in"].data).tobytes())
    digest.update(np.ascontiguousarray(model.params["w"].data).tobytes())
    return digest.hexdigest()

