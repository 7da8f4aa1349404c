"""Desk-scale classifiers: MLP, small CNN, 1D conv net, LSTM, and echo-state net.

Every model maps a batch tensor to per-class logits and supports gradient
flow to its input (required by gradient-based attribution). The ESN keeps
its recurrent weights frozen; only the readout trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import require_count, require_real
from .tensor import (
    Tensor,
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
    tsum,
)

ARCHITECTURES = ("mlp", "cnn2d", "conv1d", "lstm", "esn")
ACTIVATIONS = {"tanh": tanh, "relu": relu}
_INPUT_RANKS = {"cnn2d": 3, "conv1d": 2, "lstm": 2, "esn": 2}  # mlp takes any rank
# a declared output change if changed: BLAS may round a row differently at another row count
CHUNK_SIZE = 256  # rows per model pass; bounds tape memory on recurrent models


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
        if not isinstance(self.activation, str) or self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {tuple(ACTIVATIONS)}")
        for name in ("input_shape", "hidden", "conv_channels"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)):
                raise TypeError(f"{name} must be a list of integers, got {values!r}")
            for i, value in enumerate(values):
                require_count(f"{name}[{i}]", value)
            setattr(self, name, tuple(int(v) for v in values))
        for name, lowest in (("num_classes", 2), ("seed", 0), ("conv_kernel", 1),
                             ("dense_width", 1), ("conv1d_channels", 1),
                             ("conv1d_kernel", 1), ("hidden_size", 1)):
            require_count(name, getattr(self, name), lowest)
        for name in ("esn_leak", "esn_spectral_radius", "esn_input_scale"):
            require_real(name, getattr(self, name))
        if not 0.0 < self.esn_leak <= 1.0:
            raise ValueError(f"esn_leak must be in (0, 1], got {self.esn_leak!r}")
        for name in ("esn_spectral_radius", "esn_input_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        # what each architecture needs from its input
        shape, rank = self.input_shape, _INPUT_RANKS.get(self.architecture)
        if rank is not None and len(shape) != rank:
            raise ValueError(f"architecture {self.architecture!r} needs a {rank}-axis "
                             f"input, got input shape {shape}")
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

    def input_gradients(self, points: np.ndarray, class_ids, consume) -> None:
        """Call ``consume(i, lo, grads)`` with the gradient of logit ``class_ids[i]``
        with respect to rows ``lo:lo + len(grads)`` of ``points``.

        Each ``CHUNK_SIZE``-row chunk runs one taped forward, and every class
        backpropagates its own logit column from that graph, which is dropped
        before the next chunk. No parameter gradient is filled.
        """
        params = list(self.trainable_parameters().values())
        for p in params:
            p.requires_grad = False
        try:
            for lo in range(0, len(points), CHUNK_SIZE):
                x = Tensor(points[lo:lo + CHUNK_SIZE], requires_grad=True)
                logits = self.forward(x)
                for i, class_id in enumerate(class_ids):
                    seed = np.zeros(logits.shape)
                    seed[:, class_id] = 1.0
                    x.grad = None
                    logits.backward(seed, keep_graph=True)
                    consume(i, lo, x.grad)
        finally:
            for p in params:
                p.requires_grad = True

    def example_gradients(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Each row's softmax cross-entropy loss gradient as a (rows, P) array.

        A row is flattened over ``trainable_parameters()`` in sorted-name
        order. Each row runs its own batch-1 taped forward and backward pass
        from ``grad = None``, so a gradient held before the call is dropped;
        a parameter the pass gives no gradient gets zeros, and every
        parameter's ``grad`` is left ``None``, also when a pass raises.
        """
        params = [p for _, p in sorted(self.trainable_parameters().items())]
        out = np.zeros((len(xs), sum(p.size for p in params)))
        try:
            for r in range(len(xs)):
                for p in params:
                    p.grad = None
                softmax_cross_entropy(self.forward(Tensor(xs[r:r + 1])), ys[r:r + 1]).backward()
                lo = 0
                for p in params:
                    if p.grad is not None:
                        out[r, lo:lo + p.size] = p.grad.ravel()
                    lo += p.size
        finally:
            for p in params:
                p.grad = None
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
        self.layers = [(self._param(f"w{i}", _uniform_fanin(rng, (fan_in, fan_out), fan_in)),
                        self._param(f"b{i}", np.zeros(fan_out)))
                       for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]))]

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        h = reshape(x, (x.shape[0], -1))
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = matmul(h, w) + b
            if i < last:
                h = self.act(h)
        return h


class Cnn2d(Model):
    """Two valid 3x3 convolutions with 2x2 pooling, then two dense layers.

    Each floor pool drops its remainder, so the logits read only a leading
    window of the input. A pass whose input needs no gradient (training, GSS,
    ``no_grad``) crops its input to that window first; an input-gradient pass
    keeps the full geometry, so its gradient has the input's shape. The rows
    dropped hold exact zeros, so parameter gradients move only by rounding.
    """

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
        window = (2 * (2 * h2 + k - 1) + k - 1, 2 * (2 * w2 + k - 1) + k - 1)
        self._window = window if window != (h, w) else None
        self._param("dense_w", _uniform_fanin(rng, (flat, spec.dense_width), flat))
        self._param("dense_b", np.zeros(spec.dense_width))
        self._param("head_w", _uniform_fanin(rng, (spec.dense_width, spec.num_classes), spec.dense_width))
        self._param("head_b", np.zeros(spec.num_classes))

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        if self._window and not x.requires_grad:
            x = Tensor(x.data[..., :self._window[0], :self._window[1]])
        h = self.act(conv2d(x, self.params["conv1_w"], self.params["conv1_b"]))
        h = avgpool2d(h, 2)
        h = self.act(conv2d(h, self.params["conv2_w"], self.params["conv2_b"]))
        h = avgpool2d(h, 2)
        h = reshape(h, (h.shape[0], -1))
        h = self.act(matmul(h, self.params["dense_w"]) + self.params["dense_b"])
        return matmul(h, self.params["head_w"]) + self.params["head_b"]


class Conv1dNet(Model):
    """Shallow 1D conv over time (``conv2d`` on a unit-height view), time-averaged head."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 2]))
        self.act = ACTIVATIONS[spec.activation]
        steps, features = spec.input_shape
        c, k = spec.conv1d_channels, spec.conv1d_kernel
        self._param("conv_w", _uniform_fanin(rng, (c, features, 1, k), features * k))
        self._param("conv_b", np.zeros(c))
        self._param("head_w", _uniform_fanin(rng, (c, spec.num_classes), c))
        self._param("head_b", np.zeros(spec.num_classes))

    def forward(self, x: Tensor) -> Tensor:
        self._check_batch(x)
        batch, steps, features = x.shape
        h = reshape(swap_last2(x), (batch, features, 1, steps))
        h = conv2d(h, self.params["conv_w"], self.params["conv_b"])
        h = self.act(reshape(h, (batch, h.shape[1], h.shape[3])))
        h = tsum(h, axis=2) * (1.0 / h.shape[2])
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

    def forward(self, x: Tensor) -> Tensor:
        """state = (1 - leak) * state + leak * tanh(x_t @ w_in + state @ w) per step, from 0."""
        self._check_batch(x)
        lam = self.spec.esn_leak
        w_in, w = self.params["w_in"], self.params["w"]
        h = Tensor(np.zeros((x.shape[0], self.spec.hidden_size)))
        for t in range(self.spec.input_shape[0]):
            pre = tanh(matmul(time_slice(x, t), w_in) + matmul(h, w))
            h = pre if lam == 1.0 else h * (1.0 - lam) + pre * lam
        return matmul(h, self.params["head_w"]) + self.params["head_b"]


_BUILDERS = {"mlp": Mlp, "cnn2d": Cnn2d, "conv1d": Conv1dNet, "lstm": Lstm, "esn": Esn}


def build_model(spec: ModelSpec) -> Model:
    """Instantiate a classifier; identical spec and seed give identical weights."""
    return _BUILDERS[spec.architecture](spec)

