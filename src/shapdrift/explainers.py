"""Per-class attribution engines: exact Shapley, permutation sampling, and
expected-gradients SHAP, plus positive clamping.

Every engine treats one input scalar (pixel or per-step-per-feature cell)
as one game feature and is a pure function of (f, x, background, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .data import LabeledDataset
from .models import Model, require_numbers
from .tensor import Tensor


@dataclass
class AttributionMap:
    """Per-feature attribution values shaped like the input, plus the base value."""

    phi: np.ndarray
    phi0: float
    class_id: int = -1
    stderr: Optional[np.ndarray] = None  # per-feature MC standard error (sampling engine)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("attribution map contains non-finite values")


@dataclass
class ShapConfig:
    """Estimator settings shared by the sampling and gradient engines."""

    engine: str = "gradient"  # exact | sampling | gradient
    n_samples: int = 200
    seed: int = 0
    noise_std: float = 0.0    # optional input smoothing for the gradient engine

    def __post_init__(self):
        if self.engine not in ("exact", "sampling", "gradient"):
            raise ValueError(f"unknown engine {self.engine!r}")
        require_numbers(self, n_samples=Integral, seed=Integral, noise_std=Real)
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not self.noise_std >= 0:  # also rejects NaN
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


CHUNK_SIZE = 256  # rows per model pass; bounds tape memory on recurrent models


class ClassLogit:
    """f(x) = pre-softmax logit of one output unit, callable on input batches.

    Exposes ``gradient`` for the expected-gradients engine. Batches are
    evaluated in chunks of ``CHUNK_SIZE`` rows.
    """

    def __init__(self, model: Model, class_id: int):
        self.model = model
        self.class_id = class_id

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        out = np.empty(len(batch))
        for lo in range(0, len(batch), CHUNK_SIZE):
            chunk = batch[lo:lo + CHUNK_SIZE]
            out[lo:lo + len(chunk)] = self.model.logits_np(chunk)[:, self.class_id]
        return out

    def gradient(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, d value / d input) for each row of the batch."""
        values = np.empty(len(batch))
        grads = np.empty_like(batch, dtype=np.float64)
        selector = np.zeros((self.model.spec.num_classes, 1))
        selector[self.class_id, 0] = 1.0
        for lo in range(0, len(batch), CHUNK_SIZE):
            chunk = batch[lo:lo + CHUNK_SIZE]
            x = Tensor(chunk, requires_grad=True)
            logits = self.model.forward(x)
            values[lo:lo + len(chunk)] = logits.data[:, self.class_id]
            (logits @ Tensor(selector)).sum().backward()
            grads[lo:lo + len(chunk)] = x.grad
        return values, grads


def _background_inputs(background) -> np.ndarray:
    if isinstance(background, LabeledDataset):
        background = background.inputs
    background = np.asarray(background, dtype=np.float64)
    if len(background) == 0:
        raise ValueError("background set is empty")
    return background


# -- exact engine ---------------------------------------------------------------


def exact_shapley(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    baseline: np.ndarray,
    max_features: int = 20,
    eval_batch: int = 8192,
) -> AttributionMap:
    """Exact Shapley values of the game v(S) = f(x with features outside S
    replaced by the baseline), by enumerating all 2^K coalitions.

    phi0 = v(empty set) = f(baseline); efficiency phi0 + sum(phi) = f(x).
    """
    x = np.asarray(x, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != x.shape:
        raise ValueError(f"baseline shape {baseline.shape} != input shape {x.shape}")
    k = x.size
    if k > max_features:
        raise ValueError(
            f"{k} features require 2^{k} coalition evaluations; "
            f"limit is {max_features} — use sampling_shapley instead"
        )
    flat_x, flat_b = x.ravel(), baseline.ravel()
    n_masks = 1 << k
    feature_bits = np.arange(k)

    v = np.empty(n_masks)
    for lo in range(0, n_masks, eval_batch):
        masks = np.arange(lo, min(lo + eval_batch, n_masks), dtype=np.int64)
        bits = ((masks[:, None] >> feature_bits[None, :]) & 1).astype(bool)
        rows = np.where(bits, flat_x[None, :], flat_b[None, :])
        v[lo:lo + len(masks)] = np.asarray(f(rows.reshape((-1,) + x.shape)), dtype=np.float64)

    all_masks = np.arange(n_masks, dtype=np.int64)
    sizes = np.zeros(n_masks, dtype=np.int64)
    for j in range(k):
        sizes += (all_masks >> j) & 1

    fact = [math.factorial(i) for i in range(k + 1)]
    weights = np.array([fact[s] * fact[k - s - 1] / fact[k] for s in range(k)])

    phi = np.empty(k)
    for j in range(k):
        without = all_masks[(all_masks >> j) & 1 == 0]
        phi[j] = np.sum(weights[sizes[without]] * (v[without | (1 << j)] - v[without]))
    return AttributionMap(phi.reshape(x.shape), float(v[0]),
                          class_id=getattr(f, "class_id", -1))


# -- permutation-sampling engine ----------------------------------------------------


def sampling_shapley(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    background,
    config: ShapConfig,
    block: int = 128,
) -> AttributionMap:
    """Monte-Carlo permutation estimate of Shapley values.

    Each sample draws a feature permutation and a baseline from the
    background, then credits each feature its marginal contribution when
    added in permutation order. Unbiased for the exact values under the
    same baseline distribution; ``stderr`` carries the per-feature MC error.
    """
    x = np.asarray(x, dtype=np.float64)
    bg = _background_inputs(background)
    if bg.shape[1:] != x.shape:
        raise ValueError(f"background item shape {bg.shape[1:]} != input shape {x.shape}")
    k = x.size
    flat_x = x.ravel()
    flat_bg = bg.reshape(len(bg), k)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    n = config.n_samples

    mean = np.zeros(k)
    m2 = np.zeros(k)  # Welford accumulation over per-permutation contributions
    seen = 0
    steps = np.arange(k + 1)[:, None]
    for lo in range(0, n, block):
        count = min(block, n - lo)
        rows = np.empty((count, k + 1, k))
        order = np.empty((count, k), dtype=np.int64)
        for s in range(count):
            perm = rng.permutation(k)
            base = flat_bg[rng.integers(len(flat_bg))]
            pos = np.empty(k, dtype=np.int64)
            pos[perm] = np.arange(k)
            rows[s] = np.where(pos[None, :] < steps, flat_x[None, :], base[None, :])
            order[s] = perm
        vals = np.asarray(f(rows.reshape((-1,) + x.shape)), dtype=np.float64)
        vals = vals.reshape(count, k + 1)
        contribs = np.diff(vals, axis=1)
        for s in range(count):
            seen += 1
            sample = np.empty(k)
            sample[order[s]] = contribs[s]
            delta = sample - mean
            mean += delta / seen
            m2 += delta * (sample - mean)

    stderr = np.sqrt(m2 / max(seen - 1, 1) / seen)
    phi0 = float(np.mean(f(bg)))
    return AttributionMap(mean.reshape(x.shape), phi0,
                          class_id=getattr(f, "class_id", -1),
                          stderr=stderr.reshape(x.shape))


# -- expected-gradients engine ---------------------------------------------------------


def expected_gradients(model: Model, xs: np.ndarray, background, config: ShapConfig,
                       seeds, class_ids) -> tuple[np.ndarray, np.ndarray]:
    """Expected-gradients SHAP (Erion et al. 2021) for every (class, probe) pair.

    phi_k = mean over samples of (x_k - b_k) * df/dx_k evaluated at
    b + alpha * (x - b), with b drawn uniformly from the background and
    alpha uniform on (0, 1); phi0 is the mean of f over the background.
    Probe p draws its samples from ``seeds[p]`` alone, so batching probes
    does not change any probe's map, and every class sees the same points,
    so one chunked gradient pass per class covers all probes.

    Returns phi shaped (classes, probes, *input shape), with classes in
    ``class_ids`` order, and phi0 shaped (classes,).
    """
    xs = np.asarray(xs, dtype=np.float64)
    bg = _background_inputs(background)
    if bg.shape[1:] != xs.shape[1:]:
        raise ValueError(f"background item shape {bg.shape[1:]} != input shape {xs.shape[1:]}")
    n = config.n_samples
    points = np.empty((len(xs) * n,) + xs.shape[1:])
    diffs = np.empty_like(points)
    for p, (x, seed) in enumerate(zip(xs, seeds)):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        base = bg[rng.integers(len(bg), size=n)]
        alphas = rng.uniform(size=n).reshape((-1,) + (1,) * x.ndim)
        block = base + alphas * (x[None] - base)
        if config.noise_std > 0.0:
            block = block + rng.normal(0.0, config.noise_std, size=block.shape)
        points[p * n:(p + 1) * n] = block
        diffs[p * n:(p + 1) * n] = x[None] - base

    class_ids = list(class_ids)
    phi = np.empty((len(class_ids), len(xs)) + xs.shape[1:])
    for i, class_id in enumerate(class_ids):
        _, grads = ClassLogit(model, class_id).gradient(points)
        if not np.all(np.isfinite(grads)):
            raise RuntimeError(
                f"non-finite gradient while attributing class {class_id}: check model weights")
        phi[i] = (diffs * grads).reshape((len(xs), n) + xs.shape[1:]).mean(axis=1)
    if not np.all(np.isfinite(phi)):
        raise ValueError("attribution map contains non-finite values")
    logits = np.concatenate([model.logits_np(bg[lo:lo + CHUNK_SIZE])
                             for lo in range(0, len(bg), CHUNK_SIZE)])
    return phi, logits.mean(axis=0)[class_ids]


def gradient_shap(f: ClassLogit, x: np.ndarray, background, config: ShapConfig) -> AttributionMap:
    """Expected-gradients SHAP of one class logit at one input, seeded by ``config.seed``."""
    phi, phi0 = expected_gradients(f.model, np.asarray(x)[None], background, config,
                                   [config.seed], [f.class_id])
    return AttributionMap(phi[0, 0], float(phi0[0]), class_id=f.class_id)


# -- clamping and per-class dispatch ----------------------------------------------------


def clamp_positive(attribution: AttributionMap) -> AttributionMap:
    """Zero out negative values; the base value is untouched."""
    return AttributionMap(np.maximum(attribution.phi, 0.0), attribution.phi0,
                          class_id=attribution.class_id, stderr=attribution.stderr)


def explain_all_classes(model: Model, x: np.ndarray, background,
                        config: ShapConfig) -> list[AttributionMap]:
    """One raw (unclamped) attribution map per output unit.

    Each class re-seeds the estimator from the same config seed, so all
    classes see identical baseline/interpolation draws and the resulting
    maps are directly comparable.
    """
    bg = _background_inputs(background)
    num_classes = model.spec.num_classes
    if config.engine == "gradient":
        phi, phi0 = expected_gradients(model, np.asarray(x)[None], bg, config,
                                       [config.seed], range(num_classes))
        return [AttributionMap(phi[c, 0], float(phi0[c]), class_id=c)
                for c in range(num_classes)]
    maps = []
    for class_id in range(num_classes):
        f = ClassLogit(model, class_id)
        if config.engine == "exact":
            attribution = exact_shapley(f, x, bg.mean(axis=0))
        else:
            attribution = sampling_shapley(f, x, bg, config)
        attribution.class_id = class_id
        maps.append(attribution)
    return maps


def per_example_config(config: ShapConfig, example_index: int) -> ShapConfig:
    """Derive a deterministic per-example seed; parallel and serial runs agree."""
    child = np.random.SeedSequence([config.seed, example_index]).generate_state(1)[0]
    return replace(config, seed=int(child))

