"""Per-class attribution engines: exact Shapley, permutation sampling, and
expected-gradients SHAP, behind one dispatcher, ``explain_all_classes``.

Every engine treats one input scalar (pixel or per-step-per-feature cell)
as one game feature and is a pure function of (f, x, background, seed).
Every engine explains every output: the exact and sampling engines play an
f with (rows, outputs) values, one game per output column on shared draws,
so each row set runs through the model once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .data import require_count, require_real
from .models import Model

EXACT_MAX_FEATURES = 20  # exact enumeration evaluates 2^K coalitions of K features
EXACT_EVAL_BATCH = 8192  # coalition rows per model evaluation in exact_shapley
# a declared output change if changed, as CHUNK_SIZE is: it sets the rows per model pass
SAMPLING_BLOCK = 128     # permutations per model evaluation in sampling_shapley


@dataclass
class AttributionMap:
    """Per-output attribution maps: phi shaped (outputs, *input shape), the base
    values phi0 shaped (outputs,), and stderr shaped like phi or None."""

    phi: np.ndarray
    phi0: np.ndarray
    stderr: Optional[np.ndarray] = None  # per-feature MC standard error (sampling engine)

    def __post_init__(self):
        # C order, so stacks of maps reduce in the same order whatever built them
        self.phi = np.ascontiguousarray(self.phi, dtype=np.float64)
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
        require_count("n_samples", self.n_samples)
        require_count("seed", self.seed, lowest=0)
        require_real("noise_std", self.noise_std)
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std!r}")
        if self.noise_std > 0 and self.engine != "gradient":
            raise ValueError(f"noise_std applies only to the gradient engine, not {self.engine!r}")


class ClassLogit:
    """f(x) = pre-softmax logit of one output unit, as a one-output game: (rows, 1) values.

    ``gradient`` runs the expected-gradients engine's ``Model.input_gradients``
    passes for this one class.
    """

    def __init__(self, model: Model, class_id: int):
        self.model = model
        self.class_id = class_id

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return self.model.logits_np(batch)[:, [self.class_id]]

    def gradient(self, batch: np.ndarray) -> np.ndarray:
        """Return d value / d input for each row; no parameter gradient is filled."""
        grads = np.empty_like(batch, dtype=np.float64)

        def keep(i, lo, chunk_grads):
            grads[lo:lo + len(chunk_grads)] = chunk_grads

        self.model.input_gradients(batch, [self.class_id], keep)
        return grads


def _background_inputs(background, item_shape: tuple) -> np.ndarray:
    background = np.asarray(background, dtype=np.float64)
    if len(background) == 0:
        raise ValueError("background set is empty")
    if background.shape[1:] != item_shape:
        raise ValueError(f"background item shape {background.shape[1:]} != input shape {item_shape}")
    return background


def _play(f: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The game's values at ``rows``, which must be shaped (rows, outputs)."""
    values = np.asarray(f(rows), dtype=np.float64)
    if values.ndim != 2 or len(values) != len(rows):
        raise ValueError(f"game values must be shaped (rows, outputs) for {len(rows)} rows, "
                         f"got shape {values.shape}")
    return values


# -- exact engine ---------------------------------------------------------------


def exact_shapley(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    baseline: np.ndarray,
) -> AttributionMap:
    """Exact Shapley values of the game v(S) = f(x with features outside S
    replaced by the baseline), by enumerating all 2^K coalitions.

    f returns (rows, outputs) values, and each output column is one game;
    phi0 = v(empty set) = f(baseline); efficiency phi0 + sum(phi) = f(x).
    """
    x = np.asarray(x, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != x.shape:
        raise ValueError(f"baseline shape {baseline.shape} != input shape {x.shape}")
    k = x.size
    if k > EXACT_MAX_FEATURES:
        raise ValueError(
            f"{k} features require 2^{k} coalition evaluations; "
            f"limit is {EXACT_MAX_FEATURES} — use sampling_shapley instead"
        )
    flat_x, flat_b = x.ravel(), baseline.ravel()
    n_masks = 1 << k
    feature_bits = np.arange(k)

    chunks = []
    sizes = np.empty(n_masks, dtype=np.int64)  # coalition size of each mask
    for lo in range(0, n_masks, EXACT_EVAL_BATCH):
        masks = np.arange(lo, min(lo + EXACT_EVAL_BATCH, n_masks), dtype=np.int64)
        bits = ((masks[:, None] >> feature_bits[None, :]) & 1).astype(bool)
        sizes[lo:lo + len(masks)] = bits.sum(axis=1)
        rows = np.where(bits, flat_x[None, :], flat_b[None, :])
        chunks.append(_play(f, rows.reshape((-1,) + x.shape)))
    v = np.ascontiguousarray(np.concatenate(chunks).T)  # one row of coalition values per game

    all_masks = np.arange(n_masks, dtype=np.int64)

    fact = [math.factorial(i) for i in range(k + 1)]
    weights = np.array([fact[s] * fact[k - s - 1] / fact[k] for s in range(k)])

    phi = np.empty((len(v), k))
    for j in range(k):
        without = all_masks[(all_masks >> j) & 1 == 0]
        terms = weights[sizes[without]] * (v[:, without | (1 << j)] - v[:, without])
        # contiguous rows keep each game's sum pairwise, whatever the output count
        phi[:, j] = np.ascontiguousarray(terms).sum(axis=-1)
    return AttributionMap(phi.reshape((len(v),) + x.shape), v[:, 0])


# -- permutation-sampling engine ----------------------------------------------------


def sampling_shapley(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    background,
    config: ShapConfig,
) -> AttributionMap:
    """Monte-Carlo permutation estimate of Shapley values.

    Each sample draws a feature permutation and a baseline from the
    background, then credits each feature its marginal contribution when
    added in permutation order. Unbiased for the exact values under the
    same baseline distribution; ``stderr`` carries the per-feature MC error.
    f returns (rows, outputs) values, and every output column plays its game
    on the same permutations and baselines.
    """
    x = np.asarray(x, dtype=np.float64)
    bg = _background_inputs(background, x.shape)
    k = x.size
    flat_x = x.ravel()
    flat_bg = bg.reshape(len(bg), k)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    n = config.n_samples
    phi0 = np.array([np.mean(column) for column in _play(f, bg).T])

    mean = np.zeros((len(phi0), k))
    m2 = np.zeros_like(mean)  # Welford accumulation over per-permutation contributions
    seen = 0
    steps = np.arange(k + 1)[:, None]
    for lo in range(0, n, SAMPLING_BLOCK):
        count = min(SAMPLING_BLOCK, n - lo)
        rows = np.empty((count, k + 1, k))
        pos = np.empty((count, k), dtype=np.int64)  # step at which each feature joins
        for s in range(count):
            pos[s] = np.argsort(rng.permutation(k))
            base = flat_bg[rng.integers(len(flat_bg))]
            rows[s] = np.where(pos[s][None, :] < steps, flat_x[None, :], base[None, :])
        vals = _play(f, rows.reshape((-1,) + x.shape))
        contribs = np.diff(vals.reshape(count, k + 1, -1), axis=1)
        for s in range(count):
            seen += 1
            sample = contribs[s, pos[s]].T
            delta = sample - mean
            mean += delta / seen
            m2 += delta * (sample - mean)

    stderr = np.sqrt(m2 / max(seen - 1, 1) / seen)
    shape = (len(phi0),) + x.shape
    return AttributionMap(mean.reshape(shape), phi0, stderr.reshape(shape))


# -- expected-gradients engine ---------------------------------------------------------


def expected_gradients(model: Model, xs: np.ndarray, background, config: ShapConfig,
                       seeds) -> tuple[np.ndarray, np.ndarray]:
    """Expected-gradients SHAP (Erion et al. 2021) for every (class, probe) pair.

    phi_k = mean over samples of (x_k - b_k) * df/dx_k evaluated at
    b + alpha * (x - b), with b drawn uniformly from the background and
    alpha uniform on (0, 1); phi0 is the mean of f over the background.
    Probe p draws its samples from ``seeds[p]`` alone, so batching probes
    does not change any probe's map, and every class sees the same points,
    so one taped forward per chunk serves every class's backward pass. Each
    class folds a probe into phi as soon as the probe's last chunk is done.

    Returns phi shaped (classes, probes, *input shape) and phi0 shaped (classes,).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if len(seeds) != len(xs):
        raise ValueError(f"{len(seeds)} seeds for {len(xs)} probes: each probe needs one seed")
    bg = _background_inputs(background, xs.shape[1:])
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

    classes, shape = model.spec.num_classes, xs.shape[1:]
    phi = np.empty((classes, len(xs)) + shape)
    tails = [points[:0]] * classes  # each class's rows of its unfinished probe

    def reduce(i, lo, grads):
        if not np.all(np.isfinite(grads)):
            raise RuntimeError(f"non-finite gradient while attributing class {i}: "
                               f"check model weights")
        first, done = lo // n, (lo + len(grads)) // n  # probes [first, done) finish here
        rows = np.concatenate([tails[i], grads]) if len(tails[i]) else grads
        split = (done - first) * n
        phi[i, first:done] = (diffs[first * n:done * n] * rows[:split]).reshape(
            (done - first, n) + shape).mean(axis=1)
        tails[i] = rows[split:].copy()  # a copy, so the chunk's gradient is freed

    model.input_gradients(points, range(classes), reduce)
    if not np.all(np.isfinite(phi)):
        raise ValueError("attribution map contains non-finite values")
    return phi, model.logits_np(bg).mean(axis=0)


def gradient_shap(model: Model, x: np.ndarray, background, config: ShapConfig) -> AttributionMap:
    """Expected-gradients SHAP of every class logit at one input, seeded by ``config.seed``."""
    phi, phi0 = expected_gradients(model, np.asarray(x)[None], background, config, [config.seed])
    return AttributionMap(phi[:, 0], phi0)


# -- per-class dispatch -----------------------------------------------------------------


def explain_all_classes(model: Model, xs: np.ndarray, background, config: ShapConfig,
                        seeds) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unclamped) maps of every output unit for every probe, by any engine.

    Probe p draws from ``seeds[p]`` and all classes share its draws; the exact
    and sampling engines play ``model.logits_np`` as one game per class, so
    each row set runs through the model once.

    Returns phi shaped (classes, probes, *input shape) and phi0 shaped (classes,).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if len(seeds) != len(xs):
        raise ValueError(f"{len(seeds)} seeds for {len(xs)} probes: each probe needs one seed")
    bg = _background_inputs(background, xs.shape[1:])
    if config.engine == "gradient":
        return expected_gradients(model, xs, bg, config, seeds)
    if config.engine == "exact":
        maps = [exact_shapley(model.logits_np, x, bg.mean(axis=0)) for x in xs]
    else:
        maps = [sampling_shapley(model.logits_np, x, bg, replace(config, seed=seed))
                for x, seed in zip(xs, seeds)]
    return np.stack([m.phi for m in maps], axis=1), maps[0].phi0


def per_example_config(config: ShapConfig, example_index: int) -> ShapConfig:
    """Derive a deterministic per-example seed; parallel and serial runs agree."""
    child = np.random.SeedSequence([config.seed, example_index]).generate_state(1)[0]
    return replace(config, seed=int(child))

