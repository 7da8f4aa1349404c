"""Attribution engine tests: hand-computed games, Shapley axioms,
Monte-Carlo error bounds, and linear-model exactness. Every game is played
in the one form the engines take, with (rows, outputs) values; a hand-solved
game has one output."""

import re
from dataclasses import replace

import numpy as np
import pytest

from shapdrift import explainers
from shapdrift.explainers import (
    AttributionMap,
    ClassLogit,
    ShapConfig,
    exact_shapley,
    expected_gradients,
    explain_all_classes,
    gradient_shap,
    per_example_config,
    sampling_shapley,
)
from shapdrift.models import CHUNK_SIZE, ModelSpec, build_model
from shapdrift.tensor import Tensor, col_slice, tsum


def mlp(k=8, classes=3, hidden=(6,), seed=0):
    return build_model(ModelSpec("mlp", (k,), classes, seed=seed, hidden=hidden))


# -- exact engine on hand-solved games ----------------------------------------------


def test_product_game_splits_credit_evenly():
    f = lambda z: (z[:, 0] * z[:, 1])[:, None]
    out = exact_shapley(f, np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out.phi, [[0.5, 0.5]], atol=1e-12)
    assert out.phi0.shape == (1,) and out.phi0[0] == 0.0


def test_glove_game_values():
    # one right glove (feature 2), two interchangeable left gloves:
    # the scarce side earns 2/3, each abundant player 1/6.
    f = lambda z: (z[:, 2] * np.minimum(z[:, 0] + z[:, 1], 1.0))[:, None]
    out = exact_shapley(f, np.ones(3), np.zeros(3))
    np.testing.assert_allclose(out.phi, [[1 / 6, 1 / 6, 2 / 3]], atol=1e-12)


def test_linear_game_recovers_weight_times_offset():
    rng = np.random.default_rng(11)
    w, c = rng.normal(size=5), 0.7
    x, b = rng.normal(size=5), rng.normal(size=5)
    out = exact_shapley(lambda z: (z @ w + c)[:, None], x, b)
    np.testing.assert_allclose(out.phi, [w * (x - b)], atol=1e-12)
    assert out.phi0[0] == pytest.approx(b @ w + c, abs=1e-12)


def test_dummy_feature_gets_zero():
    f = lambda z: (2.0 * z[:, 0] + np.tanh(z[:, 2]))[:, None]
    out = exact_shapley(f, np.array([1.0, 5.0, 0.3]), np.zeros(3))
    assert out.phi[0, 1] == 0.0


def test_symmetric_features_get_equal_credit():
    f = lambda z: (np.tanh(z[:, 0] + z[:, 1]) + 0.3 * z[:, 2])[:, None]
    out = exact_shapley(f, np.array([0.8, 0.8, -0.2]), np.zeros(3))
    assert out.phi[0, 0] == pytest.approx(out.phi[0, 1], abs=1e-12)


def test_efficiency_on_network_probe():
    model = mlp(k=8, seed=4)
    f = ClassLogit(model, 1)
    rng = np.random.default_rng(5)
    x, b = rng.normal(size=8), rng.normal(size=8)
    out = exact_shapley(f, x, b)
    assert out.phi0[0] + out.phi.sum() == pytest.approx(f(x[None])[0, 0], abs=1e-9)


def test_exact_chunked_evaluation_matches_single_pass(monkeypatch):
    model = mlp(k=6, seed=9)
    f = ClassLogit(model, 0)
    x, b = np.linspace(0, 1, 6), np.zeros(6)
    whole = exact_shapley(f, x, b)
    monkeypatch.setattr(explainers, "EXACT_EVAL_BATCH", 7)
    chunked = exact_shapley(f, x, b)
    np.testing.assert_allclose(chunked.phi, whole.phi, atol=1e-12)


def test_exact_rejects_wide_inputs():
    with pytest.raises(ValueError, match="sampling_shapley"):
        exact_shapley(lambda z: z.sum(axis=1, keepdims=True), np.zeros(21), np.zeros(21))


def test_exact_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="baseline shape"):
        exact_shapley(lambda z: z.sum(axis=1, keepdims=True), np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("game", [
    lambda z: z.sum(axis=1),   # one value per row: the scalar game form
    lambda z: z[:, :, None],   # a third axis
    lambda z: z[:1],           # one row whatever the row count
], ids=["scalar", "three-axis", "one-row"])
@pytest.mark.parametrize("engine", ["exact", "sampling"])
def test_engines_take_only_a_rows_by_outputs_game(engine, game):
    x, bg = np.ones(4), np.zeros((2, 4))
    rows = 16 if engine == "exact" else len(bg)  # the row count of the first call
    shape = np.shape(game(np.zeros((rows, 4))))
    with pytest.raises(ValueError, match=re.escape(
            f"game values must be shaped (rows, outputs) for {rows} rows, got shape {shape}")):
        if engine == "exact":
            exact_shapley(game, x, bg[0])
        else:
            sampling_shapley(game, x, bg, ShapConfig("sampling", n_samples=3))


# -- sampling engine --------------------------------------------------------------


def test_sampling_is_exactly_efficient_with_single_baseline():
    # every permutation telescopes to f(x) - f(b), so efficiency holds at any n
    model = mlp(k=7, seed=2)
    f = ClassLogit(model, 2)
    rng = np.random.default_rng(3)
    x, b = rng.normal(size=7), rng.normal(size=(1, 7))
    out = sampling_shapley(f, x, b, ShapConfig("sampling", n_samples=25, seed=1))
    assert out.phi0[0] + out.phi.sum() == pytest.approx(f(x[None])[0, 0], abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_matches_exact_within_error_bounds(seed):
    model = mlp(k=8, hidden=(10,), seed=seed)
    f = ClassLogit(model, 0)
    rng = np.random.default_rng(seed + 40)
    x, b = rng.normal(size=8), rng.normal(size=8)
    exact = exact_shapley(f, x, b)
    est = sampling_shapley(f, x, b[None], ShapConfig("sampling", n_samples=3000, seed=seed))
    bound = 4.0 * est.stderr + 1e-9
    assert np.all(np.abs(est.phi - exact.phi) <= bound)


def test_sampling_is_deterministic_per_seed():
    f = lambda z: np.tanh(z).sum(axis=1, keepdims=True)
    x = np.linspace(-1, 1, 5)
    bg = np.random.default_rng(0).normal(size=(6, 5))
    cfg = ShapConfig("sampling", n_samples=40, seed=7)
    a = sampling_shapley(f, x, bg, cfg)
    b = sampling_shapley(f, x, bg, cfg)
    np.testing.assert_array_equal(a.phi, b.phi)
    c = sampling_shapley(f, x, bg, ShapConfig("sampling", n_samples=40, seed=8))
    assert not np.array_equal(a.phi, c.phi)


def test_sampling_block_boundary_independence(monkeypatch):
    f = lambda z: (z ** 2).sum(axis=1, keepdims=True)
    x = np.arange(4.0)
    bg = np.random.default_rng(1).normal(size=(3, 4))
    cfg = ShapConfig("sampling", n_samples=50, seed=5)
    a = sampling_shapley(f, x, bg, cfg)
    monkeypatch.setattr(explainers, "SAMPLING_BLOCK", 7)
    b = sampling_shapley(f, x, bg, cfg)
    np.testing.assert_allclose(a.phi, b.phi, atol=1e-12)


# -- gradient engine --------------------------------------------------------------


def linear_model(k=6, classes=3, seed=0):
    return build_model(ModelSpec("mlp", (k,), classes, seed=seed, hidden=()))


def test_gradient_exact_on_linear_model_with_single_baseline():
    model = linear_model(seed=3)
    rng = np.random.default_rng(8)
    x, b = rng.normal(size=6), rng.normal(size=(1, 6))
    w = model.params["w0"].data
    # the gradient of a linear model is constant, so input noise leaves phi exact
    for noise_std in (0.0, 0.5):
        out = gradient_shap(model, x, b, ShapConfig("gradient", n_samples=3, seed=0,
                                                    noise_std=noise_std))
        np.testing.assert_allclose(out.phi, (w * (x - b[0])[:, None]).T, atol=1e-12)
        np.testing.assert_allclose(out.phi0, model.logits_np(b)[0], rtol=0, atol=1e-12)


def test_gradient_zero_when_input_equals_only_baseline():
    model = mlp(k=5, seed=6)
    x = np.random.default_rng(2).normal(size=5)
    out = gradient_shap(model, x, x[None], ShapConfig("gradient", n_samples=10, seed=0))
    np.testing.assert_array_equal(out.phi, np.zeros((3, 5)))


def test_gradient_completeness_converges():
    model = mlp(k=6, hidden=(8,), seed=1)
    rng = np.random.default_rng(9)
    x, bg = rng.normal(size=6), rng.normal(size=(5, 6))
    out = gradient_shap(model, x, bg, ShapConfig("gradient", n_samples=6000, seed=3))
    for c, target in enumerate(model.logits_np(x[None])[0] - out.phi0):
        assert out.phi[c].sum() == pytest.approx(target, abs=0.1 * max(1.0, abs(target)))


def test_gradient_aborts_on_nonfinite_gradient():
    model = mlp(k=4, seed=0)
    model.params["w0"].data[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite gradient"):
        gradient_shap(model, np.ones(4), np.zeros((1, 4)), ShapConfig("gradient", n_samples=4))


def per_class_expected_gradients(model, xs, bg, cfg, seeds):
    """The expected-gradients oracle: per class and chunk, a fresh taped
    forward seeded through a ``col_slice`` node, then every probe reduced
    from the class's full gradient array. Returns phi, the points and each
    class's gradients."""
    n, shape = cfg.n_samples, xs.shape[1:]
    points, diffs = [], []
    for x, seed in zip(xs, seeds):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        base = bg[rng.integers(len(bg), size=n)]
        block = base + rng.uniform(size=n).reshape((-1,) + (1,) * x.ndim) * (x[None] - base)
        if cfg.noise_std > 0.0:
            block = block + rng.normal(0.0, cfg.noise_std, size=block.shape)
        points.append(block)
        diffs.append(x[None] - base)
    points, diffs = np.concatenate(points), np.concatenate(diffs)
    params = list(model.trainable_parameters().values())
    for p in params:
        p.requires_grad = False
    classes = model.spec.num_classes
    phi = np.empty((classes, len(xs)) + shape)
    grads = np.empty((classes,) + points.shape)
    for c in range(classes):
        for lo in range(0, len(points), CHUNK_SIZE):
            x = Tensor(points[lo:lo + CHUNK_SIZE], requires_grad=True)
            tsum(col_slice(model.forward(x), c, c + 1)).backward()
            grads[c, lo:lo + CHUNK_SIZE] = x.grad
        phi[c] = (diffs * grads[c]).reshape((len(xs), n) + shape).mean(axis=1)
    for p in params:
        p.requires_grad = True
    return phi, points, grads


@pytest.mark.parametrize("spec", [
    ModelSpec("mlp", (1, 6, 6), 4, seed=1, hidden=(5,)),
    ModelSpec("cnn2d", (1, 10, 10), 4, seed=2, conv_channels=(2, 3), dense_width=6),
    ModelSpec("conv1d", (8, 3), 4, seed=3, conv1d_channels=4, conv1d_kernel=3),
    ModelSpec("lstm", (6, 3), 4, seed=4, hidden_size=5),
    ModelSpec("esn", (6, 3), 4, seed=5, hidden_size=8),
], ids=lambda spec: spec.architecture)
@pytest.mark.parametrize("n, probes, noise_std", [
    (7, 40, 0.3),   # 280 rows: two chunks, and a probe straddles the boundary
    (16, 17, 0.0),  # 272 rows: probes end on the chunk boundary
    (300, 2, 0.0),  # a probe longer than a chunk
    (1, 3, 0.0),
])
def test_expected_gradients_equals_per_class_passes(spec, n, probes, noise_std):
    model = build_model(spec)
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(probes,) + spec.input_shape)
    bg = rng.normal(size=(9,) + spec.input_shape)
    cfg = ShapConfig("gradient", n_samples=n, noise_std=noise_std)
    seeds = [per_example_config(cfg, p).seed for p in range(probes)]
    phi, _ = expected_gradients(model, xs, bg, cfg, seeds)
    expected, points, grads = per_class_expected_gradients(model, xs, bg, cfg, seeds)
    np.testing.assert_array_equal(phi, expected)
    np.testing.assert_array_equal(ClassLogit(model, 3).gradient(points), grads[3])


def test_expected_gradients_names_the_class_with_a_nonfinite_gradient():
    model = mlp(k=4, classes=3, seed=0)
    model.params["w0"].data[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite gradient while attributing class 0"):
        expected_gradients(model, np.ones((1, 4)), np.zeros((1, 4)),
                           ShapConfig("gradient", n_samples=4), [0])
    assert all(p.requires_grad for p in model.params.values())


def test_all_engines_agree_on_linear_model():
    model = linear_model(k=5, seed=7)
    rng = np.random.default_rng(12)
    x, b = rng.normal(size=5), rng.normal(size=5)
    expected = (model.params["w0"].data * (x - b)[:, None]).T
    ex = exact_shapley(model.logits_np, x, b)
    sa = sampling_shapley(model.logits_np, x, b[None],
                          ShapConfig("sampling", n_samples=30, seed=0))
    gr = gradient_shap(model, x, b[None], ShapConfig("gradient", n_samples=30, seed=0))
    for out in (ex, sa, gr):
        np.testing.assert_allclose(out.phi, expected, atol=1e-9)


# -- per-class dispatch -----------------------------------------------------------------


def test_attribution_map_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        AttributionMap(np.array([[1.0, np.inf]]), phi0=np.zeros(1))


def test_explain_all_classes_covers_every_class():
    model = mlp(k=6, classes=4, seed=5)
    rng = np.random.default_rng(1)
    x, bg = rng.normal(size=6), rng.normal(size=(8, 6))
    phi, phi0 = explain_all_classes(model, x[None], bg,
                                    ShapConfig("gradient", n_samples=20, seed=2), [2])
    assert phi.shape == (4, 1, 6) and phi0.shape == (4,)


def test_explain_all_classes_shares_draws_across_classes():
    # every class's map equals a direct engine call with the probe's seed
    model = mlp(k=5, classes=3, seed=8)
    rng = np.random.default_rng(4)
    x, bg = rng.normal(size=5), rng.normal(size=(6, 5))
    cfg = ShapConfig("gradient", n_samples=15, seed=9)
    phi, phi0 = explain_all_classes(model, x[None], bg, cfg, [cfg.seed])
    direct = gradient_shap(model, x, bg, cfg)
    np.testing.assert_array_equal(phi[:, 0], direct.phi)
    np.testing.assert_array_equal(phi0, direct.phi0)


def test_explain_all_classes_dispatches_every_engine():
    model = mlp(k=4, classes=2, seed=3)
    rng = np.random.default_rng(6)
    x, bg = rng.normal(size=4), rng.normal(size=(5, 4))
    for engine in ("exact", "sampling", "gradient"):
        phi, phi0 = explain_all_classes(model, x[None], bg,
                                        ShapConfig(engine, n_samples=10, seed=1), [1])
        assert phi.shape == (2, 1, 4) and phi0.shape == (2,)


@pytest.mark.parametrize("engine", ["exact", "sampling", "gradient"])
@pytest.mark.parametrize("n_seeds", [1, 4])
def test_explain_all_classes_needs_one_seed_per_probe(engine, n_seeds):
    model = mlp(k=4, classes=2, seed=3)
    rng = np.random.default_rng(6)
    xs, bg = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    with pytest.raises(ValueError, match=f"^{n_seeds} seeds for 3 probes"):
        explain_all_classes(model, xs, bg, ShapConfig(engine, n_samples=4, seed=1),
                            list(range(n_seeds)))
    if engine == "gradient":
        with pytest.raises(ValueError, match=f"^{n_seeds} seeds for 3 probes"):
            expected_gradients(model, xs, bg, ShapConfig(engine, n_samples=4),
                               list(range(n_seeds)))


@pytest.mark.parametrize("engine,spec", [
    ("exact", ModelSpec("mlp", (1, 4, 4), 3, seed=1, hidden=(5,))),
    ("exact", ModelSpec("mlp", (3, 4), 4, seed=2, hidden=(6,))),
    ("exact", ModelSpec("cnn2d", (1, 4, 4), 3, seed=3, conv_channels=(2, 2), conv_kernel=1,
                        dense_width=4)),
    ("sampling", ModelSpec("mlp", (3, 4), 4, seed=4, hidden=(6,))),
    ("sampling", ModelSpec("cnn2d", (1, 12, 12), 10, seed=5, conv_channels=(3, 4))),
])
def test_multi_output_game_equals_one_game_per_class(engine, spec):
    # the all-classes game, through the dispatcher and through the engine
    # itself, gives each class bit for bit its own one-output game
    model = build_model(spec)
    rng = np.random.default_rng(21)
    xs = rng.normal(size=(3,) + spec.input_shape)
    bg = rng.normal(size=(6,) + spec.input_shape)
    cfg = ShapConfig(engine, n_samples=12, seed=4)
    seeds = [per_example_config(cfg, p).seed for p in range(len(xs))]
    phi, phi0 = explain_all_classes(model, xs, bg, cfg, seeds)
    assert phi.shape == (spec.num_classes, len(xs)) + spec.input_shape
    assert phi.flags.c_contiguous
    for p, (x, seed) in enumerate(zip(xs, seeds)):
        if engine == "exact":
            engine_call = lambda f: exact_shapley(f, x, bg.mean(axis=0))
        else:
            engine_call = lambda f: sampling_shapley(f, x, bg, replace(cfg, seed=seed))
        joint = engine_call(model.logits_np)
        assert joint.phi.shape == (spec.num_classes,) + spec.input_shape
        np.testing.assert_array_equal(phi[:, p], joint.phi)
        np.testing.assert_array_equal(phi0, joint.phi0)
        for c in range(spec.num_classes):
            direct = engine_call(ClassLogit(model, c))
            np.testing.assert_array_equal(joint.phi[c:c + 1], direct.phi)
            np.testing.assert_array_equal(joint.phi0[c:c + 1], direct.phi0)
            if engine == "sampling":
                np.testing.assert_array_equal(joint.stderr[c:c + 1], direct.stderr)


@pytest.mark.parametrize("spec", [ModelSpec("mlp", (6,), 3, seed=1, hidden=(5,)),
                                  ModelSpec("lstm", (5, 3), 3, seed=2, hidden_size=4)])
def test_gradient_attribution_fills_no_parameter_grad(spec):
    model = build_model(spec)
    names = list(model.trainable_parameters())
    rng = np.random.default_rng(3)
    xs, bg = rng.normal(size=(2,) + spec.input_shape), rng.normal(size=(4,) + spec.input_shape)
    explain_all_classes(model, xs, bg, ShapConfig("gradient", n_samples=5, seed=0), [0, 1])
    assert all(p.grad is None for p in model.params.values())
    assert list(model.trainable_parameters()) == names
    # a call that raises restores the flags too
    with pytest.raises(ValueError, match="batch shape"):
        model.input_gradients(np.zeros((2, 7)), [0], None)
    assert list(model.trainable_parameters()) == names


def test_per_example_config_is_deterministic_and_distinct():
    cfg = ShapConfig("sampling", n_samples=12, seed=100)
    a, b = per_example_config(cfg, 3), per_example_config(cfg, 3)
    assert a.seed == b.seed and a.engine == "sampling" and a.n_samples == 12
    assert per_example_config(cfg, 4).seed != a.seed


def test_config_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        ShapConfig("kernel")
    with pytest.raises(ValueError, match="n_samples"):
        ShapConfig("gradient", n_samples=0)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        ShapConfig("sampling", seed=-1)
