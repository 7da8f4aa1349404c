"""Attribution engine tests: hand-computed games, Shapley axioms,
Monte-Carlo error bounds, and linear-model exactness."""

import numpy as np
import pytest

from shapdrift.explainers import (
    AttributionMap,
    ClassLogit,
    ShapConfig,
    exact_shapley,
    explain_all_classes,
    gradient_shap,
    per_example_config,
    sampling_shapley,
)
from shapdrift.models import ModelSpec, build_model


def mlp(k=8, classes=3, hidden=(6,), seed=0):
    return build_model(ModelSpec("mlp", (k,), classes, seed=seed, hidden=hidden))


# -- exact engine on hand-solved games ----------------------------------------------


def test_product_game_splits_credit_evenly():
    f = lambda z: z[:, 0] * z[:, 1]
    out = exact_shapley(f, np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out.phi, [0.5, 0.5], atol=1e-12)
    assert out.phi0 == 0.0


def test_glove_game_values():
    # one right glove (feature 2), two interchangeable left gloves:
    # the scarce side earns 2/3, each abundant player 1/6.
    f = lambda z: z[:, 2] * np.minimum(z[:, 0] + z[:, 1], 1.0)
    out = exact_shapley(f, np.ones(3), np.zeros(3))
    np.testing.assert_allclose(out.phi, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)


def test_linear_game_recovers_weight_times_offset():
    rng = np.random.default_rng(11)
    w, c = rng.normal(size=5), 0.7
    x, b = rng.normal(size=5), rng.normal(size=5)
    out = exact_shapley(lambda z: z @ w + c, x, b)
    np.testing.assert_allclose(out.phi, w * (x - b), atol=1e-12)
    assert out.phi0 == pytest.approx(b @ w + c, abs=1e-12)


def test_dummy_feature_gets_zero():
    f = lambda z: 2.0 * z[:, 0] + np.tanh(z[:, 2])
    out = exact_shapley(f, np.array([1.0, 5.0, 0.3]), np.zeros(3))
    assert out.phi[1] == 0.0


def test_symmetric_features_get_equal_credit():
    f = lambda z: np.tanh(z[:, 0] + z[:, 1]) + 0.3 * z[:, 2]
    out = exact_shapley(f, np.array([0.8, 0.8, -0.2]), np.zeros(3))
    assert out.phi[0] == pytest.approx(out.phi[1], abs=1e-12)


def test_efficiency_on_network_probe():
    model = mlp(k=8, seed=4)
    f = ClassLogit(model, 1)
    rng = np.random.default_rng(5)
    x, b = rng.normal(size=8), rng.normal(size=8)
    out = exact_shapley(f, x, b)
    assert out.phi0 + out.phi.sum() == pytest.approx(f(x[None])[0], abs=1e-9)
    assert out.class_id == 1


def test_exact_chunked_evaluation_matches_single_pass():
    model = mlp(k=6, seed=9)
    f = ClassLogit(model, 0)
    x, b = np.linspace(0, 1, 6), np.zeros(6)
    chunked = exact_shapley(f, x, b, eval_batch=7)
    whole = exact_shapley(f, x, b)
    np.testing.assert_allclose(chunked.phi, whole.phi, atol=1e-12)


def test_exact_rejects_wide_inputs():
    with pytest.raises(ValueError, match="sampling_shapley"):
        exact_shapley(lambda z: z.sum(axis=1), np.zeros(21), np.zeros(21))


def test_exact_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="baseline shape"):
        exact_shapley(lambda z: z.sum(axis=1), np.zeros(3), np.zeros(4))


# -- sampling engine --------------------------------------------------------------


def test_sampling_is_exactly_efficient_with_single_baseline():
    # every permutation telescopes to f(x) - f(b), so efficiency holds at any n
    model = mlp(k=7, seed=2)
    f = ClassLogit(model, 2)
    rng = np.random.default_rng(3)
    x, b = rng.normal(size=7), rng.normal(size=(1, 7))
    out = sampling_shapley(f, x, b, ShapConfig("sampling", n_samples=25, seed=1))
    assert out.phi0 + out.phi.sum() == pytest.approx(f(x[None])[0], abs=1e-9)


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
    f = lambda z: np.tanh(z).sum(axis=1)
    x = np.linspace(-1, 1, 5)
    bg = np.random.default_rng(0).normal(size=(6, 5))
    cfg = ShapConfig("sampling", n_samples=40, seed=7)
    a = sampling_shapley(f, x, bg, cfg)
    b = sampling_shapley(f, x, bg, cfg)
    np.testing.assert_array_equal(a.phi, b.phi)
    c = sampling_shapley(f, x, bg, ShapConfig("sampling", n_samples=40, seed=8))
    assert not np.array_equal(a.phi, c.phi)


def test_sampling_block_boundary_independence():
    f = lambda z: (z ** 2).sum(axis=1)
    x = np.arange(4.0)
    bg = np.random.default_rng(1).normal(size=(3, 4))
    cfg = ShapConfig("sampling", n_samples=50, seed=5)
    a = sampling_shapley(f, x, bg, cfg, block=128)
    b = sampling_shapley(f, x, bg, cfg, block=7)
    np.testing.assert_allclose(a.phi, b.phi, atol=1e-12)


# -- gradient engine --------------------------------------------------------------


def linear_model(k=6, classes=3, seed=0):
    return build_model(ModelSpec("mlp", (k,), classes, seed=seed, hidden=()))


def test_gradient_exact_on_linear_model_with_single_baseline():
    model = linear_model(seed=3)
    f = ClassLogit(model, 1)
    rng = np.random.default_rng(8)
    x, b = rng.normal(size=6), rng.normal(size=(1, 6))
    w = model.params["w0"].data[:, 1]
    # the gradient of a linear model is constant, so input noise leaves phi exact
    for noise_std in (0.0, 0.5):
        out = gradient_shap(f, x, b, ShapConfig("gradient", n_samples=3, seed=0,
                                                noise_std=noise_std))
        np.testing.assert_allclose(out.phi, w * (x - b[0]), atol=1e-12)
        assert out.phi0 == pytest.approx(f(b)[0], abs=1e-12)


def test_gradient_zero_when_input_equals_only_baseline():
    model = mlp(k=5, seed=6)
    f = ClassLogit(model, 0)
    x = np.random.default_rng(2).normal(size=5)
    out = gradient_shap(f, x, x[None], ShapConfig("gradient", n_samples=10, seed=0))
    np.testing.assert_array_equal(out.phi, np.zeros(5))


def test_gradient_completeness_converges():
    model = mlp(k=6, hidden=(8,), seed=1)
    f = ClassLogit(model, 2)
    rng = np.random.default_rng(9)
    x, bg = rng.normal(size=6), rng.normal(size=(5, 6))
    out = gradient_shap(f, x, bg, ShapConfig("gradient", n_samples=6000, seed=3))
    target = f(x[None])[0] - out.phi0
    assert out.phi.sum() == pytest.approx(target, abs=0.1 * max(1.0, abs(target)))


def test_gradient_aborts_on_nonfinite_gradient():
    model = mlp(k=4, seed=0)
    model.params["w0"].data[0, 0] = np.nan
    f = ClassLogit(model, 0)
    with pytest.raises(RuntimeError, match="non-finite gradient"):
        gradient_shap(f, np.ones(4), np.zeros((1, 4)), ShapConfig("gradient", n_samples=4))


def test_all_engines_agree_on_linear_model():
    model = linear_model(k=5, seed=7)
    f = ClassLogit(model, 0)
    rng = np.random.default_rng(12)
    x, b = rng.normal(size=5), rng.normal(size=5)
    expected = model.params["w0"].data[:, 0] * (x - b)
    ex = exact_shapley(f, x, b)
    sa = sampling_shapley(f, x, b[None], ShapConfig("sampling", n_samples=30, seed=0))
    gr = gradient_shap(f, x, b[None], ShapConfig("gradient", n_samples=30, seed=0))
    for out in (ex, sa, gr):
        np.testing.assert_allclose(out.phi, expected, atol=1e-9)


# -- per-class dispatch -----------------------------------------------------------------


def test_attribution_map_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        AttributionMap(np.array([1.0, np.inf]), phi0=0.0)


def test_explain_all_classes_covers_every_class():
    model = mlp(k=6, classes=4, seed=5)
    rng = np.random.default_rng(1)
    x, bg = rng.normal(size=6), rng.normal(size=(8, 6))
    maps = explain_all_classes(model, x, bg, ShapConfig("gradient", n_samples=20, seed=2))
    assert [m.class_id for m in maps] == [0, 1, 2, 3]
    assert all(m.phi.shape == (6,) for m in maps)


def test_explain_all_classes_shares_draws_across_classes():
    # each class's map must equal a direct engine call with the same seed,
    # proving the draw stream does not depend on the class index
    model = mlp(k=5, classes=3, seed=8)
    rng = np.random.default_rng(4)
    x, bg = rng.normal(size=5), rng.normal(size=(6, 5))
    cfg = ShapConfig("gradient", n_samples=15, seed=9)
    maps = explain_all_classes(model, x, bg, cfg)
    for class_id, amap in enumerate(maps):
        direct = gradient_shap(ClassLogit(model, class_id), x, bg, cfg)
        np.testing.assert_array_equal(amap.phi, direct.phi)


def test_explain_all_classes_dispatches_every_engine():
    model = mlp(k=4, classes=2, seed=3)
    rng = np.random.default_rng(6)
    x, bg = rng.normal(size=4), rng.normal(size=(5, 4))
    for engine in ("exact", "sampling", "gradient"):
        maps = explain_all_classes(model, x, bg, ShapConfig(engine, n_samples=10, seed=1))
        assert [m.class_id for m in maps] == [0, 1]


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
