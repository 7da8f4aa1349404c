import numpy as np
import pytest

from shapdrift import models as md
from shapdrift.explainers import ClassLogit
from shapdrift.models import ModelSpec, build_model
from shapdrift.tensor import Tensor, no_grad, softmax_cross_entropy

IMAGE_SPEC = ModelSpec("mlp", (1, 8, 8), num_classes=10, seed=0, hidden=(16,))
SEQ_SHAPE = (12, 5)


def power_iteration_radius(w: np.ndarray, iters: int = 500, seed: int = 0) -> float:
    """Spectral-radius estimate: geometric mean of late growth factors."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=w.shape[0])
    v /= np.linalg.norm(v)
    growth = []
    for _ in range(iters):
        wv = w @ v
        r = np.linalg.norm(wv)
        growth.append(r)
        v = wv / r
    return float(np.exp(np.mean(np.log(growth[-100:]))))


def make_spec(arch, **kw):
    if arch == "cnn2d":
        base = dict(architecture=arch, input_shape=(1, 12, 12), num_classes=4, seed=1)
    elif arch == "mlp":
        base = dict(architecture=arch, input_shape=(1, 8, 8), num_classes=4, seed=1)
    else:
        base = dict(architecture=arch, input_shape=SEQ_SHAPE, num_classes=4, seed=1,
                    hidden_size=10)
    base.update(kw)
    return ModelSpec(**base)


@pytest.mark.parametrize("arch", md.ARCHITECTURES)
def test_init_deterministic(arch):
    a = build_model(make_spec(arch))
    b = build_model(make_spec(arch))
    sa, sb = a.state_dict(), b.state_dict()
    assert list(sa) == list(sb)
    for name in sa:
        np.testing.assert_array_equal(sa[name], sb[name])
    c = build_model(make_spec(arch, seed=2)).state_dict()
    assert any(not np.array_equal(sa[name], c[name]) for name in sa)


@pytest.mark.parametrize("arch", md.ARCHITECTURES)
def test_forward_shapes_and_batch_independence(arch):
    spec = make_spec(arch)
    model = build_model(spec)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(6,) + spec.input_shape)
    logits = model.logits_np(batch)
    assert logits.shape == (6, 4)
    assert np.all(np.isfinite(logits))
    perm = rng.permutation(6)
    assert np.allclose(model.logits_np(batch[perm]), logits[perm])


def test_mlp_output_width():
    model = build_model(IMAGE_SPEC)
    out = model.logits_np(np.zeros((3, 1, 8, 8)))
    assert out.shape == (3, 10)


def test_zero_weight_head_gives_zero_logits():
    model = build_model(make_spec("mlp", hidden=(6,)))
    model.params["w1"].data[:] = 0.0
    model.params["b1"].data[:] = 0.0
    out = model.logits_np(np.random.default_rng(0).normal(size=(4, 1, 8, 8)))
    assert np.array_equal(out, np.zeros((4, 4)))


def test_forward_shape_mismatch_rejected():
    model = build_model(make_spec("mlp"))
    with pytest.raises(ValueError, match="does not match input shape"):
        model.logits_np(np.zeros((2, 1, 5, 5)))


def test_zero_width_layer_rejected():
    with pytest.raises(ValueError, match="zero-width"):
        make_spec("mlp", hidden=(0,))


# -- ESN specifics ------------------------------------------------------------------


def test_esn_spectral_radius_power_iteration():
    model = build_model(make_spec("esn", hidden_size=80, esn_spectral_radius=0.9))
    estimate = power_iteration_radius(model.params["w"].data, iters=500)
    assert 0.899 <= estimate <= 0.901


def test_esn_zero_input_zero_state():
    spec = make_spec("esn")
    model = build_model(spec)
    logits = model.logits_np(np.zeros((2,) + SEQ_SHAPE))
    # tanh(0) = 0 keeps the reservoir at the origin; logits reduce to the head bias
    assert np.allclose(logits, model.params["head_b"].data)


def test_esn_step_leak_limits():
    model = build_model(make_spec("esn", hidden_size=6))
    state = Tensor(np.zeros((1, 6)))
    zero_in = Tensor(np.zeros((1, SEQ_SHAPE[1])))
    out = model.step(state, zero_in)
    assert np.array_equal(out.data, np.zeros((1, 6)))  # leak=anything, tanh(0)=0

    full = build_model(make_spec("esn", hidden_size=6, esn_leak=1.0))
    rng = np.random.default_rng(0)
    state = Tensor(rng.normal(size=(1, 6)))
    inp = Tensor(rng.normal(size=(1, SEQ_SHAPE[1])))
    out = full.step(state, inp)
    w_in, w = full.params["w_in"].data, full.params["w"].data
    # leak 1 keeps nothing of the old state beyond the recurrent term
    assert np.array_equal(out.data, np.tanh(inp.data @ w_in + state.data @ w))


def test_esn_contraction_washes_out_initial_state():
    spec = ModelSpec("esn", (200, 5), num_classes=4, seed=3, hidden_size=60,
                     esn_spectral_radius=0.9)
    model = build_model(spec)
    rng = np.random.default_rng(7)
    inputs = [Tensor(rng.normal(size=(1, 5))) for _ in range(200)]

    s1 = Tensor(rng.normal(size=(1, 60)))
    s2 = Tensor(rng.normal(size=(1, 60)))
    initial_distance = float(np.linalg.norm(s1.data - s2.data))
    for u in inputs:
        s1 = model.step(s1, u)
        s2 = model.step(s2, u)
    final_distance = float(np.linalg.norm(s1.data - s2.data))
    assert final_distance < 1e-3 * initial_distance


def test_trainable_parameters():
    esn = build_model(make_spec("esn", hidden_size=16))
    assert set(esn.trainable_parameters()) == {"head_w", "head_b"}
    mlp = build_model(make_spec("mlp"))
    assert set(mlp.trainable_parameters()) == set(mlp.params)
    lstm = build_model(make_spec("lstm", hidden_size=16))
    esn_count = sum(p.size for p in esn.trainable_parameters().values())
    lstm_count = sum(p.size for p in lstm.trainable_parameters().values())
    assert esn_count < lstm_count


def test_reservoir_checksum_stable_under_readout_updates():
    model = build_model(make_spec("esn", hidden_size=12))
    before = md.reservoir_checksum(model)
    model.params["head_w"].data += 0.5
    model.params["head_b"].data -= 1.0
    assert md.reservoir_checksum(model) == before


# -- LSTM tape -------------------------------------------------------------------------


def _tape_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


def test_lstm_loss_graph_size_is_independent_of_sequence_length():
    # the recurrence is one tape node, so longer sequences add no nodes
    counts = []
    for steps in (6, 30):
        model = build_model(make_spec("lstm", input_shape=(steps, 5)))
        x = Tensor(np.random.default_rng(steps).normal(size=(3, steps, 5)))
        loss = softmax_cross_entropy(model.forward(x), np.array([0, 1, 2]))
        counts.append(_tape_nodes(loss))
    assert counts[0] == counts[1] <= 12


def test_lstm_logits_without_tape_match_grad_mode():
    model = build_model(make_spec("lstm"))
    batch = np.random.default_rng(3).normal(size=(4,) + SEQ_SHAPE)
    logits = model.forward(Tensor(batch))
    assert logits.requires_grad
    assert np.array_equal(model.logits_np(batch), logits.data)


@pytest.mark.parametrize("arch", ["mlp", "lstm"])
def test_logits_np_runs_chunk_by_chunk(arch):
    spec = make_spec(arch)
    model = build_model(spec)
    batch = np.random.default_rng(4).normal(size=(2 * md.CHUNK_SIZE + 5,) + spec.input_shape)
    with no_grad():
        chunks = [model.forward(Tensor(batch[lo:lo + md.CHUNK_SIZE])).data
                  for lo in range(0, len(batch), md.CHUNK_SIZE)]
    assert np.array_equal(model.logits_np(batch), np.concatenate(chunks))
    empty = np.empty((0,) + spec.input_shape)
    assert model.logits_np(empty).shape == (0, spec.num_classes)
    assert ClassLogit(model, 1)(empty).shape == (0,)


# -- gradient flow to the input ------------------------------------------------------


@pytest.mark.parametrize("arch", md.ARCHITECTURES)
def test_input_gradient_matches_finite_differences(arch):
    spec = make_spec(arch) if arch in ("mlp", "cnn2d") else make_spec(
        arch, input_shape=(5, 4), hidden_size=8)
    model = build_model(spec)
    rng = np.random.default_rng(11)
    x_data = rng.normal(size=(2,) + spec.input_shape)

    # scalar = sum over the batch of the class-1 logit
    x = Tensor(x_data, requires_grad=True)
    sel = np.zeros((spec.num_classes, 1))
    sel[1, 0] = 1.0
    scalar = (model.forward(x) @ Tensor(sel)).sum()
    scalar.backward()
    grad = x.grad.copy()

    step = 1e-5
    flat = x_data.reshape(-1)
    coords = rng.choice(flat.size, size=5, replace=False)
    for idx in coords:
        orig = flat[idx]
        flat[idx] = orig + step
        up = model.logits_np(x_data)[:, 1].sum()
        flat[idx] = orig - step
        down = model.logits_np(x_data)[:, 1].sum()
        flat[idx] = orig
        fd = (up - down) / (2 * step)
        ad = grad.reshape(-1)[idx]
        assert abs(fd - ad) / max(abs(fd), abs(ad), 1e-3) <= 1e-4


# -- per-example loss gradients ------------------------------------------------------


def parameter_snapshot(model):
    return {name: (p.requires_grad, p.data.copy())
            for name, p in model.trainable_parameters().items()}


def assert_parameters_untouched(model, before):
    after = model.trainable_parameters()
    assert list(after) == list(before)
    for name, p in after.items():
        assert p.grad is None
        assert p.requires_grad == before[name][0]
        np.testing.assert_array_equal(p.data, before[name][1])


@pytest.mark.parametrize("arch", md.ARCHITECTURES)
def test_example_gradients_lay_out_each_rows_tape_gradient(arch):
    model = build_model(make_spec(arch))
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(3,) + model.spec.input_shape)
    ys = np.array([0, 3, 1])
    before = parameter_snapshot(model)
    grads = model.example_gradients(xs, ys)
    assert_parameters_untouched(model, before)
    params = model.trainable_parameters()
    assert grads.shape == (3, sum(p.size for p in params.values()))
    for r in range(3):
        softmax_cross_entropy(model.forward(Tensor(xs[r:r + 1])), ys[r:r + 1]).backward()
        expected = np.concatenate([params[name].grad.ravel() for name in sorted(params)])
        for p in params.values():
            p.grad = None
        np.testing.assert_array_equal(grads[r], expected)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(32,), (16, 8), (16, 8, 8)])
@pytest.mark.parametrize("rows", [1, 2, 11, 40])
def test_mlp_example_gradients_equal_the_tape_loop(activation, hidden, rows):
    model = build_model(make_spec("mlp", input_shape=(1, 12, 12), num_classes=10,
                                  hidden=hidden, activation=activation))
    rng = np.random.default_rng(rows)
    xs = rng.uniform(size=(rows, 1, 12, 12))
    ys = rng.integers(0, 10, size=rows)
    if rows > 2:  # one duplicated row
        xs[-1], ys[-1] = xs[0], ys[0]
    before = parameter_snapshot(model)
    fast = model.example_gradients(xs, ys)
    assert_parameters_untouched(model, before)
    loop = md.Model.example_gradients(model, xs, ys)
    assert_parameters_untouched(model, before)
    np.testing.assert_array_equal(fast, loop)


# -- state dicts -----------------------------------------------------------------------


def test_state_dict_mismatch_rejected():
    model = build_model(make_spec("mlp"))
    state = model.state_dict()
    state.pop("b0")
    with pytest.raises(ValueError, match="missing"):
        model.load_state_dict(state)
