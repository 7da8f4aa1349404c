import numpy as np
import pytest

from shapdrift import models as md
from shapdrift.explainers import ClassLogit
from shapdrift.models import ModelSpec, build_model
from shapdrift.tensor import Tensor, crop2d, matmul, no_grad, softmax_cross_entropy, tanh

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
    with pytest.raises(ValueError, match=r"^hidden\[0\] must be an integer >= 1, got 0$"):
        make_spec("mlp", hidden=(0,))


def test_spec_rejects_a_negative_seed_and_a_fractional_axis():
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        make_spec("mlp", seed=-1)
    with pytest.raises(TypeError, match=r"^input_shape\[1\] must be an integer >= 1, got 4\.5$"):
        make_spec("mlp", input_shape=(1, 4.5, 4))
    with pytest.raises(TypeError, match="^input_shape must be a list of integers, got 16$"):
        make_spec("mlp", input_shape=16)


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
    scalar = matmul(model.forward(x), Tensor(sel)).sum()
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


def assert_same_bytes(a, b):
    """Equal bit for bit, so a -0.0 does not pass for a +0.0."""
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_rows_match_the_tape_loop(model, rows, tape_loop):
    """``example_gradients`` of a C- and a Fortran-ordered batch, byte for byte
    the batch-1 tape loop's, with every parameter left as it was."""
    rng = np.random.default_rng(rows)
    xs = rng.uniform(size=(rows,) + model.spec.input_shape)
    ys = rng.integers(0, model.spec.num_classes, size=rows)
    if rows > 2:  # one duplicated row
        xs[-1], ys[-1] = xs[0], ys[0]
    before = parameter_snapshot(model)
    loop = tape_loop(model, xs, ys)
    assert_parameters_untouched(model, before)
    for batch in (xs, np.asfortranarray(xs)):
        assert_same_bytes(model.example_gradients(batch, ys), loop)
        assert_parameters_untouched(model, before)


ROWS = [1, 2, 11, 40]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(32,), (16, 8), (16, 8, 8)])
@pytest.mark.parametrize("rows", ROWS)
def test_mlp_example_gradients_equal_the_tape_loop(activation, hidden, rows, tape_loop):
    model = build_model(make_spec("mlp", input_shape=(1, 12, 12), num_classes=10,
                                  hidden=hidden, activation=activation))
    assert_rows_match_the_tape_loop(model, rows, tape_loop)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("input_shape", [(1, 12, 12), (2, 10, 11)])
@pytest.mark.parametrize("conv_kernel", [3, 2])
@pytest.mark.parametrize("rows", ROWS)
def test_cnn2d_example_gradients_equal_the_tape_loop(activation, input_shape, conv_kernel, rows,
                                                     tape_loop):
    model = build_model(make_spec("cnn2d", input_shape=input_shape, num_classes=10,
                                  conv_kernel=conv_kernel, activation=activation))
    assert_rows_match_the_tape_loop(model, rows, tape_loop)


@pytest.mark.parametrize("features", [12, 33])
@pytest.mark.parametrize("hidden_size", [1, 2, 3, 5, 7, 32])
@pytest.mark.parametrize("rows", ROWS)
def test_lstm_example_gradients_equal_the_tape_loop(features, hidden_size, rows, tape_loop):
    model = build_model(make_spec("lstm", input_shape=(5, features), num_classes=6,
                                  hidden_size=hidden_size))
    assert_rows_match_the_tape_loop(model, rows, tape_loop)


@pytest.mark.parametrize("leak", [0.5, 1.0])
@pytest.mark.parametrize("rows", ROWS)
def test_esn_example_gradients_equal_the_tape_loop(leak, rows, tape_loop):
    model = build_model(make_spec("esn", hidden_size=24, esn_leak=leak))
    assert_rows_match_the_tape_loop(model, rows, tape_loop)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("channels, kernel", [(6, 3), (4, 12)])
@pytest.mark.parametrize("rows", ROWS)
def test_conv1d_example_gradients_equal_the_tape_loop(activation, channels, kernel, rows,
                                                      tape_loop):
    model = build_model(make_spec("conv1d", conv1d_channels=channels, conv1d_kernel=kernel,
                                  activation=activation))
    assert_rows_match_the_tape_loop(model, rows, tape_loop)


def test_example_gradients_failing_mid_pass_leave_no_mode_and_no_grad():
    model = build_model(make_spec("mlp", hidden=(6, 5)))
    rng = np.random.default_rng(4)
    xs, ys = rng.normal(size=(3,) + model.spec.input_shape), np.array([0, 2, 1])
    before = parameter_snapshot(model)

    def failing_tanh(a):  # fails in the backward pass, after the head took its gradient
        out = tanh(a)
        def _bw(g):
            assert model.params["w2"].grad is not None
            raise RuntimeError("failed mid-pass")
        out._backward = _bw
        return out

    model.act = failing_tanh
    with pytest.raises(RuntimeError, match="failed mid-pass"):
        model.example_gradients(xs, ys)
    assert_parameters_untouched(model, before)
    model.act = tanh
    # the mode is off: the loss is a batch mean again, and a pass sums its rows
    assert softmax_cross_entropy(model.forward(Tensor(xs)), ys).shape == ()
    assert_same_bytes(matmul(Tensor(xs.reshape(3, -1)), model.params["w0"]).data,
                      xs.reshape(3, -1) @ model.params["w0"].data)


def _batch_layouts(xs):
    """``xs`` C-ordered, Fortran-ordered and as a strided slice of a wider batch."""
    wide = np.empty((2 * len(xs),) + xs.shape[1:])
    wide[::2] = xs
    return {"c-order": xs, "fortran": np.asfortranarray(xs), "batch-slice": wide[::2]}


def _step_gradients(model, xs, ys):
    """Each parameter's gradient after one taped loss forward and backward pass."""
    softmax_cross_entropy(model.forward(Tensor(xs)), ys).backward()
    params = model.trainable_parameters()
    grads = {name: p.grad for name, p in params.items()}
    for p in params.values():
        p.grad = None
    return grads


@pytest.mark.parametrize("input_shape", [(1, 12, 12), (2, 10, 11)])
def test_cnn2d_outputs_do_not_depend_on_the_batch_layout(input_shape):
    model = build_model(make_spec("cnn2d", input_shape=input_shape, num_classes=10))
    rng = np.random.default_rng(8)
    xs = rng.uniform(size=(13,) + input_shape)
    ys = rng.integers(0, 10, size=13)
    ref = (model.logits_np(xs), model.example_gradients(xs, ys), _step_gradients(model, xs, ys))
    for name, batch in _batch_layouts(xs).items():
        assert np.array_equal(model.logits_np(batch), ref[0]), name
        assert np.array_equal(model.example_gradients(batch, ys), ref[1]), name
        grads = _step_gradients(model, batch, ys)
        for param in ref[2]:
            assert np.array_equal(grads[param], ref[2][param]), (name, param)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("input_shape, kernel, window", [
    ((1, 12, 12), 3, (10, 10)), ((1, 13, 13), 3, (10, 10)), ((1, 14, 14), 3, (14, 14)),
    ((1, 15, 15), 3, (14, 14)), ((2, 13, 15), 2, (11, 15)), ((2, 12, 15), 3, (10, 14))])
def test_cnn2d_reads_only_its_input_window(activation, input_shape, kernel, window,
                                           monkeypatch):
    # each floor pool drops a remainder, so the logits never read the last
    # rows and columns; a pass off the tape skips them, a taped one does not.
    # Cropping changes each conv product's row count, and the BLAS may sum a
    # product's rows differently at another row count, so the logits agree
    # with the full geometry's to rounding, not always bit for bit
    crops = []

    def recorded_crop(a, h, w):
        crops.append((a.shape, (h, w)))
        return crop2d(a, h, w)

    monkeypatch.setattr(md, "crop2d", recorded_crop)
    model = build_model(make_spec("cnn2d", input_shape=input_shape, conv_kernel=kernel,
                                  num_classes=10, activation=activation))
    rng = np.random.default_rng(sum(input_shape) + kernel)
    xs = rng.normal(size=(7,) + input_shape)
    logits = model.logits_np(xs)
    assert crops == ([((7,) + input_shape, window)] if window != input_shape[1:] else [])
    crops.clear()
    np.testing.assert_allclose(logits, model.forward(Tensor(xs)).data, rtol=1e-12, atol=1e-15)
    grads = ClassLogit(model, 3).gradient(xs)
    assert crops == []
    outside = np.ones(xs.shape, dtype=bool)
    outside[..., :window[0], :window[1]] = False
    changed = xs.copy()
    changed[outside] = rng.normal(size=int(outside.sum()))
    assert_same_bytes(model.logits_np(changed), logits)
    assert np.all(grads[outside] == 0.0)


def test_conv1d_logits_do_not_depend_on_the_batch_layout():
    model = build_model(make_spec("conv1d", conv1d_channels=6, conv1d_kernel=3))
    xs = np.random.default_rng(9).normal(size=(13,) + SEQ_SHAPE)
    ref = model.logits_np(xs)
    for name, batch in _batch_layouts(xs).items():
        assert np.array_equal(model.logits_np(batch), ref), name


# -- state dicts -----------------------------------------------------------------------


def test_state_dict_mismatch_rejected():
    model = build_model(make_spec("mlp"))
    state = model.state_dict()
    state.pop("b0")
    with pytest.raises(ValueError, match="missing"):
        model.load_state_dict(state)
