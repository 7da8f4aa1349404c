import numpy as np
import pytest
from conftest import sigmoid

from shapdrift import tensor as tn
from shapdrift.models import ModelSpec, build_model
from shapdrift.tensor import Tensor


def fd_check(make_loss, leaves, rng, coords_per_leaf=4, step=1e-5, rel_tol=1e-4):
    """Compare autodiff gradients against central finite differences.

    make_loss rebuilds the scalar loss from the live leaf tensors, so
    perturbing leaf.data in place re-evaluates the whole expression.
    """
    loss = make_loss()
    loss.backward()
    grads = [leaf.grad.copy() for leaf in leaves]
    for leaf, grad in zip(leaves, grads):
        flat = leaf.data.reshape(-1)
        n_coords = min(coords_per_leaf, flat.size)
        coords = rng.choice(flat.size, size=n_coords, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            up = float(make_loss().data)
            flat[idx] = orig - step
            down = float(make_loss().data)
            flat[idx] = orig
            fd = (up - down) / (2 * step)
            ad = grad.reshape(-1)[idx]
            denom = max(abs(fd), abs(ad), 1e-3)
            assert abs(fd - ad) / denom <= rel_tol, (
                f"gradient mismatch at coord {idx}: autodiff {ad}, fd {fd}"
            )
        leaf.grad = None


def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(tn.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_tanh_at_origin():
    assert float(tn.tanh(Tensor(0.0)).data) == 0.0


def test_add_broadcast_mismatch_error():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4,\)"):
        tn.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))


# -- avgpool2d -----------------------------------------------------------------


def test_avgpool_all_ones():
    x = Tensor(np.ones((8, 8)))
    out = tn.avgpool2d(x, 4)
    assert np.array_equal(out.data, np.ones((2, 2)))


def test_avgpool_1_to_16():
    x = Tensor(np.arange(1.0, 17.0).reshape(4, 4))
    out = tn.avgpool2d(x, 4)
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 8.5


def test_avgpool_block_pattern():
    x = np.zeros((8, 8))
    x[:4, :4] = 1.0
    out = tn.avgpool2d(Tensor(x), 4)
    assert np.array_equal(out.data, [[1.0, 0.0], [0.0, 0.0]])


def test_avgpool_constant_stays_constant():
    out = tn.avgpool2d(Tensor(np.full((9, 9), 3.25)), 4)
    assert np.allclose(out.data, 3.25)
    assert out.shape == (2, 2)  # remainder cells dropped


def test_avgpool_window_permutation_invariant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 8))
    base = tn.avgpool2d(Tensor(x), 4).data
    shuffled = x.copy()
    window = shuffled[4:8, 0:4].reshape(-1)
    rng.shuffle(window)
    shuffled[4:8, 0:4] = window.reshape(4, 4)
    assert np.allclose(tn.avgpool2d(Tensor(shuffled), 4).data, base)


def test_avgpool_kernel_too_large_rejected():
    with pytest.raises(ValueError, match="kernel 5"):
        tn.avgpool2d(Tensor(np.zeros((4, 4))), 5)


def test_avgpool_batched_matches_2d():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 6))
    out = tn.avgpool2d(Tensor(x), 2).data
    assert out.shape == (2, 3, 3, 3)
    ref = tn.avgpool2d(Tensor(x[1, 2]), 2).data
    assert np.array_equal(out[1, 2], ref)


def _window_mean(x, kernel):
    """avgpool2d as one numpy mean over each window's two axes."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(-2, -1))
    return windows[..., ::kernel, ::kernel, :, :].mean(axis=(-2, -1))


def _channel_last(x):
    """``x`` with its (batch, C, H, W) shape kept and channels innermost in memory,
    the layout conv2d returns."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("batch", [1, 2, 11, 256])
@pytest.mark.parametrize("channels", [2, 3, 8, 16])
def test_avgpool_channel_last_matches_window_mean(batch, channels):
    rng = np.random.default_rng(batch * channels)
    for h, w in [(6, 6), (7, 9), (5, 4), (3, 8)]:  # (5, 4) and (3, 8) pool to height 1 at k=3
        for kernel in (1, 2, 3):
            x = _channel_last(rng.normal(size=(batch, channels, h, w)))
            x[-1, :, :kernel, :kernel] = -0.0  # numpy's mean of this window is +0.0
            assert x.strides[1] == x.itemsize
            out = tn.avgpool2d(Tensor(x), kernel).data
            ref = _window_mean(x, kernel)
            assert np.array_equal(out, ref)
            assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_avgpool_c_order_and_single_channel_match_window_mean():
    rng = np.random.default_rng(9)
    for x in (rng.normal(size=(10, 4, 12, 12)), rng.normal(size=(10, 1, 12, 12)),
              _channel_last(rng.normal(size=(10, 1, 12, 12))), rng.normal(size=(12, 12))):
        for kernel in (2, 4):
            assert np.array_equal(tn.avgpool2d(Tensor(x), kernel).data, _window_mean(x, kernel))


def _avgpool_backward_loop(g, shape, kernel):
    """The double-loop avgpool2d backward: one window at a time."""
    dx = np.zeros(shape)
    for i in range(g.shape[-2]):
        for j in range(g.shape[-1]):
            dx[..., i * kernel:(i + 1) * kernel, j * kernel:(j + 1) * kernel] += (
                g[..., i:i + 1, j:j + 1] * (1.0 / (kernel * kernel)))
    return dx


@pytest.mark.parametrize("shape", [(2, 3, 9, 11), (12, 12)])
def test_avgpool_backward_matches_window_loop(shape):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = tn.avgpool2d(x, 4)
    g = rng.normal(size=out.shape)
    tn.tsum(out * Tensor(g)).backward()
    assert np.array_equal(x.grad, _avgpool_backward_loop(g, shape, 4))


def _avgpool_grad_repeat(g, shape, kernel):
    """``_avgpool_grad`` as a zero array plus the gradient repeated over each window."""
    oh, ow = g.shape[-2], g.shape[-1]
    dx = np.zeros(shape)
    dx[..., :oh * kernel, :ow * kernel] += np.repeat(
        np.repeat(g * (1.0 / (kernel * kernel)), kernel, axis=-2), kernel, axis=-1)
    return dx


@pytest.mark.parametrize("shape", [(7, 9), (12, 12), (3, 2, 9, 11), (5, 16, 6, 7), (4, 1, 3, 3)])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_avgpool_grad_matches_zeros_plus_repeat(shape, kernel):
    rng = np.random.default_rng(kernel)
    g = rng.normal(size=shape[:-2] + (shape[-2] // kernel, shape[-1] // kernel))
    g[..., 0, 0] = -0.0  # the reference's zeros turn it into +0.0
    g[..., -1, -1] = 0.0
    out = tn._avgpool_grad(g, shape, kernel)
    ref = _avgpool_grad_repeat(g, shape, kernel)
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert out.strides == ref.strides


def test_zscore_batched_matches_2d():
    # a stack is normalized map by map over its trailing two axes
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, size=(2, 3, 6, 6))
    x[0, 1] = 7.0  # a constant map in the stack still maps to zeros
    out = tn.normalize_zscore(Tensor(x)).data
    for i in range(2):
        for j in range(3):
            ref = tn.normalize_zscore(Tensor(x[i, j])).data
            assert np.array_equal(out[i, j], ref)
    assert np.array_equal(out[0, 1], np.zeros((6, 6)))


# -- normalize_zscore ------------------------------------------------------------


def test_zscore_two_points():
    out = tn.normalize_zscore(Tensor([0.0, 2.0]))
    assert np.allclose(out.data, [-1.0, 1.0])


def test_zscore_constant_input_is_zero():
    out = tn.normalize_zscore(Tensor([5.0, 5.0, 5.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 0.0])


def test_zscore_moments_and_idempotence():
    rng = np.random.default_rng(11)
    x = rng.normal(3.0, 2.5, size=(13, 7))
    once = tn.normalize_zscore(Tensor(x))
    assert abs(once.data.mean()) < 1e-6
    assert abs(once.data.var() - 1.0) < 1e-6
    twice = tn.normalize_zscore(once)
    assert np.allclose(twice.data, once.data, atol=1e-6)


def test_zscore_rejects_a_taped_input():
    # it has no backward pass, so an input the tape would record raises
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with pytest.raises(ValueError, match="^normalize_zscore has no backward pass"):
        tn.normalize_zscore(x)
    with tn.no_grad():
        out = tn.normalize_zscore(x)
    assert not out.requires_grad
    assert np.array_equal(out.data, tn.normalize_zscore(Tensor(x.data)).data)


# -- convolution and slices -------------------------------------------------------


def _col2im_nchw_loop(dcols, shape, kh, kw):
    """The window scatter of ``_col2im`` into a C-ordered (batch, C, H, W) array."""
    batch, in_ch, h, wd = shape
    oh, ow = h - kh + 1, wd - kw + 1
    dcols = dcols.reshape(batch, oh, ow, in_ch, kh, kw)
    dx = np.zeros(shape)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx


# cnn2d's conv2 input at side 12, a 2-row conv1 input, and conv1d's unit-height inputs
@pytest.mark.parametrize("shape, kh, kw", [((200, 8, 5, 5), 3, 3), ((2, 2, 10, 11), 2, 2),
                                           ((3, 12, 1, 30), 1, 5), ((1, 3, 1, 9), 1, 3)])
def test_col2im_matches_nchw_loop(shape, kh, kw):
    batch, in_ch, h, wd = shape
    rng = np.random.default_rng(in_ch)
    dcols = rng.normal(size=(batch * (h - kh + 1) * (wd - kw + 1), in_ch * kh * kw))
    out = tn._col2im(dcols, shape, kh, kw)
    assert out.shape == shape
    assert np.array_equal(out, _col2im_nchw_loop(dcols, shape, kh, kw))


def _im2col_strided_copy(x, kh, kw):
    """``_im2col`` as one copy of the strided window view."""
    batch, in_ch, h, wd = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, (h - kh + 1) * (wd - kw + 1), in_ch * kh * kw)


def _layouts(rng, shape):
    """A (batch, C, H, W) array of ``shape`` in every memory layout conv2d can meet."""
    x = rng.normal(size=shape)
    wide = rng.normal(size=(2 * shape[0],) + shape[1:])
    seq = rng.normal(size=(shape[0], shape[3], shape[1]))  # (batch, T, features)
    yield "c-order", x
    yield "channel-last", _channel_last(x)
    yield "fortran", np.asfortranarray(x)
    yield "batch-slice", wide[::2]
    if shape[2] == 1:  # conv1d's unit-height view of swap_last2's output
        yield "swap-last2", tn.reshape(tn.swap_last2(Tensor(seq)), shape).data


# cnn2d's conv1 and conv2 inputs, odd extents, conv1d's unit-height inputs and a batch of 1
@pytest.mark.parametrize("shape", [(6, 1, 12, 12), (5, 8, 5, 5), (3, 2, 7, 9),
                                   (4, 6, 1, 10), (1, 3, 4, 3), (1, 1, 1, 4)])
def test_im2col_matches_strided_copy(shape):
    rng = np.random.default_rng(shape[1])
    h, wd = shape[2], shape[3]
    kernels = {(kh, kw) for kh in (1, 2, 3, h) for kw in (1, 2, 3, wd) if kh <= h and kw <= wd}
    for (kh, kw) in sorted(kernels):
        for name, x in _layouts(rng, shape):
            assert x.shape == shape, name
            out = tn._im2col(x, kh, kw)
            assert np.array_equal(out, _im2col_strided_copy(x, kh, kw)), (name, kh, kw)


def test_im2col_index_map_follows_the_layout():
    # one shape in layouts after each other: none may reuse another layout's map
    x = np.random.default_rng(12).normal(size=(3, 4, 6, 5))
    for a in (x, _channel_last(x), np.asfortranarray(x), x):
        assert np.array_equal(tn._im2col(a, 3, 2), _im2col_strided_copy(x, 3, 2))
    assert not tn._window_index((4, 6, 5), (1, 2, 3), 3, 2).flags.writeable


def _cnn2d_logits_window_mean(model, xs):
    """``Cnn2d.forward`` with every pooling done by ``_window_mean``; returns the
    logits and the two conv activations."""
    p, h, acts = model.params, xs, []
    for name in ("conv1", "conv2"):
        acts.append(model.act(tn.conv2d(Tensor(h), p[f"{name}_w"], p[f"{name}_b"])).data)
        h = _window_mean(acts[-1], 2)
    h = model.act(tn.matmul(Tensor(h.reshape(len(h), -1)), p["dense_w"]) + p["dense_b"])
    return (tn.matmul(h, p["head_w"]) + p["head_b"]).data, acts


@pytest.mark.parametrize("conv_channels", [(8, 16), (1, 2), (2, 1)])
def test_cnn2d_pools_channel_last_and_matches_window_mean(conv_channels):
    model = build_model(ModelSpec("cnn2d", (1, 12, 12), 10, conv_channels=conv_channels))
    xs = np.random.default_rng(2).uniform(size=(37, 1, 12, 12))
    logits, acts = _cnn2d_logits_window_mean(model, xs)
    for h in acts:  # a multi-channel activation keeps conv2d's channel-last memory
        assert h.shape[1] == 1 or h.strides[1] == h.itemsize
    assert np.array_equal(model.logits_np(xs), logits)


def test_conv1d_matches_windowed_sum():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(2, 3, 9)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
    model = build_model(ModelSpec("conv1d", (9, 3), 2, conv1d_channels=4, conv1d_kernel=3))
    model.params["conv_w"].data = w.reshape(4, 3, 1, 3)
    model.params["conv_b"].data = b
    stages = []

    def record(h):  # Conv1dNet's one activation reads the conv stage's output
        stages.append(h.data)
        return h

    model.act = record
    model.forward(Tensor(x.swapaxes(1, 2)))
    out, = stages
    ref = np.stack([np.einsum("bcj,ocj->bo", x[:, :, t:t + 3], w) + b for t in range(7)],
                   axis=2)
    assert out.shape == (2, 4, 7)
    np.testing.assert_allclose(out, ref, rtol=1e-12)


@pytest.mark.parametrize("slices_first", [True, False])
def test_slice_gradients_accumulate_into_parent(slices_first):
    # steps 1 and 3 reach the leaf through time_slice, every cell through a
    # full-size product; either may deliver the leaf's first gradient
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    a, b, c = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(2, 4, 3))
    sliced = tn.tsum(tn.time_slice(x, 1) * Tensor(a)) + tn.tsum(tn.time_slice(x, 3) * Tensor(b))
    full = tn.tsum(x * Tensor(c))
    (sliced + full if slices_first else full + sliced).backward()
    expected = c.copy()
    expected[:, 1] += a
    expected[:, 3] += b
    assert np.array_equal(x.grad, expected)


# -- lstm -------------------------------------------------------------------------


def _lstm_cell_loop(x, w_ih, w_hh, bias):
    """The LSTM recurrence as a per-step composition of tape primitives."""
    batch, steps, _ = x.shape
    hs = w_hh.shape[0]
    h = Tensor(np.zeros((batch, hs)))
    c = Tensor(np.zeros((batch, hs)))
    for t in range(steps):
        z = tn.matmul(tn.time_slice(x, t), w_ih) + tn.matmul(h, w_hh) + bias
        i = sigmoid(tn.col_slice(z, 0, hs))
        f = sigmoid(tn.col_slice(z, hs, 2 * hs))
        g = tn.tanh(tn.col_slice(z, 2 * hs, 3 * hs))
        o = sigmoid(tn.col_slice(z, 3 * hs, 4 * hs))
        c = f * c + i * g
        h = o * tn.tanh(c)
    return h


def _lstm_leaves(rng, batch, steps, features, hs):
    return [rng.normal(size=(batch, steps, features)),
            rng.uniform(-1, 1, size=(features, 4 * hs)) / np.sqrt(features),
            rng.uniform(-1, 1, size=(hs, 4 * hs)) / np.sqrt(hs),
            rng.normal(size=4 * hs) * 0.5]


# hidden sizes 2-7 over 33 features, at batch 1 and 2, are where per-gate
# products and gate-permuted weight columns would round differently
@pytest.mark.parametrize("shape", [(1, 5, 3, 4), (4, 1, 3, 4), (3, 6, 2, 1), (32, 30, 12, 32)]
                         + [(batch, 3, 33, hs) for hs in (2, 3, 5, 7) for batch in (1, 2)])
@pytest.mark.parametrize("case", ["all", "frozen_input", "accumulate"])
def test_lstm_matches_cell_composition(shape, case):
    # values and gradients are bit-identical to the per-step composition, and
    # the untracked forward (a one-step cache) to the tracked one; in the
    # accumulate case every leaf already holds a gradient from an earlier pass
    rng = np.random.default_rng(9)
    arrays = _lstm_leaves(rng, *shape)
    head = rng.normal(size=(shape[0], shape[3]))
    prior = [rng.normal(size=a.shape) for a in arrays]
    results = []
    for fn in (_lstm_cell_loop, tn.lstm):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        leaves[0].requires_grad = case != "frozen_input"
        if case == "accumulate":
            for leaf, p in zip(leaves, prior):
                leaf.grad = p.copy()
        h = fn(*leaves)
        tn.tsum(h * Tensor(head)).backward()
        results.append((h.data, [leaf.grad for leaf in leaves]))
    (ref_h, ref_grads), (h, grads) = results
    assert np.array_equal(h, ref_h)
    with tn.no_grad():
        assert np.array_equal(tn.lstm(*leaves).data, h)
    assert (grads[0] is None) == (case == "frozen_input")
    for grad, ref in zip(grads, ref_grads):
        assert (grad is None and ref is None) or np.array_equal(grad, ref)


def test_lstm_matches_finite_differences():
    rng = np.random.default_rng(10)
    x, w_ih, w_hh, bias = (Tensor(a, requires_grad=True) for a in _lstm_leaves(rng, 3, 4, 2, 3))
    head = Tensor(rng.normal(size=(3, 3)))

    def make_loss():
        return tn.tsum(tn.lstm(x, w_ih, w_hh, bias) * head)

    fd_check(make_loss, [x, w_ih, w_hh, bias], rng, coords_per_leaf=6)


def test_lstm_without_tape_keeps_no_graph():
    rng = np.random.default_rng(11)
    leaves = [Tensor(a, requires_grad=True) for a in _lstm_leaves(rng, 2, 5, 3, 4)]
    with tn.no_grad():
        out = tn.lstm(*leaves)
    assert not out.requires_grad and out._prev == () and out._backward is None
    assert np.array_equal(out.data, tn.lstm(*leaves).data)


def test_lstm_kept_graph_passes_equal_fresh_forwards():
    # attribution runs several keep_graph passes over one lstm node, so its
    # backward must leave the cache as the forward wrote it
    rng = np.random.default_rng(12)
    arrays = _lstm_leaves(rng, 5, 4, 3, 6)
    seeds = rng.normal(size=(2, 5, 6))

    def forward():
        x = Tensor(arrays[0].copy(), requires_grad=True)
        return x, tn.lstm(x, *(Tensor(a) for a in arrays[1:]))

    x, h = forward()
    kept = []
    for seed in seeds:
        x.grad = None
        h.backward(seed, keep_graph=True)
        kept.append(x.grad)
    for seed, got in zip(seeds, kept):
        fresh_x, fresh_h = forward()
        fresh_h.backward(seed)
        assert np.array_equal(got, fresh_x.grad)


def test_lstm_shape_errors_name_the_shapes():
    x, w_ih, w_hh, bias = (Tensor(a) for a in _lstm_leaves(np.random.default_rng(0), 2, 3, 4, 5))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\)"):
        tn.lstm(x, w_hh, w_hh, bias)
    with pytest.raises(ValueError, match="3D input"):
        tn.lstm(tn.time_slice(x, 0), w_ih, w_hh, bias)


# -- backward ---------------------------------------------------------------------


def test_backward_linear_form():
    w = Tensor([1.5, -2.0, 0.5], requires_grad=True)
    x = Tensor([3.0, 1.0, -1.0])
    loss = tn.tsum(w * x)
    loss.backward()
    assert np.allclose(w.grad, x.data)


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = tn.tsum(x * x)
    loss.backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    with pytest.raises(ValueError, match="scalar"):
        y.backward()


def test_backward_diamond_visits_each_node_once():
    # x feeds two branches; the accumulated gradient is the sum of both paths
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0
    loss = tn.tsum(y * y + y)  # d/dx = (2*y)*3 + 3 = 39 at x=2
    loss.backward()
    assert np.allclose(x.grad, [39.0])


@pytest.mark.parametrize("spec", [ModelSpec("esn", (5, 3), 4, seed=1, hidden_size=6),
                                  ModelSpec("lstm", (5, 3), 4, seed=2, hidden_size=6),
                                  ModelSpec("mlp", (5, 3), 4, seed=3, hidden=(6,)),
                                  ModelSpec("cnn2d", (1, 12, 12), 4, seed=4,
                                            conv_channels=(2, 3), dense_width=5),
                                  ModelSpec("conv1d", (5, 3), 4, seed=5, conv1d_channels=4,
                                            conv1d_kernel=3)],
                         ids=lambda spec: spec.architecture)
def test_kept_graph_passes_equal_fresh_graphs(spec):
    # each keep_graph pass gives the leaf gradients of a fresh graph with its seed
    model = build_model(spec)
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(7,) + spec.input_shape)
    seeds = rng.normal(size=(2, 7, 4))
    leaves = list(model.trainable_parameters().values())

    def grads_of(logits, seed, x, keep_graph):
        for leaf in [x] + leaves:
            leaf.grad = None
        logits.backward(seed, keep_graph=keep_graph)
        return [leaf.grad for leaf in [x] + leaves]

    x = Tensor(inputs, requires_grad=True)
    logits = model.forward(x)
    kept = [grads_of(logits, seed, x, True) for seed in seeds]
    for seed, got in zip(seeds, kept):
        fresh_x = Tensor(inputs, requires_grad=True)
        want = grads_of(model.forward(fresh_x), seed, fresh_x, False)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_backward_seed_must_match_the_tensor_shape():
    y = Tensor(np.ones((2, 3)), requires_grad=True) * 2.0
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
        y.backward(np.ones((3, 2)))


def test_default_backward_consumes_the_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    y.backward(np.ones(2), keep_graph=True)
    assert y._prev and y._backward is not None
    tn.tsum(y * y).backward()
    assert y._prev is None and y._backward is None  # marked consumed


def test_every_walk_clears_the_interior_gradients_it_visits():
    # y keeps the seed of the kept pass; the default pass must not add it again
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    y.backward(np.ones(2), keep_graph=True)
    tn.tsum(y * y).backward()
    np.testing.assert_array_equal(x.grad, [3.0 + 18.0, 3.0 + 36.0])


def test_the_seed_adds_into_a_leaf_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * 1.0).backward(np.ones(2))
    x.backward(np.array([5.0, 5.0]))
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_a_walk_through_a_consumed_node_raises():
    # a and b share y; the default pass from a consumes y, so b's pass cannot reach x
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    a, b = tn.tsum(y * y), tn.tsum(y)
    a.backward()
    with pytest.raises(ValueError, match="keep_graph"):
        b.backward()
    with pytest.raises(ValueError, match="keep_graph"):
        a.backward()


def test_no_grad_blocks_tape():
    # a node made inside no_grad records no parents; the tape records again after it
    w = Tensor([1.0], requires_grad=True)
    assert (w * 2.0)._prev[0] is w
    with tn.no_grad():
        out = w * 2.0
    assert out._prev == ()
    assert not out.requires_grad
    assert (w * 2.0)._prev[0] is w


# -- gradient ownership --------------------------------------------------------
# backward keeps a gradient that an op made itself and copies one that aliases
# another array (a pass-through, a view, a broadcast, the seed): were two grads
# to share memory, a later ``+=`` into one would change the other.


def assert_grads_own_their_memory(tensors, seed):
    grads = [t.grad for t in tensors if t.grad is not None]
    for i, g in enumerate(grads):
        assert not np.shares_memory(g, seed)
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)


def assert_grads_equal(want):
    for t, expected in want.items():
        np.testing.assert_allclose(t.grad, expected, rtol=1e-13, atol=0)


def _add_to_itself(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    out = tn.add(a, a)
    seed = rng.normal(size=(2, 3))
    return out, seed, {out: seed, a: 2.0 * seed}


def _node_consumed_twice(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    t = tn.tanh(x)
    u = t * t
    v = u + t
    loss = tn.tsum(v)
    seed = np.array(0.5)
    dt = 0.5 * (2.0 * t.data + 1.0)
    return loss, seed, {loss: seed, v: np.full(4, 0.5), u: np.full(4, 0.5), t: dt,
                        x: dt * (1.0 - t.data ** 2)}


def _reshape(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    out = tn.reshape(x, (6, 4))
    seed = rng.normal(size=(6, 4))
    return out, seed, {out: seed, x: seed.reshape(2, 3, 4)}


def _swap_last2(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    out = tn.swap_last2(x)
    seed = rng.normal(size=(2, 4, 3))
    return out, seed, {out: seed, x: seed.swapaxes(-1, -2)}


def _tmean(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    total = tn.tsum(x, axis=0)
    out = total * (1.0 / 3)  # a mean over axis 0, as Conv1dNet takes its time mean
    seed = rng.normal(size=4)
    return out, seed, {out: seed, total: seed / 3.0, x: np.broadcast_to(seed / 3.0, (3, 4))}


def _broadcast_bias(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    product = tn.matmul(x, w)
    out = product + b
    seed = rng.normal(size=(5, 2))
    return out, seed, {out: seed, product: seed, b: seed.sum(axis=0), w: x.data.T @ seed,
                       x: seed @ w.data.T}


@pytest.mark.parametrize("case", [_add_to_itself, _node_consumed_twice, _reshape, _swap_last2,
                                  _tmean, _broadcast_bias], ids=lambda case: case.__name__[1:])
def test_every_grad_owns_its_memory(case):
    out, seed, want = case(np.random.default_rng(3))
    out.backward(seed)
    assert_grads_equal(want)
    assert_grads_own_their_memory(want, seed)


def test_kept_graph_passes_give_grads_their_own_memory():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    t = tn.tanh(x)
    u = t * t
    v = u + t
    for seed in rng.normal(size=(2, 3, 4)):
        x.grad = None
        v.backward(seed, keep_graph=True)
        dt = seed + seed * t.data + seed * t.data
        assert_grads_equal({v: seed, u: seed, t: dt, x: dt * (1.0 - t.data ** 2)})
        assert_grads_own_their_memory([x, t, u, v], seed)


def test_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)

    def make_loss():
        y = tn.matmul(tn.tanh(tn.matmul(x, w1) + b1), w2)
        return tn.tsum(y * y)

    fd_check(make_loss, [w1, b1, w2, x], rng, coords_per_leaf=5)


@pytest.mark.parametrize("seed", range(4))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    img = Tensor(rng.normal(size=(2, 2, 7, 7)), requires_grad=True)
    kern = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)
    kb = Tensor(rng.normal(size=3) * 0.1, requires_grad=True)

    def conv_loss():
        h = tn.conv2d(img, kern, kb)
        h = tn.avgpool2d(h, 2)
        return tn.tsum(sigmoid(h) * tn.tanh(h))

    fd_check(conv_loss, [img, kern, kb], rng)

    seq = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
    k1 = Tensor(rng.normal(size=(4, 3, 1, 3)) * 0.3, requires_grad=True)
    k1b = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)

    def conv1d_loss():  # Conv1dNet's conv stage
        h = tn.conv2d(tn.reshape(tn.swap_last2(seq), (2, 3, 1, 9)), k1, k1b)
        h = tn.reshape(h, (2, 4, 7))
        return tn.tsum(tn.tanh(h * 0.5) + sigmoid(h * h)) * (1.0 / h.size)

    fd_check(conv1d_loss, [seq, k1, k1b], rng)

    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=4)

    def ce_loss():
        return tn.softmax_cross_entropy(logits, labels)

    fd_check(ce_loss, [logits], rng)

    cube = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)

    def slice_loss():
        a = tn.time_slice(cube, 1)
        b = tn.col_slice(a, 0, 2)
        c = tn.swap_last2(cube)
        return tn.tsum(b * b) + tn.tsum(tn.tsum(c, axis=2) * (1.0 / c.shape[2]))

    fd_check(slice_loss, [cube], rng)


def test_softmax_cross_entropy_value():
    logits = Tensor(np.log(np.array([[1.0, 1.0, 2.0]])))
    loss = tn.softmax_cross_entropy(logits, np.array([2]))
    assert np.isclose(float(loss.data), -np.log(0.5))


@pytest.mark.parametrize("label", [-1, 3, 7])
def test_softmax_cross_entropy_rejects_a_label_outside_the_classes(label):
    logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ValueError, match=rf"^label {label} is outside \[0, 3\)$"):
        tn.softmax_cross_entropy(logits, np.array([1, label]))


def test_determinism_bit_identical():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)

    def run(rng):
        a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 6)))
        loss = tn.tsum(tn.tanh(tn.matmul(a, b)))
        loss.backward()
        return float(loss.data), a.grad.copy()

    l1, g1 = run(rng1)
    l2, g2 = run(rng2)
    assert l1 == l2
    assert np.array_equal(g1, g2)
