import numpy as np
import pytest

from shapdrift import tensor as tn
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
            up = make_loss().item()
            flat[idx] = orig - step
            down = make_loss().item()
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
    assert np.array_equal((a @ b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_tanh_at_origin():
    assert tn.tanh(Tensor(0.0)).item() == 0.0


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
    assert np.allclose(out[1, 2], ref)


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
    (out * Tensor(g)).sum().backward()
    assert np.array_equal(x.grad, _avgpool_backward_loop(g, shape, 4))


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


# -- conv1d and slices -------------------------------------------------------------


def test_conv1d_matches_windowed_sum():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(2, 3, 9)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
    out = tn.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
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
    sliced = (tn.time_slice(x, 1) * Tensor(a)).sum() + (tn.time_slice(x, 3) * Tensor(b)).sum()
    full = (x * Tensor(c)).sum()
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
        i = tn.sigmoid(tn.col_slice(z, 0, hs))
        f = tn.sigmoid(tn.col_slice(z, hs, 2 * hs))
        g = tn.tanh(tn.col_slice(z, 2 * hs, 3 * hs))
        o = tn.sigmoid(tn.col_slice(z, 3 * hs, 4 * hs))
        c = f * c + i * g
        h = o * tn.tanh(c)
    return h


def _lstm_leaves(rng, batch, steps, features, hs):
    return [rng.normal(size=(batch, steps, features)),
            rng.uniform(-1, 1, size=(features, 4 * hs)) / np.sqrt(features),
            rng.uniform(-1, 1, size=(hs, 4 * hs)) / np.sqrt(hs),
            rng.normal(size=4 * hs) * 0.5]


@pytest.mark.parametrize("shape", [(1, 5, 3, 4), (4, 1, 3, 4), (3, 6, 2, 1), (32, 30, 12, 32)])
@pytest.mark.parametrize("case", ["all", "frozen_input", "accumulate"])
def test_lstm_matches_cell_composition(shape, case):
    # values and gradients are bit-identical to the per-step composition; in
    # the accumulate case every leaf already holds a gradient from an earlier pass
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
        (h * Tensor(head)).sum().backward()
        results.append((h.data, [leaf.grad for leaf in leaves]))
    (ref_h, ref_grads), (h, grads) = results
    assert np.array_equal(h, ref_h)
    assert (grads[0] is None) == (case == "frozen_input")
    for grad, ref in zip(grads, ref_grads):
        assert (grad is None and ref is None) or np.array_equal(grad, ref)


def test_lstm_matches_finite_differences():
    rng = np.random.default_rng(10)
    x, w_ih, w_hh, bias = (Tensor(a, requires_grad=True) for a in _lstm_leaves(rng, 3, 4, 2, 3))
    head = Tensor(rng.normal(size=(3, 3)))

    def make_loss():
        return (tn.lstm(x, w_ih, w_hh, bias) * head).sum()

    fd_check(make_loss, [x, w_ih, w_hh, bias], rng, coords_per_leaf=6)


def test_lstm_without_tape_keeps_no_graph():
    rng = np.random.default_rng(11)
    leaves = [Tensor(a, requires_grad=True) for a in _lstm_leaves(rng, 2, 5, 3, 4)]
    with tn.no_grad():
        out = tn.lstm(*leaves)
    assert not out.requires_grad and out._prev == () and out._backward is None
    assert np.array_equal(out.data, tn.lstm(*leaves).data)


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
    loss = (w * x).sum()
    loss.backward()
    assert np.allclose(w.grad, x.data)


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
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
    loss = (y * y + y).sum()  # d/dx = (2*y)*3 + 3 = 39 at x=2
    loss.backward()
    assert np.allclose(x.grad, [39.0])


def test_no_grad_blocks_tape():
    w = Tensor([1.0], requires_grad=True)
    with tn.no_grad():
        out = w * 2.0
    assert not out.requires_grad


def test_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)

    def make_loss():
        y = tn.tanh(x @ w1 + b1) @ w2
        return (y * y).sum()

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
        return (tn.sigmoid(h) * tn.tanh(h)).sum()

    fd_check(conv_loss, [img, kern, kb], rng)

    seq = Tensor(rng.normal(size=(2, 3, 9)), requires_grad=True)
    k1 = Tensor(rng.normal(size=(4, 3, 3)) * 0.3, requires_grad=True)

    def conv1d_loss():
        h = tn.conv1d(seq, k1)
        return tn.tmean(tn.tanh(h * 0.5) + tn.sigmoid(h * h))

    fd_check(conv1d_loss, [seq, k1], rng)

    z = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    stack = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)  # two 3x4 maps

    def zscore_loss():
        return ((tn.normalize_zscore(z) * Tensor(np.arange(15.0).reshape(3, 5))).sum()
                + (tn.normalize_zscore(stack) * Tensor(np.arange(24.0).reshape(2, 3, 4))).sum())

    fd_check(zscore_loss, [z, stack], rng)

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
        return (b * b).sum() + tn.tmean(c, axis=2).sum()

    fd_check(slice_loss, [cube], rng)


def test_softmax_cross_entropy_value():
    logits = Tensor(np.log(np.array([[1.0, 1.0, 2.0]])))
    loss = tn.softmax_cross_entropy(logits, np.array([2]))
    assert np.isclose(loss.item(), -np.log(0.5))


def test_determinism_bit_identical():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)

    def run(rng):
        a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 6)))
        loss = (tn.tanh(a @ b)).sum()
        loss.backward()
        return loss.item(), a.grad.copy()

    l1, g1 = run(rng1)
    l2, g2 = run(rng2)
    assert l1 == l2
    assert np.array_equal(g1, g2)
