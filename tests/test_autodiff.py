"""Autodiff engine tests: forward trivials, jet closed forms,
finite-difference verification of reverse-mode gradients (including paths
through first/second derivative slots), and the memory the tape keeps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cureonet.autodiff import (Jet2, MlpParams, Var, backward, dense,
                               dense_layers, mlp_forward_jet)
from oracles import mlp_forward, tanh_jet_jacobian


def random_mlp(layer_sizes, seed, scale=0.6):
    rng = np.random.default_rng(seed)
    ws = [rng.normal(0.0, scale, (a, b))
          for a, b in zip(layer_sizes[:-1], layer_sizes[1:])]
    bs = [rng.normal(0.0, 0.1, (b,)) for b in layer_sizes[1:]]
    return MlpParams(list(layer_sizes), ws, bs)


def taped(params):
    """The same network with every weight and bias a tape leaf."""
    return params.map(lambda a: Var(a, requires_grad=True))


def test_zero_weight_network_returns_last_bias():
    p = random_mlp([3, 4, 2], seed=0)
    for w in p.weights:
        w[...] = 0.0
    out = mlp_forward(p, np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(out, p.biases[-1])


def test_single_linear_layer_is_affine_map():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    p = MlpParams([3, 2], [w], [b])
    x = rng.normal(size=3)
    assert np.allclose(mlp_forward(p, x), x @ w + b, rtol=0, atol=0)


def test_forward_matches_per_neuron_evaluation():
    # independent straight-line evaluation, one neuron at a time
    p = random_mlp([2, 3, 1], seed=2)
    x = np.array([0.4, -0.7])
    hidden = []
    for j in range(3):
        acc = p.biases[0][j]
        for i in range(2):
            acc += x[i] * p.weights[0][i, j]
        hidden.append(np.tanh(acc))
    expect = p.biases[1][0]
    for j in range(3):
        expect += hidden[j] * p.weights[1][j, 0]
    got = mlp_forward(p, x)
    assert got.shape == (1,)
    assert abs(got[0] - expect) < 1e-14


def test_forward_rejects_wrong_input_width():
    p = random_mlp([3, 2], seed=3)
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros(4))


def test_single_tanh_neuron_jet_closed_form():
    w, b = 0.8, -0.3
    p = MlpParams([1, 1, 1], [np.array([[w]]), np.array([[1.0]])],
                  [np.array([b]), np.array([0.0])])
    x = 0.45
    jet = mlp_forward_jet(p, np.array([[x]]), d1=(0,), d2=(0,))
    u = np.tanh(w * x + b)
    sech2 = 1.0 - u * u
    assert abs(jet.value[0, 0] - u) < 1e-15
    assert abs(jet.d1[0][0, 0] - w * sech2) < 1e-14
    assert abs(jet.d2[0][0, 0] - (-2.0 * w * w * u * sech2)) < 1e-13


def test_linear_network_has_zero_second_derivative():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=3)
    p = MlpParams([2, 3], [w], [b])
    jet = mlp_forward_jet(p, rng.normal(size=(5, 2)), d1=(0, 1), d2=(0, 1))
    for k in (0, 1):
        assert np.allclose(jet.d1[k], np.broadcast_to(w[k], (5, 3)))
        assert np.all(jet.d2[k] == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_net_jets_match_central_differences(seed):
    p = random_mlp([2] + [50] * 5 + [1], seed=seed, scale=0.2)
    x0 = np.array([0.37, 0.61])
    h = 1e-4

    def f(x, t):
        return mlp_forward(p, np.array([x, t]))[0]

    jet = mlp_forward_jet(p, x0[None], d1=(0, 1), d2=(0, 1))
    for k, step in ((0, np.array([h, 0])), (1, np.array([0, h]))):
        d1_fd = (f(*(x0 + step)) - f(*(x0 - step))) / (2 * h)
        d2_fd = (f(*(x0 + step)) - 2 * f(*x0) + f(*(x0 - step))) / h ** 2
        assert abs(jet.d1[k][0, 0] - d1_fd) < 1e-5 * max(1.0, abs(d1_fd))
        assert abs(jet.d2[k][0, 0] - d2_fd) < 1e-5 * max(1.0, abs(d2_fd))


def test_jet_value_matches_forward_bitwise():
    p = random_mlp([3, 20, 20, 2], seed=5)
    x = np.random.default_rng(6).normal(size=(7, 3))
    jet = mlp_forward_jet(p, x, d1=(0, 2), d2=(0, 2))
    assert np.array_equal(jet.value, mlp_forward(p, x))


def test_empty_tracked_set_behaves_like_forward():
    p = random_mlp([2, 8, 1], seed=7)
    x = np.array([[0.1, 0.2]])
    jet = mlp_forward_jet(p, x)
    assert jet.d1 == {} and jet.d2 == {}
    assert np.array_equal(jet.value, mlp_forward(p, x))


def test_jet_linearity_of_sum():
    # jets of f+g equal jet(f) + jet(g) slot-wise
    pf = random_mlp([2, 10, 1], seed=8)
    pg = random_mlp([2, 10, 1], seed=9)
    x = np.array([[0.3, -0.5]])
    jf = mlp_forward_jet(pf, x, d1=(0, 1), d2=(0, 1))
    jg = mlp_forward_jet(pg, x, d1=(0, 1), d2=(0, 1))

    both = MlpParams(
        [2, 20, 1],
        [np.hstack([pf.weights[0], pg.weights[0]]),
         np.vstack([pf.weights[1], pg.weights[1]])],
        [np.hstack([pf.biases[0], pg.biases[0]]),
         pf.biases[1] + pg.biases[1]])
    js = mlp_forward_jet(both, x, d1=(0, 1), d2=(0, 1))
    assert np.allclose(js.value, jf.value + jg.value, atol=1e-14)
    for k in (0, 1):
        assert np.allclose(js.d1[k], jf.d1[k] + jg.d1[k], atol=1e-13)
        assert np.allclose(js.d2[k], jf.d2[k] + jg.d2[k], atol=1e-12)


def test_determinism_same_seed_same_outputs():
    a = random_mlp([4, 30, 30, 2], seed=11)
    b = random_mlp([4, 30, 30, 2], seed=11)
    x = np.random.default_rng(12).normal(size=(9, 4))
    assert np.array_equal(mlp_forward(a, x), mlp_forward(b, x))


def test_backward_quadratic_form_gradient():
    # loss = sum((W x)^2) for a zero-bias linear layer -> dL/dW = 2 (x W) x^T
    rng = np.random.default_rng(13)
    w = rng.normal(size=(3, 2))
    p = MlpParams([3, 2], [w], [np.zeros(2)])
    x = rng.normal(size=(1, 3))
    tape = taped(p)
    jet = mlp_forward_jet(tape, x)
    backward((jet.value * jet.value).sum())
    expect = 2.0 * x.T @ (x @ w)
    assert np.allclose(tape.weights[0].grad, expect, atol=1e-12)


@pytest.mark.parametrize("seed", [21, 22])
def test_gradient_of_second_derivative_loss_matches_fd(seed):
    p = random_mlp([2, 12, 12, 1], seed=seed, scale=0.5)
    x = np.random.default_rng(seed).uniform(-1, 1, size=(6, 2))

    def loss_value(params):
        jet = mlp_forward_jet(params, x, d1=(0,), d2=(0,))
        return float(np.mean(jet.d2[0] ** 2))

    tape = taped(p)
    jet = mlp_forward_jet(tape, x, d1=(0,), d2=(0,))
    backward((jet.d2[0] * jet.d2[0]).sum() / x.shape[0])

    rng = np.random.default_rng(seed + 100)
    checked = 0
    for _ in range(40):
        li = rng.integers(0, len(p.weights))
        wb = rng.integers(0, 2)
        arr = p.weights[li] if wb == 0 else p.biases[li]
        leaf = tape.weights[li] if wb == 0 else tape.biases[li]
        # a leaf the loss does not reach (the output bias) keeps grad None
        g_arr = leaf.grad if leaf.grad is not None else np.zeros(arr.shape)
        pos = tuple(rng.integers(0, s) for s in arr.shape)
        h = 1e-6 * max(1.0, abs(arr[pos]))
        old = arr[pos]
        arr[pos] = old + h
        lp = loss_value(p)
        arr[pos] = old - h
        lm = loss_value(p)
        arr[pos] = old
        fd = (lp - lm) / (2 * h)
        ad = g_arr[pos]
        denom = max(abs(fd), abs(ad), 1e-10)
        assert abs(fd - ad) / denom < 1e-4
        checked += 1
    assert checked == 40


def test_dense_narrows_a_float64_cotangent_for_float32_leaves():
    # a float32 network under float64 loss algebra, as in a training step:
    # each layer casts the float64 cotangent it receives to its float32
    # data, so every gradient stays float32 and within float32 rounding of
    # the float64 network's
    p = random_mlp([2, 12, 12, 1], seed=25, scale=0.5)
    x = np.random.default_rng(25).uniform(-1, 1, size=(6, 2))
    slot_scales = np.array([2.0, 0.5, 3.0])[:, None, None]   # float64
    grads = {}
    for dtype in (np.float64, np.float32):
        tape = taped(p.map(lambda a: a.astype(dtype)))
        jet = mlp_forward_jet(tape, x, d1=(0,), d2=(0,))
        assert jet.data.data.dtype == dtype
        res = jet.data * slot_scales
        assert res.data.dtype == np.float64
        backward((res * res).sum())
        grads[dtype] = [leaf.grad for leaf in tape.arrays()]
    for g32, g64 in zip(grads[np.float32], grads[np.float64]):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.max(np.abs(g32 - g64)) <= 1e-5 * np.max(np.abs(g64))


def test_a_slice_pulls_back_in_its_leafs_dtype():
    # a float64 cotangent through a slice of a float32 leaf (a run of the
    # stacked decoders) leaves a float32 gradient
    for dtype in (np.float32, np.float64):
        leaf = Var(np.ones((3, 2), dtype=dtype), requires_grad=True)
        backward((leaf[1:] * np.array([2.0, 4.0])).sum())
        assert leaf.grad.dtype == dtype
        assert np.array_equal(leaf.grad, [[0, 0], [2, 4], [2, 4]])


def test_a_swept_graph_refuses_a_second_sweep():
    tape = taped(random_mlp([2, 6, 1], seed=23))
    x = np.random.default_rng(23).uniform(-1, 1, size=(5, 2))

    def loss():
        jet = mlp_forward_jet(tape, x, d1=(0,), d2=(0,))
        return (jet.d2[0] * jet.value).sum()

    root = loss()
    backward(root)
    once = [leaf.grad.copy() for leaf in tape.arrays()]
    with pytest.raises(ValueError, match="swept"):
        backward(root)
    with pytest.raises(ValueError, match="swept"):
        backward(root * 2.0)
    # the refused sweeps left the leaves alone; a fresh graph accumulates
    assert all(np.array_equal(leaf.grad, g)
               for leaf, g in zip(tape.arrays(), once))
    backward(loss())
    assert all(np.array_equal(leaf.grad, g + g)
               for leaf, g in zip(tape.arrays(), once))


@pytest.mark.parametrize("d1, d2", [((0, 1), (1,)), ((0,), ()), ((), ())],
                         ids=["4-slots", "2-slots", "value-only"])
def test_tanh_jet_node_keeps_only_its_output_slots(d1, d2):
    # the vjp reads its Jacobian from the outputs, so neither the
    # pre-activations nor s = 1 - y^2 outlive the call
    rng = np.random.default_rng(24)
    n_slots = 1 + len(d1) + len(d2)
    slots = Var(rng.normal(size=(n_slots, 1000, 50)), requires_grad=True)
    w = Var(rng.normal(0.0, 0.2, (50, 50)), requires_grad=True)
    b = Var(rng.normal(0.0, 0.1, 50), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jet = dense(Jet2(slots, d1, d2), w, b, act=True)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert jet.data.requires_grad
    assert kept <= n_slots * slots.data[0].nbytes + 64 * 1024


@settings(max_examples=30)
@given(d1=st.lists(st.integers(0, 2), unique=True, max_size=3),
       data=st.data(),
       layout=st.sampled_from(["2-D", "stacked", "sliced"]),
       seed=st.integers(0, 2 ** 16))
def test_dense_layers_match_forward_and_central_differences(d1, data, layout,
                                                            seed):
    # one tanh layer and one affine layer on a jet with random slots, for
    # 2-D weights, stacked per-block weights, and per-block weights sliced
    # as a consecutive run out of a larger stack
    d2 = data.draw(st.lists(st.sampled_from(d1), unique=True)) if d1 else []
    rng = np.random.default_rng(seed)
    sizes, n_d, m = [3, 4, 2], 3, 3
    n_slots = 1 + len(d1) + len(d2)
    stack = {"2-D": (), "stacked": (n_d,), "sliced": (n_d + 2,)}[layout]
    ws = [rng.normal(0.0, 0.6, stack + (a, b))
          for a, b in zip(sizes[:-1], sizes[1:])]
    bs = [rng.normal(0.0, 0.3, stack + (b,)) for b in sizes[1:]]
    start = int(rng.integers(0, 3)) if layout == "sliced" else 0
    run = slice(start, start + n_d)
    rows = (5,) if layout == "2-D" else (n_d, m)
    x = rng.normal(size=(n_slots,) + rows + (sizes[0],))

    def pick(arrays):
        # the run of a larger stack, through Var.__getitem__ on tape leaves
        return [a[run] for a in arrays] if layout == "sliced" else arrays

    def forward(x, ws, bs):
        return dense_layers(Jet2(x, d1, d2), pick(ws), pick(bs)).data

    out = forward(x, ws, bs)
    if layout == "2-D":
        expect = mlp_forward(MlpParams(sizes, ws, bs), x[0])
        assert np.array_equal(out[0], expect)
    else:
        for i, k in enumerate(range(start, start + n_d)):
            net = MlpParams(sizes, [w[k] for w in ws], [b[k] for b in bs])
            assert np.array_equal(out[0, i], mlp_forward(net, x[0, i]))

    cot = rng.normal(size=out.shape)
    arrays = [x] + ws + bs
    leaves = [Var(a, requires_grad=True) for a in arrays]
    n_w = len(ws)
    taped = forward(leaves[0], leaves[1:1 + n_w], leaves[1 + n_w:])
    backward((taped * cot).sum())

    # the input cotangent, pulled back by hand through the closed-form
    # Jacobian of the tanh layer
    w0, w1 = pick(ws)
    z = dense(Jet2(x, d1, d2), w0, pick(bs)[0], act=False).data
    g_y = cot @ w1.swapaxes(-1, -2)
    g_z = np.einsum("ab...,a...->b...", tanh_jet_jacobian(z, d1, d2), g_y)
    expect = g_z @ w0.swapaxes(-1, -2)
    assert np.max(np.abs(leaves[0].grad - expect)) \
        <= 1e-12 * np.max(np.abs(expect))

    if layout == "sliced":
        # decoders outside the run get exactly zero gradient
        outside = np.ones(stack, dtype=bool)
        outside[run] = False
        for leaf in leaves[1:]:
            assert leaf.grad.shape == leaf.data.shape
            assert not leaf.grad[outside].any()

    for arr, leaf in zip(arrays, leaves):
        for _ in range(4):
            pos = tuple(rng.integers(0, n) for n in arr.shape)
            old = arr[pos]
            arr[pos] = old + 1e-6
            up = np.sum(forward(*_split(arrays, n_w)) * cot)
            arr[pos] = old - 1e-6
            down = np.sum(forward(*_split(arrays, n_w)) * cot)
            arr[pos] = old
            fd = (up - down) / 2e-6
            assert abs(leaf.grad[pos] - fd) < 1e-6 * max(1.0, abs(fd))


def _split(arrays, n_w):
    return arrays[0], arrays[1:1 + n_w], arrays[1 + n_w:]

