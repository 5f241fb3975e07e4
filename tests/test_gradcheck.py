"""Finite-difference gradient verification for every differentiable op."""

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow.tensor import Tensor, WIDE

from gradcheck import grad_check, widen


def wt(rng, shape, scale=1.0):
    return Tensor((rng.standard_normal(shape) * scale).astype(WIDE))


def test_sum_of_linear_is_exact():
    rng = np.random.default_rng(0)
    x = wt(rng, (3, 4))
    err = grad_check(lambda t: pt.sum_all(t), [x], eps=1e-6)
    assert err <= 1e-9
    np.testing.assert_allclose(x.grad, np.ones((3, 4)), atol=1e-12)


OPS = {
    "add": lambda a, b: pt.sum_all(pt.mul(pt.add(a, b), pt.add(a, b))),
    "sub": lambda a, b: pt.sum_all(pt.mul(pt.sub(a, b), a)),
    "mul": lambda a, b: pt.sum_all(pt.mul(a, b)),
    "matmul": lambda a, b: pt.sum_all(pt.matmul(a, b)),
    "bias": lambda a, b: pt.sum_all(pt.silu(pt.add(a, pt.sum_axis(b, 0)))),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", range(3))
def test_binary_ops(name, seed):
    rng = np.random.default_rng(seed)
    a, b = wt(rng, (4, 5)), wt(rng, (4, 5))
    if name == "matmul":
        b = wt(rng, (5, 3))
    assert grad_check(OPS[name], [a, b]) <= 1e-7


UNARY = {
    "scale": lambda t: pt.scale(t, 1.7),
    "silu": pt.silu,
    "gelu": pt.gelu,
    "reshape": lambda t: pt.reshape(t, (-1,)),
    "transpose": lambda t: pt.transpose(t, (1, 0)),
    "slice": lambda t: pt.slice_axis(t, 1, 1, 4),
    "sum_axis": lambda t: pt.sum_axis(t, 0),
    "mean_axis": lambda t: pt.mean_axis(t, 1),
    "powc": lambda t: pt.powc(pt.add_scalar(pt.mul(t, t), 1.0), -0.5),
}


@pytest.mark.parametrize("name", sorted(UNARY))
@pytest.mark.parametrize("seed", range(3))
def test_unary_ops(name, seed):
    rng = np.random.default_rng(100 + seed)
    x = wt(rng, (4, 5))
    f = UNARY[name]
    assert grad_check(lambda t: pt.sum_all(pt.mul(f(t), f(t))), [x]) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_mean_of_a_vector_grads(seed):
    # a 1-D reduction gives a 0-d output, which stays float64
    x = wt(np.random.default_rng(150 + seed), (6,))
    assert grad_check(lambda t: pt.sum_all(pt.mul(pt.mean_axis(t, 0), pt.mean_axis(t, 0))), [x]) <= 1e-7


@pytest.mark.parametrize("seed", range(3))
def test_layer_norm_grads(seed):
    rng = np.random.default_rng(200 + seed)
    x, g, b = wt(rng, (3, 6)), wt(rng, (6,)), wt(rng, (6,))

    def f(x_, g_, b_):
        return pt.sum_all(pt.mul(pt.layer_norm(x_, g_, b_), x_))

    assert grad_check(f, [x, g, b], eps=1e-6) <= 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_adaln_grads_through_scale_and_shift(seed):
    # adaLN as the DiT builds it: one layer_norm whose gain is 1 + scale.
    rng = np.random.default_rng(250 + seed)
    x, scl, shift = wt(rng, (3, 6)), wt(rng, (6,), 0.5), wt(rng, (6,))

    def f(x_, scl_, shift_):
        return pt.sum_all(pt.mul(pt.layer_norm(x_, pt.add_scalar(scl_, 1.0), shift_), x_))

    assert grad_check(f, [x, scl, shift], eps=1e-6) <= 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_attention_grads(seed):
    rng = np.random.default_rng(300 + seed)
    q, k, v = wt(rng, (4, 8)), wt(rng, (5, 8)), wt(rng, (5, 8))

    def f(q_, k_, v_):
        return pt.sum_all(pt.mul(pt.attention(q_, k_, v_), q_))

    assert grad_check(f, [q, k, v], eps=1e-6) <= 1e-5


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_multi_head_attention_grads_20_seeds(heads):
    # Lq != Lk, and the output is weighted by a second function of q so that
    # every head's gradient path is exercised with a non-uniform seed.
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(310 + seed)
        q, k, v = wt(rng, (4, 8)), wt(rng, (6, 8)), wt(rng, (6, 8))

        def f(q_, k_, v_):
            return pt.sum_all(pt.mul(pt.attention(q_, k_, v_, heads), q_))

        worst = max(worst, grad_check(f, [q, k, v], eps=1e-6))
    assert worst <= 1e-5


def test_take_rows_grads_with_repeated_indices():
    rng = np.random.default_rng(320)
    a, w = wt(rng, (4, 3)), wt(rng, (7, 3))
    idx = np.array([3, 0, 3, 1, 3, 0, 2])
    assert grad_check(lambda a_: pt.sum_all(pt.mul(pt.take_rows(a_, idx), w)), [a]) <= 1e-6


def test_attention_self_grads_meet_spec_tolerance():
    # f = sum(attention(x, x, x)) on 4x8 at eps=1e-4
    rng = np.random.default_rng(17)
    x = wt(rng, (4, 8))
    err = grad_check(lambda t: pt.sum_all(pt.attention(t, t, t)), [x], eps=1e-4)
    assert err <= 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_conv2d_grads(seed):
    rng = np.random.default_rng(400 + seed)
    x = wt(rng, (2, 2, 5, 6))
    w = wt(rng, (3, 2, 3, 3))
    b = wt(rng, (3,))

    def f(x_, w_, b_):
        return pt.sum_all(pt.silu(pt.conv2d(x_, w_, b_, stride=2, pad=1)))

    assert grad_check(f, [x, w, b], eps=1e-6) <= 1e-6


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_silu_conv2d_grads(stride, pad):
    rng = np.random.default_rng(420 + 2 * stride + pad)
    w, b = pt.param(rng.standard_normal((3, 2, 3, 3))), pt.param(rng.standard_normal(3))
    widen([w, b])
    x = wt(rng, (2, 2, 5, 6), scale=2.0)

    def f(x_, w_, b_):
        return pt.sum_all(pt.silu(pt.silu_conv2d(x_, w_, b_, stride=stride, pad=pad)))

    assert grad_check(f, [x, w, b], eps=1e-5) <= 1e-5  # eps as in test_conv2d_grads_every_case


# (N, Ci, Co, H, W): odd and non-square frames, a 1x1 input, one channel.
UPSAMPLE_CASES = [(2, 3, 4, 3, 5), (1, 2, 3, 1, 1), (3, 1, 1, 4, 3)]


@pytest.mark.parametrize("case", UPSAMPLE_CASES, ids=[f"n{n}-ci{ci}-co{co}-{h}x{w}" for n, ci, co, h, w in UPSAMPLE_CASES])
@pytest.mark.parametrize("seed", range(3))
def test_upsample_conv2d_grads(seed, case):
    n, ci, co, h, wd = case
    rng = np.random.default_rng(450 + seed)
    x, w, b = wt(rng, (n, ci, h, wd)), wt(rng, (co, ci, 3, 3)), wt(rng, (co,))

    def f(x_, w_, b_):
        return pt.sum_all(pt.silu(pt._upsample_conv2d(x_, w_, b_)))

    assert grad_check(f, [x, w, b], eps=1e-5) <= 1e-5


def test_upsample_conv2d_weight_grads_with_frozen_input():
    rng = np.random.default_rng(460)
    x, w = wt(rng, (2, 3, 4, 5)), wt(rng, (2, 3, 3, 3))
    zero = Tensor(np.zeros(2, dtype=WIDE))

    def f(w_):
        return pt.sum_all(pt.silu(pt._upsample_conv2d(x, w_, zero)))

    assert grad_check(f, [w], eps=1e-5) <= 1e-5
    assert x.grad is None


# (stride, pad, kernel, H, W): a same-size 3x3 conv, the VAE 1x1 heads, the face
# and VAE encoders, then no padding, pad 2, stride 3 with an even kernel, and
# odd and non-square frames.
CONV_CASES = [
    (1, 1, 3, 5, 6),
    (1, 0, 1, 4, 5),
    (2, 1, 3, 5, 6),
    (2, 0, 3, 7, 7),
    (1, 2, 3, 3, 5),
    (2, 2, 3, 5, 4),
    (3, 1, 2, 7, 5),
]


@pytest.mark.parametrize("case", CONV_CASES, ids=[f"s{s}-p{p}-k{k}-{h}x{w}" for s, p, k, h, w in CONV_CASES])
@pytest.mark.parametrize("seed", range(3))
def test_conv2d_grads_every_case(seed, case):
    # Stride 1 sums ~6x more outputs into f (about 200 here), so at eps=1e-6
    # the central differences alone carry up to 1.7e-5 relative error on
    # entries near 1e-3. eps=1e-5 cuts that tenfold; a wrong gradient term
    # gives errors near 1.
    stride, pad, k, h, wd = case
    rng = np.random.default_rng(400 + seed)
    x = wt(rng, (2, 2, h, wd))
    w = wt(rng, (3, 2, k, k))
    b = wt(rng, (3,))

    def f(x_, w_, b_):
        return pt.sum_all(pt.silu(pt.conv2d(x_, w_, b_, stride=stride, pad=pad)))

    assert grad_check(f, [x, w, b], eps=1e-5) <= 1e-5


@pytest.mark.parametrize("case", CONV_CASES, ids=[f"s{s}-p{p}-k{k}-{h}x{w}" for s, p, k, h, w in CONV_CASES])
@pytest.mark.parametrize("seed", range(2))
def test_conv2d_weight_grads_with_frozen_input(seed, case):
    # The face encoder's first layer sees the crops, which need no gradient:
    # backward then runs only the weight and bias gradients.
    stride, pad, k, h, wd = case
    rng = np.random.default_rng(410 + seed)
    x = wt(rng, (2, 2, h, wd))
    w = wt(rng, (3, 2, k, k))
    b = wt(rng, (3,))

    def f(w_, b_):
        return pt.sum_all(pt.silu(pt.conv2d(x, w_, b_, stride=stride, pad=pad)))

    assert grad_check(f, [w, b], eps=1e-5) <= 1e-5
    assert x.grad is None


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("seed", range(2))
def test_causal_conv1d_grads(stride, seed):
    rng = np.random.default_rng(500 + seed)
    x = wt(rng, (9, 3))
    w = wt(rng, (2, 3, 4))

    def f(x_, w_):
        y = pt.causal_conv1d(x_, w_, taps=np.arange(0, 9, stride))
        return pt.sum_all(pt.mul(y, y))

    assert grad_check(f, [x, w], eps=1e-6) <= 1e-6


def test_causal_conv1d_grads_with_partial_group_taps():
    # The temporal downsampler's taps on 11 frames: the last group is short, so
    # the windows of taps 8 and 10 overlap and their gradients add.
    rng = np.random.default_rng(510)
    x, w = wt(rng, (11, 3)), wt(rng, (2, 3, 4))

    def f(x_, w_):
        y = pt.causal_conv1d(x_, w_, taps=[0, 4, 8, 10])
        return pt.sum_all(pt.mul(y, y))

    assert grad_check(f, [x, w], eps=1e-6) <= 1e-6


def test_patchify_grads():
    rng = np.random.default_rng(600)
    x = wt(rng, (2, 2, 4, 4))

    def f(x_):
        toks = pt.patchify(x_, (1, 2, 2))
        return pt.sum_all(pt.mul(toks, toks))

    assert grad_check(f, [x]) <= 1e-7


def test_concat_grads():
    rng = np.random.default_rng(700)
    a, b = wt(rng, (2, 3)), wt(rng, (2, 4))

    def f(a_, b_):
        c = pt.concat([a_, b_], axis=1)
        return pt.sum_all(pt.mul(c, c))

    assert grad_check(f, [a, b]) <= 1e-7


def test_shared_input_accumulates():
    rng = np.random.default_rng(800)
    x = wt(rng, (3, 3))

    def f(t):
        return pt.sum_all(pt.add(pt.mul(t, t), pt.matmul(t, t)))

    assert grad_check(f, [x], eps=1e-6) <= 1e-7


def test_every_differentiable_op_passes_20_seeds():
    # Composite touching every op family, 20 seeds, rel err <= 1e-4.
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        x = wt(rng, (2, 2, 4, 4))
        w = wt(rng, (2, 2, 3, 3))
        g = wt(rng, (8,))

        def f(x_, w_, g_):
            h = pt.silu(pt.conv2d(x_, w_, Tensor(np.zeros(2, dtype=WIDE)), stride=2, pad=1))
            toks = pt.patchify(pt.reshape(h, (2, 2, 2, 2)), (1, 2, 2))
            toks = pt.layer_norm(toks, g_, Tensor(np.zeros(8, dtype=WIDE)))
            att = pt.attention(toks, toks, toks)
            return pt.scale(pt.sum_all(pt.mul(att, att)), 1.0 / att.size)

        worst = max(worst, grad_check(f, [x, w, g], eps=1e-5))
    assert worst <= 1e-4


def test_non_finite_intermediate_raises_with_op_id():
    x = Tensor(np.array([[0.0, 710.0]], dtype=WIDE))

    def f(t):
        # exp overflow inside powc: (t*t)^4 overflows float64
        return pt.sum_all(pt.powc(pt.mul(t, t), 200.0))

    with pytest.raises(pt.NumericalError, match="powc"):
        grad_check(f, [x])


def test_backward_visits_reverse_construction_order():
    calls = []
    x = Tensor(np.ones((2, 2), dtype=WIDE), requires_grad=True)
    a = pt.mul(x, x)
    b = pt.silu(a)
    c = pt.sum_all(b)
    for node, name in ((a, "mul"), (b, "silu"), (c, "sum_all")):
        orig = node._bwd

        def wrapped(g, orig=orig, name=name):
            calls.append(name)
            orig(g)

        node._bwd = wrapped
    c.backward()
    assert calls == ["sum_all", "silu", "mul"]


def test_backward_keeps_leaf_grads_only_and_repeats_exactly():
    x = Tensor(np.array([2.0, 4.0, 6.0], dtype=WIDE), requires_grad=True)
    sq = pt.mul(x, x)
    out = pt.sum_all(sq)
    out.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0, 12.0])
    assert sq.grad is None and out.grad is None
    out.backward()
    np.testing.assert_array_equal(x.grad, [8.0, 16.0, 24.0])
