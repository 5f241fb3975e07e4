"""Tensor core: op oracles, shape errors, serialization round-trips."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puppetflow.tensor as pt
from puppetflow.tensor import (
    AlignmentError,
    ConditioningError,
    ConfigError,
    ShapeError,
    Tensor,
    WIDE,
    attention,
    causal_conv1d,
    concat,
    conv2d,
    dump_tensor,
    layer_norm,
    linear,
    load_tensor,
    matmul,
    patchify,
    slice_axis,
    unpatchify,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def wide(arr):
    return Tensor(np.asarray(arr, dtype=WIDE))


# ---------------------------------------------------------------------------
# matmul


class TestMatmul:
    def test_identity(self):
        b = rng(1).standard_normal((3, 4))
        out = matmul(wide(np.eye(3)), wide(b))
        np.testing.assert_array_equal(out.data, b)

    def test_zero_annihilates(self):
        b = rng(2).standard_normal((3, 4))
        out = matmul(wide(np.zeros((2, 3))), wide(b))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_against_triple_loop_oracle(self):
        a = rng(3).standard_normal((4, 5))
        b = rng(4).standard_normal((5, 6))
        expect = np.zeros((4, 6))
        for i in range(4):
            for j in range(6):
                for k in range(5):
                    expect[i, j] += a[i, k] * b[k, j]
        out = matmul(wide(a), wide(b))
        assert np.abs(out.data - expect).max() <= 1e-12

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(wide(np.zeros((2, 3))), wide(np.zeros((4, 5))))

    def test_stacked_operands_raise_shape_error(self):
        for a, b in (((3, 4, 5), (3, 5, 2)), ((4, 5), (3, 5, 2)), ((3, 4, 5), (5, 2)), ((5,), (5, 2))):
            with pytest.raises(ShapeError, match=r"not \[M, K\] x \[K, N\]"):
                matmul(wide(np.zeros(a)), wide(np.zeros(b)))


# ---------------------------------------------------------------------------
# causal 1D convolution


class TestCausalConv1d:
    def test_delta_kernel_is_identity(self):
        x = rng(7).standard_normal((9, 2))
        k = np.zeros((2, 2, 3))
        for c in range(2):
            k[c, c, -1] = 1.0  # last tap reads the current sample
        out = causal_conv1d(wide(x), wide(k))
        np.testing.assert_array_equal(out.data, x)

    def test_output_length_ceil(self):
        x = wide(rng(8).standard_normal((5, 1)))
        k = wide(rng(9).standard_normal((1, 1, 1)))
        assert causal_conv1d(x, k, taps=np.arange(0, 5, 4)).shape == (2, 1)

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_causality_under_perturbation(self, stride):
        # Perturb x at every t0; outputs with t*stride < t0 must be bit-identical.
        r = rng(10)
        x = r.standard_normal((11, 3))
        k = wide(r.standard_normal((2, 3, 4)))
        base = causal_conv1d(wide(x), k, taps=np.arange(0, 11, stride)).data
        for t0 in range(11):
            xp = x.copy()
            xp[t0] += 1.0
            pert = causal_conv1d(wide(xp), k, taps=np.arange(0, 11, stride)).data
            for t in range(base.shape[0]):
                if t * stride < t0:
                    assert np.array_equal(base[t], pert[t])

    def test_invalid_params(self):
        x = wide(np.zeros((4, 1)))
        with pytest.raises(ConfigError):
            causal_conv1d(x, wide(np.zeros((1, 1, 0))))

    def test_tap_positions(self):
        x = wide(np.arange(8, dtype=WIDE).reshape(8, 1))
        k = np.zeros((1, 1, 1))
        k[0, 0, 0] = 1.0
        out = causal_conv1d(x, wide(k), taps=[0, 4, 7])
        np.testing.assert_array_equal(out.data, [[0.0], [4.0], [7.0]])

    @pytest.mark.parametrize("taps", [[0.5], [], np.zeros(0, dtype=int), [1.0, 3.0], [[0, 1]], [-1], [4]],
                             ids=["fraction", "empty", "empty-int", "float", "2d", "negative", "past-end"])
    def test_bad_taps_raise_shape_error(self, taps):
        x = wide(np.zeros((4, 1)))
        with pytest.raises(ShapeError, match="taps"):
            causal_conv1d(x, wide(np.zeros((1, 1, 2))), taps=taps)


# ---------------------------------------------------------------------------
# attention


class TestAttention:
    def test_single_key_returns_v(self):
        r = rng(11)
        q = wide(r.standard_normal((5, 4)))
        k = wide(r.standard_normal((1, 4)))
        v = wide(r.standard_normal((1, 4)))
        out = attention(q, k, v, heads=1)
        for row in out.data:
            np.testing.assert_array_equal(row, v.data[0])

    def test_constant_logits_give_column_mean(self):
        r = rng(12)
        q = wide(np.zeros((3, 4)))
        k = wide(r.standard_normal((6, 4)))
        v = wide(r.standard_normal((6, 4)))
        out = attention(q, k, v, heads=1)
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)

    def test_against_direct_softmax_oracle(self):
        r = rng(13)
        q, k, v = (wide(r.standard_normal((3, 3))) for _ in range(3))
        logits = q.data @ k.data.T / np.sqrt(3.0)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expect = (e / e.sum(axis=1, keepdims=True)) @ v.data
        out = attention(q, k, v, heads=1)
        assert np.abs(out.data - expect).max() <= 1e-12

    def test_heads_must_divide_width(self):
        r = rng(14)
        q, k, v = (wide(r.standard_normal((3, 6))) for _ in range(3))
        for heads in (0, -1, 4):
            with pytest.raises(ConfigError, match="heads"):
                attention(q, k, v, heads)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_float32_matches_per_head_composition(self, heads):
        # The unfused graph: per head, scaled logits, max-shifted softmax, then
        # P @ V, all in float32. The fused op divides by the row sums after
        # P @ V instead of before, so the results differ by rounding only:
        # a few float32 ulps of the output magnitude, bounded here by 1e-6
        # on unit-normal inputs.
        r = rng(15 + heads)
        lq, lk, d = 48, 40, 32
        q, k, v = (r.standard_normal((n, d)).astype(np.float32) for n in (lq, lk, lk))
        dh = d // heads
        expect = np.empty((lq, d), dtype=np.float32)
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            logits = (q[:, cols] @ k[:, cols].T) * np.float32(1.0 / np.sqrt(dh))
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            expect[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
        out = attention(Tensor(q), Tensor(k), Tensor(v), heads)
        assert out.dtype == np.float32
        assert np.abs(out.data - expect).max() <= 1e-6


class TestTakeRows:
    def test_gathers_repeated_rows(self):
        a = wide(rng(17).standard_normal((3, 4)))
        idx = np.array([2, 0, 2, 2, 1])
        np.testing.assert_array_equal(pt.take_rows(a, idx).data, a.data[idx])

    def test_bad_indices_raise_shape_error(self):
        a = wide(np.zeros((3, 4)))
        for idx in (np.array([0, 3]), np.array([-1]), np.array([[0]]), np.array([0.0])):
            with pytest.raises(ShapeError):
                pt.take_rows(a, idx)


# ---------------------------------------------------------------------------
# patchify


class TestPatchify:
    def test_token_count_and_dim(self):
        x = wide(rng(17).standard_normal((4, 21, 16, 16)))
        toks = patchify(x, (1, 2, 2))
        assert toks.shape == (21 * 8 * 8, 16)

    def test_unit_patch_is_flatten(self):
        x = wide(rng(18).standard_normal((3, 2, 4, 4)))
        toks = patchify(x, (1, 1, 1))
        assert toks.shape == (2 * 4 * 4, 3)

    def test_round_trip_bit_exact(self):
        x = rng(19).standard_normal((4, 6, 8, 10))
        toks = patchify(wide(x), (2, 2, 2))
        back = unpatchify(toks, (4, 6, 8, 10), (2, 2, 2))
        assert np.array_equal(back.data, x)

    def test_token_order_is_t_h_w(self):
        # Unique value per (t,h,w) patch; flattened token index must scan w fastest.
        c, t, h, w = 1, 2, 4, 4
        x = np.arange(t * h * w, dtype=WIDE).reshape(1, t, h, w)
        toks = patchify(wide(x), (1, 2, 2)).data
        firsts = toks[:, 0].reshape(t, h // 2, w // 2)
        for ti in range(t):
            for hi in range(h // 2):
                for wi in range(w // 2):
                    assert firsts[ti, hi, wi] == x[0, ti, hi * 2, wi * 2]

    def test_indivisible_raises(self):
        with pytest.raises(ShapeError):
            patchify(wide(np.zeros((1, 3, 4, 4))), (2, 2, 2))


# ---------------------------------------------------------------------------
# elementwise / structural ops


class TestElementwise:
    def test_add_identity_and_shape_error(self):
        a = rng(20).standard_normal((3, 4))
        out = pt.add(wide(a), wide(np.zeros((3, 4))))
        np.testing.assert_array_equal(out.data, a)
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(4, 3\)"):
            pt.add(wide(a), wide(np.zeros((4, 3))))

    def test_trailing_bias(self):
        a = rng(21).standard_normal((5, 3))
        b = rng(22).standard_normal(3)
        out = pt.add(wide(a), wide(b))
        np.testing.assert_allclose(out.data, a + b, atol=1e-15)

    def test_sub_has_no_trailing_vector_case(self):
        a = wide(rng(24).standard_normal((5, 3)))
        with pytest.raises(ShapeError, match=r"sub: .*\(5, 3\).*\(3,\)"):
            pt.sub(a, wide(np.zeros(3)))

    def test_no_general_broadcast(self):
        with pytest.raises(ShapeError):
            pt.mul(wide(np.zeros((4, 3))), wide(np.zeros((4, 1))))

    def test_mul_by_zero_and_one(self):
        a = rng(23).standard_normal((2, 5))
        np.testing.assert_array_equal(pt.mul(wide(a), wide(np.ones((2, 5)))).data, a)
        np.testing.assert_array_equal(pt.mul(wide(a), wide(np.zeros((2, 5)))).data, np.zeros((2, 5)))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ConfigError):
            pt.add(Tensor(np.zeros(3, dtype=np.float32)), wide(np.zeros(3)))

    def test_concat_slice_round_trip(self):
        a = rng(24).standard_normal((2, 3))
        b = rng(25).standard_normal((2, 5))
        cat = concat([wide(a), wide(b)], axis=1)
        np.testing.assert_array_equal(slice_axis(cat, 1, 0, 3).data, a)
        np.testing.assert_array_equal(slice_axis(cat, 1, 3, 8).data, b)

    def test_layer_norm_normalizes(self):
        x = wide(rng(26).standard_normal((6, 8)) * 3 + 1)
        g = wide(np.ones(8))
        b = wide(np.zeros(8))
        out = layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1, atol=1e-4)

    def test_layer_norm_identity_on_unit_input(self):
        # gamma=1, beta=0 on an already-normalized row only divides it by sqrt(1 + eps)
        row = np.array([[-1.0, 1.0]])
        out = layer_norm(wide(row), wide(np.ones(2)), wide(np.zeros(2)))
        np.testing.assert_allclose(out.data, row / np.sqrt(1.0 + pt.LN_EPS), atol=1e-12)

    def test_linear_identity(self):
        x = wide(rng(28).standard_normal((5, 4)))
        out = linear(x, wide(np.eye(4)), wide(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_silu_gelu_zero_fixed_point(self):
        z = wide(np.zeros(4))
        np.testing.assert_array_equal(pt.silu(z).data, np.zeros(4))
        np.testing.assert_array_equal(pt.gelu(z).data, np.zeros(4))

    @pytest.mark.parametrize("dtype", [np.float32, WIDE])
    def test_gelu_keeps_dtype(self, dtype):
        x = Tensor(np.linspace(-3, 3, 7).astype(dtype), requires_grad=True)
        y = pt.gelu(x)
        y.backward(np.ones_like(y.data))
        assert y.dtype == dtype and x.grad.dtype == dtype

    def test_gelu_float32_matches_float64(self):
        # rtol: a few float32 ulps over the ~10 roundings of the formula.
        # atol: for large |x|, tanh is within an ulp of +-1, so 1 + tanh and
        # 1 - tanh**2 keep only about 6e-8 absolute accuracy. The forward
        # scales that by |x| <= 8; the derivative by |x| * du <= 61.
        x = np.linspace(-8.0, 8.0, 4001).astype(np.float32)
        results = []
        for dtype in (np.float32, WIDE):
            xt = Tensor(x.astype(dtype), requires_grad=True)
            y = pt.gelu(xt)
            y.backward(np.ones_like(y.data))
            results.append((y.data, xt.grad))
        (y32, d32), (y64, d64) = results
        np.testing.assert_allclose(y32, y64, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(d32, d64, rtol=1e-5, atol=1e-5)

    def test_finite_after_extreme_inputs(self):
        x = wide(np.array([[1e4, -1e4, 0.0]]))
        with pt.finite_checks():
            assert np.isfinite(pt.silu(x).data).all()
            assert np.isfinite(pt.gelu(x).data).all()


# ---------------------------------------------------------------------------
# conv2d against a direct oracle


# (stride, pad, kernel, H, W): a same-size 3x3 conv, the VAE 1x1 heads, the
# decoder's 2x2 phase conv, the face and VAE encoders, then no padding, pad 2,
# stride 3 with an even kernel, and odd and non-square frames.
CONV_CASES = [
    (1, 1, 3, 6, 7),
    (1, 0, 1, 5, 5),
    (1, 1, 2, 6, 7),
    (2, 1, 3, 6, 7),
    (2, 0, 3, 7, 7),
    (1, 2, 3, 5, 8),
    (2, 2, 3, 9, 4),
    (3, 1, 2, 8, 5),
]
CONV_IDS = [f"s{s}-p{p}-k{k}-{h}x{w}" for s, p, k, h, w in CONV_CASES]


def conv_oracle(x, w, stride, pad):
    """Direct float64 convolution, one output element at a time."""
    n, _, h, wd = x.shape
    co, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, co, ho, wo))
    for b in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


def tap_oracle(x, w, stride, pad):
    """Direct float64 convolution as a sum over kernel taps of strided input slices."""
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    co, _, k, _ = w.shape
    ho, wo = (xp.shape[2] - k) // stride + 1, (xp.shape[3] - k) // stride + 1
    out = np.zeros((x.shape[0], co, ho, wo))
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, :, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, ky, kx].astype(np.float64), patch)
    return out


# (stride, pad, kernel, N, Ci, Co, H, W): the first face-encoder layer at
# 512 px, a stride-2 3x3 conv with N > 1, and the decoder's stride-1 2x2
# phase conv at its middle-stage width. Each splits the forward into several
# row blocks with a short last one. The stride-2 3x3 cases are named by size.
BLOCK_CASES = [
    (2, 1, 3, 1, 3, 4, 512, 512),
    (2, 1, 3, 2, 16, 2, 84, 84),
    (1, 1, 2, 3, 32, 8, 32, 32),
]
BLOCK_IDS = [
    f"n{n}-ci{ci}-{h}x{w}" + ("" if (s, p, k) == (2, 1, 3) else f"-s{s}-p{p}-k{k}")
    for s, p, k, n, ci, _, h, w in BLOCK_CASES
]


def gamma32(terms):
    """Worst-case relative error of a float32 dot product of `terms` products."""
    u = 2.0**-24
    return terms * u / (1 - terms * u)


# bad shape-op calls whose numpy or Python error must surface as ShapeError
SHAPE_OP_ERRORS = {
    "reshape-size": lambda a: pt.reshape(a, (5, 5)),
    "transpose-repeated": lambda a: pt.transpose(a, (0, 0, 1)),
    "concat-empty": lambda a: pt.concat([], axis=0),
    "concat-axis": lambda a: pt.concat([a, a], axis=3),
    "concat-single-axis": lambda a: pt.concat([a], axis=-4),
    "sum_axis-axis": lambda a: pt.sum_axis(a, 3),
    "patchify-3d": lambda a: pt.patchify(a, (1, 1, 1)),
    "patchify-zero-patch": lambda a: pt.patchify(pt.reshape(a, (1, 2, 3, 4)), (1, 0, 2)),
}


@pytest.mark.parametrize("case", sorted(SHAPE_OP_ERRORS))
def test_shape_ops_raise_shape_error(case):
    with pytest.raises(ShapeError):
        SHAPE_OP_ERRORS[case](wide(np.zeros((2, 3, 4))))


# an axis, a bound or a head count that is not a whole number, which numpy or
# Python would reject with a raw TypeError or silently truncate
NON_INTEGER_ERRORS = {
    "slice_axis-axis": lambda a: pt.slice_axis(a, 1.0, 0, 1),
    "slice_axis-start": lambda a: pt.slice_axis(a, 1, 0.5, 2),
    "slice_axis-stop": lambda a: pt.slice_axis(a, 1, 0, np.float64(2.0)),
    "sum_axis-axis": lambda a: pt.sum_axis(a, 1.0),
    "mean_axis-axis": lambda a: pt.mean_axis(a, np.float32(1.0)),
    "concat-axis": lambda a: pt.concat([a, a], axis=1.0),
    "transpose-axes": lambda a: pt.transpose(a, (0, 1.0, 2)),
    "transpose-string-axes": lambda a: pt.transpose(a, "012"),
    "attention-heads": lambda a: pt.attention(*[pt.reshape(a, (6, 4))] * 3, heads=2.0),
    "attention-string-heads": lambda a: pt.attention(*[pt.reshape(a, (6, 4))] * 3, heads="2"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_ERRORS))
def test_non_integer_axes_bounds_and_heads_raise_config_error(case):
    with pytest.raises(ConfigError, match="must be a whole number"):
        NON_INTEGER_ERRORS[case](wide(np.zeros((2, 3, 4))))


@pytest.mark.parametrize("dtype", [np.float32, WIDE])
@pytest.mark.parametrize("op", [pt.sum_axis, pt.mean_axis], ids=["sum_axis", "mean_axis"])
def test_reducing_a_vector_keeps_its_dtype(op, dtype):
    x = Tensor(np.arange(3.0, dtype=dtype), requires_grad=True)
    out = op(x, 0)
    out.backward()
    assert out.size == 1 and out.dtype == dtype
    np.testing.assert_array_equal(x.grad, np.full(3, 1.0 if op is pt.sum_axis else 1.0 / 3.0, dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float32, WIDE])
@pytest.mark.parametrize("op", [pt.sum_all, lambda a: pt.sum_axis(a, 0)], ids=["sum_all", "sum_axis"])
def test_reducing_to_a_scalar_gives_numpys_0d_shape(op, dtype):
    # 0-d arithmetic gives numpy scalars, which keep their precision on the tape
    x = Tensor(np.arange(3.0, dtype=dtype), requires_grad=True)
    out = op(x)
    assert out.shape == np.sum(x.data, axis=0).shape == () and out.dtype == dtype and out.item() == 3.0
    y = pt.scale(pt.add_scalar(out, 1.0), 2.0)
    assert y.shape == () and y.dtype == dtype
    y.backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0, dtype=dtype))


class TestSliceAxis:
    def test_leading_axis_slice_is_a_view(self):
        a = wide(rng(60).standard_normal((4, 3, 5)))
        out = slice_axis(a, 0, 1, 3)
        assert np.shares_memory(out.data, a.data)
        np.testing.assert_array_equal(out.data, a.data[1:3])

    @pytest.mark.parametrize("axis", [1, 2, -1])
    def test_inner_axis_slice_is_contiguous(self, axis):
        a = wide(rng(61).standard_normal((4, 3, 5)))
        out = slice_axis(a, axis, 1, 3)
        assert out.data.flags.c_contiguous
        idx = [slice(None)] * 3
        idx[axis] = slice(1, 3)
        np.testing.assert_array_equal(out.data, a.data[tuple(idx)])

    @pytest.mark.parametrize("axis", [3, -4, 7])
    def test_axis_out_of_range_raises(self, axis):
        with pytest.raises(ShapeError, match="axis"):
            slice_axis(wide(np.zeros((4, 3, 5))), axis, 0, 1)


class TestConv2d:
    @pytest.mark.parametrize("case", CONV_CASES, ids=CONV_IDS)
    def test_against_nested_loop_oracle(self, case):
        stride, pad, k, h, wd = case
        r = rng(30)
        x = r.standard_normal((2, 3, h, wd))
        w = r.standard_normal((4, 3, k, k))
        out = conv2d(wide(x), wide(w), wide(np.zeros(4)), stride=stride, pad=pad).data
        np.testing.assert_allclose(out, conv_oracle(x, w, stride, pad), atol=1e-12)

    @pytest.mark.parametrize("case", CONV_CASES, ids=CONV_IDS)
    def test_float32_within_dot_product_bound_of_float64(self, case):
        # Each output, input-grad and weight-grad entry is a dot product of
        # `terms` float32 products, so whatever the summation order its error
        # is at most gamma32(terms) times the same sum over absolute values.
        stride, pad, k, h, wd = case
        r = rng(31)
        n, ci, co = 2, 16, 8
        x = r.standard_normal((n, ci, h, wd)).astype(np.float32)
        w = r.standard_normal((co, ci, k, k)).astype(np.float32)

        def run(xa, wa, dtype):
            xt = Tensor(xa.astype(dtype), requires_grad=True)
            wt = Tensor(wa.astype(dtype), requires_grad=True)
            y = conv2d(xt, wt, Tensor(np.zeros(co, dtype=dtype)), stride=stride, pad=pad)
            y.backward(np.ones_like(y.data))
            return y.data, xt.grad, wt.grad

        got = run(x, w, np.float32)
        ref = run(x, w, WIDE)
        mag = run(np.abs(x), np.abs(w), WIDE)
        ho, wo = ref[0].shape[2:]
        for a, b, m, terms in zip(got, ref, mag, (ci * k * k, co * k * k, n * ho * wo)):
            assert a.dtype == np.float32
            assert (np.abs(a - b) <= gamma32(terms) * m).all()

    @pytest.mark.parametrize("dtype", [np.float32, WIDE])
    @pytest.mark.parametrize("case", BLOCK_CASES, ids=BLOCK_IDS)
    def test_column_blocks_leave_a_remainder(self, case, dtype):
        stride, pad, k, n, ci, _, h, wd = case
        ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
        rows = pt._COLUMN_BLOCK_BYTES // (n * ci * k * k * wo * np.dtype(dtype).itemsize)
        assert 1 < rows < ho and ho % rows

    def test_blocked_forward_against_nested_loop_oracle(self):
        stride, pad, k, n, ci, co, h, wd = BLOCK_CASES[1]
        r = rng(34)
        x, w = r.standard_normal((n, ci, h, wd)), r.standard_normal((co, ci, k, k))
        out = conv2d(wide(x), wide(w), wide(np.zeros(co)), stride=stride, pad=pad).data
        ref = conv_oracle(x, w, stride, pad)
        np.testing.assert_allclose(tap_oracle(x, w, stride, pad), ref, atol=1e-12)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=BLOCK_IDS)
    def test_blocked_forward_against_tap_oracle(self, case):
        stride, pad, k, n, ci, co, h, wd = case
        r = rng(35)
        x = r.random((n, ci, h, wd), dtype=np.float32)
        w = r.standard_normal((co, ci, k, k)).astype(np.float32)
        ref = tap_oracle(x, w, stride, pad)
        np.testing.assert_allclose(conv2d(wide(x), wide(w), wide(np.zeros(co)), stride=stride, pad=pad).data, ref, atol=1e-12)
        got = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(co, dtype=np.float32)), stride=stride, pad=pad).data
        assert got.dtype == np.float32
        assert (np.abs(got - ref) <= gamma32(ci * k * k) * tap_oracle(x, np.abs(w), stride, pad)).all()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(wide(np.zeros((1, 3, 8, 8))), wide(np.zeros((4, 2, 3, 3))), wide(np.zeros(4)))

    def test_negative_pad_raises(self):
        with pytest.raises(ConfigError, match="pad"):
            conv2d(wide(np.zeros((1, 2, 8, 8))), wide(np.zeros((4, 2, 3, 3))), wide(np.zeros(4)), pad=-1)

    @pytest.mark.parametrize("op", [conv2d, pt.silu_conv2d], ids=["conv2d", "silu_conv2d"])
    @pytest.mark.parametrize("kw", [{"stride": 2.5}, {"stride": "2"}, {"stride": 0}, {"pad": 1.5},
                                    {"pad": np.float64(1.0)}], ids=repr)
    def test_stride_and_pad_must_be_whole_numbers(self, op, kw):
        (name,) = kw
        with pytest.raises(ConfigError, match=name):
            op(wide(np.zeros((1, 2, 8, 8))), wide(np.zeros((4, 2, 3, 3))), wide(np.zeros(4)), **kw)

    def test_numpy_integer_stride_and_pad_accepted(self):
        args = wide(np.ones((1, 2, 8, 8))), wide(np.ones((4, 2, 3, 3))), wide(np.zeros(4))
        got = conv2d(*args, stride=np.int64(2), pad=np.int32(1)).data
        np.testing.assert_array_equal(got, conv2d(*args, stride=2, pad=1).data)

    @pytest.mark.parametrize("bias", [np.zeros(4), np.zeros((3, 1))], ids=["size-4", "3x1"])
    def test_bias_must_match_output_channels(self, bias):
        with pytest.raises(ShapeError, match="bias"):
            conv2d(wide(np.zeros((1, 2, 5, 5))), wide(np.zeros((3, 2, 3, 3))), wide(bias), pad=1)


def upsample_conv_oracle(x, w, b):
    """Nearest 2x upsample by repetition, then a direct 3x3 pad-1 convolution."""
    up = x.repeat(2, axis=2).repeat(2, axis=3)
    return conv_oracle(up, w, 1, 1) + b.reshape(1, -1, 1, 1)


# (N, Ci, Co, H, W)
UPSAMPLE_CASES = [(2, 3, 4, 5, 7), (1, 2, 3, 1, 1), (3, 4, 2, 4, 3), (1, 1, 1, 6, 2)]
UPSAMPLE_IDS = [f"n{n}-ci{ci}-co{co}-{h}x{w}" for n, ci, co, h, w in UPSAMPLE_CASES]


class TestUpsampleConv2d:
    @pytest.mark.parametrize("case", UPSAMPLE_CASES, ids=UPSAMPLE_IDS)
    def test_against_upsample_then_conv_oracle(self, case):
        n, ci, co, h, wd = case
        r = rng(36)
        x, w, b = r.standard_normal((n, ci, h, wd)), r.standard_normal((co, ci, 3, 3)), r.standard_normal(co)
        out = pt._upsample_conv2d(wide(x), wide(w), wide(b)).data
        assert out.shape == (n, co, 2 * h, 2 * wd)
        np.testing.assert_allclose(out, upsample_conv_oracle(x, w, b), rtol=0, atol=1e-12)

    def test_float32_within_dot_product_bound_of_float64(self):
        # Each phase tap sums at most four kernel taps and each output is a
        # dot product over 4 * Ci low-res terms, so ci * 9 terms bound it.
        r = rng(37)
        n, ci, co, h, wd = 2, 16, 8, 6, 5
        x = r.standard_normal((n, ci, h, wd)).astype(np.float32)
        w = r.standard_normal((co, ci, 3, 3)).astype(np.float32)
        zero = np.zeros(co)
        got = pt._upsample_conv2d(Tensor(x), Tensor(w), Tensor(zero.astype(np.float32))).data
        assert got.dtype == np.float32
        ref = upsample_conv_oracle(x.astype(WIDE), w.astype(WIDE), zero)
        mag = upsample_conv_oracle(np.abs(x).astype(WIDE), np.abs(w).astype(WIDE), zero)
        assert (np.abs(got - ref) <= gamma32(ci * 9) * mag).all()

    def test_shape_errors(self):
        x, b = wide(np.zeros((1, 2, 4, 4))), wide(np.zeros(3))
        with pytest.raises(ShapeError):
            pt._upsample_conv2d(x, wide(np.zeros((3, 5, 3, 3))), b)
        with pytest.raises(ShapeError):
            pt._upsample_conv2d(wide(np.zeros((2, 4, 4))), wide(np.zeros((3, 2, 3, 3))), b)
        for bias in (np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ShapeError, match="bias"):
                pt._upsample_conv2d(x, wide(np.zeros((3, 2, 3, 3))), wide(bias))

    def test_kernel_must_be_3x3(self):
        with pytest.raises(ConfigError, match="3x3"):
            pt._upsample_conv2d(wide(np.zeros((1, 2, 4, 4))), wide(np.zeros((3, 2, 5, 5))), wide(np.zeros(3)))


# op and the shapes of its three operands; each case widens one of them
MIXED_CASES = {
    "conv2d": (lambda x, w, b: conv2d(x, w, b, pad=1), [(1, 2, 5, 5), (3, 2, 3, 3), (3,)]),
    "upsample_conv2d": (pt._upsample_conv2d, [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "layer_norm": (layer_norm, [(2, 4), (4,), (4,)]),
}


@pytest.mark.parametrize("wide_arg", range(3))
@pytest.mark.parametrize("op", sorted(MIXED_CASES))
def test_mixed_precision_operands_rejected(op, wide_arg):
    fn, shapes = MIXED_CASES[op]
    args = [Tensor(np.ones(s, dtype=WIDE if i == wide_arg else np.float32)) for i, s in enumerate(shapes)]
    with pytest.raises(ConfigError, match="mixed precisions"):
        fn(*args)


# ---------------------------------------------------------------------------
# op profiler


class TestProfileOps:
    def test_nested_ops_are_counted(self):
        r = rng(33)
        x, w, b = wide(r.standard_normal((6, 4))), wide(r.standard_normal((4, 3))), wide(r.standard_normal(3))
        with pt.profile_ops() as prof:
            y = linear(x, w, b)
            pt.mean_axis(y, 0)
            pt.sum_all(pt.slice_axis(y, 0, 1, 3))
        calls = {op: st.calls for op, st in prof.ops.items()}
        assert calls == {"reshape": 2, "matmul": 1, "add": 1, "sum_axis": 1, "scale": 1, "slice_axis": 1, "sum_all": 1}
        assert prof.ops["matmul"].out_bytes == 6 * 3 * 8
        assert prof.ops["sum_axis"].out_bytes == 3 * 8
        assert all(st.bwd_s == 0.0 for st in prof.ops.values())

    def test_backward_time_lands_on_its_op(self):
        def slow_double(a):
            def bwd(g):
                time.sleep(0.05)
                a.accumulate_grad(2.0 * g)

            return pt._make(a.data * 2.0, (a,), bwd, "slow_double")

        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with pt.profile_ops() as prof:
            loss = pt.sum_all(pt.silu(slow_double(x)))
            loss.backward()
            pt.scale(x, 2.0)
        assert prof.ops["slow_double"].bwd_s >= 0.05
        assert prof.ops["silu"].bwd_s < 0.05 and prof.ops["sum_all"].bwd_s < 0.05
        # the op after backward is not charged with the replay
        assert prof.ops["scale"].fwd_s < 0.05
        assert "slow_double" in prof.table().splitlines()[1]

    def test_off_outside_block_and_restored_after_nesting(self):
        a = wide(np.ones(3))
        with pt.profile_ops() as outer:
            pt.scale(a, 2.0)
            with pt.profile_ops() as inner:
                pt.silu(a)
            pt.scale(a, 2.0)
        pt.silu(a)
        assert set(inner.ops) == {"silu"}
        assert set(outer.ops) == {"scale"} and outer.ops["scale"].calls == 2
        assert pt._profile.get() is None


class TestFlagsPerThread:
    def test_no_grad_in_one_thread_leaves_another_threads_graph(self):
        # One thread sits inside `no_grad` almost all the time, releasing the
        # interpreter while it waits; the other builds y = sum(c * x * x) and
        # checks dy/dx = 2 c x on every iteration.
        stop = threading.Event()
        inside = threading.Event()
        errors = []

        def idler():
            while not stop.is_set():
                with pt.no_grad():
                    inside.set()
                    stop.wait(0.001)

        def builder():
            inside.wait(5.0)
            try:
                for i in range(300):
                    c = float(i % 7 + 1)
                    x = Tensor(np.arange(1.0, 5.0) + i, requires_grad=True)
                    loss = pt.sum_all(pt.scale(pt.mul(x, x), c))
                    loss.backward()
                    np.testing.assert_array_equal(x.grad, 2.0 * c * x.data)
                    time.sleep(0)
            except Exception as e:  # reported from the main thread
                errors.append(e)

        threads = [threading.Thread(target=idler), threading.Thread(target=builder)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            threads[1].join(timeout=30.0)
        finally:
            stop.set()
            threads[0].join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside.is_set()
        assert errors == []

    def test_profile_in_one_thread_records_only_its_own_ops(self):
        a = wide(np.ones(3))
        worker = threading.Thread(target=lambda: [pt.silu(a) for _ in range(50)])
        with pt.profile_ops() as prof:
            worker.start()
            pt.scale(a, 2.0)
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert set(prof.ops) == {"scale"}


# ---------------------------------------------------------------------------
# invariants (property-based)


@settings(max_examples=40, deadline=None)
@given(
    t=st.integers(1, 12),
    stride=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_causal_conv_never_sees_future(t, stride, k, seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((t, 2))
    w = wide(r.standard_normal((1, 2, k)))
    base = causal_conv1d(wide(x), w, taps=np.arange(0, t, stride)).data
    t0 = int(r.integers(0, t))
    xp = x.copy()
    xp[t0] = r.standard_normal(2)
    pert = causal_conv1d(wide(xp), w, taps=np.arange(0, t, stride)).data
    for ti in range(base.shape[0]):
        if ti * stride < t0:
            assert np.array_equal(base[ti], pert[ti])


@settings(max_examples=30, deadline=None)
@given(
    c=st.integers(1, 4),
    t=st.integers(1, 4),
    hw=st.sampled_from([(2, 2), (4, 2), (4, 6)]),
    seed=st.integers(0, 10**6),
)
def test_patchify_round_trip_property(c, t, hw, seed):
    h, w = hw
    x = np.random.default_rng(seed).standard_normal((c, t, h, w))
    toks = patchify(wide(x), (1, 2, 2))
    assert np.array_equal(unpatchify(toks, (c, t, h, w), (1, 2, 2)).data, x)


# ---------------------------------------------------------------------------
# serialization


class TestDumpFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        x = rng(31).standard_normal((3, 5, 2)).astype(np.float32)
        p = tmp_path / "t.want"
        dump_tensor(p, Tensor(x))
        back = load_tensor(p)
        assert np.array_equal(back.data, x)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.want"
        dump_tensor(p, Tensor(np.zeros((2, 3), dtype=np.float32)))
        raw = p.read_bytes()
        assert raw[:4] == b"WANT"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 2
        assert int.from_bytes(raw[20:28], "little") == 3
        assert len(raw) == 28 + 6 * 4

    def test_row_major_payload(self, tmp_path):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        p = tmp_path / "t.want"
        dump_tensor(p, Tensor(x))
        payload = np.frombuffer(p.read_bytes()[28:], dtype="<f4")
        np.testing.assert_array_equal(payload, np.arange(6, dtype=np.float32))

    def test_every_truncation_raises_shape_error(self, tmp_path):
        p = tmp_path / "t.want"
        dump_tensor(p, Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))
        raw = p.read_bytes()
        cut = tmp_path / "cut.want"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ShapeError, match=rf"expected \d+ bytes, file has {n}$"):
                load_tensor(cut)

    def test_array_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="need a Tensor"):
            dump_tensor(tmp_path / "t.want", np.zeros((2, 3), dtype=np.float32))
        assert not (tmp_path / "t.want").exists()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.want"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            load_tensor(p)


def test_error_types_are_distinct():
    # Downstream code catches these separately; keep the hierarchy flat.
    for exc in (ShapeError, ConfigError, ConditioningError, AlignmentError):
        assert issubclass(exc, ValueError)
