"""What the tape keeps: each backward closure holds only node outputs, and the
ops that recompute their intermediates in backward match the formulas that
stored them, bit for bit."""

import itertools
import warnings

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow import face, flow
from puppetflow.model import AnimationModel
from puppetflow.tensor import LN_EPS, Tensor
from puppetflow.train import Clip, train_step
from puppetflow.vae import ToyVAE
from puppetflow.video import LATENT_CHANNELS, frame_ranges, latent_count

from test_face import pixel_crop
from test_model import tiny_cfg


def root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure_arrays(fn):
    """Every array a function's closure reaches, through nested functions, tuples and lists."""
    found, seen, stack = [], set(), [fn]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(cell.cell_contents for cell in v.__closure__)
    return found


def graph_nodes(out):
    """The nodes with a backward closure that `out` reaches, in construction order."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._bwd is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        nodes.append(node)
    return sorted(nodes, key=lambda n: n._id)


def derived_closure_arrays(out):
    """-> ({op: count} of the graph's nodes, [(op, shape)] of float arrays that a
    backward closure holds and that are neither its node's data, a parent's data,
    nor a view of one). Integer and bool arrays (indices, splits) are exempt."""
    ops, derived = {}, []
    for node in graph_nodes(out):
        ops[node._op] = ops.get(node._op, 0) + 1
        own = {id(root(t.data)) for t in (node, *node._parents)}
        derived += [(node._op, a.shape) for a in closure_arrays(node._bwd)
                    if a.dtype.kind == "f" and id(root(a)) not in own]
    return ops, derived


class TestTapeHoldsOnlyNodeOutputs:
    def test_train_step_with_512px_crops(self, monkeypatch):
        cfg = tiny_cfg()
        model = AnimationModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        n_frames, side = 5, 8 * cfg.latent_size
        crops = [pixel_crop(rng.random((3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32))
                 for _ in range(n_frames)]
        shape = (LATENT_CHANNELS, latent_count(n_frames), cfg.latent_size, cfg.latent_size)
        latents = rng.standard_normal(shape).astype(np.float32)
        pose = Tensor(rng.standard_normal(shape).astype(np.float32))
        losses, flow_loss = [], flow.flow_loss

        def keep_loss(*args, **kw):
            losses.append(flow_loss(*args, **kw))
            return losses[-1]

        monkeypatch.setattr(flow, "flow_loss", keep_loss)
        train_step(model, Clip(latents, pose, rng.random((3, side, side), dtype=np.float32), crops), rng)
        ops, derived = derived_closure_arrays(losses[-1])
        assert {"silu", "gelu", "attention", "layer_norm", "conv2d", "silu_conv2d"} <= set(ops)
        assert derived == []

    def test_vae_decode_with_grad(self):
        vae = ToyVAE(np.random.default_rng(0))
        z = Tensor(np.random.default_rng(1).standard_normal((LATENT_CHANNELS, 2, 3, 3)).astype(np.float32),
                   requires_grad=True)
        ops, derived = derived_closure_arrays(vae.decode_tensor(z, frame_ranges(5)))
        assert {"silu", "conv2d", "interleave_phases", "slice_axis"} <= set(ops)
        assert derived == []


def held_node_arrays(out, *inputs):
    """[(op, shape)] of the first graph node, in construction order, to hold
    each distinct buffer the graph's node outputs reach, leaving out the
    buffers of `inputs` (a node that is a view of a buffer held before it,
    such as a reshape, adds nothing)."""
    held, buffers = [], {id(root(t.data)) for t in inputs}
    for node in graph_nodes(out):
        if id(root(node.data)) not in buffers:
            buffers.add(id(root(node.data)))
            held.append((node._op, node.shape))
    return held


@pytest.mark.parametrize("n_crops", [1, 3])
def test_face_encoder_tape_holds_conv_outputs_and_the_last_silu(n_crops):
    """Besides views of the crops, an encode keeps per crop only its six conv
    outputs and the SiLU of the last one: every other SiLU output is a
    temporary of the next conv's node."""
    enc = face.FaceEncoder(np.random.default_rng(0))
    crops = Tensor(np.random.default_rng(1).random((n_crops, 3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32))
    held = held_node_arrays(enc.encode_batch(crops), crops)
    chans, side = face._ENC_CHANNELS, face.FACE_SIZE
    per_crop = [("conv2d" if k == 0 else "silu_conv2d", (1, chans[k + 1], side >> (k + 1), side >> (k + 1)))
                for k in range(6)]
    per_crop.append(("silu", (1, chans[-1], 8, 8)))
    assert [h for h in held if len(h[1]) == 4] == per_crop * n_crops
    assert all(len(shape) <= 2 for _, shape in held if len(shape) != 4)  # pooled features and the head


# The formulas that kept their intermediates on the tape, as oracles. Each
# returns the output and the gradients for output gradient g.
_GELU_C, _GELU_A = pt._GELU_C, pt._GELU_A


def stored_silu(x, g):
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    return x * s, (g * s * (1.0 + x * (1.0 - s)),)


def stored_gelu(x, g):
    th = x * x
    th *= _GELU_C * _GELU_A
    th += _GELU_C
    th *= x
    np.tanh(th, out=th)
    out = th + 1.0
    out *= x
    out *= 0.5
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
    return out, (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du),)


def stored_layer_norm(x, gamma, beta, g):
    d = x.shape[-1]
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    inv /= d
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out = xhat * gamma
    out += beta
    gh = g * gamma
    t1 = gh.sum(axis=-1, keepdims=True)
    t2 = (gh * xhat).sum(axis=-1, keepdims=True)
    gx = inv / d * (d * gh - t1 - xhat * t2)
    return out, (gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


def stored_attention(q, k, v, heads, g):
    lq, lk = q.shape[0], k.shape[0]
    dh, dv = q.shape[1] // heads, v.shape[1] // heads

    def split(a, n, d):
        return a.reshape(n, heads, d).transpose(1, 0, 2)

    c = q.dtype.type(1.0 / np.sqrt(dh))
    qs = q * c
    qh, kh, vh = split(qs, lq, dh), split(k, lk, dh), split(v, lk, dv)
    e = np.matmul(kh, qh.transpose(0, 2, 1))
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    r = e.sum(axis=1)[..., None]
    out = np.empty((lq, heads * dv), dtype=q.dtype)
    oh = split(out, lq, dv)
    np.matmul(e.transpose(0, 2, 1), vh, out=oh)
    oh /= r
    gr = split(g, lq, dv) / r
    gv = np.empty_like(v)
    np.matmul(e, gr, out=split(gv, lk, dv))
    ds = np.matmul(vh, gr.transpose(0, 2, 1))
    ds -= (gr * oh).sum(axis=-1)[:, None, :]
    ds *= e
    gq = np.empty_like(q)
    np.matmul(ds.transpose(0, 2, 1), kh, out=split(gq, lq, dh))
    gq *= c
    gk = np.empty_like(k)
    np.matmul(ds, qh, out=split(gk, lk, dh))
    return out, (gq, gk, gv)


def f32(rng, *shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


# x covers sigmoid saturation (exp(100) overflows float32), tanh saturation and zero
EDGES = np.array([-100.0, -30.0, -8.0, -1e-3, 0.0, 1e-3, 8.0, 30.0, 100.0], dtype=np.float32)


def cases():
    rng = np.random.default_rng(5)
    x = np.concatenate([EDGES, f32(rng, 7 * 24 - EDGES.size, scale=3.0)]).reshape(7, 24)
    gamma, beta = f32(rng, 24) + 1.0, f32(rng, 24)
    q, k, v = f32(rng, 9, 8, scale=2.0), f32(rng, 11, 8, scale=2.0), f32(rng, 11, 12)
    return {
        "silu": ((x,), pt.silu, stored_silu),
        "gelu": ((x,), pt.gelu, stored_gelu),
        "layer_norm": ((x, gamma, beta), pt.layer_norm, stored_layer_norm),
        "attention": ((q, k, v), lambda *ts: pt.attention(*ts, heads=4),
                      lambda *a: stored_attention(*a[:3], 4, a[3])),
    }


@pytest.mark.parametrize("name", ["silu", "gelu", "layer_norm", "attention"])
class TestRecomputeIsBitIdentical:
    def run(self, name):
        arrays, op, oracle = cases()[name]
        ins = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # saturation stays silent in both passes
            y = op(*ins)
            g = f32(np.random.default_rng(6), *y.shape)
            y.backward(g)
            expect_out, expect_grads = oracle(*arrays, g)
        return ins, y, g, expect_out, expect_grads

    def test_forward_and_gradients_equal_the_stored_formula(self, name):
        ins, y, _, expect_out, expect_grads = self.run(name)
        assert y.dtype == np.float32
        assert np.array_equal(y.data, expect_out)
        for t, expect in zip(ins, expect_grads):
            assert t.grad.dtype == np.float32
            assert np.array_equal(t.grad, expect)

    def test_repeated_backward_adds_the_same_gradient(self, name):
        ins, y, g, _, _ = self.run(name)
        first = [t.grad.copy() for t in ins]
        y.backward(g)
        for t, g1 in zip(ins, first):
            assert np.array_equal(t.grad, g1 + g1)


def test_silu_saturates_to_signed_zero_at_minus_100():
    x = Tensor(np.array([-100.0], dtype=np.float32), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = pt.silu(x)
        y.backward(np.ones(1, dtype=np.float32))
    assert y.data[0] == 0.0 and np.signbit(y.data[0])
    assert x.grad[0] == 0.0


class TestFirstAccumulation:
    def test_negative_zero_becomes_positive_zero(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        t.accumulate_grad(np.array([-0.0, 0.0, -0.0], dtype=np.float32))
        assert not np.signbit(t.grad).any()

    def test_wide_gradient_rounds_once_to_narrow(self):
        t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        g = np.array([1.0 + 2.0**-30, 1.0 / 3.0])
        t.accumulate_grad(g)
        assert t.grad.dtype == np.float32
        assert np.array_equal(t.grad, g.astype(np.float32))

    def test_broadcasts_into_the_data_shape(self):
        t = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        t.accumulate_grad(np.float32(2.5))
        assert t.grad.shape == (2, 3) and (t.grad == 2.5).all()
        t.accumulate_grad(np.arange(3, dtype=np.float32))
        assert np.array_equal(t.grad, [[2.5, 3.5, 4.5]] * 2)

    def test_grad_owns_its_buffer(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.ones(3, dtype=np.float32)
        t.accumulate_grad(g)
        t.accumulate_grad(g)
        assert np.array_equal(g, np.ones(3)) and np.array_equal(t.grad, [2.0, 2.0, 2.0])


class TestSiluConv2dIsConvOfSilu:
    """`silu_conv2d` against the two-node `conv2d(silu(x))`, bit for bit."""

    @pytest.mark.parametrize("trainable", list(itertools.product([False, True], repeat=3)),
                             ids=lambda t: "".join(n if on else "-" for n, on in zip("xwb", t)))
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_output_and_gradients(self, stride, pad, trainable):
        rng = np.random.default_rng(7)
        x = np.concatenate([EDGES, f32(rng, 2 * 3 * 7 * 6 - EDGES.size, scale=3.0)]).reshape(2, 3, 7, 6)
        arrays = (x, f32(rng, 4, 3, 3, 3), f32(rng, 4))

        def run(op):
            ins = [Tensor(a.copy(), requires_grad=on) for a, on in zip(arrays, trainable)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # saturation stays silent in both passes
                y = op(*ins)
                y.backward(f32(np.random.default_rng(8), *y.shape))
            return y, ins

        y, ins = run(lambda x, w, b: pt.silu_conv2d(x, w, b, stride=stride, pad=pad))
        expect, expect_ins = run(lambda x, w, b: pt.conv2d(pt.silu(x), w, b, stride=stride, pad=pad))
        assert y.dtype == np.float32 and np.array_equal(y.data, expect.data)
        for t, e, on in zip(ins, expect_ins, trainable):
            if on:
                assert t.grad.dtype == np.float32 and np.array_equal(t.grad, e.grad)
            else:
                assert t.grad is None and e.grad is None
