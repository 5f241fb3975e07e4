"""Dense tensors with reverse-mode differentiation.

Storage is a row-major numpy array in one of two precisions: float64 ("wide",
used for gradient checks and oracles) and float32 ("narrow", used for
training). Parameters are narrow, made by `param`; a model's precision is read
from its parameters, and tests reach wide precision by widening them in place.
Ops never broadcast except for the trailing-dim vector special case in
`add`/`mul` (bias / channel gain); every other shape mismatch raises
ShapeError naming both shapes. Tensors are value-semantic; the gradient graph
is confined to the thread that built it. The `no_grad`, `finite_checks` and
`profile_ops` blocks are context variables, so each acts on its own thread.
"""

from __future__ import annotations

import itertools
import math
import struct
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

WIDE = np.float64
NARROW = np.float32

class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class ConfigError(ValueError):
    """A structural parameter (kernel size, stride, probability...) is invalid."""


class ConditioningError(ValueError):
    """A conditioning structure is malformed (e.g. a pack with nothing to generate)."""


class AlignmentError(ValueError):
    """Two sequences that must share a timeline do not."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared where finiteness is guaranteed."""


_ids = itertools.count()
# Per-context tape flags: each thread starts from the defaults, so one
# thread's `no_grad` or `profile_ops` block never reaches another's graph.
_grad_enabled = ContextVar("grad_enabled", default=True)
_finite_checks = ContextVar("finite_checks", default=False)
_profile = ContextVar("profile", default=None)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


@contextmanager
def finite_checks():
    """Validate every op output for NaN/Inf inside the block."""
    token = _finite_checks.set(True)
    try:
        yield
    finally:
        _finite_checks.reset(token)


@dataclass
class OpStats:
    calls: int = 0
    fwd_s: float = 0.0
    bwd_s: float = 0.0
    out_bytes: int = 0


class OpProfile:
    """Per-op-name totals recorded inside `profile_ops`.

    An op's forward time is the wall time from the previous recorded event
    (entering the block, another op's output, a backward closure returning)
    to its own output, so numpy work a caller does between ops is charged to
    the next op. Backward time is each op's own closure, timed on its own,
    including closures replayed after the block has exited.
    """

    def __init__(self):
        self.ops: dict[str, OpStats] = {}
        self._mark = time.perf_counter()

    def _forward(self, op, out, bwd):
        now = time.perf_counter()
        st = self.ops.setdefault(op, OpStats())
        st.calls += 1
        st.fwd_s += now - self._mark
        st.out_bytes += out.nbytes
        self._mark = now
        if bwd is None:
            return None

        def timed(g):
            t0 = time.perf_counter()
            bwd(g)
            self._mark = time.perf_counter()
            st.bwd_s += self._mark - t0

        return timed

    def table(self) -> str:
        """One line per op, slowest (forward + backward) first."""
        rows = sorted(self.ops.items(), key=lambda kv: kv[1].fwd_s + kv[1].bwd_s, reverse=True)
        lines = [f"{'op':<14}{'calls':>7}{'fwd_s':>10}{'bwd_s':>10}{'out_mb':>10}"]
        for op, st in rows:
            lines.append(f"{op:<14}{st.calls:>7}{st.fwd_s:>10.4f}{st.bwd_s:>10.4f}{st.out_bytes / 1e6:>10.1f}")
        return "\n".join(lines)


@contextmanager
def profile_ops():
    """Record calls, forward and backward seconds and output bytes per op.

    Yields the `OpProfile` being filled. A nested block fills its own
    profile only. Outside any block the only cost is one flag check in
    `_make`.
    """
    prev = _profile.get()
    prof = OpProfile()
    token = _profile.set(prof)
    try:
        yield prof
    finally:
        _profile.reset(token)
        if prev is not None:
            prev._mark = time.perf_counter()


class Tensor:
    """A rank-N real array, optionally participating in the gradient tape.

    `grad` mirrors `data`'s shape once backward has run. Only leaves keep it:
    `backward` drops each intermediate gradient once it has been used. Graph
    nodes record their parents and a backward closure; `backward` replays
    nodes in reverse construction order, which is a valid topological order
    because every op is constructed after its inputs. A closure keeps only
    its node's output and its parents' data (or views of them): an op
    recomputes in backward whatever else it derived in forward, so the tape
    holds exactly the node outputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bwd", "_op", "_id")

    def __init__(self, data, requires_grad=False, _parents=(), _bwd=None, _op="leaf"):
        if not isinstance(data, np.ndarray):  # a numpy float scalar keeps its precision
            data = np.asarray(data, dtype=data.dtype if isinstance(data, np.floating) else NARROW)
        if data.dtype not in (WIDE, NARROW):
            raise ConfigError(f"unsupported dtype {data.dtype}; use float32 or float64")
        # ascontiguousarray would give a 0-d array one dimension
        self.data = data if data.flags.c_contiguous else np.ascontiguousarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._bwd = _bwd
        self._op = _op
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self._op})"

    def item(self):
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g):
        if self.grad is None:  # g + 0.0 in one pass: -0.0 becomes +0.0, and a wide g rounds once
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Reverse-mode pass seeded at this tensor.

        Visits each reachable graph node exactly once, in reverse construction
        order; accumulation into shared inputs is additive. A node's gradient
        is dropped as soon as its backward closure has consumed it, so only
        leaves keep `grad`, and a repeated call adds exactly the same
        gradient to them again.
        """
        if grad is None:
            if self.size != 1:
                raise ShapeError(f"implicit backward seed needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        nodes = []
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._bwd is not None:
                nodes.append(node)
                stack.extend(node._parents)
        nodes.sort(key=lambda n: n._id, reverse=True)
        self.accumulate_grad(grad)
        for node in nodes:
            node._bwd(node.grad)
            node.grad = None


def param(values) -> Tensor:
    """A trainable parameter: a narrow (float32) leaf that requires grad."""
    return Tensor(np.array(values, dtype=NARROW), requires_grad=True)


def _make(data, parents, bwd, op):
    if _finite_checks.get() and not np.isfinite(data).all():
        raise NumericalError(f"non-finite output of op '{op}'")
    track = _grad_enabled.get() and any(p.requires_grad for p in parents)
    profile = _profile.get()
    if profile is not None:
        bwd = profile._forward(op, data, bwd if track else None)
    if not track:
        return Tensor(data, _op=op)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _bwd=bwd, _op=op)


def _same_dtype(op, *ts):
    d = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d:
            raise ConfigError(f"{op}: mixed precisions {d} and {t.data.dtype}")
    return d


def _check_whole(op, **named):
    """ConfigError unless each named value is an int or a numpy integer; a
    tuple is checked entry by entry."""
    for name, value in named.items():
        if not all(isinstance(v, (int, np.integer)) for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{op}: {name} must be a whole number, got {value!r}")


def _trailing_ok(a, b):
    return b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]


def _sum_to_trailing(g, n):
    return g.reshape(-1, n).sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may also be a trailing-dim vector (bias).

    A leaf with `requires_grad=False` is a constant here and in every op:
    backward never accumulates into it.
    """
    _same_dtype("add", a, b)
    if a.shape != b.shape and not _trailing_ok(a, b):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g if b.shape == a.shape else _sum_to_trailing(g, b.shape[0]))

    return _make(out, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("sub", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    out = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return _make(out, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; `b` may also be a trailing-dim vector (gain/gate)."""
    _same_dtype("mul", a, b)
    if a.shape != b.shape and not _trailing_ok(a, b):
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            gb = g * a.data
            b.accumulate_grad(gb if b.shape == a.shape else _sum_to_trailing(gb, b.shape[0]))

    return _make(out, (a, b), bwd, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)

    def bwd(g):
        a.accumulate_grad(g * s)

    return _make(a.data * s, (a,), bwd, "scale")


def add_scalar(a: Tensor, s: float) -> Tensor:
    def bwd(g):
        a.accumulate_grad(g)

    return _make(a.data + a.data.dtype.type(s), (a,), bwd, "add_scalar")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of [M, K] and [K, N]."""
    _same_dtype("matmul", a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape} is not [M, K] x [K, N]")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.matmul(g, b.data.T))
        if b.requires_grad:
            b.accumulate_grad(np.matmul(a.data.T, g))

    return _make(out, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b. x is [..., D_in] flattened to 2D internally."""
    lead = x.shape[:-1]
    y = add(matmul(reshape(x, (-1, x.shape[-1])), w), b)
    return reshape(y, lead + (w.shape[1],))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {shape}") from e

    def bwd(g):
        a.accumulate_grad(g.reshape(a.shape))

    return _make(out, (a,), bwd, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    _check_whole("transpose", axes=axes)
    try:
        out = np.ascontiguousarray(a.data.transpose(axes))
    except ValueError as e:  # repeated, missing or out-of-range axes
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}") from e
    inv = tuple(np.argsort(axes))

    def bwd(g):
        a.accumulate_grad(g.transpose(inv))

    return _make(out, (a,), bwd, "transpose")


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    _check_whole("concat", axis=axis)
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:  # no parts, an axis out of range or mismatched shapes
        raise ShapeError(f"concat: cannot join shapes {[p.shape for p in parts]} on axis {axis}") from e
    _same_dtype("concat", *parts)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def bwd(g):
        for p, gp in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                p.accumulate_grad(gp)

    return _make(out, tuple(parts), bwd, "concat")


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """a[..., start:stop, ...] along `axis`, without a copy where numpy allows.

    A leading-axis slice of a contiguous array is itself contiguous, so the
    result is a view that shares memory with `a`; any other slice is copied
    into a contiguous array by `Tensor`.
    """
    _check_whole("slice_axis", axis=axis, start=start, stop=stop)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"slice axis {axis} out of range for {a.ndim}-d shape {a.shape}")
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a.accumulate_grad(full)

    return _make(out, (a,), bwd, "slice_axis")


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def bwd(g):
        a.accumulate_grad(np.full_like(a.data, g))

    return _make(out, (a,), bwd, "sum_all")


def sum_axis(a: Tensor, axis: int) -> Tensor:
    _check_whole("sum_axis", axis=axis)
    try:
        out = a.data.sum(axis=axis)
    except ValueError as e:  # numpy's AxisError
        raise ShapeError(f"sum_axis: axis {axis} out of range for shape {a.shape}") from e

    def bwd(g):
        a.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _make(out, (a,), bwd, "sum_axis")


def mean_axis(a: Tensor, axis: int) -> Tensor:
    return scale(sum_axis(a, axis), 1.0 / a.shape[axis])


def _sigmoid_np(x):
    """1 / (1 + exp(-x)), built in place in one new buffer."""
    s = np.negative(x)
    with np.errstate(over="ignore"):  # exp overflow for very negative x saturates to 0.0, which is exact
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_np(x):
    """x * sigmoid(x), built in place in one new buffer."""
    out = _sigmoid_np(x)
    out *= x
    return out


def _silu_grad(x, s, g):
    """g * s * (1 + x (1 - s)), the input gradient of silu at x for output
    gradient g, from the sigmoid s of x; built in place on s."""
    t = np.subtract(1.0, s)
    t *= x
    t += 1.0
    s *= g
    s *= t
    return s


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). Backward recomputes the sigmoid rather than keep it."""

    def bwd(g):
        a.accumulate_grad(_silu_grad(a.data, _sigmoid_np(a.data), g))

    return _make(_silu_np(a.data), (a,), bwd, "silu")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(x):
    """tanh(x * (C + C*A*x^2)), built in place in one new buffer.

    Powers are written as products: float32 `x**3` runs numpy's generic
    `power` loop, about 200x slower than `x * x * x`.
    """
    th = x * x
    th *= _GELU_C * _GELU_A
    th += _GELU_C
    th *= x
    return np.tanh(th, out=th)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(x (C + C*A*x^2))).

    The output is built in place on the tanh buffer; backward recomputes
    the tanh rather than keep it.
    """
    x = a.data
    out = _gelu_tanh(x)
    out += 1.0
    out *= x
    out *= 0.5

    def bwd(g):
        # g * (0.5 (1 + th) + 0.5 x (1 - th^2) du), du = C (1 + 3A x^2), in four buffers
        th = _gelu_tanh(x)
        du = x * x
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        dt = th * th
        np.subtract(1.0, dt, out=dt)
        dt *= 0.5 * x
        dt *= du
        th += 1.0
        th *= 0.5
        th += dt
        th *= g
        a.accumulate_grad(th)

    return _make(out, (a,), bwd, "gelu")


def powc(a: Tensor, p: float) -> Tensor:
    """Elementwise power with constant exponent. Caller guarantees domain."""
    with np.errstate(over="ignore"):
        out = a.data**p

    def bwd(g):
        a.accumulate_grad(g * p * a.data ** (p - 1.0))

    return _make(out.astype(a.data.dtype), (a,), bwd, "powc")


LN_EPS = 1e-5  # added to the variance in `layer_norm`


def _normalize(x):
    """-> (xhat, inv): x centred and scaled over the last axis, in place in
    one new buffer, and the inverse standard deviation [..., 1]."""
    d = x.shape[-1]
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    inv /= d
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    return xhat, inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalization over the last axis with gain `gamma` and bias `beta`.

    Gain and bias may be graph nodes, so adaLN is one call:
    `layer_norm(x, add_scalar(scale, 1.0), shift)`. The variance gets
    `LN_EPS` added before the square root. Backward recomputes the
    normalized input and the inverse deviation rather than keep them.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: params {gamma.shape}/{beta.shape} do not match feature dim {d}")
    _same_dtype("layer_norm", x, gamma, beta)
    out, _ = _normalize(x.data)
    out *= gamma.data
    out += beta.data

    def bwd(g):
        if gamma.requires_grad or x.requires_grad:
            xhat, inv = _normalize(x.data)
        if gamma.requires_grad:
            gamma.accumulate_grad(_sum_to_trailing(g * xhat, d))
        if beta.requires_grad:
            beta.accumulate_grad(_sum_to_trailing(g, d))
        if x.requires_grad:
            gh = g * gamma.data
            t1 = gh.sum(axis=-1, keepdims=True)
            t2 = (gh * xhat).sum(axis=-1, keepdims=True)
            gh *= d  # inv / d * (d gh - t1 - xhat t2), in place
            gh -= t1
            xhat *= t2
            gh -= xhat
            gh *= inv / d
            x.accumulate_grad(gh)

    return _make(out, (x, gamma, beta), bwd, "layer_norm")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d_h)) v as one tape node.

    q [Lq, D], k [Lk, D], v [Lk, Dv] -> [Lq, Dv]. Head h owns columns
    [h*D/heads, (h+1)*D/heads) of q and k and the matching slice of v; the
    heads are strided views, so no transpose is copied. The logits are built
    keys-major, [heads, Lk, Lq], from q pre-scaled by 1/sqrt(d_h), so the max
    and the sum over keys reduce over the outer axis, one contiguous row at a
    time. The normalized weights are never stored: the division by the sums
    comes after the product with v, and backward recomputes the scaled q,
    the exponentiated, max-shifted logits and their sums rather than keep
    them (as FlashAttention does, Dao et al. 2022).
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention: expected 2D q/k/v, got {q.shape}/{k.shape}/{v.shape}")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: shapes {q.shape}/{k.shape}/{v.shape} inconsistent")
    _same_dtype("attention", q, k, v)
    _check_whole("attention", heads=heads)
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise ConfigError(f"attention: {heads} heads do not divide widths {q.shape[1]} and {v.shape[1]}")
    lq, lk = q.shape[0], k.shape[0]
    dh, dv = q.shape[1] // heads, v.shape[1] // heads

    def split(a, n, d):  # [n, heads*d] -> strided view [heads, n, d]
        return a.reshape(n, heads, d).transpose(1, 0, 2)

    c = q.data.dtype.type(1.0 / np.sqrt(dh))
    kh, vh = split(k.data, lk, dh), split(v.data, lk, dv)

    def scores():  # -> scaled q heads, exp(logits - max) [heads, Lk, Lq], sums [heads, Lq, 1]
        qh = split(q.data * c, lq, dh)
        e = np.matmul(kh, qh.transpose(0, 2, 1))
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        return qh, e, e.sum(axis=1)[..., None]

    _, e, r = scores()
    out = np.empty((lq, heads * dv), dtype=q.data.dtype)
    oh = split(out, lq, dv)
    np.matmul(e.transpose(0, 2, 1), vh, out=oh)
    oh /= r

    def bwd(g):
        qh, e, r = scores()
        gr = split(g, lq, dv) / r  # g scaled by the normalizer, [heads, Lq, dv]
        if v.requires_grad:
            gv = np.empty_like(v.data)
            np.matmul(e, gr, out=split(gv, lk, dv))
            v.accumulate_grad(gv)
        if not (q.requires_grad or k.requires_grad):
            return
        # dS = P * (v g^T - colsum(g * O)), keys-major, with P = e / r folded into gr
        ds = np.matmul(vh, gr.transpose(0, 2, 1))
        ds -= (gr * oh).sum(axis=-1)[:, None, :]
        ds *= e
        if q.requires_grad:
            gq = np.empty_like(q.data)
            np.matmul(ds.transpose(0, 2, 1), kh, out=split(gq, lq, dh))
            gq *= c
            q.accumulate_grad(gq)
        if k.requires_grad:
            gk = np.empty_like(k.data)
            np.matmul(ds, qh, out=split(gk, lk, dh))
            k.accumulate_grad(gk)

    return _make(out, (q, k, v), bwd, "attention")


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """[N, D] -> [len(idx), D], row i = a[idx[i]]; indices may repeat."""
    idx = np.asarray(idx)
    if a.ndim != 2 or idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeError(f"take_rows: need [N, D] rows and 1D integer indices, got {a.shape} and {idx.shape} {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take_rows: indices [{idx.min()}, {idx.max()}] outside [0, {a.shape[0]})")
    out = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a.accumulate_grad(ga)

    return _make(out, (a,), bwd, "take_rows")


# ---------------------------------------------------------------------------
# convolutions
#
# `conv2d` and `silu_conv2d` share one input check (`_conv_geometry`), one
# forward (`_conv_bias_forward`) and the two backward GEMM helpers. A conv
# node keeps its input, weights and bias; `silu_conv2d` keeps x, not
# silu(x), which it rebuilds in backward.


_COLUMN_BLOCK_BYTES = 2**19  # window copy per GEMM in the conv forward


def _conv_forward(xp, w2, kh, kw, stride, ho, wo):
    """Conv forward, padded xp [N,Ci,Hp,Wp] and w2 [Co,Ci*K*K] -> [N,Co,Ho,Wo].

    Output rows run in blocks whose kernel windows fill at most
    `_COLUMN_BLOCK_BYTES` (one output row at the least); each block copies its
    windows into columns [N, Ci*K*K, rows*Wo] and runs one GEMM straight into
    its rows of the output.
    """
    n, ci = xp.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.transpose(0, 1, 4, 5, 2, 3)  # [N, Ci, K, K, Ho, Wo]
    out = np.empty((n, w2.shape[0], ho * wo), dtype=np.result_type(w2, xp))
    rows = max(1, _COLUMN_BLOCK_BYTES // (n * ci * kh * kw * wo * xp.itemsize))
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        cols = win[..., r0:r1, :].reshape(n, ci * kh * kw, (r1 - r0) * wo)
        np.matmul(w2, cols, out=out[:, :, r0 * wo : r1 * wo])
    return out.reshape(n, -1, ho, wo)


def _conv2d_weight_grad(x, g, kh, kw, stride, pad):
    """dL/dw [Co,Ci,K,K] of a conv2d from input x and output gradient g.

    The padded input splits into its stride**2 phases [N, Ci, Hq, Wq], copied
    straight from x; at stride 1 the single phase is the padded input. Tap
    (ky, kx) reads phase (ky % s, kx % s) from flat offset (ky//s)*Wq + kx//s
    on, so with g zero-padded to [N, Co, Hq, Wq] every tap is one batched GEMM
    of g against a contiguous shifted slice. The padded columns of g are
    zero, so no output row bleeds into the next.
    """
    n, co, ho, wo = g.shape
    _, ci, h, wd = x.shape
    s = stride
    hq, wq = -(-(h + 2 * pad) // s), -(-(wd + 2 * pad) // s)
    phases = np.zeros((s, s, n, ci, hq, wq), dtype=x.dtype)
    for py in range(s):
        i0 = -(-(pad - py) // s)  # first phase row inside the frame
        for px in range(s):
            j0 = -(-(pad - px) // s)
            src = x[:, :, py + s * i0 - pad :: s, px + s * j0 - pad :: s]
            phases[py, px, :, :, i0 : i0 + src.shape[2], j0 : j0 + src.shape[3]] = src
    phases = phases.reshape(s, s, n, ci, hq * wq)
    gp = np.zeros((n, co, hq, wq), dtype=g.dtype)
    gp[:, :, :ho, :wo] = g
    span = (ho - 1) * wq + wo
    gp = gp.reshape(n, co, hq * wq)[:, :, :span]
    gw = np.empty((co, ci, kh, kw), dtype=np.result_type(x.dtype, g.dtype))
    for ky in range(kh):
        for kx in range(kw):
            off = (ky // s) * wq + kx // s
            src = phases[ky % s, kx % s, :, :, off : off + span]
            gw[:, :, ky, kx] = np.matmul(gp, src.transpose(0, 2, 1)).sum(axis=0)
    return gw


def _conv2d_input_grad(w, g, x_shape, stride, pad):
    """dL/dx [N,Ci,H,W] of a conv2d from weights w and output gradient g.

    One GEMM of the taps [K*K*Ci, Co] over the output gradient, scattered
    back into the padded input with one contiguous add per tap; the result
    is a view of the padded buffer.
    """
    n, co, ho, wo = g.shape
    _, ci, kh, kw = w.shape
    h, wd = x_shape[2:]
    taps = w.transpose(2, 3, 1, 0).reshape(kh * kw * ci, co)
    gcols = np.matmul(taps, g.reshape(n, co, ho * wo)).reshape(n, kh, kw, ci, ho, wo)
    gxp = np.zeros((n, ci, h + 2 * pad, wd + 2 * pad), dtype=g.dtype)
    for ky in range(kh):
        for kx in range(kw):
            gxp[:, :, ky : ky + ho * stride : stride, kx : kx + wo * stride : stride] += gcols[:, ky, kx]
    return gxp[:, :, pad : pad + h, pad : pad + wd]


def _check_conv_operands(op, x, w, b):
    if b.shape != (w.shape[0],):
        raise ShapeError(f"{op}: bias {b.shape} does not match {w.shape[0]} output channels")
    _same_dtype(op, x, w, b)


def _conv_geometry(op, x, w, b, stride, pad):
    """-> (Ho, Wo) of a conv of x by w with this stride and pad, after checking
    that the stride and pad are whole numbers (ConfigError) and that the
    operands fit together (ShapeError)."""
    _check_whole(op, stride=stride, pad=pad)
    if stride < 1 or pad < 0:
        raise ConfigError(f"{op}: need stride >= 1 and pad >= 0, got stride {stride}, pad {pad}")
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"{op}: shapes {x.shape} and {w.shape} incompatible")
    _check_conv_operands(op, x, w, b)
    ho = (x.shape[2] + 2 * pad - w.shape[2]) // stride + 1
    wo = (x.shape[3] + 2 * pad - w.shape[3]) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"{op}: kernel {w.shape} too large for input {x.shape} with pad {pad}")
    return ho, wo


def _conv_bias_forward(x, w, b, stride, pad, ho, wo):
    """conv of the array x by w plus bias b, x padded by `pad` zeros first."""
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    out = _conv_forward(xp, w.reshape(co, -1), kh, kw, stride, ho, wo)
    out += b.reshape(1, co, 1, 1)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2D convolution plus bias, x [N,Ci,H,W], w [Co,Ci,K,K], b [Co].

    Every layout is channel-major, so GEMM results land in NCHW without a
    transpose copy. The forward is the same at every stride: it copies the
    windows of a block of output rows at a time into columns and runs one
    GEMM of the weights [Co, Ci*K*K] per block (`_conv_forward`).

    Backward builds no columns. The weight gradient runs one batched GEMM
    per tap of the output gradient against a contiguous shifted slice of the
    padded input's stride phases (`_conv2d_weight_grad`). The input gradient
    is one GEMM of the taps over the output gradient, scattered back with
    one contiguous add per tap (`_conv2d_input_grad`).
    """
    ho, wo = _conv_geometry("conv2d", x, w, b, stride, pad)
    kh, kw = w.shape[2:]

    def bwd(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            w.accumulate_grad(_conv2d_weight_grad(x.data, g, kh, kw, stride, pad))
        if x.requires_grad:
            x.accumulate_grad(_conv2d_input_grad(w.data, g, x.shape, stride, pad))

    return _make(_conv_bias_forward(x.data, w.data, b.data, stride, pad, ho, wo), (x, w, b), bwd, "conv2d")


def silu_conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """conv2d(silu(x), w, b, stride, pad) as one tape node, bit for bit.

    The SiLU output is a temporary of the forward, so the tape keeps only x,
    not x and silu(x), of a conv that follows a SiLU (pre-activation
    ordering, He et al. 2016). Backward recomputes the sigmoid once (as in
    gradient checkpointing, Chen et al. 2016), rebuilds silu(x) from it for
    the weight gradient, and takes the input gradient through `silu`'s
    formula in `silu`'s op order.
    """
    ho, wo = _conv_geometry("silu_conv2d", x, w, b, stride, pad)
    kh, kw = w.shape[2:]

    def bwd(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if not (w.requires_grad or x.requires_grad):
            return
        s = _sigmoid_np(x.data)
        if w.requires_grad:
            w.accumulate_grad(_conv2d_weight_grad(s * x.data, g, kh, kw, stride, pad))
        if x.requires_grad:
            x.accumulate_grad(_silu_grad(x.data, s, _conv2d_input_grad(w.data, g, x.shape, stride, pad)))

    out = _conv_bias_forward(_silu_np(x.data), w.data, b.data, stride, pad, ho, wo)
    return _make(out, (x, w, b), bwd, "silu_conv2d")


# Along one axis, a 3x3 kernel over a nearest-2x upsampled input reads, for
# output row 2p + a, low-res row p - 1 + a + t with its kernel rows
# _PHASE_ROWS[a, t]: phase 0 sums rows {0} and {1, 2}, phase 1 rows {0, 1}
# and {2}. _PHASE_MIX maps the 9 taps (ky, kx) to the 16 phase taps
# (a, b, ty, tx).
_PHASE_ROWS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=float)
_PHASE_MIX = np.einsum("atk,bsl->abtskl", _PHASE_ROWS, _PHASE_ROWS).reshape(16, 9)


def _interleave_phases(y: Tensor) -> Tensor:
    """[N, 4*Co, H+1, W+1] phase planes -> [N, Co, 2H, 2W], moving data only.

    Output channel c at (2p+a, 2q+b) is channel (2a+b)*Co + c of `y` at (p+a, q+b).
    """
    n, c4, h1, w1 = y.shape
    co, h, wd = c4 // 4, h1 - 1, w1 - 1
    planes = [(a, b, np.s_[:, a, b, :, a : a + h, b : b + wd]) for a in range(2) for b in range(2)]
    src = y.data.reshape(n, 2, 2, co, h1, w1)
    out = np.empty((n, co, h, 2, wd, 2), dtype=y.data.dtype)
    for a, b, idx in planes:
        out[:, :, :, a, :, b] = src[idx]

    def bwd(g):
        gph = g.reshape(n, co, h, 2, wd, 2)
        gy = np.zeros(src.shape, dtype=g.dtype)
        for a, b, idx in planes:
            gy[idx] = gph[:, :, :, a, :, b]
        y.accumulate_grad(gy.reshape(y.shape))

    return _make(out.reshape(n, co, 2 * h, 2 * wd), (y,), bwd, "interleave_phases")


def _upsample_conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """conv2d(nearest 2x upsample of x, w, b, stride=1, pad=1) for 3x3 `w`.

    x [N,Ci,H,W], w [Co,Ci,3,3] -> [N,Co,2H,2W], without the upsampled
    tensor (sub-pixel convolution, Shi et al. 2016). Output pixel (2p+a,
    2q+b) sees only low-res rows p-1..p+1 and columns q-1..q+1, so each of
    the four output phases (a, b) is a 2x2 conv over the padded low-res input
    whose taps sum the 3x3 taps reading the same low-res pixel (`_PHASE_MIX`).
    Built from tape ops: one `matmul` mixes the taps, one 2x2 `conv2d` with
    pad 1 runs the four phases as 4*Co output channels, and
    `_interleave_phases` places them. That is about 16/36 of the
    multiply-adds of the 3x3 conv over the upsampled input, and the summed
    taps round differently from it.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"upsample_conv2d: shapes {x.shape} and {w.shape} incompatible")
    if w.shape[2:] != (3, 3):
        raise ConfigError(f"upsample_conv2d: kernel must be 3x3, got {w.shape[2]}x{w.shape[3]}")
    _check_conv_operands("upsample_conv2d", x, w, b)
    co, ci = w.shape[:2]
    mix = Tensor(_PHASE_MIX.T.astype(w.data.dtype))
    taps = reshape(matmul(reshape(w, (co * ci, 9)), mix), (co, ci, 2, 2, 2, 2))  # [Co, Ci, a, b, ty, tx]
    taps = reshape(transpose(taps, (2, 3, 0, 1, 4, 5)), (4 * co, ci, 2, 2))
    return _interleave_phases(conv2d(x, taps, concat([b] * 4, axis=0), pad=1))


def causal_conv1d(x: Tensor, kernel: Tensor, taps=None) -> Tensor:
    """1D causal convolution, time-major: x [T,Ci], kernel [Co,Ci,K] -> [len(taps), Co].

    `taps`, a non-empty list of integer input positions, defaults to every
    position 0..T-1. Left padding of K-1 zeros only, so the output for tap p
    depends only on x[p-K+1 : p+1]. Built from tape ops: the input under K-1
    zero rows, one `take_rows` of every tap's window, and one `matmul` by the
    kernel.
    """
    if kernel.ndim != 3 or x.ndim != 2:
        raise ShapeError(f"causal_conv1d: shapes {x.shape} and {kernel.shape} unsupported")
    co, ci, kk = kernel.shape
    if kk <= 0:
        raise ConfigError(f"causal_conv1d: kernel size must be positive, got {kk}")
    if x.shape[1] != ci:
        raise ShapeError(f"causal_conv1d: input channels {x.shape[1]} != kernel channels {ci}")
    t_in = x.shape[0]
    taps = np.arange(t_in) if taps is None else np.asarray(taps)
    if taps.ndim != 1 or not taps.size or taps.dtype.kind not in "iu" or taps.min() < 0 or taps.max() >= t_in:
        raise ShapeError(f"causal_conv1d: taps {taps.tolist()} are not a non-empty list of integers in [0, {t_in})")
    pad = Tensor(np.zeros((kk - 1, ci), dtype=x.data.dtype))
    xp = concat([pad, x], axis=0)  # [K-1+T, Ci]; padded row p+k is raw p-K+1+k
    win = reshape(take_rows(xp, (taps[:, None] + np.arange(kk)).reshape(-1)), (taps.size, kk * ci))
    wk = reshape(transpose(kernel, (2, 1, 0)), (kk * ci, co))
    return matmul(win, wk)


# ---------------------------------------------------------------------------
# patchify


def _check_patch(dims, patch):
    if len(dims) != 4 or any(p < 1 or d % p for d, p in zip(dims[1:], patch)):
        raise ShapeError(f"patchify: dims {tuple(dims)} are not [C, T, H, W] divisible by positive patch {patch}")


def patchify(latent: Tensor, patch) -> Tensor:
    """[C,T,H,W] -> [T/pt * H/ph * W/pw, C*pt*ph*pw], token order (t,h,w)."""
    _check_patch(latent.shape, patch)
    c, t, h, w = latent.shape
    pt, ph, pw = patch
    x = reshape(latent, (c, t // pt, pt, h // ph, ph, w // pw, pw))
    x = transpose(x, (1, 3, 5, 0, 2, 4, 6))
    return reshape(x, ((t // pt) * (h // ph) * (w // pw), c * pt * ph * pw))


def unpatchify(tokens: Tensor, dims, patch) -> Tensor:
    """Exact inverse of `patchify` for the given dims."""
    _check_patch(dims, patch)
    c, t, h, w = dims
    pt, ph, pw = patch
    x = reshape(tokens, (t // pt, h // ph, w // pw, c, pt, ph, pw))
    x = transpose(x, (3, 0, 4, 1, 5, 2, 6))
    return reshape(x, (c, t, h, w))


# ---------------------------------------------------------------------------
# serialization: "WANT" dump, bit-exact float32 row-major

_MAGIC = b"WANT"
_VERSION = 1


def dump_tensor(path, t: Tensor) -> None:
    if not isinstance(t, Tensor):
        raise ConfigError(f"dump_tensor: need a Tensor, got {type(t).__name__}")
    arr = np.ascontiguousarray(t.data, dtype="<f4")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes())


def load_tensor(path) -> Tensor:
    """Read a `dump_tensor` file as a float32 leaf."""
    with open(path, "rb") as f:
        raw = f.read()

    def need(n, part):
        if len(raw) < n:
            raise ShapeError(f"{path}: truncated {part}: expected {n} bytes, file has {len(raw)}")

    if raw[:4] != _MAGIC[: len(raw)]:
        raise ConfigError(f"{path}: bad magic {raw[:4]!r}")
    need(12, "header")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != _VERSION:
        raise ConfigError(f"{path}: unsupported version {version}")
    off = 12 + 8 * rank
    need(off, "header")
    dims = struct.unpack_from(f"<{rank}Q", raw, 12)
    n = math.prod(dims)
    need(off + 4 * n, "payload")
    try:
        data = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(dims)
    except ValueError as e:  # more axes than numpy allows, or a zero-size shape too large to index
        raise ShapeError(f"{path}: cannot make an array of shape {dims}: {e}") from e
    return Tensor(data.astype(NARROW))
