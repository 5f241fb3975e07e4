"""Anti-aliased primitives for both pose frames and puppet scenes.

Capsules and ellipses are drawn here alone: a coverage is computed once over
a clipped bounding box and `_blend` composites it, optionally raising a mask.
The coverage is evaluated on broadcast axes, a column of the box's rows and a
row of its columns, so the first binary op builds the 2D alpha and no index
grid is materialised; each pixel sees the same operations as on a full grid.
A pose frame draws each limb as a capsule in a unique color and each joint as
a disc in its parent limb's color, 4 px wide on a 256 px canvas and scaled
with it, in a fixed order, so outputs never depend on evaluation order. The
colors are the read-only constant `LIMB_PALETTE`.
"""

from __future__ import annotations

import colorsys
import math

import numpy as np

from .skeleton import CONF_THRESHOLD, N_LIMBS, TOPOLOGY, Skeleton
from .tensor import Tensor

BASE_WIDTH = 4.0
BASE_CANVAS = 256.0

# N_LIMBS visually distinct RGB colors, fixed across runs
LIMB_PALETTE = np.array([colorsys.hsv_to_rgb(i / N_LIMBS, 1.0, 1.0) for i in range(N_LIMBS)], dtype=np.float64)
LIMB_PALETTE.setflags(write=False)


def _coverage(shape, lo, hi, alpha_at):
    """((rows, cols), alpha) of a shape lying inside the (x, y) box lo..hi:
    `alpha_at(xs, ys)` is evaluated over that box plus a 1 px margin, clipped
    to the (H, W) canvas, with `xs` a [W'] row of columns and `ys` an [H', 1]
    column of rows that broadcast to the [H', W'] alpha. None when no pixel is
    covered."""
    h, w = shape
    lo_x = max(math.floor(lo[0] - 1), 0)
    hi_x = min(math.ceil(hi[0] + 1) + 1, w)
    lo_y = max(math.floor(lo[1] - 1), 0)
    hi_y = min(math.ceil(hi[1] + 1) + 1, h)
    if lo_x >= hi_x or lo_y >= hi_y:
        return None
    alpha = alpha_at(np.arange(lo_x, hi_x), np.arange(lo_y, hi_y)[:, None])
    if alpha.max() <= 0.0:
        return None
    return (slice(lo_y, hi_y), slice(lo_x, hi_x)), alpha


def _capsule(shape, p0, p1, radius: float):
    """Coverage of a thick segment, a disc when p0 == p1."""
    x0, y0 = float(p0[0]), float(p0[1])
    x1, y1 = float(p1[0]), float(p1[1])
    dx, dy = x1 - x0, y1 - y0
    seg2 = dx * dx + dy * dy

    def alpha_at(xs, ys):
        if seg2 == 0.0:
            dist = np.hypot(xs - x0, ys - y0)
        else:
            t = (((xs - x0) * dx + (ys - y0) * dy) / seg2).clip(0.0, 1.0)
            dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
        return (radius + 0.5 - dist).clip(0.0, 1.0)

    lo = (min(x0, x1) - radius, min(y0, y1) - radius)
    return _coverage(shape, lo, (max(x0, x1) + radius, max(y0, y1) + radius), alpha_at)


def _ellipse(shape, center, axis_u, a: float, b: float):
    """Coverage of an ellipse with semi-axis `a` along unit `axis_u`, `b` across."""

    def alpha_at(xs, ys):
        dx, dy = xs - center[0], ys - center[1]
        du = dx * axis_u[0] + dy * axis_u[1]
        dv = -dx * axis_u[1] + dy * axis_u[0]
        q = np.sqrt((du / max(a, 1e-6)) ** 2 + (dv / max(b, 1e-6)) ** 2)
        return (0.5 + (1.0 - q) * min(a, b)).clip(0.0, 1.0)

    r = max(a, b)
    return _coverage(shape, (center[0] - r, center[1] - r), (center[0] + r, center[1] + r), alpha_at)


def _blend(img: np.ndarray, cover, color, alpha_acc=None) -> None:
    """Alpha-blend `color` over [3,H,W] `img` by a `_capsule` or `_ellipse`
    coverage, and raise the [H,W] `alpha_acc`, if given, to that coverage."""
    if cover is None:
        return
    (rows, cols), alpha = cover
    region = img[:, rows, cols]
    region *= 1.0 - alpha
    region += np.asarray(color, dtype=img.dtype).reshape(3, 1, 1) * alpha
    if alpha_acc is not None:
        acc = alpha_acc[rows, cols]
        np.maximum(acc, alpha, out=acc)


def blend_capsule(img: np.ndarray, p0, p1, radius: float, color) -> None:
    """Alpha-blend an anti-aliased thick segment (disc when p0 == p1)."""
    _blend(img, _capsule(img.shape[1:], p0, p1, radius), color)


def rasterize_pose(sk: Skeleton, height: int, width: int, dtype=np.float32) -> Tensor:
    """Skeleton -> [3,H,W] pose frame on black, limbs in unique colors."""
    img = np.zeros((3, height, width), dtype=np.float64)
    line_r = 0.5 * BASE_WIDTH * min(height, width) / BASE_CANVAS
    conf = sk.confidence >= CONF_THRESHOLD
    for i, (p, c) in enumerate(TOPOLOGY):
        if conf[p] and conf[c]:
            blend_capsule(img, sk.joints[p], sk.joints[c], line_r, LIMB_PALETTE[i])
    joint_color = {}
    for i, (p, c) in enumerate(TOPOLOGY):
        joint_color[c] = LIMB_PALETTE[i]
        joint_color.setdefault(p, LIMB_PALETTE[i])
    for j in range(sk.joints.shape[0]):
        if conf[j]:
            blend_capsule(img, sk.joints[j], sk.joints[j], line_r * 1.5, joint_color[j])
    return Tensor(img.astype(dtype))


def rasterize_sequence(seq, height: int, width: int, dtype=np.float32) -> Tensor:
    frames = [rasterize_pose(sk, height, width, dtype).data for sk in seq]
    return Tensor(np.stack(frames))
