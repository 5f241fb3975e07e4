"""Anti-aliased primitives for both pose frames and puppet scenes.

Capsules and ellipses are drawn here alone, on a stack of frames: every
shape takes its parameters per frame (points and centres [T, 2], sizes a
scalar or [T]) and a [T] flag of the frames that draw it, and its coverage
over all T frames is computed once. A clip's frames are drawn a group at a
time, each shape once per group, so the interpreter cost of a shape no longer
grows with the number of frames.

A coverage (a "cover") is one window per frame: each frame's window origin
(x, y) and an alpha [T, bh, bw], where bh x bw is the largest of the frames'
boxes. A frame's box is its shape's bounding box plus a 1 px margin, clipped
to the canvas; its window holds that box and is clamped inside the canvas.
Alpha is evaluated on broadcast axes, a [T, 1, bw] row of columns and a
[T, bh, 1] column of rows, so the first binary op builds it and no index grid
is materialised; each pixel sees the same IEEE operations as when a frame was
drawn on its own box. Alpha is exactly 0 outside a frame's own box and in
every frame that does not draw the shape. The box rule is needed because a
window may be larger than its frame's box, and a thin ellipse's alpha,
0.5 + (1 - q) * b, stays positive far past its box: without the zeros, a
frame would be drawn on pixels it never touched when drawn alone.

`_blend` composites a cover onto [T, C, H, W] frames in one pass: one fancy
index gathers every frame's window from a strided view of all windows, the
float64 blend runs on the stack and the result is scattered back; an
optional [T, H, W] mask is raised the same way. Blending alpha 0 is an exact
no-op, so undrawn frames and the margins of small boxes leave pixels as they
were. The per-frame drawing functions are the one-frame case.

A frame group's float64 canvas stays within `_GROUP_BYTES`, 10 frames of
[3, 128, 128], and callers reuse one canvas for all of a clip's groups. In a
probe of the benchmark's `corpus` op (a warm-up op, 80 ops of 17 frames at
128 px, then the expression readout, on a shared 2-vCPU Xeon) the peak RSS
was 63.7 MB drawing one frame at a time, 65.3 MB with 10-frame groups, 68.3
MB with all 17 frames in one canvas and 60.9 MB with 3-frame groups; one op
took 50.7, 37.5, 32.7 and 53.4 ms. The constant trades the last 13% of
speed for 3 MB of peak memory.

A pose frame draws each limb as a capsule in a unique color and each joint as
a disc in its parent limb's color, 4 px wide on a 256 px canvas and scaled
with it, in a fixed order, so outputs never depend on evaluation order. The
colors are the read-only constant `LIMB_PALETTE`.
"""

from __future__ import annotations

import colorsys
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .skeleton import CONF_THRESHOLD, N_JOINTS, N_LIMBS, TOPOLOGY, Skeleton
from .tensor import Tensor

BASE_WIDTH = 4.0
BASE_CANVAS = 256.0
_GROUP_BYTES = 4 << 20

# N_LIMBS visually distinct RGB colors, fixed across runs
LIMB_PALETTE = np.array([colorsys.hsv_to_rgb(i / N_LIMBS, 1.0, 1.0) for i in range(N_LIMBS)], dtype=np.float64)
LIMB_PALETTE.setflags(write=False)
# a joint takes the color of the limb that ends at it, the root (the parent
# of the first limb, as TOPOLOGY lists parents first) that of its first limb
_JOINT_LIMB = np.zeros(N_JOINTS, dtype=np.intp)
_JOINT_LIMB[[c for _, c in TOPOLOGY]] = np.arange(N_LIMBS)
_JOINT_COLOR = LIMB_PALETTE[_JOINT_LIMB]
_JOINT_COLOR.setflags(write=False)


def _frame_groups(frames: int, shape) -> list:
    """Consecutive slices of range(frames), each as many frames as a float64
    canvas of [C, H, W] `shape` fits in `_GROUP_BYTES`, and at least one."""
    n = max(1, _GROUP_BYTES // (8 * math.prod(shape)))
    return [slice(i, min(i + n, frames)) for i in range(0, frames, n)]


def _frames(drawn, *params):
    """(drawn, params as float64 arrays) for a shape over T frames.

    `drawn` is a [T] bool of the frames that draw the shape, or None for all
    of them. Parameters of frames left out are set to 0, so that no NaN or
    inf there reaches the arithmetic; a scalar applies to every frame and
    stays a scalar."""
    params = [np.asarray(p, dtype=np.float64) for p in params]
    if drawn is None or np.all(drawn):
        return [True] * len(params[0]), params
    drawn = np.asarray(drawn, dtype=bool)
    return drawn.tolist(), [np.where(drawn.reshape(-1, *[1] * (p.ndim - 1)), p, 0.0) if p.ndim else p for p in params]


def _each(value: np.ndarray, frames: int) -> list:
    """A scalar or [T] parameter as a list of T Python floats."""
    return value.tolist() if value.ndim else [value.item()] * frames


def _coverage(shape, bounds, alpha_at):
    """Cover of a shape lying inside per-frame (x, y) boxes: `bounds` holds
    each frame's (lo_x, lo_y, hi_x, hi_y), None where the frame does not
    draw it. -> (origin [T, 2], alpha [T, bh, bw]) as the module docstring
    says, with `alpha_at(xs, ys)` evaluated on each window; None when no
    pixel of any frame is covered.

    A frame's box comes from the Python float arithmetic it always came
    from, so a NaN or infinite bound of a drawn frame raises ValueError or
    OverflowError as converting it to a pixel index always did."""
    h, w = shape
    boxes = []  # (x0, y0, x1, y1) per frame, empty where nothing is drawn
    for bound in bounds:
        box = (0, 0, 0, 0)
        if bound is not None:
            lo_x, lo_y, hi_x, hi_y = bound
            x0, x1 = max(math.floor(lo_x - 1), 0), min(math.ceil(hi_x + 1) + 1, w)
            y0, y1 = max(math.floor(lo_y - 1), 0), min(math.ceil(hi_y + 1) + 1, h)
            if x0 < x1 and y0 < y1:
                box = (x0, y0, x1, y1)
        boxes.append(box)
    sizes = {(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes}
    bw, bh = max(bw for bw, _ in sizes), max(bh for _, bh in sizes)
    if bw == 0:
        return None
    box = np.array(boxes)
    origin = np.minimum(box[:, :2], (w - bw, h - bh))
    xs = origin[:, 0, None, None] + np.arange(bw)
    ys = origin[:, 1, None, None] + np.arange(bh)[:, None]
    alpha = alpha_at(xs, ys)
    if len(sizes) > 1:  # some window is larger than its frame's box
        b = box[:, :, None, None]
        alpha *= ((b[:, 0] <= xs) & (xs < b[:, 2])).astype(alpha.dtype)
        alpha *= ((b[:, 1] <= ys) & (ys < b[:, 3])).astype(alpha.dtype)
    if alpha.max() <= 0.0:
        return None
    return origin, alpha


def _capsule(shape, p0, p1, radius, drawn=None):
    """Cover of a thick segment per frame, a disc where p0 == p1: p0 and p1
    are [T, 2], `radius` a scalar or [T]."""
    drawn, (p0, p1, radius) = _frames(drawn, p0, p1, radius)
    x0, y0 = p0[:, 0, None, None], p0[:, 1, None, None]
    x1, y1 = p1[:, 0, None, None], p1[:, 1, None, None]
    r = radius.reshape(-1, 1, 1)

    def alpha_at(xs, ys):
        dx, dy = x1 - x0, y1 - y0
        seg2 = dx * dx + dy * dy
        disc = seg2 == 0.0
        if disc.all():
            dist = np.hypot(xs - x0, ys - y0)
        else:
            # a disc's projection is pinned to p0: t = 0 and x0 + 0 * 0 = x0
            seg2[disc], dx[disc], dy[disc] = 1.0, 0.0, 0.0
            t = (((xs - x0) * dx + (ys - y0) * dy) / seg2).clip(0.0, 1.0)
            dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
        return (r + 0.5 - dist).clip(0.0, 1.0)

    bounds = []
    for (ax, ay), (bx, by), r_t, on in zip(p0.tolist(), p1.tolist(), _each(radius, len(p0)), drawn):
        bounds.append((min(ax, bx) - r_t, min(ay, by) - r_t, max(ax, bx) + r_t, max(ay, by) + r_t) if on else None)
    return _coverage(shape, bounds, alpha_at)


def _ellipse(shape, center, axis_u, a, b, drawn=None):
    """Cover of an ellipse per frame with semi-axis `a` along unit `axis_u`,
    `b` across: `center` and `axis_u` are [T, 2], `a` and `b` scalars or [T]."""
    drawn, (center, axis_u, a, b) = _frames(drawn, center, axis_u, a, b)
    cx, cy = center[:, 0, None, None], center[:, 1, None, None]
    ux, uy = axis_u[:, 0, None, None], axis_u[:, 1, None, None]
    a_px, b_px = a.reshape(-1, 1, 1), b.reshape(-1, 1, 1)

    def alpha_at(xs, ys):
        dx, dy = xs - cx, ys - cy
        du = dx * ux + dy * uy
        dv = -dx * uy + dy * ux
        q = np.sqrt((du / np.maximum(a_px, 1e-6)) ** 2 + (dv / np.maximum(b_px, 1e-6)) ** 2)
        return (0.5 + (1.0 - q) * np.minimum(a_px, b_px)).clip(0.0, 1.0)

    bounds = []
    for (x, y), a_t, b_t, on in zip(center.tolist(), _each(a, len(center)), _each(b, len(center)), drawn):
        r = max(a_t, b_t)
        bounds.append((x - r, y - r, x + r, y + r) if on else None)
    return _coverage(shape, bounds, alpha_at)


def _windows(a: np.ndarray, bh: int, bw: int) -> np.ndarray:
    """Writable view of every bh x bw window over the last two axes of `a`:
    [..., H - bh + 1, W - bw + 1, bh, bw]."""
    *lead, h, w = a.shape
    return as_strided(a, (*lead, h - bh + 1, w - bw + 1, bh, bw), (*a.strides, *a.strides[-2:]))


def _over(region: np.ndarray, alpha: np.ndarray, color) -> None:
    """Blend `color` [C] over `region` [..., C, bh, bw] in place by `alpha`,
    which broadcasts against it: the float64 blend of every drawing path."""
    region *= 1.0 - alpha
    region += np.asarray(color, dtype=region.dtype).reshape(-1, 1, 1) * alpha


def _blend(imgs: np.ndarray, cover, color, acc=None) -> None:
    """Alpha-blend `color` [C] over [T, C, H, W] `imgs` by a `_capsule` or
    `_ellipse` cover, and raise the [T, H, W] `acc`, if given, to it."""
    if cover is None:
        return
    origin, alpha = cover
    t, (x, y) = np.arange(len(alpha)), origin.T
    bh, bw = alpha.shape[1:]
    windows = _windows(imgs, bh, bw)
    region = windows[t, :, y, x]  # [T, C, bh, bw]
    _over(region, alpha[:, None], color)
    windows[t, :, y, x] = region
    if acc is not None:
        windows = _windows(acc, bh, bw)
        windows[t, y, x] = np.maximum(windows[t, y, x], alpha)


def blend_capsule(img: np.ndarray, p0, p1, radius: float, color) -> None:
    """Alpha-blend an anti-aliased thick segment (disc when p0 == p1) over
    [C, H, W] `img` in a [C] color. With [K, 2] points it blends the K
    segments one after another, their coverages computed together: segment
    k is frame k of one cover, blended in place through a view of its
    window."""
    p0, p1 = np.reshape(p0, (-1, 2)), np.reshape(p1, (-1, 2))
    cover = _capsule(img.shape[1:], p0, p1, radius)
    if cover is not None:
        origin, alpha = cover
        windows = _windows(img, *alpha.shape[1:])
        for (x, y), segment in zip(origin.tolist(), alpha):
            _over(windows[:, y, x], segment, color)


def rasterize_pose(sk: Skeleton, height: int, width: int, dtype=np.float32) -> Tensor:
    """Skeleton -> [3,H,W] pose frame on black, limbs in unique colors."""
    return Tensor(rasterize_sequence([sk], height, width, dtype).data[0])


def rasterize_sequence(seq, height: int, width: int, dtype=np.float32) -> Tensor:
    """Skeletons -> [T,3,H,W] pose frames, each drawn as the module docstring
    says: a limb where both its joints clear the confidence bar, a joint
    where it does."""
    joints = np.stack([sk.joints for sk in seq])
    shown = np.stack([sk.confidence for sk in seq]) >= CONF_THRESHOLD
    shape = (height, width)
    line_r = 0.5 * BASE_WIDTH * min(height, width) / BASE_CANVAS
    out = np.empty((len(seq), 3, height, width), dtype=dtype)
    groups = _frame_groups(len(seq), out.shape[1:])
    canvas = np.empty((groups[0].stop, *out.shape[1:]))  # reused by every group
    for group in groups:
        img = canvas[: group.stop - group.start]
        img[...] = 0.0
        pts, on = joints[group], shown[group]
        for i, (p, c) in enumerate(TOPOLOGY):
            _blend(img, _capsule(shape, pts[:, p], pts[:, c], line_r, on[:, p] & on[:, c]), LIMB_PALETTE[i])
        for j in range(N_JOINTS):
            _blend(img, _capsule(shape, pts[:, j], pts[:, j], line_r * 1.5, on[:, j]), _JOINT_COLOR[j])
        out[group] = img
    return Tensor(out)
