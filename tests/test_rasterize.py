"""Shape coverage over stacks of frames, against per-frame index-grid drawing.

`_capsule` and `_ellipse` compute one cover for T frames: a window per frame
and an alpha [T, bh, bw]. The references below draw one frame at a time on
the full index grid of its own box, with `np.clip` and `np.floor`/`np.ceil`,
as the rasterizer did before it drew frame stacks. Every frame's window must
hold its reference alpha bit for bit on the reference box and 0 everywhere
else, lie inside the canvas, and the cover must be None exactly when every
frame's reference is. `derandomize=True` keeps the examples fixed from run
to run.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puppetflow.puppet import generate_scene, render_scene_frame
from puppetflow.rasterize import (
    BASE_CANVAS,
    BASE_WIDTH,
    LIMB_PALETTE,
    _capsule,
    _ellipse,
    blend_capsule,
    rasterize_sequence,
)
from puppetflow.retarget import FRAMINGS
from puppetflow.skeleton import CONF_THRESHOLD, N_JOINTS, TOPOLOGY
from puppetflow.tensor import NumericalError

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def ref_coverage(shape, lo, hi, alpha_at):
    h, w = shape
    lo_x = max(int(np.floor(lo[0] - 1)), 0)
    hi_x = min(int(np.ceil(hi[0] + 1)) + 1, w)
    lo_y = max(int(np.floor(lo[1] - 1)), 0)
    hi_y = min(int(np.ceil(hi[1] + 1)) + 1, h)
    if lo_x >= hi_x or lo_y >= hi_y:
        return None
    ys, xs = np.meshgrid(np.arange(lo_y, hi_y), np.arange(lo_x, hi_x), indexing="ij")
    alpha = alpha_at(xs, ys)
    if alpha.max() <= 0.0:
        return None
    return (slice(lo_y, hi_y), slice(lo_x, hi_x)), alpha


def ref_capsule(shape, p0, p1, radius):
    x0, y0 = float(p0[0]), float(p0[1])
    x1, y1 = float(p1[0]), float(p1[1])
    dx, dy = x1 - x0, y1 - y0
    seg2 = dx * dx + dy * dy

    def alpha_at(xs, ys):
        if seg2 == 0.0:
            dist = np.hypot(xs - x0, ys - y0)
        else:
            t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / seg2, 0.0, 1.0)
            dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
        return np.clip(radius + 0.5 - dist, 0.0, 1.0)

    lo = (min(x0, x1) - radius, min(y0, y1) - radius)
    return ref_coverage(shape, lo, (max(x0, x1) + radius, max(y0, y1) + radius), alpha_at)


def ref_ellipse(shape, center, axis_u, a, b):
    def alpha_at(xs, ys):
        dx, dy = xs - center[0], ys - center[1]
        du = dx * axis_u[0] + dy * axis_u[1]
        dv = -dx * axis_u[1] + dy * axis_u[0]
        q = np.sqrt((du / max(a, 1e-6)) ** 2 + (dv / max(b, 1e-6)) ** 2)
        return np.clip(0.5 + (1.0 - q) * min(a, b), 0.0, 1.0)

    r = max(a, b)
    return ref_coverage(shape, (center[0] - r, center[1] - r), (center[0] + r, center[1] + r), alpha_at)


def ref_blend(img, cover, color):
    """The per-frame blend arithmetic on a [3, H, W] image."""
    if cover is not None:
        (rows, cols), alpha = cover
        region = img[:, rows, cols]
        region *= 1.0 - alpha
        region += np.asarray(color, dtype=img.dtype).reshape(3, 1, 1) * alpha


def assert_same_cover(got, want):
    """A one-frame cover against its reference: the window is the box."""
    assert (got is None) == (want is None)
    if want is None:
        return
    ((x, y),), (alpha,) = got
    (want_rows, want_cols), want_alpha = want
    assert (slice(y, y + alpha.shape[0]), slice(x, x + alpha.shape[1])) == (want_rows, want_cols)
    assert alpha.dtype == want_alpha.dtype and alpha.shape == want_alpha.shape
    assert alpha.tobytes() == want_alpha.tobytes()


def assert_frame_windows(shape, got, refs):
    """Every frame's window against that frame's reference, None for a frame
    that does not draw the shape."""
    assert (got is None) == all(ref is None for ref in refs)
    if got is None:
        return
    origin, alpha = got
    h, w = shape
    assert origin.shape == (len(refs), 2) and alpha.shape[0] == len(refs) and alpha.dtype == np.float64
    bh, bw = alpha.shape[1:]
    for (x, y), window, ref in zip(origin, alpha, refs):
        assert 0 <= x and x + bw <= w and 0 <= y and y + bh <= h
        inside = np.zeros(window.shape, dtype=bool)
        if ref is not None:
            (rows, cols), want = ref
            assert x <= cols.start and cols.stop <= x + bw and y <= rows.start and rows.stop <= y + bh
            box = (slice(rows.start - y, rows.stop - y), slice(cols.start - x, cols.stop - x))
            assert window[box].tobytes() == want.tobytes()
            inside[box] = True
        assert not window[~inside].any()


# canvases of 1 px up, square or not
canvases = st.tuples(st.integers(1, 40), st.integers(1, 40))
# from well off the canvas on one side to well off it on the other
coords = st.floats(-60.0, 100.0, allow_nan=False)
points = st.builds(lambda x, y: np.array([x, y]), coords, coords)
angles = st.floats(0.0, 2 * np.pi)
# per frame: p0, p1, radius, a disc?, drawn?
capsule_frames = st.lists(
    st.tuples(points, points, st.floats(0.0, 12.0), st.booleans(), st.booleans()), min_size=1, max_size=6
)
# per frame: center, angle, a, b, thin ratio (b = a * ratio) or None, drawn?
ellipse_frames = st.lists(
    st.tuples(points, angles, st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.none() | st.floats(1e-4, 0.05),
              st.booleans()),
    min_size=1, max_size=6,
)
X = np.array([1.0, 0.0])


def stacked_capsules(shape, frames):
    p0 = np.array([f[0] for f in frames])
    p1 = np.array([f[0] if f[3] else f[1] for f in frames])
    radius = np.array([f[2] for f in frames])
    drawn = [f[4] for f in frames]
    refs = [ref_capsule(shape, *args) if on else None for *args, on in zip(p0, p1, radius, drawn)]
    return _capsule(shape, p0, p1, radius, drawn), refs


def stacked_ellipses(shape, frames):
    center = np.array([f[0] for f in frames])
    axis = np.array([[np.cos(f[1]), np.sin(f[1])] for f in frames])
    a = np.array([f[2] if f[4] is None else max(f[2], 0.5) for f in frames])
    b = np.array([f[3] if f[4] is None else ai * f[4] for f, ai in zip(frames, a)])
    drawn = [f[5] for f in frames]
    refs = [ref_ellipse(shape, *args) if on else None for *args, on in zip(center, axis, a, b, drawn)]
    return _ellipse(shape, center, axis, a, b, drawn), refs


class TestCoverageMatchesIndexGrid:
    @FUZZ
    @given(shape=canvases, p0=points, p1=points, radius=st.floats(0.0, 12.0), disc=st.booleans())
    @example(shape=(1, 1), p0=np.array([0.25, 0.5]), p1=np.array([0.25, 0.5]), radius=0.3, disc=True)
    @example(shape=(7, 30), p0=np.array([-5.0, 3.5]), p1=np.array([40.0, 2.0]), radius=1.5, disc=False)
    @example(shape=(20, 20), p0=np.array([-30.0, 5.0]), p1=np.array([-25.0, 9.0]), radius=2.0, disc=False)
    def test_capsule(self, shape, p0, p1, radius, disc):
        if disc:
            p1 = p0.copy()
        assert_same_cover(_capsule(shape, [p0], [p1], radius), ref_capsule(shape, p0, p1, radius))

    @FUZZ
    @given(shape=canvases, center=points, theta=angles, a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    def test_ellipse(self, shape, center, theta, a, b):
        axis = np.array([np.cos(theta), np.sin(theta)])
        assert_same_cover(_ellipse(shape, [center], [axis], a, b), ref_ellipse(shape, center, axis, a, b))

    @FUZZ
    @given(shape=canvases, center=points, theta=angles, a=st.floats(0.5, 20.0), ratio=st.floats(1e-4, 0.05))
    def test_thin_ellipse(self, shape, center, theta, a, ratio):
        axis = np.array([np.cos(theta), np.sin(theta)])
        b = a * ratio
        assert_same_cover(_ellipse(shape, [center], [axis], a, b), ref_ellipse(shape, center, axis, a, b))

    def test_thin_ellipse_alpha_reaches_past_its_box(self):
        # alpha = 0.5 + (1 - q) * b stays positive until q = 1 + 0.5 / b, far
        # beyond the box; the window cuts it off at the same pixels on both paths
        shape, center, a, b = (40, 40), np.array([20.0, 20.0]), 5.0, 0.01
        _, (alpha,) = _ellipse(shape, [center], [X], a, b)
        assert alpha[:, 0].max() > 0.0 and alpha[:, -1].max() > 0.0
        assert_same_cover(_ellipse(shape, [center], [X], a, b), ref_ellipse(shape, center, X, a, b))

    @pytest.mark.parametrize("bad,error", [(float("nan"), ValueError), (float("inf"), OverflowError)])
    def test_non_finite_bounds_raise_as_before(self, bad, error):
        # the references fail converting a bound to a pixel index, with
        # `error`; the covers fail on the parameter, before any bound
        p = np.array([bad, 3.0])
        for ref in (lambda: ref_capsule((8, 8), p, p, 1.0), lambda: ref_ellipse((8, 8), p, X, 2.0, 1.0)):
            with pytest.raises(error):
                ref()
        for draw in (lambda: _capsule((8, 8), [p], [p], 1.0), lambda: _ellipse((8, 8), [p], [X], 2.0, 1.0)):
            with pytest.raises(NumericalError):
                draw()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("end", [0, 1])
    def test_one_non_finite_endpoint_raises(self, end, bad):
        # min and max of a finite and a NaN coordinate may both return the
        # finite one, so every bound can be finite while alpha is NaN
        pts = [[2.0, 2.0], [4.0, 3.0]]
        pts[end][0] = bad
        img = np.zeros((3, 8, 8))
        with pytest.raises(NumericalError):
            blend_capsule(img, pts[0], pts[1], 1.0, (1.0, 1.0, 1.0))
        assert not img.any()


class TestFrameStacks:
    @FUZZ
    @given(shape=canvases, frames=capsule_frames)
    # a frame's box on the bottom-right edge, its window clamped by a larger box
    @example(shape=(40, 40), frames=[(np.array([38.0, 38.0]), None, 1.0, True, True),
                                     (np.array([10.0, 10.0]), np.array([30.0, 30.0]), 3.0, False, True)])
    # an undrawn frame between drawn ones
    @example(shape=(24, 24), frames=[(np.array([5.0, 5.0]), np.array([15.0, 9.0]), 2.0, False, True),
                                     (np.array([6.0, 7.0]), np.array([12.0, 12.0]), 4.0, False, False),
                                     (np.array([-9.0, 5.0]), np.array([8.0, 8.0]), 1.0, False, True)])
    def test_capsules(self, shape, frames):
        assert_frame_windows(shape, *stacked_capsules(shape, frames))

    @FUZZ
    @given(shape=canvases, frames=ellipse_frames)
    # a thin ellipse in a window made larger by the next frame's disc
    @example(shape=(40, 40), frames=[(np.array([20.0, 20.0]), 0.0, 5.0, 0.0, 0.01, True),
                                     (np.array([20.0, 20.0]), 0.0, 8.0, 8.0, None, True)])
    # a small ellipse on the right edge, clamped into a larger window
    @example(shape=(40, 40), frames=[(np.array([38.0, 38.0]), 0.0, 1.0, 1.0, None, True),
                                     (np.array([20.0, 20.0]), 0.0, 8.0, 8.0, None, True)])
    # undrawn frames beside a drawn one
    @example(shape=(30, 30), frames=[(np.array([4.0, 4.0]), 1.0, 3.0, 2.0, None, False),
                                     (np.array([15.0, 15.0]), 0.5, 9.0, 6.0, None, True),
                                     (np.array([5.0, 25.0]), 2.0, 3.0, 3.0, None, False)])
    def test_ellipses(self, shape, frames):
        assert_frame_windows(shape, *stacked_ellipses(shape, frames))

    @pytest.mark.parametrize("bad,error", [(float("nan"), ValueError), (float("inf"), OverflowError)])
    @pytest.mark.parametrize("kind", ["capsule", "ellipse"])
    def test_non_finite_raises_in_a_drawn_frame_only(self, kind, bad, error):
        good = np.array([4.0, 3.0])
        pts = np.array([good, [bad, 3.0], good + 1.0])
        if kind == "capsule":
            ref = lambda p: ref_capsule((8, 8), p, p, 1.0)  # noqa: E731
            draw = lambda drawn: _capsule((8, 8), pts, pts, 1.0, drawn)  # noqa: E731
        else:
            ref = lambda p: ref_ellipse((8, 8), p, X, 2.0, 1.0)  # noqa: E731
            draw = lambda drawn: _ellipse((8, 8), pts, [X] * 3, 2.0, 1.0, drawn)  # noqa: E731
        with pytest.raises(error):  # the bad frame drawn on its own, by the reference
            ref(pts[1])
        with pytest.raises(NumericalError):
            draw([True, True, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = draw([True, False, True])
        assert_frame_windows((8, 8), got, [ref(pts[0]), None, ref(pts[2])])

    def test_no_frame_drawn_is_none(self):
        p = np.array([[4.0, 4.0], [5.0, 5.0]])
        assert _capsule((8, 8), p, p, 2.0, [False, False]) is None
        assert _ellipse((8, 8), p, [X, X], 2.0, 2.0, [False, False]) is None


def ref_rasterize_sequence(seq, h, w):
    """Each frame drawn on its own as the rasterizer did one frame at a time."""
    line_r = 0.5 * BASE_WIDTH * min(h, w) / BASE_CANVAS
    joint_color = {}
    for i, (p, c) in enumerate(TOPOLOGY):
        joint_color[c] = LIMB_PALETTE[i]
        joint_color.setdefault(p, LIMB_PALETTE[i])
    frames = []
    for sk in seq:
        img = np.zeros((3, h, w))
        conf = sk.confidence >= CONF_THRESHOLD
        for i, (p, c) in enumerate(TOPOLOGY):
            if conf[p] and conf[c]:
                ref_blend(img, ref_capsule((h, w), sk.joints[p], sk.joints[c], line_r), LIMB_PALETTE[i])
        for j in range(N_JOINTS):
            if conf[j]:
                ref_blend(img, ref_capsule((h, w), sk.joints[j], sk.joints[j], line_r * 1.5), joint_color[j])
        frames.append(img.astype(np.float32))
    return np.stack(frames)


class TestSequences:
    @pytest.mark.parametrize("framing", FRAMINGS)
    def test_pose_sequence_with_hidden_joints_matches_per_frame_drawing(self, framing):
        # 12 frames at 128 px on one canvas; hidden joints may hold NaN
        seq = generate_scene(41, 12, framing, 128).poses
        for t, sk in enumerate(seq):
            if t % 3 == 1:
                sk.confidence[9] = 0.0
                sk.joints[9] = np.nan
            if t % 4 == 2:
                sk.confidence[[0, 13]] = 0.1
        seq[5].confidence[:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rasterize_sequence(seq, 128, 128).data
        want = ref_rasterize_sequence(seq, 128, 128)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got[5].any()

    @pytest.mark.parametrize("framing", FRAMINGS)
    def test_scene_stack_matches_one_frame_renders(self, framing):
        # 23 frames at 128 px, more than the benchmark's 17, on one canvas
        sample = generate_scene(17, 23, framing, 128)
        for t in range(23):
            frame, mask = render_scene_frame(sample.scene, t)
            assert sample.clip.frames.data[t].tobytes() == frame.astype(np.float32).tobytes()
            assert sample.masks[t, 0].tobytes() == mask.tobytes()
