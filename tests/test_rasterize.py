"""Shape coverage: the broadcast-axis evaluation against the index-grid one.

`_coverage` evaluates a shape's alpha on a column of rows and a row of
columns. The reference below is the full index-grid version it replaced,
with `np.clip` and `np.floor`/`np.ceil` as they were; both must give the
same window and bit-identical alpha, and None in the same cases.
`derandomize=True` keeps the examples fixed from run to run.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puppetflow.rasterize import _capsule, _ellipse

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


def assert_same_cover(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    (rows, cols), alpha = got
    (want_rows, want_cols), want_alpha = want
    assert (rows, cols) == (want_rows, want_cols)
    assert alpha.dtype == want_alpha.dtype and alpha.shape == want_alpha.shape
    assert alpha.tobytes() == want_alpha.tobytes()


# canvases of 1 px up, square or not
canvases = st.tuples(st.integers(1, 40), st.integers(1, 40))
# from well off the canvas on one side to well off it on the other
coords = st.floats(-60.0, 100.0, allow_nan=False)
points = st.builds(lambda x, y: np.array([x, y]), coords, coords)
angles = st.floats(0.0, 2 * np.pi)


class TestCoverageMatchesIndexGrid:
    @FUZZ
    @given(shape=canvases, p0=points, p1=points, radius=st.floats(0.0, 12.0), disc=st.booleans())
    @example(shape=(1, 1), p0=np.array([0.25, 0.5]), p1=np.array([0.25, 0.5]), radius=0.3, disc=True)
    @example(shape=(7, 30), p0=np.array([-5.0, 3.5]), p1=np.array([40.0, 2.0]), radius=1.5, disc=False)
    @example(shape=(20, 20), p0=np.array([-30.0, 5.0]), p1=np.array([-25.0, 9.0]), radius=2.0, disc=False)
    def test_capsule(self, shape, p0, p1, radius, disc):
        if disc:
            p1 = p0.copy()
        assert_same_cover(_capsule(shape, p0, p1, radius), ref_capsule(shape, p0, p1, radius))

    @FUZZ
    @given(shape=canvases, center=points, theta=angles, a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    def test_ellipse(self, shape, center, theta, a, b):
        axis = np.array([np.cos(theta), np.sin(theta)])
        assert_same_cover(_ellipse(shape, center, axis, a, b), ref_ellipse(shape, center, axis, a, b))

    @FUZZ
    @given(shape=canvases, center=points, theta=angles, a=st.floats(0.5, 20.0), ratio=st.floats(1e-4, 0.05))
    def test_thin_ellipse(self, shape, center, theta, a, ratio):
        axis = np.array([np.cos(theta), np.sin(theta)])
        b = a * ratio
        assert_same_cover(_ellipse(shape, center, axis, a, b), ref_ellipse(shape, center, axis, a, b))

    def test_thin_ellipse_alpha_reaches_past_its_box(self):
        # alpha = 0.5 + (1 - q) * b stays positive until q = 1 + 0.5 / b, far
        # beyond the box; the window cuts it off at the same pixels on both paths
        shape, center, axis, a, b = (40, 40), np.array([20.0, 20.0]), np.array([1.0, 0.0]), 5.0, 0.01
        _, alpha = _ellipse(shape, center, axis, a, b)
        assert alpha[:, 0].max() > 0.0 and alpha[:, -1].max() > 0.0
        assert_same_cover(_ellipse(shape, center, axis, a, b), ref_ellipse(shape, center, axis, a, b))

    @pytest.mark.parametrize("bad,error", [(float("nan"), ValueError), (float("inf"), OverflowError)])
    def test_non_finite_bounds_raise_as_before(self, bad, error):
        p = np.array([bad, 3.0])
        for draw in (
            lambda: ref_capsule((8, 8), p, p, 1.0),
            lambda: _capsule((8, 8), p, p, 1.0),
            lambda: ref_ellipse((8, 8), p, np.array([1.0, 0.0]), 2.0, 1.0),
            lambda: _ellipse((8, 8), p, np.array([1.0, 0.0]), 2.0, 1.0),
        ):
            with pytest.raises(error):
                draw()
