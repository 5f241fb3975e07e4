"""Puppet corpus generator: the invariants its docstrings claim."""

import dataclasses
import warnings

import numpy as np
import pytest

from puppetflow import puppet
from puppetflow.puppet import (
    estimate_face_params,
    face_geometry,
    generate_scene,
    region_weight_map,
    relight_augment,
    render_scene_frame,
)
from puppetflow.rasterize import _blend, _capsule, _ellipse, blend_capsule
from puppetflow.retarget import FRAMINGS
from puppetflow.skeleton import Skeleton
from puppetflow.tensor import ConfigError, NumericalError, ShapeError

WHITE = (1.0, 1.0, 1.0)


def shifted(sk, offset):
    return Skeleton(sk.joints + np.asarray(offset, dtype=np.float64), sk.confidence)


def white_ellipse(canvas, center, axis_u, a, b):
    _blend(canvas[None], _ellipse(canvas.shape[1:], [center], [axis_u], a, b), WHITE)


class TestBlendMask:
    @pytest.mark.parametrize("seed", range(8))
    def test_mask_equals_shape_drawn_white_on_zeros(self, seed):
        # White blended onto zeros leaves exactly the shape's alpha, so the
        # mask raised by `_blend` must equal channel 0 of such a drawing.
        rng = np.random.default_rng(seed)
        h, w = 24, 31
        img = rng.random((3, h, w))
        plain = img.copy()
        acc = np.zeros((h, w))
        ref = np.zeros((h, w))
        for k in range(12):
            p0 = rng.uniform(-8.0, [w + 8.0, h + 8.0])
            p1 = p0 if k % 3 == 0 else rng.uniform(-8.0, [w + 8.0, h + 8.0])  # every third a disc
            radius = rng.uniform(0.2, 5.0)
            canvas = np.zeros((3, h, w))
            if k % 2:
                cover = _capsule((h, w), [p0], [p1], radius)
                blend_capsule(canvas, p0, p1, radius, WHITE)
            else:
                axis = np.array([np.cos(k), np.sin(k)])
                a, b = radius, rng.uniform(0.2, 5.0)
                cover = _ellipse((h, w), [p0], [axis], a, b)
                white_ellipse(canvas, p0, axis, a, b)
            color = rng.random(3)
            _blend(img[None], cover, color, acc[None])
            _blend(plain[None], cover, color)
            np.maximum(ref, canvas[0], out=ref)
        assert np.array_equal(acc, ref)
        assert np.array_equal(img, plain)
        assert ref.max() > 0.0


class TestScene:
    @pytest.mark.parametrize("framing", FRAMINGS)
    def test_deterministic_per_seed(self, framing):
        a = generate_scene(11, 3, framing, 64)
        b = generate_scene(11, 3, framing, 64)
        assert np.array_equal(a.clip.frames.data, b.clip.frames.data)
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.face_params, b.face_params)
        for sa, sb in zip(a.poses, b.poses):
            assert np.array_equal(sa.joints, sb.joints)
        other = generate_scene(12, 3, framing, 64)
        assert not np.array_equal(a.clip.frames.data, other.clip.frames.data)

    @pytest.mark.parametrize("framing", FRAMINGS)
    def test_clip_and_mask_layout(self, framing):
        # the frames and masks are filled in place; the render digest hashes
        # them as float64, so only this pins their dtype and layout
        t, size = 4, 48
        sample = generate_scene(6, t, framing, size)
        frames, masks = sample.clip.frames.data, sample.masks
        assert frames.dtype == np.float32 and frames.shape == (t, 3, size, size) and frames.flags.c_contiguous
        assert masks.dtype == np.float32 and masks.shape == (t, 1, size, size) and masks.flags.c_contiguous
        assert np.array_equal(np.unique(masks), [0.0, 1.0])
        for k in range(t):
            frame, mask = render_scene_frame(sample.scene, k)
            assert np.array_equal(masks[k, 0], mask)
            assert np.array_equal(frames[k], frame.astype(np.float32))

    @pytest.mark.parametrize("seed,framing", [(s, f) for s in (0, 5) for f in FRAMINGS])
    def test_limb_lengths_constant(self, seed, framing):
        sample = generate_scene(seed, 9, framing, 64)
        for sk in sample.poses:
            np.testing.assert_allclose(sk.limb_lengths(), sample.scene.limb_lengths, rtol=1e-12, atol=1e-9)

    def test_face_geometry_from_skeleton_alone(self):
        sk = generate_scene(4, 1, "portrait", 64).poses[0]
        offset = np.array([17.25, -9.5])
        g0, g1 = face_geometry(sk), face_geometry(shifted(sk, offset))
        for f in dataclasses.fields(g0):
            v0, v1 = getattr(g0, f.name), getattr(g1, f.name)
            if f.name in ("center", "mouth_center"):
                np.testing.assert_allclose(v1 - v0, offset, atol=1e-9)
            elif f.name == "eyes":
                for e0, e1 in zip(v0, v1):
                    np.testing.assert_allclose(e1 - e0, offset, atol=1e-9)
            else:
                np.testing.assert_allclose(v1, v0, atol=1e-9)
        pts = puppet.mouth_curve(g0, 0.4)
        np.testing.assert_allclose(puppet.mouth_curve(g1, 0.4) - pts, np.broadcast_to(offset, pts.shape), atol=1e-9)


class TestRegionWeights:
    @pytest.mark.parametrize("framing", FRAMINGS)
    def test_at_least_one_and_raised_on_face(self, framing):
        sample = generate_scene(2, 3, framing, 64)
        for t in range(3):
            wmap = region_weight_map(sample.poses[t], sample.face_params[t], 64, 64)
            assert wmap.shape == (1, 64, 64) and wmap.dtype == np.float32
            assert wmap.min() >= 1.0
            assert wmap.max() > 1.0

    @pytest.mark.parametrize("offset", [(-400, 0), (400, 0), (0, -400), (0, 400), (-400, -400)])
    def test_off_canvas_head_is_uniform(self, offset):
        sample = generate_scene(3, 1, "portrait", 64)
        wmap = region_weight_map(shifted(sample.poses[0], offset), sample.face_params[0], 64, 64)
        assert np.array_equal(wmap, np.ones((1, 64, 64), dtype=np.float32))

    @pytest.mark.parametrize("seed,size", [(s, n) for s in range(6) for n in (64, 128)])
    def test_equals_per_region_canvas_formula(self, seed, size):
        # Reference: each ellipse region drawn white on its own full canvas,
        # the mouth as one union canvas, each thresholded at 0.5, max-combined.
        framing = FRAMINGS[seed % 3]
        sample = generate_scene(seed, 2, framing, size)
        sk, params = sample.poses[1], sample.face_params[1]
        if seed % 2:  # straddle the border
            sk = shifted(sk, (0.45 * size, -0.3 * size))
        geo = face_geometry(sk)
        ref = np.ones((size, size), dtype=np.float32)

        def raise_where(canvas, value):
            region = canvas[0] >= 0.5
            ref[region] = np.maximum(ref[region], value)

        canvas = np.zeros((3, size, size))
        white_ellipse(canvas, geo.center, geo.side, geo.radius, geo.radius)
        raise_where(canvas, 2.0)
        eye_b = max((0.08 + 0.92 * params[0]) * geo.eye_b_max, 0.3 * geo.eye_a)
        for eye in geo.eyes:
            canvas = np.zeros((3, size, size))
            white_ellipse(canvas, eye, geo.side, 1.3 * geo.eye_a, 1.3 * max(eye_b, geo.eye_b_max))
            raise_where(canvas, 4.0)
        canvas = np.zeros((3, size, size))
        pts = puppet.mouth_curve(geo, params[1])
        for a, b in zip(pts, pts[1:]):
            blend_capsule(canvas, a, b, 1.5 * geo.mouth_thickness, WHITE)
        raise_where(canvas, 4.0)
        assert np.array_equal(region_weight_map(sk, params, size, size)[0], ref)


class TestRelight:
    @pytest.mark.parametrize("framing", FRAMINGS)
    def test_identity_cast_changes_only_background(self, framing):
        sample = generate_scene(8, 1, framing, 64)
        frame, mask = sample.clip.frames.data[0], sample.masks[0]
        res = relight_augment(frame, mask, np.random.default_rng(1), identity_cast=True)
        assert res.applied
        subject = mask[0] >= 0.5
        assert subject.any() and not subject.all()
        assert np.array_equal(res.image[:, subject], frame[:, subject])
        bg = res.background.render(64, 64).astype(np.float32)
        assert np.array_equal(res.image[:, ~subject], bg[:, ~subject])

    def test_empty_mask_returns_the_frame_unapplied_without_a_warning(self):
        frame = generate_scene(8, 1, "portrait", 32).clip.frames.data[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = relight_augment(frame, np.zeros((1, 32, 32)), np.random.default_rng(1))
        assert not res.applied
        assert res.image.dtype == np.float32 and np.array_equal(res.image, frame)


def scene_with_face(seed, framing, openness, curvature):
    sample = generate_scene(seed, 1, framing, 64)
    scene = sample.scene
    scene.face_params = scene.face_params.copy()
    scene.face_params[0, :2] = (openness, curvature)
    frame, _ = render_scene_frame(scene, 0)
    return frame.astype(np.float32), scene


class TestExpressionReadout:
    @pytest.mark.parametrize("seed,framing", [(s, f) for f in FRAMINGS for s in (1, 6, 9)])
    def test_recovers_grid_points(self, seed, framing):
        # The scene frame and the estimator's template draw the same face,
        # so every grid point is read back exactly.
        for o in (0.0, 0.3, 0.7, 1.0):
            for c in (-0.8, 0.0, 0.6):
                frame, scene = scene_with_face(seed, framing, o, c)
                got = estimate_face_params(
                    frame, scene.skeleton(0), scene.colors["skin"], tuple(scene.face_params[0, 2:])
                )
                assert got == pytest.approx((o, c), abs=1e-9), (o, c)

    def test_off_canvas_head_reads_nan(self):
        frame, scene = scene_with_face(1, "portrait", 0.5, 0.0)
        sk = shifted(scene.skeleton(0), (-400, 0))
        got = estimate_face_params(frame, sk, scene.colors["skin"], (0.0, 0.0))
        assert np.isnan(got).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pixel_in_the_disc_raises(self, value):
        # one such pixel makes every template error NaN or inf, so no
        # template can win and the grid's first point would be returned
        sample = generate_scene(3, 1, "portrait", 64)
        sk = sample.poses[0]
        frame = sample.clip.frames.data[0].copy()
        x, y = np.round(face_geometry(sk).center).astype(int)
        frame[:, y, x] = value
        with pytest.raises(NumericalError, match="disc"):
            estimate_face_params(frame, sk, sample.scene.colors["skin"], tuple(sample.face_params[0, 2:]))



class TestInputErrors:
    @pytest.fixture(scope="class")
    def sample(self):
        return generate_scene(2, 1, "half_body", 32)

    @pytest.mark.parametrize("mask_shape", [(1, 32, 31), (31, 32), (2, 32, 32), (32 * 32,), (32, 32)])
    def test_relight_mask_of_wrong_shape(self, sample, mask_shape):
        with pytest.raises(ShapeError, match="mask"):
            relight_augment(sample.clip.frames.data[0], np.ones(mask_shape), np.random.default_rng(0))

    @pytest.mark.parametrize("frame_shape", [(32, 32), (1, 32, 32), (32, 32, 3)])
    def test_relight_frame_not_rgb(self, sample, frame_shape):
        with pytest.raises(ShapeError, match="frame"):
            relight_augment(np.zeros(frame_shape), sample.masks[0], np.random.default_rng(0))

    @pytest.mark.parametrize("height, width", [(32.0, 32), (32, np.float64(32.0)), (0, 32), (32, -1)],
                             ids=["float-height", "float-width", "zero-height", "negative-width"])
    def test_region_weight_map_size_must_be_whole_and_positive(self, sample, height, width):
        with pytest.raises(ConfigError, match="map size"):
            region_weight_map(sample.poses[0], sample.face_params[0], height, width)

    @pytest.mark.parametrize("frame_shape", [(3, 32, 24), (32, 32), (4, 32, 32)])
    def test_readout_frame_not_square_rgb(self, sample, frame_shape):
        with pytest.raises(ShapeError, match="frame"):
            estimate_face_params(np.zeros(frame_shape), sample.poses[0], sample.scene.colors["skin"], (0.0, 0.0))

    @pytest.mark.parametrize("size", [0, -4])
    def test_scene_of_no_pixels(self, size):
        with pytest.raises(ConfigError, match="px"):
            generate_scene(0, 1, "portrait", size)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            generate_scene(-1, 1, "portrait", 32)

    @pytest.mark.parametrize(
        "seed, frames, size", [(1.5, 1, 16), (0, 2.5, 16), (0, 1, 16.5)], ids=["seed", "frames", "size"]
    )
    def test_non_integer_argument(self, seed, frames, size):
        with pytest.raises(ConfigError, match="integers"):
            generate_scene(seed, frames, "portrait", size)

    def test_numpy_integer_arguments_render_as_python_ones(self):
        a = generate_scene(np.int64(3), np.int64(2), "portrait", np.int64(16))
        b = generate_scene(3, 2, "portrait", 16)
        assert a.clip.frames.data.tobytes() == b.clip.frames.data.tobytes()

    def test_unknown_background_kind(self):
        with pytest.raises(ConfigError, match="solidd"):
            puppet.Background("solidd", (0.1, 0.2, 0.3), (0.3, 0.2, 0.1))
