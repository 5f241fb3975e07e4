"""Face cropping, augmentation, motion encoding, temporal alignment."""

import dataclasses
import hashlib
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow.face import (
    DOWN_WIDTH,
    BIAS_RANGE,
    FACE_SIZE,
    GAIN_RANGE,
    N_COEFF,
    NOISE_HI,
    SCALE_RANGE,
    FaceCrop,
    FaceEncoder,
    FrameCrop,
    MotionBasis,
    TemporalDownsampler,
    _resample,
    augment_face,
    crop_face,
    encode_face_sequence,
    head_box,
)
from puppetflow.rasterize import blend_capsule
from puppetflow.skeleton import N_JOINTS, Skeleton, load_pose_sequence, save_pose_sequence
from puppetflow.tensor import AlignmentError, ConfigError, NumericalError, ShapeError, Tensor, WIDE
from puppetflow.video import frame_ranges

from gradcheck import grad_check, widen


def head_skeleton(cx, cy, spread=10.0, conf=1.0):
    joints = np.zeros((N_JOINTS, 2))
    joints[:] = (cx, cy + 60.0)  # body far below the head
    joints[0] = (cx, cy)
    joints[1] = (cx - spread * 0.4, cy - spread * 0.2)
    joints[2] = (cx + spread * 0.4, cy - spread * 0.2)
    joints[3] = (cx - spread, cy)
    joints[4] = (cx + spread, cy)
    c = np.full(N_JOINTS, conf)
    return Skeleton(joints, c)


def pixel_crop(pixels):
    """[3, FACE_SIZE, FACE_SIZE] pixels as the crop over themselves, whose
    identity taps read them back bit for bit."""
    return FrameCrop(pixels, (0, 0), (0, 0, FACE_SIZE))


def resample(img, box, out):
    """The bilinear resample of `box` over the whole of `img`, in its dtype."""
    return _resample(img, (0, 0), box, np.empty((img.shape[0], out, out), dtype=img.dtype))


def disc_frame(cx, cy, r, hw=128):
    img = np.zeros((3, hw, hw))
    blend_capsule(img, (cx, cy), (cx, cy), r, (1.0, 0.8, 0.6))
    return img.astype(np.float32)


class TestCropFace:
    def test_contains_disc_and_centered(self):
        cx, cy, r = 70.0, 50.0, 16.0
        sk = head_skeleton(cx, cy, spread=r)
        x0, y0, side = head_box(sk, 128, 128)
        assert x0 <= cx - r and cx + r <= x0 + side
        assert y0 <= cy - r and cy + r <= y0 + side
        # crop center within 5% of the disc center
        assert abs((x0 + side / 2) - cx) <= 0.05 * side
        assert abs((y0 + side / 2) - cy) <= 0.05 * side
        assert crop_face(disc_frame(cx, cy, r), sk).image.shape == (3, FACE_SIZE, FACE_SIZE)

    def test_corner_clamped(self):
        sk = head_skeleton(3.0, 2.0, spread=8.0)
        x0, y0, side = head_box(sk, 128, 128)
        assert x0 >= 0.0 and y0 >= 0.0
        assert x0 + side <= 128.0 and y0 + side <= 128.0
        assert crop_face(disc_frame(3.0, 2.0, 6.0), sk).image.shape == (3, FACE_SIZE, FACE_SIZE)

    def test_deterministic(self):
        frame = disc_frame(60.0, 60.0, 12.0)
        sk = head_skeleton(60.0, 60.0)
        a = crop_face(frame, sk).image.data
        b = crop_face(frame, sk).image.data
        assert np.array_equal(a, b)

    def test_too_few_head_keypoints_signals_no_face(self):
        sk = head_skeleton(60.0, 60.0)
        sk.confidence[(1, 2, 3, 4),] = 0.0  # only the nose remains
        assert crop_face(disc_frame(60.0, 60.0, 12.0), sk) is None

    @pytest.mark.parametrize("frame", [Tensor(disc_frame(60.0, 60.0, 12.0)), disc_frame(60.0, 60.0, 12.0)[:2],
                                       disc_frame(60.0, 60.0, 12.0).tolist()], ids=["tensor", "two-channels", "list"])
    def test_frame_must_be_an_rgb_array(self, frame):
        with pytest.raises(ShapeError, match=r"frame must be a \[3,H,W\] array"):
            crop_face(frame, head_skeleton(60.0, 60.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_head_keypoint_from_file_raises(self, tmp_path, bad):
        sk = head_skeleton(60.0, 60.0)
        sk.joints[0, 0] = bad  # a confident nose
        save_pose_sequence(tmp_path / "pose.skel", [sk])
        (loaded,) = load_pose_sequence(tmp_path / "pose.skel")
        with pytest.raises(NumericalError, match="head keypoint"):
            crop_face(disc_frame(60.0, 60.0, 12.0), loaded)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_image_is_the_resampled_head_box_bit_for_bit(self, dtype):
        frame = np.random.default_rng(4).random((3, 128, 128)).astype(dtype)
        sk = head_skeleton(70.0, 50.0, spread=12.0)
        expect = resample(frame, head_box(sk, 128, 128), FACE_SIZE).astype(np.float32)
        got = crop_face(frame, sk).image.data
        assert got.dtype == np.float32 and np.array_equal(got, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_holds_no_more_bytes_than_its_window(self, dtype):
        frame = disc_frame(60.0, 60.0, 12.0).astype(dtype)
        sk = head_skeleton(60.0, 60.0)
        x0, y0, side = head_box(sk, 128, 128)
        crop = crop_face(frame, sk)
        held = [getattr(crop, f.name) for f in dataclasses.fields(crop)]
        arrays = [a.data if isinstance(a, Tensor) else a for a in held]
        # the rows and columns the FACE_SIZE taps read: first u0 to last u1
        rows, cols = (tap_span(128, lo, side) for lo in (y0, x0))
        window = 3 * rows * cols * frame.itemsize
        assert sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) <= window < frame.nbytes / 10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(128, 128), (96, 160)], ids=["128x128", "96x160"])
    @pytest.mark.parametrize("edge", ["left", "right", "top", "bottom", "top-left", "bottom-right"])
    def test_edge_clamped_box_reads_bit_for_bit(self, edge, hw, dtype):
        # head_box clamps the box inside the frame, so it touches the edge (two
        # edges at a corner) and the window ends there, where the taps clamp
        # to the window; the oracle resamples the whole frame
        h, w = hw
        cx = {"left": 2.0, "right": w - 2.0}.get(edge.split("-")[-1], w / 2)
        cy = {"top": 2.0, "bottom": h - 2.0}.get(edge.split("-")[0], h / 2)
        sk = head_skeleton(cx, cy, spread=12.0)
        x0, y0, side = box = head_box(sk, h, w)
        gaps = {"left": x0, "right": w - x0 - side, "top": y0, "bottom": h - y0 - side}
        assert all(gaps[e] == 0.0 for e in edge.split("-"))
        frame = np.random.default_rng(h + w).random((3, h, w)).astype(dtype)
        got = crop_face(frame, sk).image.data
        assert got.dtype == np.float32
        assert np.array_equal(got, two_transpose_resize(frame, box, FACE_SIZE).astype(np.float32))

    def test_peak_of_one_read_is_its_output_and_block_scratch(self):
        crop = crop_face(np.random.default_rng(2).random((3, 128, 128), dtype=np.float32),
                         head_skeleton(64.0, 64.0, spread=20.0))
        assert traced_peak(lambda: crop.image) <= 3 * FACE_SIZE * FACE_SIZE * 4 + BLOCK_ALLOWANCE

    def test_writing_into_the_frame_leaves_the_crop_unchanged(self):
        frame = disc_frame(60.0, 60.0, 12.0)
        crop = crop_face(frame, head_skeleton(60.0, 60.0))
        before = crop.image.data.copy()
        frame[...] = 0.5
        assert np.array_equal(crop.image.data, before)

    def test_writing_into_a_read_leaves_the_next_read_unchanged(self):
        crop = crop_face(disc_frame(60.0, 60.0, 12.0), head_skeleton(60.0, 60.0))
        first = crop.image.data
        before = first.copy()
        first[...] = 0.5
        assert np.array_equal(crop.image.data, before)

    def test_augment_reads_a_crop_as_its_pixels(self):
        crop = crop_face(disc_frame(60.0, 60.0, 12.0), head_skeleton(60.0, 60.0))
        assert augment_hash(crop, 9) == augment_hash(pixel_crop(crop.image.data), 9)

    def test_pixel_crop_reads_back_bit_for_bit(self):
        pixels = np.random.default_rng(3).random((3, FACE_SIZE, FACE_SIZE), dtype=np.float32)
        got = pixel_crop(pixels).image.data
        assert got is not pixels and np.array_equal(got, pixels)

    def test_resize_preserves_constant_images(self):
        img = np.full((3, 32, 32), 0.37, dtype=np.float32)
        out = resample(img, (4.0, 6.0, 11.0), 64)
        np.testing.assert_allclose(out, 0.37, atol=1e-6)


# Bytes a resample may trace beyond its output: its blocks of row scratch.
BLOCK_ALLOWANCE = 1.5e6


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tap_span(src_size, lo, side):
    """How many source pixels the FACE_SIZE taps over [lo, lo + side) read."""
    u = np.clip(lo + (np.arange(FACE_SIZE) + 0.5) * side / FACE_SIZE - 0.5, 0.0, src_size - 1.0)
    u0 = np.floor(u).astype(np.intp)
    return min(u0.max() + 1, src_size - 1) + 1 - u0.min()


def dense_resize_matrix(out_size, src_size, lo, hi):
    """[out, src] float64 bilinear weights: pixel centres, clamped, rows sum to 1."""
    rows = np.arange(out_size)
    u = np.clip(lo + (rows + 0.5) * (hi - lo) / out_size - 0.5, 0.0, src_size - 1.0)
    u0 = np.floor(u).astype(np.intp)
    u1 = np.minimum(u0 + 1, src_size - 1)
    w = np.zeros((out_size, src_size))
    w[rows, u0] += 1.0 - (u - u0)
    w[rows, u1] += u - u0
    return w


# (source H, W, box, out): crop_face upsampling, the augmentation's zoom in
# (scale 1.1) and zoom out (scale 0.9, overhangs by 28 px on every side), a box
# past the top and right edges, a non-square source, and a box past the bottom
# and left edges.
RESIZE_CASES = [
    (128, 128, (30.3, 20.7, 40.2), 512),
    (512, 512, (23.273, 23.273, 465.455), 512),
    (512, 512, (-28.444, -28.444, 568.889), 512),
    (128, 128, (100.0, -10.0, 60.0), 512),
    (96, 160, (10.5, 3.2, 70.1), 300),
    (128, 128, (-6.0, 110.0, 30.0), 512),
]


def two_transpose_resize(img, box, out):
    """Both passes gather rows: the x pass on the transposed source, the y pass
    on its transposed result."""
    x0, y0, side = box

    def lerp_rows(a, lo, hi):
        u = np.clip(lo + (np.arange(out) + 0.5) * (hi - lo) / out - 0.5, 0.0, a.shape[1] - 1.0)
        u0 = np.floor(u).astype(np.intp)
        u1 = np.minimum(u0 + 1, a.shape[1] - 1)
        frac = (u - u0).astype(a.dtype)[:, None]
        return a[:, u0] + frac * (a[:, u1] - a[:, u0])

    cols = lerp_rows(np.ascontiguousarray(img.transpose(0, 2, 1)), x0, x0 + side)
    return lerp_rows(np.ascontiguousarray(cols.transpose(0, 2, 1)), y0, y0 + side)


class TestBilinearResize:
    """`_resample` over a whole image, as the augmentation's zoom calls it."""

    @pytest.mark.parametrize("case", RESIZE_CASES, ids=[f"{h}x{w}-to-{o}-{i}" for i, (h, w, _, o) in enumerate(RESIZE_CASES)])
    def test_matches_dense_float64_oracle(self, case):
        # Each pass computes a + frac*(b - a) in float32: at most 4 roundings
        # of unit u = eps/2 on values in [0,1], so 4u per pass and 8u for both.
        h, w, box, out = case
        img = np.random.default_rng(h + w).random((3, h, w), dtype=np.float32)
        x0, y0, side = box
        wy = dense_resize_matrix(out, h, y0, y0 + side)
        wx = dense_resize_matrix(out, w, x0, x0 + side)
        ref = np.stack([wy @ img[c].astype(np.float64) @ wx.T for c in range(3)])
        got = resample(img, box, out)
        assert got.dtype == np.float32 and got.shape == (3, out, out)
        assert np.abs(got - ref).max() <= 4 * np.finfo(np.float32).eps

    @pytest.mark.parametrize("case", RESIZE_CASES, ids=["128-to-512", "512-to-512", "512-to-512-overhang",
                                                      "128-to-512-past-top", "96x160-to-300",
                                                      "128-to-512-past-bottom"])
    def test_bit_exact_with_two_transpose_formula(self, case):
        h, w, (x0, y0, side), out = case
        img = np.random.default_rng(h).random((3, h, w), dtype=np.float32)
        assert np.array_equal(resample(img, (x0, y0, side), out), two_transpose_resize(img, (x0, y0, side), out))

    def test_peak_of_a_zoom_is_its_output_and_block_scratch(self):
        img = np.random.default_rng(1).random((3, FACE_SIZE, FACE_SIZE), dtype=np.float32)
        side = FACE_SIZE / 1.05
        box = ((FACE_SIZE - side) / 2.0,) * 2 + (side,)
        assert traced_peak(lambda: resample(img, box, FACE_SIZE)) <= img.nbytes + BLOCK_ALLOWANCE


def serial_augment(img, rng):
    """The augmentation written serially: resize, gain, bias, one float64 noise
    draw, x sigma, cast, add, clip."""
    s = float(rng.uniform(*SCALE_RANGE))
    gains = rng.uniform(*GAIN_RANGE, 3).astype(img.dtype)
    biases = rng.uniform(*BIAS_RANGE, 3).astype(img.dtype)
    sigma = float(rng.uniform(0.0, NOISE_HI))
    side = FACE_SIZE / s
    ref = resample(img, ((FACE_SIZE - side) / 2.0,) * 2 + (side,), FACE_SIZE)
    ref = ref * gains[:, None, None] + biases[:, None, None]
    ref = ref + (rng.standard_normal(ref.shape) * sigma).astype(img.dtype)
    return np.clip(ref, 0.0, 1.0).astype(np.float32)


def augment_hash(face, seed):
    return hashlib.sha256(augment_face(face, np.random.default_rng(seed)).image.data.tobytes()).hexdigest()


def augment_in_child(face, seed, conn):
    conn.send(augment_hash(face, seed))
    conn.close()


class TestAugmentFace:
    def crop(self, seed=0):
        rng = np.random.default_rng(seed)
        return pixel_crop(rng.random((3, FACE_SIZE, FACE_SIZE), dtype=np.float32) * 0.8)

    def test_seeded_reproducibility(self):
        face = self.crop()
        a = augment_face(face, np.random.default_rng(5)).image.data
        b = augment_face(face, np.random.default_rng(5)).image.data
        assert np.array_equal(a, b)

    def test_values_stay_in_range(self):
        face = self.crop(2)
        out = augment_face(face, np.random.default_rng(3)).image.data
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_exact_with_out_of_place_arithmetic(self, seed):
        face = self.crop(seed)
        ref = serial_augment(face.image.data, np.random.default_rng(seed + 10))
        got = augment_face(face, np.random.default_rng(seed + 10)).image.data
        assert got.dtype == np.float32
        assert np.array_equal(got, ref)

    def test_no_thread_outlives_the_call(self):
        before = set(threading.enumerate())
        augment_face(self.crop(5), np.random.default_rng(15))
        assert set(threading.enumerate()) == before

    def test_augment_starts_a_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        with pytest.raises(AssertionError, match="thread started"):
            augment_face(self.crop(6), np.random.default_rng(0))

    def test_forked_child_gets_the_same_bits(self):
        face = self.crop(7)
        digest = augment_hash(face, 17)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=augment_in_child, args=(face, 17, send))
        child.start()
        send.close()  # the parent keeps only the read end, so a dead child reads as EOF
        try:
            ready = recv.poll(30)
            assert ready, "forked child did not finish augment_face within 30 s"
            assert recv.recv() == digest
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
                child.join(5)
        assert not child.is_alive()

    def test_legacy_random_state_raises_config_error(self):
        with pytest.raises(ConfigError, match="Generator"):
            augment_face(self.crop(8), np.random.RandomState(0))

    def test_draw_order_leaves_generator_where_a_twin_is(self):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        augment_face(self.crop(3), rng)
        twin.uniform()
        twin.uniform(size=3)
        twin.uniform(size=3)
        twin.uniform()
        twin.standard_normal((3, FACE_SIZE, FACE_SIZE))
        assert rng.standard_normal(4).tolist() == twin.standard_normal(4).tolist()

    def test_pixel_face_crop_raises_config_error(self):
        pixels = FaceCrop(Tensor(np.zeros((3, FACE_SIZE, FACE_SIZE), dtype=np.float32)))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="crop_face result"):
            augment_face(pixels, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # nothing drawn

    def test_mean_gain_within_3_sigma(self):
        # Two constant crops augmented with the same seed share zoom, bias
        # and noise, so their difference over the crop difference is each
        # channel's gain; the median skips any pixel the clip to [0, 1] moved.
        def constant(v):
            return pixel_crop(np.full((3, FACE_SIZE, FACE_SIZE), v, dtype=np.float32))

        seeds = range(16)
        gains = []
        for seed in seeds:
            lo = augment_face(constant(0.4), np.random.default_rng(seed)).image.data.astype(WIDE)
            hi = augment_face(constant(0.6), np.random.default_rng(seed)).image.data.astype(WIDE)
            gains.append(np.median(((hi - lo) / 0.2).reshape(3, -1), axis=1))
        gains = np.concatenate(gains)
        assert ((gains >= GAIN_RANGE[0]) & (gains <= GAIN_RANGE[1])).all()
        sigma = (GAIN_RANGE[1] - GAIN_RANGE[0]) / np.sqrt(12.0)
        assert abs(gains.mean() - 1.0) <= 3 * sigma / np.sqrt(gains.size)


class TestMotionBasis:
    def test_orthonormal_within_tolerance(self):
        basis = MotionBasis(np.random.default_rng(0))
        d = basis.orthonormal().data
        np.testing.assert_allclose(d @ d.T, np.eye(N_COEFF), atol=1e-5)

    def test_orthonormal_after_parameter_update(self):
        basis = MotionBasis(np.random.default_rng(1))
        raw = basis.params["raw"]
        raw.data += np.random.default_rng(2).standard_normal(raw.shape).astype(np.float32) * 0.3
        d = basis.orthonormal().data
        np.testing.assert_allclose(d @ d.T, np.eye(N_COEFF), atol=1e-5)

    def test_gram_schmidt_differentiable(self):
        # The last row of a square orthonormal basis has no direction freedom
        # (its gradient is structurally ~0), so check through rows 0..m-2 of a
        # 4x4 raw matrix; `orthonormal` runs over the rows the matrix holds.
        small = MotionBasis(np.random.default_rng(3))
        small.params["raw"] = pt.param(np.random.default_rng(3).standard_normal((4, 4)) / np.sqrt(4))
        widen(small.params.values())
        x = small.params["raw"]

        def f(raw):
            small.params["raw"] = raw
            d = pt.slice_axis(small.orthonormal(), 0, 0, 3)
            return pt.sum_all(pt.mul(d, pt.silu(d)))

        assert grad_check(f, [x], eps=1e-6) <= 1e-5


class TestEncoder:
    def test_zero_weights_give_zero_coefficients(self):
        rng = np.random.default_rng(4)
        enc = FaceEncoder(rng)
        for name in ("head.w", "head.b"):
            enc.params[name].data[:] = 0.0
        basis = MotionBasis(rng)
        crops = Tensor(rng.random((1, 3, FACE_SIZE, FACE_SIZE), dtype=np.float32))
        out = pt.matmul(enc.encode_batch(crops), basis.orthonormal())
        np.testing.assert_array_equal(out.data, np.zeros((1, N_COEFF)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        enc = FaceEncoder(rng)
        basis = MotionBasis(rng)
        crops = Tensor(rng.random((3, 3, FACE_SIZE, FACE_SIZE), dtype=np.float32))
        with pt.no_grad():
            batch = pt.matmul(enc.encode_batch(crops), basis.orthonormal()).data
            for i in range(3):
                one = Tensor(crops.data[i : i + 1].copy())
                single = pt.matmul(enc.encode_batch(one), basis.orthonormal()).data
                np.testing.assert_allclose(batch[i], single[0], atol=1e-5)


    @pytest.mark.parametrize(
        "shape",
        [(2, 3, 64, 64), (3, FACE_SIZE, FACE_SIZE), (2, 1, FACE_SIZE, FACE_SIZE), (0, 3, FACE_SIZE, FACE_SIZE)],
    )
    def test_wrong_crop_shape_raises(self, shape):
        enc = FaceEncoder(np.random.default_rng(6))
        with pytest.raises(ShapeError, match="face crops"):
            enc.encode_batch(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_peak_memory_of_four_crops(self):
        # One crop per conv call: the peak holds one crop's activations and a
        # window block of at most 2^19 bytes, whatever the batch size.
        rng = np.random.default_rng(7)
        enc = FaceEncoder(rng)
        crops = Tensor(rng.random((4, 3, FACE_SIZE, FACE_SIZE), dtype=np.float32))
        tracemalloc.start()
        try:
            with pt.no_grad():
                enc.encode_batch(crops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"encode_batch peaked at {peak / 1e6:.1f} MB"


class TestTemporalDownsampler:
    def run(self, t, seed=0):
        rng = np.random.default_rng(seed)
        ds = TemporalDownsampler(rng)
        x = Tensor(rng.standard_normal((t, N_COEFF)).astype(np.float32))
        with pt.no_grad():
            return ds(x, frame_ranges(t)).data, ds, x

    def test_single_frame_single_latent(self):
        out, _, _ = self.run(1)
        assert out.shape == (1, DOWN_WIDTH)

    def test_77_frames_20_latents(self):
        out, _, _ = self.run(77)
        assert out.shape == (20, DOWN_WIDTH)

    def test_causality_perturbation_matrix(self):
        rng = np.random.default_rng(9)
        ds = TemporalDownsampler(rng)
        t = 13
        fmap = frame_ranges(t)
        x = rng.standard_normal((t, N_COEFF)).astype(np.float32)
        with pt.no_grad():
            base = ds(Tensor(x), fmap).data
            for t0 in range(t):
                xp = x.copy()
                xp[t0] += 1.0
                pert = ds(Tensor(xp), fmap).data
                for i, (_, b) in enumerate(fmap):
                    if b <= t0:  # latent i covers frames strictly before t0
                        assert np.array_equal(base[i], pert[i])

    def test_frame_count_mismatch_raises(self):
        rng = np.random.default_rng(10)
        ds = TemporalDownsampler(rng)
        x = Tensor(rng.standard_normal((6, N_COEFF)).astype(np.float32))
        with pytest.raises(AlignmentError):
            ds(x, frame_ranges(5))

    def test_empty_frame_map_raises(self):
        ds = TemporalDownsampler(np.random.default_rng(12))
        with pytest.raises(AlignmentError):
            ds(Tensor(np.zeros((0, N_COEFF), dtype=np.float32)), [])

    @pytest.mark.parametrize(
        "fmap", [[(0, 1), (3, 5)], [(0, 3), (1, 5)], [(0, 1), (1, 1), (1, 5)]], ids=["gap", "overlap", "empty-range"]
    )
    def test_frame_map_with_gap_or_overlap_raises(self, fmap):
        # both ends match the 5 frames; only the ranges in between are wrong
        ds = TemporalDownsampler(np.random.default_rng(13))
        with pytest.raises(AlignmentError, match="gap or an overlap"):
            ds(Tensor(np.zeros((5, N_COEFF), dtype=np.float32)), fmap)

    def test_full_sequence_helper(self):
        rng = np.random.default_rng(11)
        enc = FaceEncoder(rng)
        basis = MotionBasis(rng)
        ds = TemporalDownsampler(rng)
        crops = Tensor(rng.random((5, 3, FACE_SIZE, FACE_SIZE), dtype=np.float32))
        with pt.no_grad():
            seq = encode_face_sequence(crops, enc, basis, ds, frame_ranges(5))
        assert seq.downsampled.shape == (2, DOWN_WIDTH)
