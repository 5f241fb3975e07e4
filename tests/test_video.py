"""Latent timeline law, clip/mask file formats, VAE shape contracts."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puppetflow.tensor as pt
from puppetflow.face import N_COEFF, TemporalDownsampler
from puppetflow.tensor import AlignmentError, NumericalError, ShapeError, Tensor
from puppetflow.vae import ToyVAE
from puppetflow.video import (
    TEMPORAL_GROUP,
    LatentVideo,
    VideoClip,
    frame_ranges,
    is_frame_run,
    latent_count,
    load_clip,
    load_masks,
    save_clip,
    save_masks,
)


class TestTemporalLaw:
    @pytest.mark.parametrize("frames,latents", [(1, 1), (5, 2), (77, 20), (2, 2), (78, 21)])
    def test_latent_count(self, frames, latents):
        assert latent_count(frames) == latents

    @settings(max_examples=200, deadline=None)
    @given(t=st.integers(1, 400))
    def test_frame_map_partitions(self, t):
        ranges = frame_ranges(t)
        assert len(ranges) == latent_count(t)
        assert ranges[0] == (0, 1)
        assert ranges[-1][1] == t
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c and b > a and d > c
        for a, b in ranges[1:]:
            assert b - a <= 4

    @pytest.mark.parametrize("frames", [2.5, 5.0, "5"])
    def test_non_integer_frame_count_raises(self, frames):
        for law in (frame_ranges, latent_count):
            with pytest.raises(ShapeError, match="whole number"):
                law(frames)

    def test_mid_stream_ranges(self):
        assert frame_ranges(9)[1:] == [(1, 5), (5, 9)]

    def test_empty_frame_map_raises(self):
        # the map is required, so no LatentVideo lacks the frames it covers
        with pytest.raises(ShapeError, match="frame_map"):
            LatentVideo(Tensor(np.zeros((4, 3, 2, 2), dtype=np.float32)), [])


@st.composite
def frame_runs(draw, min_len=1):
    """A run of consecutive entries of frame_ranges(T), T in 1..64."""
    ranges = frame_ranges(draw(st.integers(1, 64)))
    n = draw(st.integers(min(min_len, len(ranges)), len(ranges)))
    i = draw(st.integers(0, len(ranges) - n))
    return ranges[i : i + n]


@st.composite
def broken_runs(draw):
    """A run of 3 or more ranges with one fault in it."""
    run = draw(frame_runs(min_len=3).filter(lambda r: len(r) >= 3))
    fault = draw(st.sampled_from(["shifted boundary", "dropped middle", "widened last", "empty range"]))
    k = draw(st.integers(1, len(run) - 2))
    if fault == "shifted boundary":
        d = draw(st.sampled_from([-1, 1]))
        run[k - 1 : k + 1] = [(run[k - 1][0], run[k][0] + d), (run[k][0] + d, run[k][1])]
    elif fault == "dropped middle":
        del run[k]
    elif fault == "widened last":
        a = run[-1][0]
        run[-1] = (a, a + TEMPORAL_GROUP + 1)
    else:
        run.insert(k, (run[k][0], run[k][0]))
    return run


def zero_latents(n):
    return Tensor(np.zeros((4, n, 1, 1), dtype=np.float32))


class TestFrameRuns:
    """A frame map is valid exactly when it is a run of frame_ranges(end)."""

    vae = ToyVAE(np.random.default_rng(0))
    downsampler = TemporalDownsampler(np.random.default_rng(1))

    @settings(max_examples=150, deadline=None)
    @given(run=frame_runs())
    def test_every_run_is_accepted_and_decodes_its_frames(self, run):
        assert is_frame_run(run)
        lat = LatentVideo(zero_latents(len(run)), run)
        assert self.vae.decode(lat).length == run[-1][1] - run[0][0]

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 24), data=st.data())
    def test_run_decodes_to_its_frames_of_the_full_stream(self, t, data):
        full = frame_ranges(t)
        i = data.draw(st.integers(0, len(full) - 1))
        j = data.draw(st.integers(i + 1, len(full)))
        rng = np.random.default_rng(t)
        z = Tensor(rng.standard_normal((4, len(full), 1, 1)).astype(np.float32))
        with pt.no_grad():
            whole = self.vae.decode_tensor(z, full).data
            part = self.vae.decode_tensor(Tensor(z.data[:, i:j].copy()), full[i:j]).data
        np.testing.assert_allclose(part, whole[full[i][0] : full[j - 1][1]], rtol=1e-5, atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(run=broken_runs())
    def test_broken_runs_are_rejected_everywhere(self, run):
        self.assert_rejected(run)

    @pytest.mark.parametrize(
        "fmap",
        [[(0, 1), (3, 5), (5, 9)], [(0, 1), (1, 5), (5, 5)], [(0, 1), (1, 5), (5, 12)]],
        ids=["gap", "empty-last", "wider-than-a-group"],
    )
    def test_bad_maps_are_rejected_before_any_conv(self, fmap, monkeypatch):
        def no_conv(*args, **kwargs):
            raise AssertionError("a conv ran on an invalid frame map")

        monkeypatch.setattr(pt, "conv2d", no_conv)
        self.assert_rejected(fmap)

    @staticmethod
    def reference_is_frame_run(frame_map):
        """The definition itself: the map equals the tail of frame_ranges(end)."""
        if len(frame_map) == 0 or frame_map[-1][1] < 1:
            return False
        return [tuple(r) for r in frame_map] == frame_ranges(frame_map[-1][1])[-len(frame_map):]

    def test_agrees_with_the_definition_on_every_run(self):
        for t in range(1, 65):
            ranges = frame_ranges(t)
            for i in range(len(ranges)):
                for j in range(i + 1, len(ranges) + 1):
                    assert is_frame_run(ranges[i:j]) and self.reference_is_frame_run(ranges[i:j])

    @settings(max_examples=500, deadline=None)
    @given(start=st.integers(-6, 30), steps=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 5)), max_size=8))
    def test_agrees_with_the_definition_on_random_maps(self, start, steps):
        # each range starts just before, at or just after the previous end and
        # may be empty or reversed, so most maps are near misses of a run
        fmap, a = [], start
        for jump, width in steps:
            a += jump
            fmap.append((a, a + width))
            a += width
        assert is_frame_run(fmap) == self.reference_is_frame_run(fmap)

    def test_maps_that_end_far_into_a_stream(self):
        end = 1 + 1_000_000 * TEMPORAL_GROUP
        assert is_frame_run([(end - TEMPORAL_GROUP, end)])
        assert not is_frame_run([(1, end)])  # one range over a million groups
        assert not is_frame_run([(0, 1), (1, end)])

    @pytest.mark.parametrize(
        "fmap",
        [[(0, 1), (1, 5.0)], [(5.0, 9), (9, 13)], [(0, 1), (1, float("nan"))]],
        ids=["float-end", "float-start", "nan-end"],
    )
    def test_non_integer_bounds_are_rejected_everywhere(self, fmap):
        self.assert_rejected(fmap, frames=4)

    @pytest.mark.parametrize("ranges", [frame_ranges(9), frame_ranges(13)[2:]], ids=["from-0", "mid-stream"])
    def test_numpy_integer_bounds_are_accepted_everywhere(self, ranges):
        fmap = [(np.int64(a), np.int64(b)) for a, b in ranges]
        frames = ranges[-1][1] - ranges[0][0]
        assert is_frame_run(fmap)
        assert self.vae.decode(LatentVideo(zero_latents(len(fmap)), fmap)).length == frames
        rows = Tensor(np.zeros((frames, N_COEFF), dtype=np.float32))
        assert self.downsampler(rows, fmap).shape[0] == len(fmap)

    def assert_rejected(self, fmap, frames=None):
        """Each entry point raises its own error; `frames` sizes the downsampler's rows
        where the map's bounds cannot."""
        assert not is_frame_run(fmap)
        with pytest.raises(ShapeError, match="not a run"):
            LatentVideo(zero_latents(len(fmap)), fmap)
        with pytest.raises(ShapeError, match="not a run"):
            self.vae.decode_tensor(zero_latents(len(fmap)), fmap)
        if frames is None:
            frames = fmap[-1][1] - fmap[0][0]
        rows = Tensor(np.zeros((frames, N_COEFF), dtype=np.float32))
        with pytest.raises(AlignmentError, match="gap or an overlap"):
            self.downsampler(rows, fmap)


def small_clip(t=5, hw=16, seed=0):
    rng = np.random.default_rng(seed)
    return VideoClip(Tensor(rng.random((t, 3, hw, hw)).astype(np.float32)))


class TestToyVAE:
    def test_one_frame_one_latent(self):
        vae = ToyVAE(np.random.default_rng(0))
        lat = vae.encode(small_clip(t=1))
        assert lat.latents.shape == (4, 1, 2, 2)
        assert lat.frame_map == [(0, 1)]

    def test_five_frames_two_latents(self):
        vae = ToyVAE(np.random.default_rng(0))
        lat = vae.encode(small_clip(t=5))
        assert lat.t_z == 2

    def test_77_frames_20_latents(self):
        vae = ToyVAE(np.random.default_rng(0))
        lat = vae.encode(small_clip(t=77, hw=16))
        assert lat.t_z == 20
        assert lat.frame_map[-1] == (73, 77)

    @pytest.mark.parametrize("t", [1, 2, 4, 5, 9, 11])
    def test_decode_inverts_frame_count(self, t):
        vae = ToyVAE(np.random.default_rng(0))
        clip = small_clip(t=t)
        out = vae.decode(vae.encode(clip))
        assert out.length == t
        assert out.frames.shape == clip.frames.shape

    def test_20_latents_decode_to_77_frames(self):
        vae = ToyVAE(np.random.default_rng(0))
        rng = np.random.default_rng(3)
        lat = LatentVideo(Tensor(rng.standard_normal((4, 20, 2, 2)).astype(np.float32)), frame_ranges(77))
        assert vae.decode(lat).length == 77

    def test_group_only_stream_decodes(self):
        # a mid-sequence slice: every latent is a 4-frame group
        vae = ToyVAE(np.random.default_rng(0))
        rng = np.random.default_rng(4)
        lat = LatentVideo(
            Tensor(rng.standard_normal((4, 3, 2, 2)).astype(np.float32)), [(1, 5), (5, 9), (9, 13)]
        )
        assert vae.decode(lat).length == 12

    def test_indivisible_frame_size_raises(self):
        vae = ToyVAE(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            vae.encode(VideoClip(Tensor(np.zeros((2, 3, 12, 12), dtype=np.float32))))

    @pytest.mark.parametrize("shape", [(3, 16, 16), (1, 2, 3, 16, 16), (2, 3, 12, 16)], ids=["3d", "5d", "indivisible"])
    def test_encode_tensor_rejects_bad_frames(self, shape):
        vae = ToyVAE(np.random.default_rng(0))
        with pytest.raises(ShapeError, match=r"not \[T,3,H,W\]"):
            vae.encode_tensor(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_encode_deterministic(self):
        vae = ToyVAE(np.random.default_rng(0))
        clip = small_clip(t=5, seed=9)
        a = vae.encode(clip).latents.data
        b = vae.encode(clip).latents.data
        assert np.array_equal(a, b)

    def test_latent_stats_normalize(self):
        vae = ToyVAE(np.random.default_rng(0))
        clip = small_clip(t=5, seed=7)
        raw = vae.encode(clip).latents.data
        mean = raw.mean(axis=(1, 2, 3))
        std = raw.std(axis=(1, 2, 3)) + 0.1
        vae.set_latent_stats(mean, std)
        normed = vae.encode(clip).latents.data
        np.testing.assert_allclose(normed.mean(axis=(1, 2, 3)), 0.0, atol=1e-5)
        out = vae.decode(LatentVideo(Tensor(normed), frame_ranges(5)))
        vae.set_latent_stats(np.zeros(4), np.ones(4))
        ref = vae.decode(LatentVideo(Tensor(raw), frame_ranges(5)))
        np.testing.assert_allclose(out.frames.data, ref.frames.data, atol=1e-5)


class TestClipFiles:
    def test_clip_round_trip(self, tmp_path):
        clip = small_clip(t=3, hw=8, seed=11)
        save_clip(tmp_path / "c", clip)
        back = load_clip(tmp_path / "c")
        assert back.length == 3
        # 8-bit quantization bound
        assert np.abs(back.frames.data - clip.frames.data).max() <= 0.5 / 255 + 1e-6

    def test_meta_file(self, tmp_path):
        save_clip(tmp_path / "c", small_clip(t=2, hw=8))
        meta = (tmp_path / "c" / "clip.meta").read_text()
        assert "frames=2" in meta and "fps=16.0" in meta

    def test_ppm_header(self, tmp_path):
        save_clip(tmp_path / "c", small_clip(t=1, hw=8))
        raw = (tmp_path / "c" / "frame_00000.ppm").read_bytes()
        assert raw.startswith(b"P6\n8 8\n255\n")
        assert len(raw) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3

    def test_nan_frame_raises_before_any_file_is_written(self, tmp_path):
        clip = small_clip(t=3, hw=8)
        clip.frames.data[1, 2, 5, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning either
            with pytest.raises(NumericalError, match="frame 1 "):
                save_clip(tmp_path / "c", clip)
        assert not (tmp_path / "c").exists()

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        masks = (rng.random((4, 1, 8, 8)) > 0.5).astype(np.float32)
        save_masks(tmp_path / "m", masks)
        back = load_masks(tmp_path / "m", 4)
        assert np.array_equal(back, masks)

    def test_pgm_binary_values(self, tmp_path):
        masks = np.ones((1, 1, 4, 4), dtype=np.float32)
        save_masks(tmp_path / "m", masks)
        raw = (tmp_path / "m" / "mask_00000.pgm").read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert set(raw[len(b"P5\n4 4\n255\n") :]) == {255}

    def test_ppm_every_prefix_raises(self, tmp_path):
        save_clip(tmp_path / "c", small_clip(t=1, hw=8))
        frame = tmp_path / "c" / "frame_00000.ppm"
        raw = frame.read_bytes()
        for cut in range(len(raw)):
            frame.write_bytes(raw[:cut])
            with pytest.raises(ShapeError, match="frame_00000.ppm"):
                load_clip(tmp_path / "c")
        frame.write_bytes(raw)
        assert load_clip(tmp_path / "c").frames.shape == (1, 3, 8, 8)

    def test_pgm_every_prefix_raises(self, tmp_path):
        save_masks(tmp_path / "m", np.ones((1, 1, 4, 8), dtype=np.float32))
        mask = tmp_path / "m" / "mask_00000.pgm"
        raw = mask.read_bytes()
        for cut in range(len(raw)):
            mask.write_bytes(raw[:cut])
            with pytest.raises(ShapeError, match="mask_00000.pgm"):
                load_masks(tmp_path / "m", 1)
        mask.write_bytes(raw)
        assert load_masks(tmp_path / "m", 1).shape == (1, 1, 4, 8)

    @pytest.mark.parametrize("header", [b"P6\nx 8\n255\n", b"P6\n8\n255\n", b"P6 8\n8\n-1\n"])
    def test_malformed_ppm_header_raises(self, tmp_path, header):
        save_clip(tmp_path / "c", small_clip(t=1, hw=8))
        (tmp_path / "c" / "frame_00000.ppm").write_bytes(header + bytes(8 * 8 * 3))
        with pytest.raises(ShapeError, match="header"):
            load_clip(tmp_path / "c")

    @pytest.mark.parametrize(
        "meta, match",
        [
            ("fps=16.0\n", "frames="),
            ("frames=2\n", "fps="),
            ("frames=0\nfps=16.0\n", "at least 1 frame"),
            ("frames=3\nfps=16.0\n", "frame_00002.ppm: missing"),
        ],
        ids=["no-frames", "no-fps", "zero-frames", "frames-above-files"],
    )
    def test_bad_meta_raises_shape_error_naming_the_path(self, tmp_path, meta, match):
        save_clip(tmp_path / "c", small_clip(t=2, hw=8))
        (tmp_path / "c" / "clip.meta").write_text(meta)
        with pytest.raises(ShapeError, match=match) as err:
            load_clip(tmp_path / "c")
        assert str(tmp_path / "c") in str(err.value)

    def test_fewer_masks_than_requested_raises(self, tmp_path):
        save_masks(tmp_path / "m", np.ones((2, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError, match="mask_00002.pgm: missing"):
            load_masks(tmp_path / "m", 3)

    def test_non_integer_mask_count_raises(self, tmp_path):
        save_masks(tmp_path / "m", np.ones((3, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError, match="whole number"):
            load_masks(tmp_path / "m", 2.5)
        assert load_masks(tmp_path / "m", np.int64(2)).shape == (2, 1, 4, 4)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4, 4), (1, 1, 1, 4, 4), (4,), (2, 4, 4)])
    def test_save_masks_of_wrong_shape_raises(self, tmp_path, shape):
        with pytest.raises(ShapeError, match="masks must be"):
            save_masks(tmp_path / "m", np.ones(shape, dtype=np.float32))
        assert not (tmp_path / "m").exists()
