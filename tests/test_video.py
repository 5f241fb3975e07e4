"""Latent timeline law, clip/mask file formats, VAE shape contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puppetflow.tensor import ShapeError, Tensor
from puppetflow.vae import ToyVAE
from puppetflow.video import (
    LatentVideo,
    VideoClip,
    frame_ranges,
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

    def test_mid_stream_ranges(self):
        ranges = frame_ranges(8, first_frame_alone=False)
        assert ranges == [(0, 4), (4, 8)]

    def test_total_frames(self):
        z = Tensor(np.zeros((4, 3, 2, 2), dtype=np.float32))
        assert LatentVideo(z, frame_ranges(9)).total_frames == 9
        assert LatentVideo(z, [(4, 8), (8, 12), (12, 16)], first_frame_alone=False).total_frames == 12

    def test_total_frames_without_frame_map_raises(self):
        lat = LatentVideo(Tensor(np.zeros((4, 3, 2, 2), dtype=np.float32)))
        with pytest.raises(ShapeError, match="frame_map"):
            lat.total_frames


def small_clip(t=5, hw=16, seed=0):
    rng = np.random.default_rng(seed)
    return VideoClip(Tensor(rng.random((t, 3, hw, hw)).astype(np.float32)))


class TestToyVAE:
    def test_one_frame_one_latent(self):
        vae = ToyVAE()
        lat = vae.encode(small_clip(t=1))
        assert lat.latents.shape == (4, 1, 2, 2)
        assert lat.frame_map == [(0, 1)]

    def test_five_frames_two_latents(self):
        vae = ToyVAE()
        lat = vae.encode(small_clip(t=5))
        assert lat.t_z == 2

    def test_77_frames_20_latents(self):
        vae = ToyVAE()
        lat = vae.encode(small_clip(t=77, hw=16))
        assert lat.t_z == 20
        assert lat.frame_map[-1] == (73, 77)

    @pytest.mark.parametrize("t", [1, 2, 4, 5, 9, 11])
    def test_decode_inverts_frame_count(self, t):
        vae = ToyVAE()
        clip = small_clip(t=t)
        out = vae.decode(vae.encode(clip))
        assert out.length == t
        assert out.frames.shape == clip.frames.shape

    def test_20_latents_decode_to_77_frames(self):
        vae = ToyVAE()
        rng = np.random.default_rng(3)
        lat = LatentVideo(Tensor(rng.standard_normal((4, 20, 2, 2)).astype(np.float32)), frame_ranges(77))
        assert vae.decode(lat).length == 77

    def test_group_only_stream_decodes(self):
        # a mid-sequence slice: every latent is a 4-frame group
        vae = ToyVAE()
        rng = np.random.default_rng(4)
        lat = LatentVideo(
            Tensor(rng.standard_normal((4, 3, 2, 2)).astype(np.float32)),
            [(0, 4), (4, 8), (8, 12)],
            first_frame_alone=False,
        )
        assert vae.decode(lat).length == 12

    def test_indivisible_frame_size_raises(self):
        vae = ToyVAE()
        with pytest.raises(ShapeError):
            vae.encode(VideoClip(Tensor(np.zeros((2, 3, 12, 12), dtype=np.float32))))

    def test_encode_deterministic(self):
        vae = ToyVAE()
        clip = small_clip(t=5, seed=9)
        a = vae.encode(clip).latents.data
        b = vae.encode(clip).latents.data
        assert np.array_equal(a, b)

    def test_slice_consistency_with_full_encode(self):
        # Group latents of a full encode equal a no-first-frame encode of the tail.
        vae = ToyVAE()
        clip = small_clip(t=9, seed=5)
        full = vae.encode_tensor(clip.frames).data
        tail = vae.encode_tensor(
            Tensor(clip.frames.data[1:].copy()), first_frame_alone=False
        ).data
        np.testing.assert_allclose(full[:, 1:], tail, atol=1e-6)

    def test_latent_stats_normalize(self):
        vae = ToyVAE()
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
