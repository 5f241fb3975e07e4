"""Condition packs against brute-force oracles."""

import numpy as np
import pytest

from puppetflow.packs import (
    ConditionPack,
    and_pool_mask,
    build_animation_pack,
    build_replacement_pack,
    sample_temporal_use,
)
from puppetflow.tensor import ConfigError, ShapeError, Tensor
from puppetflow.vae import ToyVAE
from puppetflow.video import VideoClip, frame_ranges, latent_count


@pytest.fixture(scope="module")
def vae():
    return ToyVAE(np.random.default_rng(0))


def ref_image(seed=0, hw=16):
    return np.random.default_rng(seed).random((3, hw, hw)).astype(np.float32)


def small_clip(t, hw=16, seed=1):
    rng = np.random.default_rng(seed)
    return VideoClip(Tensor(rng.random((t, 3, hw, hw)).astype(np.float32)))


def stamp_mask_oracle(n_total, g, dims):
    """Direct range stamping: 1 over [0, 1+g), 0 elsewhere."""
    m = np.zeros((1, n_total) + dims, dtype=np.float32)
    m[:, 0 : 1 + g] = 1.0
    return m


class TestAnimationPack:
    def test_78_frame_segment_layout(self, vae):
        pack = build_animation_pack(vae, ref_image(), 20, None, np.random.default_rng(0))
        assert pack.n_total == 21
        assert pack.layout.reference == (0, 1)
        assert pack.layout.target == (1, 21)
        np.testing.assert_array_equal(pack.mask.data[:, 0], 1.0)
        np.testing.assert_array_equal(pack.mask.data[:, 1:], 0.0)
        assert pack.window_frames() == 77

    def test_two_temporal_latents_mask_first_three(self, vae):
        guide = vae.encode(small_clip(5))
        pack = build_animation_pack(vae, ref_image(), 20, guide, np.random.default_rng(0))
        assert pack.layout.temporal == (1, 3)
        assert pack.layout.target == (3, 21)
        np.testing.assert_array_equal(pack.mask.data[:, :3], 1.0)
        np.testing.assert_array_equal(pack.mask.data[:, 3:], 0.0)
        np.testing.assert_array_equal(pack.condition.data[:, 1:3], guide.latents.data)

    def test_condition_zero_over_target(self, vae):
        guide = vae.encode(small_clip(1))
        pack = build_animation_pack(vae, ref_image(), 6, guide, np.random.default_rng(1))
        a, b = pack.layout.target
        np.testing.assert_array_equal(pack.condition.data[:, a:b], 0.0)

    def test_mask_matches_stamping_oracle_over_random_configs(self, vae):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = int(rng.integers(0, 3))
            n = int(rng.integers(g + 2, 24))
            guide = None
            if g:
                guide = vae.encode(small_clip(1 if g == 1 else 5, seed=int(rng.integers(1e6))))
            pack = build_animation_pack(vae, ref_image(), n, guide, rng)
            oracle = stamp_mask_oracle(n + 1, g, pack.mask.shape[2:])
            assert np.array_equal(pack.mask.data, oracle)

    def test_noise_covers_reference_and_is_seeded(self, vae):
        p1 = build_animation_pack(vae, ref_image(), 4, None, np.random.default_rng(3))
        p2 = build_animation_pack(vae, ref_image(), 4, None, np.random.default_rng(3))
        assert np.array_equal(p1.noise.data, p2.noise.data)
        assert np.abs(p1.noise.data[:, 0]).max() > 0  # reference position is noised too

    def test_invalid_temporal_count(self, vae):
        bad = vae.encode(small_clip(9))  # 3 latents
        with pytest.raises(ConfigError):
            build_animation_pack(vae, ref_image(), 10, bad, np.random.default_rng(0))

    def test_truncated_window(self, vae):
        pack = build_animation_pack(
            vae, ref_image(), 20, None, np.random.default_rng(0), window_frames=74
        )
        assert pack.window_frame_map[-1] == (73, 74)
        with pytest.raises(ShapeError):
            build_animation_pack(vae, ref_image(), 20, None, np.random.default_rng(0), window_frames=50)


class TestAndPooling:
    def brute_force(self, pixel_mask, fmap):
        t, _, h, w = pixel_mask.shape
        s = 8
        out = np.zeros((1, len(fmap), h // s, w // s), dtype=np.float32)
        for i, (a, b) in enumerate(fmap):
            for cy in range(h // s):
                for cx in range(w // s):
                    block = pixel_mask[a:b, 0, cy * s : (cy + 1) * s, cx * s : (cx + 1) * s]
                    out[0, i, cy, cx] = 1.0 if (block >= 0.5).all() else 0.0
        return out

    def test_matches_per_cell_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = int(rng.integers(1, 10))
            mask = (rng.random((t, 1, 16, 16)) > 0.4).astype(np.float32)
            assert np.array_equal(and_pool_mask(mask), self.brute_force(mask, frame_ranges(t)))

    def test_all_ones_and_all_zeros(self):
        ones = np.ones((5, 1, 16, 16), dtype=np.float32)
        assert and_pool_mask(ones).min() == 1.0
        assert and_pool_mask(np.zeros_like(ones)).max() == 0.0

    @pytest.mark.parametrize("hw", [(12, 16), (16, 20)])
    def test_size_not_divisible_by_8_raises(self, hw):
        with pytest.raises(ShapeError, match="divisible"):
            and_pool_mask(np.ones((5, 1) + hw, dtype=np.float32))

    def test_single_subject_pixel_clears_cell(self):
        m = np.ones((5, 1, 16, 16), dtype=np.float32)
        m[3, 0, 9, 2] = 0.0  # frame 3 belongs to latent 1 (frames 1..4)
        pooled = and_pool_mask(m)
        assert pooled[0, 1, 1, 0] == 0.0
        assert pooled.sum() == pooled.size - 1


class TestReplacementPack:
    def test_no_subject_keeps_everything(self, vae):
        clip = small_clip(5, seed=21)
        masks = np.zeros((5, 1, 16, 16), dtype=np.float32)
        pack = build_replacement_pack(vae, ref_image(), clip, masks, None, np.random.default_rng(0))
        np.testing.assert_array_equal(pack.mask.data, 1.0)
        env = vae.encode(clip).latents.data
        np.testing.assert_allclose(pack.condition.data[:, 1:], env, atol=1e-6)

    def test_full_subject_degenerates_to_animation(self, vae):
        # 11 frames end on a partial group; guidance of 1 and 2 latents
        for t in (5, 11):
            clip = small_clip(t, seed=22)
            masks = np.ones((t, 1, 16, 16), dtype=np.float32)
            for guide in (None, vae.encode(small_clip(1, seed=27)), vae.encode(small_clip(5, seed=28))):
                rep = build_replacement_pack(vae, ref_image(5), clip, masks, guide, np.random.default_rng(4))
                ani = build_animation_pack(
                    vae, ref_image(5), latent_count(t), guide, np.random.default_rng(4), window_frames=t
                )
                assert rep.layout == ani.layout
                assert rep.window_frame_map == ani.window_frame_map
                assert np.array_equal(rep.mask.data, ani.mask.data)
                assert np.array_equal(rep.condition.data, ani.condition.data)
                assert np.array_equal(rep.noise.data, ani.noise.data)

    def test_condition_zeroed_inside_subject_cells(self, vae):
        rng = np.random.default_rng(23)
        clip = small_clip(9, seed=23)
        masks = (rng.random((9, 1, 16, 16)) > 0.5).astype(np.float32)
        pack = build_replacement_pack(vae, ref_image(), clip, masks, None, rng)
        keep = and_pool_mask(1.0 - masks)
        target = pack.condition.data[:, 1:]
        assert np.array_equal(target * keep, target)
        np.testing.assert_array_equal(pack.mask.data[:, 1:], keep)

    def test_temporal_guidance_overrides_env(self, vae):
        clip = small_clip(9, seed=24)
        masks = (np.random.default_rng(24).random((9, 1, 16, 16)) > 0.2).astype(np.float32)
        guide = vae.encode(small_clip(5, seed=25))
        pack = build_replacement_pack(vae, ref_image(), clip, masks, guide, np.random.default_rng(0))
        np.testing.assert_array_equal(pack.mask.data[:, 1:3], 1.0)
        np.testing.assert_array_equal(pack.condition.data[:, 1:3], guide.latents.data)

    def test_length_mismatch_raises(self, vae):
        clip = small_clip(5)
        with pytest.raises(ShapeError):
            build_replacement_pack(
                vae, ref_image(), clip, np.zeros((4, 1, 16, 16), np.float32), None, np.random.default_rng(0)
            )

    def test_agrees_with_animation_where_defined(self, vae):
        # Empty-subject replacement and a guidance-saturated animation pack
        # express the same request; mask/condition agree on the shared prefix.
        clip = small_clip(5, seed=26)
        masks = np.zeros((5, 1, 16, 16), dtype=np.float32)
        guide = vae.encode(clip)  # 2 latents covering all 5 frames
        rep = build_replacement_pack(vae, ref_image(9), clip, masks, None, np.random.default_rng(5))
        ani = build_animation_pack(vae, ref_image(9), 2, guide, np.random.default_rng(5))
        np.testing.assert_array_equal(rep.mask.data[:, :3], ani.mask.data[:, :3])
        np.testing.assert_allclose(rep.condition.data[:, :3], ani.condition.data[:, :3], atol=1e-6)


class TestTemporalUse:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert all(not sample_temporal_use(0.0, rng) for _ in range(100))
        assert all(sample_temporal_use(1.0, rng) for _ in range(100))

    def test_mean_within_3_sigma(self):
        rng = np.random.default_rng(1)
        n = 10_000
        mean = np.mean([sample_temporal_use(0.5, rng) for _ in range(n)])
        assert abs(mean - 0.5) <= 3 * 0.5 / np.sqrt(n)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            sample_temporal_use(1.5, np.random.default_rng(0))
