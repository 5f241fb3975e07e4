"""Backbone assembly, conditioning adapters, and identity pathways."""

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow.model import (
    AnimationModel,
    DiTConfig,
    LoRAAdapter,
    _inject_pose,
    lora_forward,
)
from puppetflow.packs import build_animation_pack
from puppetflow.tensor import AlignmentError, ConfigError, ShapeError, Tensor, WIDE
from puppetflow.video import VideoClip


def tiny_cfg(**kw):
    base = dict(
        n_layers=2,
        dim=16,
        n_heads=2,
        face_stride=1,
        lora_rank=4,
        latent_size=4,
        max_latents=8,
        face_width=8,
        face_coeff=4,
    )
    base.update(kw)
    return DiTConfig(**base)


@pytest.fixture()
def setup():
    cfg = tiny_cfg()
    model = AnimationModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    ref = rng.random((3, 32, 32)).astype(np.float32)
    pack = build_animation_pack(model.vae, ref, 3, None, np.random.default_rng(2))
    x_t = Tensor(rng.standard_normal(pack.noise.shape).astype(np.float32))
    pose = Tensor(rng.standard_normal((4, 3, 4, 4)).astype(np.float32))
    face = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
    return cfg, model, pack, x_t, pose, face


class TestConfig:
    def test_40_layer_stride_5_gives_8_face_blocks(self):
        cfg = DiTConfig(n_layers=40, dim=16, n_heads=2, face_stride=5, lora_rank=4, latent_size=4)
        assert cfg.face_block_count == 8
        model = AnimationModel(cfg, np.random.default_rng(0))
        assert len(model.face_blocks) == 8

    def test_toy_8_layer_stride_2_gives_4(self):
        cfg = DiTConfig(n_layers=8, dim=16, n_heads=2, face_stride=2, lora_rank=4, latent_size=4)
        assert cfg.face_block_count == 4

    def test_indivisible_stride_rejected(self):
        with pytest.raises(ConfigError):
            DiTConfig(n_layers=8, face_stride=3)

    @pytest.mark.parametrize("stride", [0, -2])
    def test_non_positive_face_stride_rejected(self, stride):
        with pytest.raises(ConfigError, match="face stride"):
            DiTConfig(face_stride=stride)

    def test_heads_must_divide_dim(self):
        for heads in (4, 0):
            with pytest.raises(ConfigError, match="heads"):
                DiTConfig(dim=18, n_heads=heads)

    def test_lora_rank_at_dim_rejected(self):
        with pytest.raises(ConfigError):
            DiTConfig(dim=16, lora_rank=16)


class TestForward:
    def test_zero_adapters_match_plain_backbone(self, setup):
        # fresh gates and body projection are zero: conditioning paths silent
        cfg, model, pack, x_t, pose, face = setup
        with pt.no_grad():
            plain = model.forward_tokens(x_t, pack, None, None, 0.5).data
            conditioned = model.forward_tokens(x_t, pack, pose, face, 0.5).data
        assert np.array_equal(plain, conditioned)

    def test_output_shape_matches_noise(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        with pt.no_grad():
            v = model.forward_tokens(x_t, pack, pose, face, 0.1)
        assert v.shape == pack.noise.shape

    def test_pack_longer_than_position_table_raises(self, setup):
        cfg, _, pack, x_t, _, _ = setup
        short = AnimationModel(tiny_cfg(max_latents=pack.n_total - 1), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            short.forward_tokens(x_t, pack, None, None, 0.5)

    def test_pose_length_mismatch_raises(self, setup):
        cfg, model, pack, x_t, _, face = setup
        bad = Tensor(np.zeros((4, 2, 4, 4), dtype=np.float32))
        with pytest.raises(AlignmentError):
            model.forward_tokens(x_t, pack, bad, face, 0.5)

    def test_face_length_mismatch_raises(self, setup):
        cfg, model, pack, x_t, pose, _ = setup
        model.face_blocks[0].params["gate"].data[:] = 1.0
        bad = Tensor(np.zeros((2, 8), dtype=np.float32))
        with pytest.raises(AlignmentError):
            model.forward_tokens(x_t, pack, pose, bad, 0.5)

    def test_reference_tokens_ignore_pose_at_injection(self, setup):
        cfg, model, pack, x_t, pose, _ = setup
        model.params["body.w"].data[:] = np.random.default_rng(3).standard_normal(
            model.params["body.w"].shape
        ).astype(np.float32)
        rng = np.random.default_rng(4)
        tokens = Tensor(rng.standard_normal((pack.n_total * cfg.tokens_per_step, cfg.dim)).astype(np.float32))
        frames = Tensor(rng.random((9, 3, 32, 32)).astype(np.float32))
        with pt.no_grad():
            out = _inject_pose(tokens, model.vae.encode_tensor(frames), model.params["body.w"], pack.n_total, cfg.patch)
            assert np.array_equal(out.data[: cfg.tokens_per_step], tokens.data[: cfg.tokens_per_step])
            assert np.abs(out.data[cfg.tokens_per_step :] - tokens.data[cfg.tokens_per_step :]).max() > 0
            # perturb a pose frame: reference tokens stay bit-identical
            frames2 = Tensor(frames.data.copy())
            frames2.data[4] += 0.5
            out2 = _inject_pose(tokens, model.vae.encode_tensor(frames2), model.params["body.w"], pack.n_total, cfg.patch)
        assert np.array_equal(out2.data[: cfg.tokens_per_step], out.data[: cfg.tokens_per_step])

    def test_zero_body_projection_is_identity(self, setup):
        cfg, model, pack, x_t, pose, _ = setup
        rng = np.random.default_rng(5)
        tokens = Tensor(rng.standard_normal((pack.n_total * cfg.tokens_per_step, cfg.dim)).astype(np.float32))
        frames = Tensor(rng.random((9, 3, 32, 32)).astype(np.float32))
        zero_w = Tensor(np.zeros_like(model.params["body.w"].data))
        with pt.no_grad():
            out = _inject_pose(tokens, model.vae.encode_tensor(frames), zero_w, pack.n_total, cfg.patch)
        assert np.array_equal(out.data, tokens.data)


class TestFaceBlock:
    def test_matches_masked_dense_attention_bit_exactly(self, setup):
        # The paper's face block is cross-attention whose mask leaves each
        # token its own step's key. Computed densely in numpy with arbitrary
        # queries and keys, the softmax is exactly one-hot, and the gather
        # must reproduce the result bit for bit, LoRA residuals included.
        cfg, model, pack, x_t, _, face = setup
        rng = np.random.default_rng(14)
        adapter = model.attach_lora(rng)
        for name, p in adapter.params.items():
            if name.endswith(".up"):
                p.data[:] = rng.standard_normal(p.shape).astype(np.float32)
        tokens = Tensor(rng.standard_normal((16, cfg.dim)).astype(np.float32))
        steps = np.repeat(np.arange(4), 4)
        mask = np.zeros((16, 4), dtype=bool)
        mask[np.arange(16), np.where(steps == 0, 3, steps - 1)] = True
        q = rng.standard_normal((16, cfg.dim)).astype(np.float32)
        k = rng.standard_normal((4, cfg.dim)).astype(np.float32)
        logits = q @ k.T / np.float32(np.sqrt(cfg.dim)) + np.where(mask, 0.0, -1e9).astype(np.float32)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        assert np.array_equal(weights, mask.astype(np.float32))

        def lora(x, w, name):
            delta = (x @ adapter.params[f"{name}.down"].data) @ adapter.params[f"{name}.up"].data
            return x @ w.data + delta * np.float32(adapter.scale)

        null = model.params["null_face"].data[None]
        for j, fb in enumerate(model.face_blocks):
            fb.params["gate"].data[:] = rng.standard_normal(cfg.dim).astype(np.float32)
            name = f"face_blocks.{j}"
            for face_in in (face, None):
                src = np.tile(null, (4, 1)) if face_in is None else np.concatenate([face.data, null])
                v = lora(src, fb.params["v"], f"{name}.v")
                out = lora(weights @ v, fb.params["o"], f"{name}.o")
                expect = tokens.data + out * fb.params["gate"].data
                with pt.no_grad():
                    got = fb(tokens, face_in, steps, 3, adapter, name).data
                assert np.array_equal(got, expect)

    def test_zero_gate_is_identity(self, setup):
        cfg, model, pack, x_t, _, face = setup
        fb = model.face_blocks[0]
        rng = np.random.default_rng(6)
        tokens = Tensor(rng.standard_normal((16, cfg.dim)).astype(np.float32))
        steps = np.repeat(np.arange(4), 4)
        with pt.no_grad():
            out = fb(tokens, face, steps, 3)
        assert np.array_equal(out.data, tokens.data)

    def test_temporal_confinement_perturbation_matrix(self, setup):
        # Perturbing face latent t' must leave every other step's tokens
        # bit-identical, at every injection depth.
        cfg, model, pack, x_t, _, face = setup
        rng = np.random.default_rng(7)
        tokens = Tensor(rng.standard_normal((16, cfg.dim)).astype(np.float32))
        steps = np.repeat(np.arange(4), 4)
        for fb in model.face_blocks:
            fb.params["gate"].data[:] = rng.standard_normal(cfg.dim).astype(np.float32)
            with pt.no_grad():
                base = fb(tokens, face, steps, 3).data
                for tp in range(3):
                    pert_face = Tensor(face.data.copy())
                    pert_face.data[tp] += 1.0
                    pert = fb(tokens, pert_face, steps, 3).data
                    for s in range(4):
                        rows = slice(s * 4, (s + 1) * 4)
                        if s == tp + 1:
                            assert np.abs(pert[rows] - base[rows]).max() > 0
                        else:
                            assert np.array_equal(pert[rows], base[rows])

    def test_reference_step_uses_null_latent(self, setup):
        cfg, model, pack, x_t, _, face = setup
        fb = model.face_blocks[0]
        fb.params["gate"].data[:] = 1.0
        rng = np.random.default_rng(8)
        tokens = Tensor(rng.standard_normal((16, cfg.dim)).astype(np.float32))
        steps = np.repeat(np.arange(4), 4)
        with pt.no_grad():
            base = fb(tokens, face, steps, 3).data
            forced = fb(tokens, None, steps, 3).data
        assert np.array_equal(base[:4], forced[:4])  # reference rows already null
        assert np.abs(base[4:] - forced[4:]).max() > 0

    def test_equal_face_latents_give_step_symmetric_outputs(self, setup):
        cfg, model, pack, x_t, _, _ = setup
        fb = model.face_blocks[0]
        fb.params["gate"].data[:] = 1.0
        rng = np.random.default_rng(9)
        row = rng.standard_normal((1, cfg.dim)).astype(np.float32)
        tokens = Tensor(np.tile(row, (16, 1)))  # identical token content everywhere
        face = Tensor(np.tile(rng.standard_normal((1, 8)).astype(np.float32), (3, 1)))
        steps = np.repeat(np.arange(4), 4)
        with pt.no_grad():
            out = fb(tokens, face, steps, 3).data
        window = out[4:].reshape(3, 4, cfg.dim)
        for s in range(1, 3):
            np.testing.assert_array_equal(window[s], window[0])


def test_default_forward_runs_one_attention_op_per_layer():
    cfg = DiTConfig()
    model = AnimationModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    side = model.vae.spatial_factor * cfg.latent_size
    pack = build_animation_pack(model.vae, rng.random((3, side, side)).astype(np.float32), 2, None, rng)
    x_t = Tensor(rng.standard_normal(pack.noise.shape).astype(np.float32))
    with pt.no_grad(), pt.profile_ops() as prof:
        model.forward_tokens(x_t, pack, None, None, 0.5)
    assert prof.ops["attention"].calls == cfg.n_layers
    assert "softmax" not in prof.ops
    # adaLN: one layer_norm node per normalization, two per block and the final one
    assert prof.ops["layer_norm"].calls == 2 * cfg.n_layers + 1


class TestLoRA:
    def test_zero_up_matches_base_exactly(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        with pt.no_grad():
            plain = model.forward_tokens(x_t, pack, pose, face, 0.3).data
        model.attach_lora(np.random.default_rng(10))
        with pt.no_grad():
            adapted = model.forward_tokens(x_t, pack, pose, face, 0.3).data
        assert np.array_equal(plain, adapted)

    def test_dense_equivalence_oracle(self):
        rng = np.random.default_rng(11)
        d, r = 8, 4
        adapter = LoRAAdapter(rng, {"layer": (d, d)}, rank=r, alpha=16.0, dtype=WIDE)
        adapter.params["layer.up"].data[:] = rng.standard_normal((r, d))
        w = Tensor(rng.standard_normal((d, d)).astype(WIDE))
        x = Tensor(rng.standard_normal((5, d)).astype(WIDE))
        delta = adapter.params["layer.down"].data @ adapter.params["layer.up"].data
        expect = x.data @ (w.data + adapter.scale * delta)
        with pt.no_grad():
            got = lora_forward(x, w, adapter, "layer").data
        assert np.abs(got - expect).max() <= 1e-12

    def test_rank_at_dim_rejected(self):
        with pytest.raises(ConfigError):
            LoRAAdapter(np.random.default_rng(0), {"layer": (8, 8)}, rank=8, alpha=16.0)

    def test_gradients_flow_to_adapter_not_frozen_base(self):
        rng = np.random.default_rng(12)
        d = 8
        adapter = LoRAAdapter(rng, {"layer": (d, d)}, rank=2, alpha=4.0)
        w = Tensor(rng.standard_normal((d, d)).astype(np.float32))  # frozen base
        x = Tensor(rng.standard_normal((3, d)).astype(np.float32))
        out = pt.sum_all(lora_forward(x, w, adapter, "layer"))
        out.backward()
        assert adapter.params["layer.down"].grad is not None
        assert adapter.params["layer.up"].grad is not None
        assert np.abs(adapter.params["layer.up"].grad).max() > 0
        assert w.grad is None

    def test_untargeted_layer_untouched(self):
        rng = np.random.default_rng(13)
        adapter = LoRAAdapter(rng, {"other": (8, 8)}, rank=2, alpha=4.0)
        w = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
        x = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
        with pt.no_grad():
            assert np.array_equal(lora_forward(x, w, adapter, "layer").data, (x.data @ w.data))


class TestParamRoles:
    def test_roles_partition_everything(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        model.attach_lora()
        named = model.named_params()
        roles = {model.role_of(k) for k in named}
        assert roles == {"base", "face", "lora", "vae"}
        face_names = [k for k in named if model.role_of(k) == "face"]
        assert any("face_enc" in k for k in face_names)
        assert any("face_blocks" in k for k in face_names)
        assert any("null_face" in k for k in face_names)
        assert "face_basis.raw" in face_names
        lora_names = model.named_params(roles=("lora",))
        assert all(k.startswith("lora.") for k in lora_names)
