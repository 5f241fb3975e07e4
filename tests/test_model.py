"""Backbone assembly, conditioning adapters, and identity pathways."""

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow.face import DOWN_WIDTH
from puppetflow.model import (
    MAX_LATENTS,
    AnimationModel,
    DiTConfig,
    LoRAAdapter,
    lora_forward,
)
from puppetflow.packs import build_animation_pack
from puppetflow.tensor import AlignmentError, ConfigError, ShapeError, Tensor, WIDE
from puppetflow.video import SPATIAL_FACTOR

from gradcheck import widen


def tiny_cfg(**kw):
    base = dict(
        n_layers=2,
        dim=16,
        n_heads=2,
        face_stride=1,
        lora_rank=4,
        latent_size=4,
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
    face = Tensor(rng.standard_normal((3, DOWN_WIDTH)).astype(np.float32))
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

    @pytest.mark.parametrize("rank", [0, -1])
    def test_lora_rank_below_one_rejected(self, rank):
        with pytest.raises(ConfigError, match="lora rank"):
            DiTConfig(lora_rank=rank)

    @pytest.mark.parametrize("size", [3, 5, 0, -2])
    def test_latent_size_not_a_positive_patch_multiple_rejected(self, size):
        with pytest.raises(ConfigError, match="latent size"):
            DiTConfig(latent_size=size)

    @pytest.mark.parametrize("field", ["n_layers", "dim", "n_heads", "face_stride", "lora_rank", "latent_size"])
    def test_non_integer_field_rejected(self, field):
        # a whole-valued float, which every range check above lets through
        value = float(getattr(DiTConfig(), field))
        with pytest.raises(ConfigError, match=f"{field} must be a whole number"):
            DiTConfig(**{field: value})


class TestForward:
    def test_zero_adapters_match_plain_backbone(self, setup):
        # fresh gates and body projection are zero: conditioning paths silent.
        # The head starts at zero too, so it is made live, or the output would
        # be zero whatever reached it.
        cfg, model, pack, x_t, pose, face = setup
        rng = np.random.default_rng(3)
        for name in ("final.w", "final.b"):
            model.params[name].data[:] = rng.standard_normal(model.params[name].shape).astype(np.float32)
        with pt.no_grad():
            plain = model.forward_tokens(x_t, pack, Tensor(np.zeros_like(pose.data)), None, 0.5).data
            conditioned = model.forward_tokens(x_t, pack, pose, face, 0.5).data
        assert np.abs(plain).max() > 0.0
        assert np.array_equal(plain, conditioned)

    def test_output_shape_matches_noise(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        with pt.no_grad():
            v = model.forward_tokens(x_t, pack, pose, face, 0.1)
        assert v.shape == pack.noise.shape

    @pytest.mark.parametrize("t", [float("nan"), -0.1, 1.5])
    def test_flow_time_outside_unit_interval_rejected(self, setup, t):
        _, model, pack, x_t, pose, face = setup
        with pytest.raises(ConfigError, match="flow time"):
            model.forward_tokens(x_t, pack, pose, face, t)

    def test_pack_longer_than_position_table_raises(self, setup):
        # MAX_LATENTS target latents and the reference: one row past the table
        _, model, _, _, _, _ = setup
        rng = np.random.default_rng(2)
        pack = build_animation_pack(model.vae, rng.random((3, 32, 32)).astype(np.float32), MAX_LATENTS, None, rng)
        x_t = Tensor(np.zeros(pack.noise.shape, dtype=np.float32))
        pose = Tensor(np.zeros((4, MAX_LATENTS, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            model.forward_tokens(x_t, pack, pose, None, 0.5)

    def test_pose_length_mismatch_raises(self, setup):
        cfg, model, pack, x_t, _, face = setup
        bad = Tensor(np.zeros((4, 2, 4, 4), dtype=np.float32))
        with pytest.raises(AlignmentError):
            model.forward_tokens(x_t, pack, bad, face, 0.5)

    def test_missing_pose_latents_raise(self, setup):
        # no pose is zero pose latents: `body.w` maps them to zero rows
        cfg, model, pack, x_t, _, face = setup
        with pytest.raises(AlignmentError, match="pose latents"):
            model.forward_tokens(x_t, pack, None, face, 0.5)

    def test_face_length_mismatch_raises(self, setup):
        cfg, model, pack, x_t, pose, _ = setup
        model.face_blocks[0].params["gate"].data[:] = 1.0
        bad = Tensor(np.zeros((2, DOWN_WIDTH), dtype=np.float32))
        with pytest.raises(AlignmentError):
            model.forward_tokens(x_t, pack, pose, bad, 0.5)

    def test_no_face_is_the_null_latent_at_every_window_step(self, setup):
        cfg, model, pack, x_t, pose, _ = setup
        rng = np.random.default_rng(15)
        for fb in model.face_blocks:
            fb.params["gate"].data[:] = rng.standard_normal(cfg.dim).astype(np.float32)
        null_rows = Tensor(np.tile(model.params["null_face"].data, (pack.condition.shape[1] - 1, 1)))
        with pt.no_grad():
            none = model.forward_tokens(x_t, pack, pose, None, 0.5).data
            repeated = model.forward_tokens(x_t, pack, pose, null_rows, 0.5).data
        assert np.array_equal(none, repeated)

    def test_reference_tokens_ignore_pose_at_injection(self, setup):
        # With no layers every op is token-wise, so the reference step's output
        # sees its own tokens only: pose reaches it only if injection adds it there.
        _, _, pack, x_t, pose, face = setup
        model = AnimationModel(tiny_cfg(n_layers=0), np.random.default_rng(0))
        rng = np.random.default_rng(3)
        for name in ("body.w", "final.w"):
            w = model.params[name]
            w.data[:] = rng.standard_normal(w.shape).astype(np.float32)
        moved = Tensor(pose.data.copy())
        moved.data += rng.standard_normal(pose.shape).astype(np.float32)
        with pt.no_grad():
            out = model.forward_tokens(x_t, pack, pose, face, 0.5).data
            out2 = model.forward_tokens(x_t, pack, moved, face, 0.5).data
        assert np.array_equal(out2[:, 0], out[:, 0])
        assert (out2[:, 1:] != out[:, 1:]).any(axis=(0, 2, 3)).all()  # every window step moves

    def test_zero_body_projection_is_identity(self, setup):
        _, model, pack, x_t, pose, face = setup
        rng = np.random.default_rng(5)
        for name, w in model.params.items():  # zero-initialised adaLN and head: the output sees the tokens
            if name.endswith((".ada.w", "final.w")):
                w.data[:] = 0.1 * rng.standard_normal(w.shape).astype(np.float32)
        model.params["body.w"].data[:] = 0.0
        with pt.no_grad():
            posed = model.forward_tokens(x_t, pack, pose, face, 0.5).data
            unposed = model.forward_tokens(x_t, pack, Tensor(np.zeros_like(pose.data)), face, 0.5).data
        assert np.abs(unposed).max() > 0
        assert np.array_equal(posed, unposed)


STEPS = np.repeat(np.arange(4), 4)  # 16 tokens: the reference step and a 3-step window
KEYS = np.where(STEPS == 0, 3, STEPS - 1)  # the reference step reads the null row


def face_values(model, face):
    """A face block's value rows: the window's face latents, then the null latent."""
    return Tensor(np.concatenate([face.data, model.params["null_face"].data[None]]))


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
        mask = np.zeros((16, 4), dtype=bool)
        mask[np.arange(16), KEYS] = True
        q = rng.standard_normal((16, cfg.dim)).astype(np.float32)
        k = rng.standard_normal((4, cfg.dim)).astype(np.float32)
        logits = q @ k.T / np.float32(np.sqrt(cfg.dim)) + np.where(mask, 0.0, -1e9).astype(np.float32)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        assert np.array_equal(weights, mask.astype(np.float32))

        def lora(x, w, name):
            delta = (x @ adapter.params[f"{name}.down"].data) @ adapter.params[f"{name}.up"].data
            return x @ w.data + delta * np.float32(adapter.scale)

        values = face_values(model, face)
        for j, fb in enumerate(model.face_blocks):
            fb.params["gate"].data[:] = rng.standard_normal(cfg.dim).astype(np.float32)
            name = f"face_blocks.{j}"
            v = lora(values.data, fb.params["v"], f"{name}.v")
            out = lora(weights @ v, fb.params["o"], f"{name}.o")
            expect = tokens.data + out * fb.params["gate"].data
            with pt.no_grad():
                got = fb(tokens, values, KEYS, adapter, name).data
            assert np.array_equal(got, expect)

    def test_zero_gate_is_identity(self, setup):
        cfg, model, pack, x_t, _, face = setup
        fb = model.face_blocks[0]
        rng = np.random.default_rng(6)
        tokens = Tensor(rng.standard_normal((16, cfg.dim)).astype(np.float32))
        with pt.no_grad():
            out = fb(tokens, face_values(model, face), KEYS, None, "face_blocks.0")
        assert np.array_equal(out.data, tokens.data)

    def test_temporal_confinement_perturbation_matrix(self, setup):
        # Perturbing face latent t' must leave every other step's tokens
        # bit-identical, at every injection depth.
        cfg, model, pack, x_t, _, face = setup
        rng = np.random.default_rng(7)
        tokens = Tensor(rng.standard_normal((16, cfg.dim)).astype(np.float32))
        for j, fb in enumerate(model.face_blocks):
            fb.params["gate"].data[:] = rng.standard_normal(cfg.dim).astype(np.float32)
            name = f"face_blocks.{j}"
            with pt.no_grad():
                base = fb(tokens, face_values(model, face), KEYS, None, name).data
                for tp in range(3):
                    pert_face = Tensor(face.data.copy())
                    pert_face.data[tp] += 1.0
                    pert = fb(tokens, face_values(model, pert_face), KEYS, None, name).data
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
        null_rows = Tensor(np.tile(model.params["null_face"].data, (4, 1)))
        with pt.no_grad():
            base = fb(tokens, face_values(model, face), KEYS, None, "face_blocks.0").data
            forced = fb(tokens, null_rows, KEYS, None, "face_blocks.0").data
        assert np.array_equal(base[:4], forced[:4])  # reference rows already null
        assert np.abs(base[4:] - forced[4:]).max() > 0

    def test_equal_face_latents_give_step_symmetric_outputs(self, setup):
        cfg, model, pack, x_t, _, _ = setup
        fb = model.face_blocks[0]
        fb.params["gate"].data[:] = 1.0
        rng = np.random.default_rng(9)
        row = rng.standard_normal((1, cfg.dim)).astype(np.float32)
        tokens = Tensor(np.tile(row, (16, 1)))  # identical token content everywhere
        face = Tensor(np.tile(rng.standard_normal((1, DOWN_WIDTH)).astype(np.float32), (3, 1)))
        with pt.no_grad():
            out = fb(tokens, face_values(model, face), KEYS, None, "face_blocks.0").data
        window = out[4:].reshape(3, 4, cfg.dim)
        for s in range(1, 3):
            np.testing.assert_array_equal(window[s], window[0])


def test_default_forward_runs_one_attention_op_per_layer():
    cfg = DiTConfig()
    model = AnimationModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    side = SPATIAL_FACTOR * cfg.latent_size
    pack = build_animation_pack(model.vae, rng.random((3, side, side)).astype(np.float32), 2, None, rng)
    x_t = Tensor(rng.standard_normal(pack.noise.shape).astype(np.float32))
    pose = Tensor(np.zeros((4, 2, cfg.latent_size, cfg.latent_size), dtype=np.float32))
    with pt.no_grad(), pt.profile_ops() as prof:
        model.forward_tokens(x_t, pack, pose, None, 0.5)
    assert prof.ops["attention"].calls == cfg.n_layers
    assert "softmax" not in prof.ops
    # adaLN: one layer_norm node per normalization, two per block and the final one
    assert prof.ops["layer_norm"].calls == 2 * cfg.n_layers + 1


def test_default_config_gives_the_benchmark_shapes():
    # The benchmark builds the default model, and these shapes fix the draws
    # of its weights.
    cfg = DiTConfig()
    model = AnimationModel(cfg, np.random.default_rng(0))
    assert (1 + 5) * cfg.tokens_per_step == 384  # 5 latents and the reference
    assert (cfg.token_dim, cfg.out_dim) == (36, 16)
    p = model.params
    assert p["input.w"].shape == (36, 128) and p["final.w"].shape == (128, 16)
    assert p["pos.temporal"].shape == (MAX_LATENTS, 128) == (24, 128)
    assert p["blocks.0.mlp.w1"].shape == (128, 512)
    assert p["null_face"].shape == (DOWN_WIDTH,) and model.face_blocks[0].params["v"].shape == (DOWN_WIDTH, 128)
    assert model.attach_lora(np.random.default_rng(0)).scale == 2.0


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
        adapter = LoRAAdapter(rng, {"layer": (d, d)}, rank=r)
        widen(adapter.params.values())
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
            LoRAAdapter(np.random.default_rng(0), {"layer": (8, 8)}, rank=8)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ConfigError, match="lora rank"):
            LoRAAdapter(np.random.default_rng(0), {"layer": (8, 8)}, rank=rank)

    def test_fractional_rank_rejected(self):
        with pytest.raises(ConfigError, match="lora rank"):
            LoRAAdapter(np.random.default_rng(0), {"layer": (8, 8)}, rank=2.5)

    def test_fractional_config_rank_rejected_at_attach(self):
        # DiTConfig rejects the rank when built; a field set later still meets the adapter's check
        model = AnimationModel(tiny_cfg(), np.random.default_rng(0))
        model.cfg.lora_rank = 2.5
        with pytest.raises(ConfigError, match="lora rank"):
            model.attach_lora(np.random.default_rng(1))

    def test_use_lora_false_is_the_model_without_adapter(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        rng = np.random.default_rng(11)
        for p in model.named_params().values():  # zero-initialised gates and heads go live
            p.data[...] = rng.standard_normal(p.shape) * 0.1
        with pt.no_grad():
            plain = model.forward_tokens(x_t, pack, pose, face, 0.3).data
        adapter = model.attach_lora(np.random.default_rng(10))
        for name, p in adapter.params.items():
            if name.endswith(".up"):
                p.data[...] = rng.standard_normal(p.shape)
        with pt.no_grad():
            off = model.forward_tokens(x_t, pack, pose, face, 0.3, use_lora=False).data
            on = model.forward_tokens(x_t, pack, pose, face, 0.3, use_lora=True).data
        assert np.array_equal(off, plain)
        assert not np.allclose(on, plain)

    def test_gradients_flow_to_adapter_not_frozen_base(self):
        rng = np.random.default_rng(12)
        d = 8
        adapter = LoRAAdapter(rng, {"layer": (d, d)}, rank=2)
        w = Tensor(rng.standard_normal((d, d)).astype(np.float32))  # frozen base
        x = Tensor(rng.standard_normal((3, d)).astype(np.float32))
        out = pt.sum_all(lora_forward(x, w, adapter, "layer"))
        out.backward()
        assert adapter.params["layer.down"].grad is not None
        assert adapter.params["layer.up"].grad is not None
        assert np.abs(adapter.params["layer.up"].grad).max() > 0
        assert w.grad is None


class TestParamRoles:
    def test_roles_partition_everything(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        model.attach_lora(np.random.default_rng(0))
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


class TestParamContract:
    def test_every_param_is_a_distinct_narrow_leaf(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        model.attach_lora(np.random.default_rng(3))
        named = model.named_params()
        assert len({id(p) for p in named.values()}) == len(named)
        for name, p in named.items():
            assert p.dtype == np.float32 and p.requires_grad, name
            assert p._parents == () and p._bwd is None, name

    def test_widened_params_give_a_wide_vae_and_pack(self, setup):
        cfg, model, pack, x_t, pose, face = setup
        widen(model.named_params().values())
        assert model.vae.dtype == WIDE
        assert all(p.dtype == WIDE for p in model.named_params().values())
        assert [name for name in model.named_params() if "null" in name] == ["dit.null_face"]
        rng = np.random.default_rng(4)
        wide = build_animation_pack(model.vae, rng.random((3, 32, 32)), 3, None, rng)
        assert wide.condition.dtype == wide.mask.dtype == wide.noise.dtype == WIDE
