"""Flow objective, sampler algebra, end-to-end gradients."""

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow.face import DOWN_WIDTH, N_COEFF
from puppetflow.flow import FlowState, flow_loss, make_flow_state, sample
from puppetflow.model import AnimationModel
from puppetflow.packs import build_animation_pack
from puppetflow.tensor import AlignmentError, ConditioningError, ConfigError, ShapeError, Tensor

from gradcheck import grad_check, widen
from test_model import tiny_cfg


class TestFlowState:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((2, 3)).astype(np.float32)
        noise = rng.standard_normal((2, 3)).astype(np.float32)
        assert np.array_equal(make_flow_state(x0, noise, 0.0).x_t.data, x0)
        assert np.array_equal(make_flow_state(x0, noise, 1.0).x_t.data, noise)
        st = make_flow_state(x0, noise, 0.25)
        np.testing.assert_allclose(st.x_t.data, 0.75 * x0 + 0.25 * noise, atol=1e-7)
        np.testing.assert_array_equal(st.v_target, noise - x0)

    def test_time_out_of_range(self):
        z = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ConfigError):
            make_flow_state(z, z, 1.5)


class TestFlowLoss:
    def setup_case(self, seed=0, t=4, hw=2):
        rng = np.random.default_rng(seed)
        pred = Tensor(rng.standard_normal((3, t, hw, hw)).astype(np.float32))
        target = rng.standard_normal((3, t, hw, hw)).astype(np.float32)
        mask = np.zeros((1, t, hw, hw), dtype=np.float32)
        mask[:, 0] = 1.0
        return pred, target, mask

    def test_perfect_prediction_gives_zero(self):
        pred, target, mask = self.setup_case()
        loss = flow_loss(Tensor(target.copy()), target, mask)
        assert loss.item() == 0.0

    def test_uniform_weights_equal_plain_mse_oracle(self):
        pred, target, mask = self.setup_case(1)
        loss = flow_loss(pred, target, mask).item()
        gen = (1.0 - mask) > 0
        sq = (pred.data - target) ** 2
        expect = sq[:, gen[0].astype(bool)].sum() / (3 * gen.sum())
        assert loss == pytest.approx(expect, rel=1e-6)

    def test_doubling_region_weight_doubles_loss(self):
        pred, target, mask = self.setup_case(2)
        # error confined to position (2, 0, 0)
        pred.data[:] = target
        pred.data[:, 2, 0, 0] += 1.0
        w = np.ones_like(mask)
        w[:, 2, 0, 0] = 2.0
        base = flow_loss(pred, target, mask, np.ones_like(mask)).item()
        doubled = flow_loss(pred, target, mask, w).item()
        assert doubled == pytest.approx(2.0 * base, rel=1e-6)

    def test_region_weighted_loss_equals_the_per_cell_formula(self):
        # sum over generated cells of weight * squared error, over C times
        # the generated cell count (unweighted), in float64
        pred, target, mask = self.setup_case(6)
        mask[0, 2, 1, 0] = 1.0  # a preserved cell inside the window
        w = 1.0 + np.random.default_rng(7).random(mask.shape).astype(np.float32) * 3.0
        c, t, h, wd = pred.shape
        total, cells = 0.0, 0
        for ti in range(t):
            for y in range(h):
                for x in range(wd):
                    if mask[0, ti, y, x] == 0.0:
                        cells += 1
                        err = pred.data[:, ti, y, x].astype(np.float64) - target[:, ti, y, x]
                        total += float(w[0, ti, y, x]) * float((err * err).sum())
        assert flow_loss(pred, target, mask, w).item() == pytest.approx(total / (c * cells), rel=1e-6)

    @pytest.mark.parametrize("shape", [(1, 3, 2, 2), (3, 4, 2, 2), (4, 2, 2)], ids=["fewer-steps", "per-channel", "3d"])
    def test_region_weights_of_another_shape_raise_shape_error(self, shape):
        pred, target, mask = self.setup_case(6)
        with pytest.raises(ShapeError, match="weights"):
            flow_loss(pred, target, mask, np.ones(shape, dtype=np.float32))

    def test_preserved_positions_contribute_nothing(self):
        pred, target, mask = self.setup_case(3)
        base = flow_loss(pred, target, mask).item()
        pred.data[:, 0] += 100.0  # masked position
        assert flow_loss(pred, target, mask).item() == pytest.approx(base, rel=1e-6)

    def test_all_preserved_raises(self):
        pred, target, mask = self.setup_case(4)
        with pytest.raises(ConditioningError):
            flow_loss(pred, target, np.ones_like(mask))

    def test_weights_below_one_rejected(self):
        pred, target, mask = self.setup_case(5)
        with pytest.raises(ConfigError):
            flow_loss(pred, target, mask, np.full_like(mask, 0.5))

    def test_nan_weight_rejected(self):
        pred, target, mask = self.setup_case(5)
        weights = np.full_like(mask, 2.0)
        weights[0, 1, 0, 0] = np.nan
        with pytest.raises(ConfigError, match="region weights"):
            flow_loss(pred, target, mask, weights)


@pytest.fixture()
def toy():
    cfg = tiny_cfg()
    model = AnimationModel(cfg, np.random.default_rng(0))
    # give the zero-init pathways signal so sampling is nontrivial
    rng = np.random.default_rng(1)
    for name in ("body.w", "final.w"):
        model.params[name].data[:] = rng.standard_normal(model.params[name].shape).astype(np.float32) * 0.1
    ref = rng.random((3, 32, 32)).astype(np.float32)
    pack = build_animation_pack(model.vae, ref, 3, None, np.random.default_rng(2))
    pose = Tensor(rng.standard_normal((4, 3, 4, 4)).astype(np.float32))
    face = Tensor(rng.standard_normal((3, DOWN_WIDTH)).astype(np.float32))
    return model, pack, pose, face


class TestSampler:
    def test_single_step_is_noise_minus_velocity(self, toy):
        model, pack, pose, face = toy
        out = sample(model, pack, pose, face, steps=1)
        with pt.no_grad():
            v = model.forward_tokens(pack.noise, pack, pose, face, 1.0).data
        a = 1 + pack.n_temporal
        np.testing.assert_allclose(out.latents.data, (pack.noise.data - v)[:, a:], atol=1e-6)

    @pytest.mark.parametrize("steps", [1, 2, 5, 10])
    def test_point_mass_velocity_lands_on_its_target(self, toy, steps):
        # Oracle from the linear path: x_t = (1-t) x0 + t noise has velocity
        # (x_t - x0) / t, whose exact flow is the straight line the Euler steps
        # follow, so every grid of steps from t=1 down to t=dt ends on x0.
        _, pack, _, _ = toy
        x0 = np.random.default_rng(steps).standard_normal(pack.noise.shape).astype(np.float32)

        class PointMass:
            def forward_tokens(self, x, pack, pose_latents, face_down, t):
                return Tensor((x.data - x0) / np.float32(t))

        out = sample(PointMass(), pack, None, None, steps)
        a = 1 + pack.n_temporal
        ulp = np.finfo(np.float32).eps * np.abs(x0).max()
        np.testing.assert_allclose(out.latents.data, x0[:, a:], rtol=0, atol=4 * ulp)

    def test_output_covers_target_range_only(self, toy):
        model, pack, pose, face = toy
        out = sample(model, pack, pose, face, steps=2)
        assert out.latents.shape[1] == pack.condition.shape[1] - 1 - pack.n_temporal
        assert out.frame_map == pack.window_frame_map

    def test_cfg_scale_one_matches_plain_run(self, toy):
        model, pack, pose, face = toy
        plain = sample(model, pack, pose, face, steps=3, face_cfg_scale=1.0)
        again = sample(model, pack, pose, face, steps=3, face_cfg_scale=1.0)
        assert np.array_equal(plain.latents.data, again.latents.data)

    def test_cfg_unfolds_single_conditional_pass(self, toy):
        # one step, cfg algebra: v = v_null + s (v_cond - v_null)
        model, pack, pose, face = toy
        model.face_blocks[0].params["gate"].data[:] = 0.5
        s = 2.5
        out = sample(model, pack, pose, face, steps=1, face_cfg_scale=s)
        with pt.no_grad():
            v_c = model.forward_tokens(pack.noise, pack, pose, face, 1.0).data
            v_n = model.forward_tokens(pack.noise, pack, pose, None, 1.0).data
        expect = pack.noise.data - (v_n + s * (v_c - v_n))
        np.testing.assert_allclose(out.latents.data, expect[:, 1 + pack.n_temporal :], atol=1e-6)

    def test_null_face_skips_the_guidance_pass(self, toy, monkeypatch):
        # without a face the conditional pass is the null-face pass, so guidance is a no-op
        model, pack, pose, _ = toy
        plain = sample(model, pack, pose, None, steps=3)
        calls, forward = [], model.forward_tokens

        def counted(*args):
            calls.append(args[3])
            return forward(*args)

        monkeypatch.setattr(model, "forward_tokens", counted)
        guided = sample(model, pack, pose, None, steps=3, face_cfg_scale=2.0)
        assert calls == [None] * 3
        assert np.array_equal(guided.latents.data, plain.latents.data)

    def test_invalid_steps(self, toy):
        model, pack, pose, face = toy
        with pytest.raises(ConfigError):
            sample(model, pack, pose, face, steps=0)

    def test_non_integer_steps(self, toy):
        model, pack, pose, face = toy
        with pytest.raises(ConfigError, match="step"):
            sample(model, pack, pose, face, steps=2.5)

    def test_missing_pose_latents_raise(self, toy):
        model, pack, _, face = toy
        with pytest.raises(AlignmentError, match="pose latents"):
            sample(model, pack, None, face, steps=1)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_face_guidance_scale_rejected(self, toy, scale):
        model, pack, pose, face = toy
        with pytest.raises(ConfigError, match="face guidance scale"):
            sample(model, pack, pose, face, steps=1, face_cfg_scale=scale)

    def test_guided_pack_output_excludes_guidance(self, toy):
        model, pack, pose, face = toy
        from puppetflow.video import VideoClip

        rng = np.random.default_rng(7)
        guide_clip = VideoClip(Tensor(rng.random((1, 3, 32, 32)).astype(np.float32)))
        guide = model.vae.encode(guide_clip)
        gpack = build_animation_pack(
            model.vae, rng.random((3, 32, 32)).astype(np.float32), 3, guide, np.random.default_rng(3)
        )
        gface = Tensor(rng.standard_normal((3, DOWN_WIDTH)).astype(np.float32))
        out = sample(model, gpack, pose, gface, steps=1)
        assert out.latents.shape[1] == 2  # 3 window latents minus 1 guidance
        assert out.frame_map == [(1, 5), (5, 9)]  # frames of the window stream


class TestEndToEndGradients:
    def test_two_layer_model_matches_finite_differences(self):
        cfg = tiny_cfg()
        model = AnimationModel(cfg, np.random.default_rng(0))
        widen(model.named_params().values())
        rng = np.random.default_rng(1)
        # break the zero inits so gradients reach every pathway
        for name in ("body.w", "final.w", "final.ada.w"):
            model.params[name].data[:] = rng.standard_normal(model.params[name].shape) * 0.1
        for i in range(cfg.n_layers):
            model.params[f"blocks.{i}.ada.w"].data[:] = (
                rng.standard_normal(model.params[f"blocks.{i}.ada.w"].shape) * 0.05
            )
        for fb in model.face_blocks:
            fb.params["gate"].data[:] = rng.standard_normal(cfg.dim) * 0.1

        ref = rng.random((3, 32, 32))
        pack = build_animation_pack(model.vae, ref, 3, None, np.random.default_rng(2))
        pose = Tensor(rng.standard_normal((4, 3, 4, 4)))
        per_frame = Tensor(rng.standard_normal((9, N_COEFF)))
        x0 = rng.standard_normal(pack.noise.shape)
        state = make_flow_state(x0, pack.noise.data, 0.4)
        mask = pack.mask.data

        def loss_fn(*_):
            latents = pt.matmul(per_frame, model.basis.orthonormal())
            face_down = model.downsampler(latents, pack.window_frame_map)
            v = model.forward_tokens(state.x_t, pack, pose, face_down, 0.4)
            return flow_loss(v, state.v_target, mask)

        checked = [
            model.params["final.b"],
            model.params["time.b1"],
            model.face_blocks[0].params["gate"],
            model.params["null_face"],
            model.basis.params["raw"],
        ]
        for p in checked:
            # abs_floor 1e-7: central differences at eps=1e-5 on an O(1) loss
            # cannot resolve gradients below ~1e-8 (null_face reaches the loss
            # only through reference-token mixing, so its entries sit there)
            err = grad_check(loss_fn, [p], eps=1e-5, abs_floor=1e-7)
            assert err <= 1e-3, f"{err} too large"
