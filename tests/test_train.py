"""Clip preparation and the training step against the benchmark's copies, the
Adam update, the `fit` loop, and one-clip overfitting."""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow import face, puppet
from puppetflow.model import AnimationModel, DiTConfig
from puppetflow.train import ADAM_BETAS, ADAM_EPS, Clip, adam_update, fit, prepare_clip, train_step
from puppetflow.tensor import AlignmentError, ConfigError, ShapeError
from puppetflow.video import LATENT_CHANNELS

from gradcheck import widen
from test_face import pixel_crop

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402


def grads(model):
    return {n: None if p.grad is None else p.grad.copy() for n, p in model.named_params().items()}


def grad_norm(params):
    return float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params if p.grad is not None)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def as_clip(item):
    """A benchmark `TrainItem` as the package's record."""
    return Clip(item.latents, item.pose, item.ref_image, item.crops)


class TestBenchmarkOracle:
    """`train_step` is `bench.Train._step` on the item's fields as a `Clip`."""

    def test_reference_step_bit_for_bit(self, tmp_path):
        wl = bench.Train(7, tmp_path)
        item = wl.reference
        expect = wl._step(item, np.random.default_rng(bench.REFERENCE_SEED))
        expect_grads = grads(wl.model)
        loss = train_step(wl.model, as_clip(item), np.random.default_rng(bench.REFERENCE_SEED))
        assert loss == expect == bench.REFERENCE_LOSS
        for name, g in grads(wl.model).items():
            if expect_grads[name] is None:
                assert g is None, name
            else:
                assert np.array_equal(g, expect_grads[name]), name
        assert all(p.grad is not None for p in wl.trainable)
        assert grad_norm(wl.trainable) == pytest.approx(bench.REFERENCE_GRAD_NORM, rel=bench.REFERENCE_RTOL, abs=0)

    def test_frozen_face_roles_get_no_gradient(self, tmp_path):
        wl = bench.Train(7, tmp_path)
        frozen = wl.model.named_params(("face",)).values()
        for p in frozen:
            p.requires_grad = False
        loss = train_step(wl.model, as_clip(wl.reference), np.random.default_rng(bench.REFERENCE_SEED))
        assert loss == bench.REFERENCE_LOSS  # freezing changes no forward value
        assert all(p.grad is None for p in frozen)
        assert all(p.grad is None for p in wl.model.named_params(("vae",)).values())
        assert all(p.grad is not None for p in wl.model.named_params(("base",)).values())

    def test_prepare_clip_equals_the_benchmark_cache(self, tmp_path):
        wl = bench.Train(7, tmp_path)
        sample = puppet.generate_scene(bench.REFERENCE_SEED, bench.FRAMES, bench.FRAMINGS[0], bench.SIZE)
        clip, item = prepare_clip(wl.model, sample), wl.reference
        assert same_bits(clip.latents, item.latents)
        assert same_bits(clip.pose_latents.data, item.pose.data)
        assert same_bits(clip.ref_image, item.ref_image)
        assert len(clip.crops) == len(item.crops) == bench.FRAMES
        for got, want in zip(clip.crops, item.crops):
            assert same_bits(got.window, want.window) and got.origin == want.origin and got.box == want.box
        assert not np.shares_memory(clip.ref_image, sample.clip.frames.data)  # the frame, not a view of the clip


# sha256 over the name and gradient bytes of each parameter that has a
# gradient, in `named_params` order, after the reference step from the scene
# through `prepare_clip` and `train_step`. The oracles above compare the
# package with the benchmark's copies of the same ops; this pins what they
# compute. It is a digest of float32 gradients through BLAS matmuls, so
# another numpy or BLAS build may round differently; where a change means to
# move it, record the new digest here together with the reason.
RECORDED_GRADS = "c3a42914313ce953578876063ca3d44678376baff3b7b04b03ff7ef7723911e2"


def test_reference_gradients_match_the_recorded_digest(tmp_path):
    wl = bench.Train(7, tmp_path)
    sample = puppet.generate_scene(bench.REFERENCE_SEED, bench.FRAMES, bench.FRAMINGS[0], bench.SIZE)
    loss = train_step(wl.model, prepare_clip(wl.model, sample), np.random.default_rng(bench.REFERENCE_SEED))
    assert loss == bench.REFERENCE_LOSS
    h = hashlib.sha256()
    for name, p in wl.model.named_params().items():
        if p.grad is not None:  # the frozen VAE's parameters have none
            h.update(name.encode())
            h.update(p.grad.tobytes())
    assert h.hexdigest() == RECORDED_GRADS


def tiny_model():
    return AnimationModel(DiTConfig(n_layers=2, dim=16, n_heads=2, latent_size=8), np.random.default_rng(0))


def blank_clip(n_latents, crops):
    """A `Clip` of zero latents for a 64 px tiny model."""
    latents = np.zeros((LATENT_CHANNELS, n_latents, 8, 8), dtype=np.float32)
    return Clip(latents, pt.Tensor(latents), np.zeros((3, 64, 64), dtype=np.float32), crops)


@pytest.mark.parametrize("n_crops", [0, 13])
def test_crop_count_must_match_the_latents(n_crops):
    # 5 latents cover 17 frames; 13 frames give 4 latents, and no crop gives none
    crop = pixel_crop(np.zeros((3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32))
    assert len(blank_clip(5, [crop] * 17).crops) == 17
    with pytest.raises(AlignmentError, match="face crops"):
        blank_clip(5, [crop] * n_crops)


def test_pixel_face_crops_raise_config_error():
    crop = face.FaceCrop(pt.Tensor(np.zeros((3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32)))
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigError, match="crop_face result"):
        train_step(tiny_model(), blank_clip(2, [crop] * 5), rng)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state  # nothing drawn


@pytest.mark.parametrize("shape, error", [
    ((LATENT_CHANNELS, 3, 8, 8), AlignmentError),
    ((LATENT_CHANNELS, 2, 4, 4), ShapeError),
    ((LATENT_CHANNELS + 1, 2, 8, 8), ShapeError),
    ((LATENT_CHANNELS, 2, 8), ShapeError),
])
def test_pose_latents_unlike_the_latents_raise(shape, error):
    """The forward rejects pose latents of another shape, so `Clip` needs no check of its own."""
    clip = blank_clip(2, None)
    with pytest.raises(error):
        train_step(tiny_model(), replace(clip, pose_latents=pt.Tensor(np.zeros(shape, dtype=np.float32))),
                   np.random.default_rng(0))


class TestAdam:
    def test_two_steps_match_the_written_out_update(self):
        rng = np.random.default_rng(0)
        p = pt.param(rng.standard_normal((3, 4)))
        widen([p])
        p0 = p.data.copy()
        g1, g2 = rng.standard_normal((2, 3, 4))
        lr, state = 1e-2, {}
        p.grad = g1.copy()
        adam_update({"w": p}, state, lr)
        p.grad = g2.copy()
        adam_update({"w": p}, state, lr)

        b1, b2 = ADAM_BETAS
        m1, v1 = (1 - b1) * g1, (1 - b2) * g1**2
        p1 = p0 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + ADAM_EPS)
        m2, v2 = b1 * m1 + (1 - b1) * g2, b2 * v1 + (1 - b2) * g2**2
        p2 = p1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + ADAM_EPS)
        assert np.abs(p.data - p2).max() <= 1e-15
        assert state["w"][0] == 2

    def test_parameter_without_gradient_is_untouched(self):
        p = pt.param(np.ones(3))
        state = {}
        adam_update({"w": p}, state, 1e-2)
        assert np.array_equal(p.data, np.ones(3, dtype=np.float32)) and state == {}

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-2, "1e-2", None])
    def test_learning_rate_not_finite_and_positive_raises_before_any_change(self, lr):
        p = pt.param(np.ones(3))
        p.grad = np.ones(3, dtype=np.float32)
        state = {}
        with pytest.raises(ConfigError, match="learning rate"):
            adam_update({"w": p}, state, lr)
        assert np.array_equal(p.data, np.ones(3, dtype=np.float32)) and state == {}


class TestFit:
    ROLES = ("base", "face")

    @staticmethod
    def model_with_lora():
        model = tiny_model()
        model.attach_lora(np.random.default_rng(2))
        return model

    def test_equals_hand_written_steps_bit_for_bit(self):
        """Three steps over two clips, one with crops and one under the null face latent."""
        got_model, want_model = self.model_with_lora(), self.model_with_lora()
        start = {n: p.data.copy() for n, p in got_model.named_params().items()}
        clips = [prepare_clip(got_model, puppet.generate_scene(3, 5, "half_body", 64)),
                 replace(prepare_clip(got_model, puppet.generate_scene(4, 5, "full_body", 64)), crops=None)]
        assert clips[0].crops is not None
        losses = fit(got_model, self.ROLES, clips, 3, 1e-3, np.random.default_rng(1))

        for name, p in want_model.named_params().items():
            p.requires_grad = want_model.role_of(name) in self.ROLES
        params, state, rng, want = want_model.named_params(self.ROLES), {}, np.random.default_rng(1), []
        for clip in (clips[0], clips[1], clips[0]):
            want.append(train_step(want_model, clip, rng))
            adam_update(params, state, 1e-3)

        assert losses == want and len(losses) == 3
        wanted = want_model.named_params()
        for name, p in got_model.named_params().items():
            assert same_bits(p.data, wanted[name].data), name
            trained = got_model.role_of(name) in self.ROLES
            assert p.requires_grad == trained, name
            if not trained:
                assert same_bits(p.data, start[name]), name
        assert {got_model.role_of(n) for n in start} - set(self.ROLES) == {"vae", "lora"}

    @pytest.mark.parametrize("change", [
        {"clips": []},
        {"steps": 0}, {"steps": -1}, {"steps": 2.0}, {"steps": "2"}, {"steps": None},
        {"roles": ("base", "lora")}, {"roles": ("head",)}, {"roles": "base"},
        {"lr": float("nan")}, {"lr": 0.0}, {"lr": None},
    ])
    def test_bad_input_raises_config_error_before_any_change(self, change):
        model = tiny_model()  # no LoRA attached: the model has no "lora" role
        args = {"roles": ("base",), "clips": [blank_clip(2, None)], "steps": 2, "lr": 1e-3} | change
        before = {n: (p.requires_grad, p.data.copy()) for n, p in model.named_params().items()}
        with pytest.raises(ConfigError):
            fit(model, args["roles"], args["clips"], args["steps"], args["lr"], np.random.default_rng(0))
        for name, p in model.named_params().items():
            assert p.requires_grad == before[name][0] and same_bits(p.data, before[name][1]), name
            assert p.grad is None, name


OVERFIT_STEPS = 200
# The probe loss starts at 1.942 and reads 0.297 after 200 steps (float32,
# OpenBLAS 0.3.31 on an x86_64 Xeon); the bound leaves room for other BLAS
# summation orders.
OVERFIT_BOUND = 0.35


def overfit_one_clip():
    """Train the base role on one 9-frame clip under the null face latent;
    -> (probe loss before, after, all weights)."""
    model = AnimationModel(DiTConfig(n_layers=2, dim=64, n_heads=2, latent_size=16), np.random.default_rng(0))
    sample = puppet.generate_scene(11, 9, "half_body", 128)
    raw = model.vae.encode_frames(sample.clip.frames.data)
    model.vae.set_latent_stats(raw.mean(axis=(1, 2, 3)), raw.std(axis=(1, 2, 3)))
    clip = replace(prepare_clip(model, sample), crops=None)

    def probe():  # the flow loss at one fixed (noise, t)
        return train_step(model, clip, np.random.default_rng(99))

    before = probe()
    fit(model, ("base",), [clip], OVERFIT_STEPS, 3e-3, np.random.default_rng(1))
    return before, probe(), {n: p.data.copy() for n, p in model.named_params().items()}


class TestOverfit:
    @pytest.fixture(scope="class")
    def run(self):
        return overfit_one_clip()

    def test_loss_falls_below_the_bound(self, run):
        before, after, _ = run
        assert before > 1.5
        assert after < OVERFIT_BOUND

    def test_two_runs_give_the_same_weights(self, run):
        _, after, weights = run
        _, again_after, again = overfit_one_clip()
        assert again_after == after
        assert weights.keys() == again.keys()
        for name in weights:
            assert np.array_equal(weights[name], again[name]), name
