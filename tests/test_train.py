"""The training step against the benchmark's copy, the Adam update, and one-clip overfitting."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

import puppetflow.tensor as pt
from puppetflow import face, puppet, rasterize
from puppetflow.model import AnimationModel, DiTConfig
from puppetflow.train import ADAM_BETAS, ADAM_EPS, adam_update, train_step
from puppetflow.tensor import AlignmentError, ConfigError
from puppetflow.video import LATENT_CHANNELS

from gradcheck import widen
from test_face import pixel_crop

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402


def grads(model):
    return {n: None if p.grad is None else p.grad.copy() for n, p in model.named_params().items()}


def grad_norm(params):
    return float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params if p.grad is not None)))


class TestBenchmarkOracle:
    """`train_step` is `bench.Train._step` with the item's fields as arguments."""

    def test_reference_step_bit_for_bit(self, tmp_path):
        wl = bench.Train(7, tmp_path)
        item = wl.reference
        expect = wl._step(item, np.random.default_rng(bench.REFERENCE_SEED))
        expect_grads = grads(wl.model)
        loss = train_step(wl.model, item.crops, item.ref_image, item.latents, item.pose,
                          np.random.default_rng(bench.REFERENCE_SEED))
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
        item = wl.reference
        loss = train_step(wl.model, item.crops, item.ref_image, item.latents, item.pose,
                          np.random.default_rng(bench.REFERENCE_SEED))
        assert loss == bench.REFERENCE_LOSS  # freezing changes no forward value
        assert all(p.grad is None for p in frozen)
        assert all(p.grad is None for p in wl.model.named_params(("vae",)).values())
        assert all(p.grad is not None for p in wl.model.named_params(("base",)).values())


# sha256 over the name and gradient bytes of each parameter that has a
# gradient, in `named_params` order, after the reference step. The oracle above compares two callers of
# the same tape ops; this pins what they compute. It is a digest of float32
# gradients through BLAS matmuls, so another numpy or BLAS build may round
# differently; where a change means to move it, record the new digest here
# together with the reason.
RECORDED_GRADS = "c3a42914313ce953578876063ca3d44678376baff3b7b04b03ff7ef7723911e2"


def test_reference_gradients_match_the_recorded_digest(tmp_path):
    wl = bench.Train(7, tmp_path)
    wl._step(wl.reference, np.random.default_rng(bench.REFERENCE_SEED))
    h = hashlib.sha256()
    for name, p in wl.model.named_params().items():
        if p.grad is not None:  # the frozen VAE's parameters have none
            h.update(name.encode())
            h.update(p.grad.tobytes())
    assert h.hexdigest() == RECORDED_GRADS


@pytest.mark.parametrize("n_crops", [0, 13])
def test_crop_count_must_match_the_latents(n_crops):
    # 5 latents cover 17 frames; 13 frames give 4 latents, and no crop gives none
    model = AnimationModel(DiTConfig(n_layers=2, dim=16, n_heads=2, latent_size=8), np.random.default_rng(0))
    crop = pixel_crop(np.zeros((3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32))
    latents = np.zeros((LATENT_CHANNELS, 5, 8, 8), dtype=np.float32)
    rng = np.random.default_rng(3)
    with pytest.raises(AlignmentError, match="face crops"):
        train_step(model, [crop] * n_crops, np.zeros((3, 64, 64), dtype=np.float32), latents, pt.Tensor(latents), rng)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state  # nothing drawn


def test_pixel_face_crops_raise_config_error():
    model = AnimationModel(DiTConfig(n_layers=2, dim=16, n_heads=2, latent_size=8), np.random.default_rng(0))
    crop = face.FaceCrop(pt.Tensor(np.zeros((3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32)))
    latents = np.zeros((LATENT_CHANNELS, 2, 8, 8), dtype=np.float32)
    with pytest.raises(ConfigError, match="crop_face result"):
        train_step(model, [crop] * 5, np.zeros((3, 64, 64), dtype=np.float32), latents, pt.Tensor(latents),
                   np.random.default_rng(3))


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


OVERFIT_STEPS = 200
# The probe loss starts at 1.942 and reads 0.297 after 200 steps (float32,
# OpenBLAS 0.3.31 on an x86_64 Xeon); the bound leaves room for other BLAS
# summation orders.
OVERFIT_BOUND = 0.35


def overfit_one_clip():
    """Train the base role on one 9-frame clip; -> (probe loss before, after, all weights)."""
    model = AnimationModel(DiTConfig(n_layers=2, dim=64, n_heads=2, latent_size=16), np.random.default_rng(0))
    for name, p in model.named_params().items():
        p.requires_grad = model.role_of(name) == "base"
    sample = puppet.generate_scene(11, 9, "half_body", 128)
    raw = model.vae.encode_frames(sample.clip.frames.data)
    model.vae.set_latent_stats(raw.mean(axis=(1, 2, 3)), raw.std(axis=(1, 2, 3)))
    latents = model.vae.encode_frames(sample.clip.frames.data)
    with pt.no_grad():
        pose = model.vae.encode_tensor(rasterize.rasterize_sequence(sample.poses, 128, 128))
    ref = sample.clip.frames.data[0]

    def probe():  # the flow loss at one fixed (noise, t)
        return train_step(model, None, ref, latents, pose, np.random.default_rng(99))

    before = probe()
    params, state, rng = model.named_params(("base",)), {}, np.random.default_rng(1)
    for _ in range(OVERFIT_STEPS):
        train_step(model, None, ref, latents, pose, rng)
        adam_update(params, state, 3e-3)
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
