"""One animation segment against the benchmark's copy."""

import hashlib
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from puppetflow import puppet, skeleton, video
from puppetflow.model import AnimationModel, DiTConfig
from puppetflow.pipeline import animate
from puppetflow.tensor import AlignmentError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402


@pytest.fixture(scope="module")
def segments(tmp_path_factory):
    wl = bench.Animate(7, tmp_path_factory.mktemp("animate"))
    return wl, [wl.op(i) for i in range(len(wl.segments))]


@pytest.mark.parametrize("i", range(len(bench.FRAMINGS)))
def test_segment_matches_the_benchmark_bit_for_bit(segments, i):
    wl, outputs = segments
    seg = wl.segments[i]
    out = animate(wl.model, seg.ref_image, seg.ref_skeleton, video.load_clip(seg.clip_dir),
                  skeleton.load_pose_sequence(seg.pose_path), seg.framing, np.random.default_rng([wl.seed, i]))
    assert np.array_equal(out.frames.data, outputs[i].frames.data)


@pytest.fixture(scope="module")
def tiny():
    """A small model, a 7-frame driving clip and a reference, all at 64 px."""
    model = AnimationModel(DiTConfig(n_layers=2, dim=16, n_heads=2, latent_size=8), np.random.default_rng(0))
    return model, puppet.generate_scene(3, 7, "half_body", 64), puppet.generate_scene(4, 1, "half_body", 64)


def test_one_output_frame_per_driving_frame(tiny):
    """Seven frames end in a partial latent group, and the output keeps all seven."""
    model, drive, ref = tiny
    out = animate(model, ref.clip.frames.data[0], ref.poses[0], drive.clip, drive.poses, "half_body",
                  np.random.default_rng(0))
    assert out.frames.shape == (7, 3, 64, 64)
    assert np.isfinite(out.frames.data).all()


# sha256 of the frames below. The segment test above compares two callers of
# the same crop, sampler and model code; this pins what they compute. It is a
# digest of float32 output through BLAS matmuls, so another numpy or BLAS build
# may round differently; where a change means to move it, record the new
# digest here together with the reason.
RECORDED_FRAMES = "992cf81303cb2300047e97aa594bc445b5202a6d54f3cdf7b29772ed4a799088"


def test_frames_match_the_recorded_digest(tiny):
    """Every parameter is drawn from its name, the zero-initialised ones too.
    Vectors (gates, biases) are drawn large enough that a one-ulp change of
    every face crop pixel moves the frames."""
    _, drive, ref = tiny
    model = AnimationModel(DiTConfig(n_layers=2, dim=16, n_heads=2, latent_size=8), np.random.default_rng(0))
    for name, p in model.named_params().items():
        rng = np.random.default_rng([5, zlib.crc32(name.encode())])
        fan_in = p.shape[0] if p.ndim == 2 else int(np.prod(p.shape[1:]))
        p.data[...] = rng.standard_normal(p.shape) * (0.3 if p.ndim == 1 else 1.0 / np.sqrt(fan_in))
    out = animate(model, ref.clip.frames.data[0], ref.poses[0], drive.clip, drive.poses, "half_body",
                  np.random.default_rng(0))
    assert hashlib.sha256(out.frames.data.tobytes()).hexdigest() == RECORDED_FRAMES


@pytest.mark.parametrize("n_poses", [6, 8])
def test_pose_count_must_match_the_frames(tiny, n_poses):
    model, drive, ref = tiny
    poses = (drive.poses * 2)[:n_poses]
    with pytest.raises(AlignmentError, match="driving poses"):
        animate(model, ref.clip.frames.data[0], ref.poses[0], drive.clip, poses, "half_body", np.random.default_rng(0))
