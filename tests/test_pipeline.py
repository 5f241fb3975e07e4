"""One animation segment against the benchmark's copy."""

import sys
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


@pytest.mark.parametrize("n_poses", [6, 8])
def test_pose_count_must_match_the_frames(tiny, n_poses):
    model, drive, ref = tiny
    poses = (drive.poses * 2)[:n_poses]
    with pytest.raises(AlignmentError, match="driving poses"):
        animate(model, ref.clip.frames.data[0], ref.poses[0], drive.clip, poses, "half_body", np.random.default_rng(0))
