"""File loaders under arbitrary bytes: each input loads or raises the package's errors.

Strategies mix raw bytes with near-valid files (a well-formed header with
random fields, or a valid file cut or with one byte replaced), since random
bytes alone rarely get past a magic number. `derandomize=True` keeps the
examples fixed from run to run.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from puppetflow.skeleton import N_JOINTS, Skeleton, load_pose_sequence, save_pose_sequence
from puppetflow.tensor import ConfigError, ShapeError, Tensor, dump_tensor, load_tensor
from puppetflow.video import VideoClip, load_clip, load_masks, save_clip

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


def loads_or_raises_package_error(load, path):
    try:
        load(path)
    except (ShapeError, ConfigError) as e:
        assert str(path) in str(e), f"error does not name the file: {e}"


@st.composite
def damaged(draw, valid: bytes):
    """`valid` cut short, with one byte replaced, or with bytes appended."""
    kind = draw(st.sampled_from(["cut", "replace", "append"]))
    if kind == "cut":
        return valid[: draw(st.integers(0, len(valid)))]
    if kind == "replace":
        i = draw(st.integers(0, len(valid) - 1))
        return valid[:i] + bytes([draw(st.integers(0, 255))]) + valid[i + 1 :]
    return valid + draw(st.binary(min_size=1, max_size=16))


def _valid_tensor_file() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.want"
        dump_tensor(p, Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))
        return p.read_bytes()


@st.composite
def tensor_headers(draw):
    rank = draw(st.one_of(st.integers(0, 4), st.integers(60, 70), st.integers(0, 2**32 - 1)))
    shown = min(rank, 70)
    dims = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), min_size=shown, max_size=shown))
    version = draw(st.sampled_from([1, 1, 1, 0, 2]))
    head = b"WANT" + struct.pack("<II", version, rank) + struct.pack(f"<{shown}Q", *dims)
    return head + draw(st.binary(max_size=64))


@FUZZ
@given(raw=st.one_of(st.binary(max_size=80), tensor_headers(), damaged(_valid_tensor_file())))
def test_load_tensor_fuzz(raw):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.want"
        p.write_bytes(raw)
        loads_or_raises_package_error(load_tensor, p)


@st.composite
def pnm_files(draw, magic: bytes):
    w = draw(st.one_of(st.integers(0, 3), st.integers(0, 10**12)))
    h = draw(st.one_of(st.integers(0, 3), st.integers(0, 10**12)))
    maxval = draw(st.sampled_from([255, 255, 0, 65535]))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t"]))
    head = magic + sep + str(w).encode() + sep + str(h).encode() + sep + str(maxval).encode() + b"\n"
    return head + draw(st.binary(max_size=40))


def _valid_clip() -> tuple:
    with tempfile.TemporaryDirectory() as d:
        save_clip(d, VideoClip(Tensor(np.full((2, 3, 2, 3), 0.5, dtype=np.float32))))
        return (Path(d) / "clip.meta").read_bytes(), (Path(d) / "frame_00000.ppm").read_bytes()


_META, _PPM = _valid_clip()


@FUZZ
@given(
    meta=st.one_of(
        st.just(_META),
        damaged(_META),
        st.binary(max_size=40),
        st.builds(lambda n, f: f"frames={n}\nfps={f}\n".encode(), st.integers(-1, 10**15), st.floats(0, 60)),
    ),
    frames=st.lists(st.one_of(st.just(_PPM), damaged(_PPM), pnm_files(b"P6"), st.binary(max_size=40)), max_size=3),
)
def test_load_clip_fuzz(meta, frames):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "clip.meta").write_bytes(meta)
        for i, raw in enumerate(frames):
            (Path(d) / f"frame_{i:05d}.ppm").write_bytes(raw)
        loads_or_raises_package_error(load_clip, Path(d))


@FUZZ
@given(masks=st.lists(st.one_of(pnm_files(b"P5"), st.binary(max_size=40)), min_size=1, max_size=2))
def test_load_masks_fuzz(masks):
    with tempfile.TemporaryDirectory() as d:
        for i, raw in enumerate(masks):
            (Path(d) / f"mask_{i:05d}.pgm").write_bytes(raw)
        loads_or_raises_package_error(lambda p: load_masks(p, len(masks)), Path(d))


def _valid_skel() -> bytes:
    rng = np.random.default_rng(0)
    seq = [Skeleton(rng.random((N_JOINTS, 2)) * 64, rng.random(N_JOINTS)) for _ in range(2)]
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "pose.skel"
        save_pose_sequence(p, seq)
        return p.read_bytes()


_SKEL = _valid_skel()


@FUZZ
@given(raw=st.one_of(damaged(_SKEL), st.binary(max_size=80), st.binary(max_size=40).map(lambda b: _SKEL[:40] + b)))
def test_load_pose_sequence_fuzz(raw):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "pose.skel"
        p.write_bytes(raw)
        loads_or_raises_package_error(load_pose_sequence, p)


def _ppm(w, h):
    return f"P6 {w} {h} 255\n".encode() + bytes(3 * w * h)


@pytest.mark.parametrize(
    "meta,frames,match",
    [
        (b"frames=1\nfps=16\n\x80\n", [_PPM], "not a text file"),
        (b"frames=1\nfps=16\n", [_ppm(0, 0)], "empty 0x0"),
        (b"frames=2\nfps=16\n", [_ppm(3, 2), _ppm(2, 3)], "the first is"),
        (b"frames=1000000000000000\nfps=16\n", [_PPM], "missing"),
    ],
    ids=["non-utf8-meta", "empty-frame", "frame-sizes-differ", "huge-frame-count"],
)
def test_load_clip_rejects(tmp_path, meta, frames, match):
    (tmp_path / "clip.meta").write_bytes(meta)
    for i, raw in enumerate(frames):
        (tmp_path / f"frame_{i:05d}.ppm").write_bytes(raw)
    with pytest.raises(ShapeError, match=match):
        load_clip(tmp_path)


def test_load_masks_rejects_empty_image(tmp_path):
    (tmp_path / "mask_00000.pgm").write_bytes(b"P5 0 4 255\n")
    with pytest.raises(ShapeError, match="empty 0x4"):
        load_masks(tmp_path, 1)


def test_load_pose_sequence_rejects_non_utf8(tmp_path):
    p = tmp_path / "pose.skel"
    p.write_bytes(_SKEL[:-2] + b"\xff\n")
    with pytest.raises(ShapeError, match="not a text file"):
        load_pose_sequence(p)


@pytest.mark.parametrize("dims", [(2**62, 0), (1,) * 65], ids=["zero-size-too-large", "too-many-axes"])
def test_load_tensor_rejects_unshapeable(tmp_path, dims):
    p = tmp_path / "t.want"
    p.write_bytes(b"WANT" + struct.pack("<II", 1, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims) + bytes(4))
    with pytest.raises(ShapeError, match="cannot make an array"):
        load_tensor(p)
