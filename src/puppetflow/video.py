"""Video clips, latent timelines, and on-disk frame formats.

A clip is T RGB frames in [0,1]. Its latent counterpart compresses 8x
spatially and groups frames temporally: the first frame encodes alone and
every later latent covers up to 4 frames, so T pixel frames map to
1 + ceil((T-1)/4) latents. `frame_ranges(T)` is the one statement of that
law. A frame map records the half-open pixel-frame range behind each latent,
counted in frames of the stream the latents came from, and is valid when it
is a run of consecutive entries of `frame_ranges(end)`, where `end` is where
its last range ends (`is_frame_run`). So a map begins with the one-frame
latent exactly when it starts at frame 0; a slice taken later in a stream
holds only groups, and only its last range may be partial.

On disk a clip is a directory of binary PPM (P6) frames plus a `clip.meta`
text file; subject masks are binary PGM (P5) files with values 0/255.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import ShapeError, Tensor

SPATIAL_FACTOR = 8
TEMPORAL_GROUP = 4
LATENT_CHANNELS = 4


def latent_count(frames: int) -> int:
    """len(frame_ranges(frames)), without building the ranges."""
    if frames < 1:
        raise ShapeError(f"clip needs at least 1 frame, got {frames}")
    return 1 + -(-(frames - 1) // TEMPORAL_GROUP)


def frame_ranges(frames: int) -> list[tuple[int, int]]:
    """Half-open pixel ranges per latent; partitions [0, frames) in order."""
    if frames < 1:
        raise ShapeError(f"clip needs at least 1 frame, got {frames}")
    return [(0, 1)] + [(a, min(a + TEMPORAL_GROUP, frames)) for a in range(1, frames, TEMPORAL_GROUP)]


def is_frame_run(frame_map) -> bool:
    """True if the map is a run of consecutive entries of frame_ranges(end), where its last range ends."""
    if len(frame_map) == 0 or frame_map[-1][1] < 1:
        return False
    return [tuple(r) for r in frame_map] == frame_ranges(frame_map[-1][1])[-len(frame_map):]


@dataclass
class VideoClip:
    """T RGB frames, values in [0,1]; frame_rate is informational only."""

    frames: Tensor  # [T, 3, H, W]
    frame_rate: float = 16.0

    def __post_init__(self):
        t = self.frames
        if t.ndim != 4 or t.shape[1] != 3:
            raise ShapeError(f"clip frames must be [T,3,H,W], got {t.shape}")

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[2]

    @property
    def width(self) -> int:
        return self.frames.shape[3]


@dataclass
class LatentVideo:
    """Latent stream [C_z, T_z, H/s, W/s] plus the pixel frames each latent covers.

    `frame_map` must be a run of `frame_ranges` with one range per latent;
    where it starts decides whether latent 0 is the one-frame latent.
    """

    latents: Tensor
    frame_map: list[tuple[int, int]]

    def __post_init__(self):
        if self.latents.ndim != 4:
            raise ShapeError(f"latents must be [C,T,H,W], got {self.latents.shape}")
        if len(self.frame_map) != self.latents.shape[1]:
            raise ShapeError(
                f"frame_map has {len(self.frame_map)} ranges for {self.latents.shape[1]} latents"
            )
        if not is_frame_run(self.frame_map):
            raise ShapeError(f"frame_map {list(self.frame_map)} is not a run of frame_ranges")

    @property
    def t_z(self) -> int:
        return self.latents.shape[1]

    @property
    def total_frames(self) -> int:
        return self.frame_map[-1][1] - self.frame_map[0][0]


# ---------------------------------------------------------------------------
# frame files


def _write_pnm(path: Path, magic: bytes, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        f.write(arr.astype(np.uint8).tobytes())


# magic, width, height and maxval separated by whitespace, then one whitespace
# byte before the payload; no comment support
_PNM_HEADER = re.compile(rb"P[56]\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _read_pnm(path: Path, magic: bytes) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(magic):
        raise ShapeError(f"{path}: expected {magic.decode()} header")
    m = _PNM_HEADER.match(raw)
    if m is None:
        raise ShapeError(f"{path}: truncated or malformed {magic.decode()} header {raw[:32]!r}")
    w, h, maxval = (int(v) for v in m.groups())
    if w < 1 or h < 1:
        raise ShapeError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise ShapeError(f"{path}: only 8-bit files supported, got maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = h * w * channels
    if len(raw) - m.end() < need:
        raise ShapeError(f"{path}: {w}x{h} payload needs {need} bytes, file has {len(raw) - m.end()}")
    data = np.frombuffer(raw, dtype=np.uint8, count=need, offset=m.end())
    return data.reshape((h, w, 3) if channels == 3 else (h, w))


def save_clip(directory, clip: VideoClip) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data = np.clip(clip.frames.data, 0.0, 1.0)
    for i in range(clip.length):
        frame = np.round(data[i].transpose(1, 2, 0) * 255.0)
        _write_pnm(directory / f"frame_{i:05d}.ppm", b"P6", frame)
    (directory / "clip.meta").write_text(f"frames={clip.length}\nfps={clip.frame_rate}\n")


def _read_frames(directory: Path, name: str, magic: bytes, frames: int) -> np.ndarray:
    """Stack `frames` files named name.format(i) from `directory`."""
    if frames < 1:
        raise ShapeError(f"{directory}: clip needs at least 1 frame, got {frames}")
    arrays = []
    for i in range(frames):  # a frame count from a file may be huge: stop at the first gap
        path = directory / name.format(i)
        if not path.is_file():
            raise ShapeError(f"{path}: missing, {frames} frames requested from {directory}")
        arrays.append(_read_pnm(path, magic))
        if arrays[-1].shape != arrays[0].shape:
            raise ShapeError(f"{path}: frame is {arrays[-1].shape}, the first is {arrays[0].shape}")
    return np.stack(arrays)


def load_clip(directory, dtype=np.float32) -> VideoClip:
    directory = Path(directory)
    meta_path = directory / "clip.meta"
    try:
        meta = meta_path.read_text()
    except UnicodeDecodeError as e:
        raise ShapeError(f"{meta_path}: not a text file: {e}") from e
    frames = re.search(r"frames=(\d+)", meta)
    fps = re.search(r"fps=(\d+(?:\.\d*)?)", meta)
    if frames is None or fps is None:
        raise ShapeError(f"{meta_path}: needs frames=<int> and fps=<float> lines, got {meta!r}")
    arr = _read_frames(directory, "frame_{:05d}.ppm", b"P6", int(frames.group(1)))
    arr = np.ascontiguousarray(arr.transpose(0, 3, 1, 2), dtype=dtype) / 255.0
    return VideoClip(Tensor(arr), frame_rate=float(fps.group(1)))


def save_masks(directory, masks: np.ndarray) -> None:
    """masks: [T, 1, H, W] or [T, H, W] binary arrays."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if masks.ndim == 4:
        masks = masks[:, 0]
    for i in range(masks.shape[0]):
        _write_pnm(directory / f"mask_{i:05d}.pgm", b"P5", (masks[i] > 0.5) * 255)


def load_masks(directory, frames: int) -> np.ndarray:
    masks = _read_frames(Path(directory), "mask_{:05d}.pgm", b"P5", frames)
    return (masks > 127).astype(np.float32)[:, None]
