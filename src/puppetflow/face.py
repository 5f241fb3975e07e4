"""Face conditioning: crop, augment, encode to motion coefficients, downsample.

The crop box comes from the skeleton's head keypoints, so no face detector is
involved. Each 512x512 crop is squeezed into a small coefficient vector over
a learned row-orthonormal basis (re-orthonormalized on every forward pass),
which together with train-time augmentation keeps identity detail out of the
expression channel. A stack of causal 1D convolutions then aligns the
per-frame latents with the latent-video timeline: the output for latent step
t sees only pixel frames covered by groups up to t.

Augmentation draws its float64 noise field on one worker thread, in order and
in chunks, on another CPU than the calling thread, which resizes the crop
meanwhile; the output is bit-identical to a serial draw. The worker lives for
one `augment_face` call, and `rng` must be a `np.random.Generator` that no
other thread uses meanwhile.

Per-frame encodes are independent. The encoder runs them one crop at a time,
because a 512 px crop already fills a conv GEMM and a batch would only widen
the first stage's window copy; the downsampler is the only sequential piece.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .skeleton import CONF_THRESHOLD, HEAD_JOINTS, Skeleton
from .tensor import AlignmentError, ConfigError, ShapeError, Tensor
from .video import TEMPORAL_GROUP, is_frame_run

FACE_SIZE = 512
CROP_EXPANSION = 1.8
MIN_BOX_SIDE = 4.0
N_COEFF = 20  # motion coefficients per frame
DOWN_WIDTH = 64  # channel width after temporal downsampling
_ENC_CHANNELS = (3, 4, 8, 8, 16, 16, 32)
_NOISE_CHUNK = 2**16  # float64 noise values per worker draw


@dataclass
class FaceCrop:
    image: Tensor  # [3, 512, 512], values in [0,1]
    frame_index: int
    box: tuple  # (x0, y0, side) in source pixels


def _taps(out_size: int, src_size: int, lo: float, hi: float):
    """Bilinear taps (u0, u1, frac) of each output pixel over the span [lo, hi).

    Pixel-center convention; coordinates clamp at the borders, so boxes that
    overhang the frame replicate edge pixels.
    """
    u = lo + (np.arange(out_size) + 0.5) * (hi - lo) / out_size - 0.5
    u = np.clip(u, 0.0, src_size - 1.0)
    u0 = np.floor(u).astype(np.intp)
    return u0, np.minimum(u0 + 1, src_size - 1), u - u0


def _lerp(a: np.ndarray, taps, axis: int) -> np.ndarray:
    """Blend two gathered slices of `a` along `axis` for each output index."""
    u0, u1, frac = taps
    out = a.take(u0, axis=axis)
    step = a.take(u1, axis=axis)
    step -= out
    step *= frac.astype(a.dtype).reshape((-1,) + (1,) * (a.ndim - 1 - axis))
    out += step
    return out


def bilinear_resize(image: np.ndarray, box, out_size: int) -> np.ndarray:
    """Resample a square box (x0, y0, side) of [C,H,W] to [C,out,out].

    Separable two-tap interpolation: every output pixel blends two source
    columns, then two source rows, with weights (1 - frac, frac) that sum to
    1. Coordinates clamp at the borders (see `_taps`). The x pass gathers
    along the last axis and the y pass gathers whole rows, so neither pass
    needs a transposed copy.
    """
    if image.ndim != 3:
        raise ShapeError(f"bilinear_resize: image must be [C,H,W], got {image.shape}")
    x0, y0, side = box
    _, h, w = image.shape
    cols = _lerp(image, _taps(out_size, w, x0, x0 + side), axis=2)
    return _lerp(cols, _taps(out_size, h, y0, y0 + side), axis=1)


def head_box(sk: Skeleton, height: int, width: int):
    """Square crop box around confident head keypoints, or None if fewer than 2."""
    pts = [sk.joints[j] for j in HEAD_JOINTS if sk.confidence[j] >= CONF_THRESHOLD]
    if len(pts) < 2:
        return None
    pts = np.asarray(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    side = max(float((hi - lo).max()) * CROP_EXPANSION, MIN_BOX_SIDE)
    side = min(side, float(min(height, width)))
    cx, cy = (lo + hi) / 2.0
    x0 = min(max(cx - side / 2.0, 0.0), width - side)
    y0 = min(max(cy - side / 2.0, 0.0), height - side)
    return (x0, y0, side)


def crop_face(frame: Tensor, sk: Skeleton) -> FaceCrop | None:
    """Skeleton-guided face crop; None is the no-face signal (fewer than two
    confident head keypoints), in which case callers fall back to the model's
    learned null face latent."""
    img = frame.data if isinstance(frame, Tensor) else np.asarray(frame)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"frame must be [3,H,W], got {img.shape}")
    box = head_box(sk, img.shape[1], img.shape[2])
    if box is None:
        return None
    out = bilinear_resize(img, box, FACE_SIZE)
    return FaceCrop(Tensor(out.astype(np.float32, copy=False)), frame_index=0, box=box)


@dataclass
class FaceAugmentConfig:
    enabled: bool = True
    scale_lo: float = 0.9
    scale_hi: float = 1.1
    gain_lo: float = 0.8
    gain_hi: float = 1.2
    bias_lo: float = -0.1
    bias_hi: float = 0.1
    noise_hi: float = 0.05

    def __post_init__(self):
        if self.scale_lo <= 0:
            raise ConfigError(f"FaceAugmentConfig: scale_lo must be positive, got {self.scale_lo}")
        for name in ("scale", "gain", "bias"):
            lo, hi = getattr(self, f"{name}_lo"), getattr(self, f"{name}_hi")
            if lo > hi:
                raise ConfigError(f"FaceAugmentConfig: {name}_lo {lo} exceeds {name}_hi {hi}")
        if self.noise_hi < 0:
            raise ConfigError(f"FaceAugmentConfig: noise_hi must be non-negative, got {self.noise_hi}")


def _current_cpu() -> int | None:
    """CPU the calling thread last ran on (field 39 of its Linux stat), or None."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _avoid_cpu(cpu: int | None) -> None:
    """Worker initializer: keep this thread off `cpu`, the caller's CPU.

    Linux starts a new thread on its creator's CPU, and a worker that lives
    for one call is seldom migrated before it ends, so unpinned the draw
    time-shares the caller's CPU and nothing overlaps. With pid 0 the
    affinity call applies to the calling thread only.
    """
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        try:
            os.sched_setaffinity(0, others)
        except OSError:  # a CPU set the process may not use: stay unpinned
            pass


def augment_face(face: FaceCrop, rng, cfg: FaceAugmentConfig | None = None) -> FaceCrop:
    """Train-time identity-scrambling: rescale, color jitter, additive noise.

    Draw order is fixed (scale, 3 gains, 3 biases, sigma, then the float64
    noise field) so a seeded generator reproduces the augmentation exactly.
    The noise field is drawn on one worker thread, in order, in chunks of
    `_NOISE_CHUNK` values, into a buffer this call owns; the generator sees
    the same calls as one `standard_normal(shape)` and ends in the same state.
    Meanwhile this thread resizes the crop and applies gain and bias in place,
    then folds in each chunk as it lands (x sigma in float64, cast, add,
    clip). The output is bit-identical to the serial computation. `rng` must
    be a `np.random.Generator` that no other thread uses during the call. The
    worker lives only for this call, so no thread outlives it (a forked child
    inherits none), and it is kept off the caller's CPU where the process
    may use another one (`_avoid_cpu`).
    """
    cfg = cfg or FaceAugmentConfig()
    if not cfg.enabled:
        return face
    if face.image.shape != (3, FACE_SIZE, FACE_SIZE):
        raise ShapeError(f"face crop must be [3,{FACE_SIZE},{FACE_SIZE}], got {face.image.shape}")
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"augment_face: rng must be a numpy Generator, got {type(rng).__name__}")
    img = face.image.data
    s = float(rng.uniform(cfg.scale_lo, cfg.scale_hi))
    gains = rng.uniform(cfg.gain_lo, cfg.gain_hi, 3).astype(img.dtype)
    biases = rng.uniform(cfg.bias_lo, cfg.bias_hi, 3).astype(img.dtype)
    sigma = float(rng.uniform(0.0, cfg.noise_hi))
    side = FACE_SIZE / s
    off = (FACE_SIZE - side) / 2.0
    noise = np.empty(img.size, dtype=np.float64)
    starts = range(0, noise.size, _NOISE_CHUNK)
    with ThreadPoolExecutor(max_workers=1, initializer=_avoid_cpu, initargs=(_current_cpu(),)) as pool:
        # one worker runs the draws in submission order, so the stream is serial
        draws = [pool.submit(rng.standard_normal, out=noise[a : a + _NOISE_CHUNK]) for a in starts]
        out = bilinear_resize(img, (off, off, side), FACE_SIZE)
        out *= gains[:, None, None]
        out += biases[:, None, None]
        flat = out.reshape(-1)
        for a, draw in zip(starts, draws):
            draw.result()
            chunk = noise[a : a + _NOISE_CHUNK]
            chunk *= sigma
            part = flat[a : a + _NOISE_CHUNK]
            part += chunk.astype(out.dtype)
            np.clip(part, 0.0, 1.0, out=part)
    return FaceCrop(Tensor(out.astype(np.float32, copy=False)), face.frame_index, face.box)


# ---------------------------------------------------------------------------
# motion encoding


class MotionBasis:
    """Learned raw basis, consumed through its row-orthonormalized form.

    Orthonormalization is classical Gram-Schmidt with reorthogonalization,
    computed differentiably on every forward so that the invariant D D^T = I
    survives optimizer steps: each row takes away its projection onto all
    rows before it as one block, v -= (v Q^T) Q, twice, then is normalized.
    """

    def __init__(self, rng, m: int = N_COEFF, dtype=np.float32):
        self.raw = Tensor(
            (rng.standard_normal((m, m)) / np.sqrt(m)).astype(dtype), requires_grad=True
        )
        self.m = m

    def orthonormal(self) -> Tensor:
        q = None  # the rows done so far, [i, m]
        for i in range(self.m):
            v = pt.slice_axis(self.raw, 0, i, i + 1)  # [1, m]
            if q is not None:
                qt = pt.transpose(q, (1, 0))
                for _ in range(2):
                    v = pt.sub(v, pt.matmul(pt.matmul(v, qt), q))
            sq = pt.sum_all(pt.mul(v, v))
            inv = pt.reshape(pt.powc(pt.add_scalar(sq, 1e-12), -0.5), (1, 1))
            v = pt.matmul(inv, v)
            q = v if q is None else pt.concat([q, v], axis=0)
        return q


class FaceEncoder:
    """Six stride-2 stages 512 -> 8, pooled, projected to motion coefficients."""

    def __init__(self, rng, m: int = N_COEFF, dtype=np.float32):
        self.m = m
        self.dtype = dtype
        p = {}
        for i in range(6):
            ci, co = _ENC_CHANNELS[i], _ENC_CHANNELS[i + 1]
            w = rng.standard_normal((co, ci, 3, 3)) * np.sqrt(2.0 / (ci * 9))
            p[f"conv{i}.w"] = Tensor(w.astype(dtype), requires_grad=True)
            p[f"conv{i}.b"] = Tensor(np.zeros(co, dtype=dtype), requires_grad=True)
        head = rng.standard_normal((_ENC_CHANNELS[-1], m)) / np.sqrt(_ENC_CHANNELS[-1])
        p["head.w"] = Tensor(head.astype(dtype), requires_grad=True)
        p["head.b"] = Tensor(np.zeros(m, dtype=dtype), requires_grad=True)
        self.params = p

    def encode_batch(self, crops: Tensor) -> Tensor:
        """[N,3,512,512] -> [N, m] coefficients, one crop at a time.

        Each crop runs the six conv/SiLU stages on its own and is pooled; the
        head then runs once over the stacked pooled features. One crop per
        conv call keeps the first stage's stride-2 window copy at 7 MB
        (27 x 256 x 256 float32) whatever N is, where a batch of 8 crops
        copied 57 MB; the smaller working set is also faster. A crop's conv
        outputs do not depend on the rest of the batch, so its coefficients
        match its single-crop encode up to the head GEMM's rounding.
        """
        if crops.ndim != 4 or crops.shape[0] < 1 or crops.shape[1:] != (3, FACE_SIZE, FACE_SIZE):
            raise ShapeError(f"face crops must be [N>=1,3,{FACE_SIZE},{FACE_SIZE}], got {crops.shape}")
        pooled = []
        for i in range(crops.shape[0]):
            h = pt.slice_axis(crops, 0, i, i + 1)
            for k in range(6):
                h = pt.silu(
                    pt.conv2d(h, self.params[f"conv{k}.w"], self.params[f"conv{k}.b"], stride=2, pad=1)
                )
            pooled.append(pt.mean_axis(pt.reshape(h, (1, _ENC_CHANNELS[-1], 64)), 2))  # GAP over 8x8
        feats = pt.concat(pooled, axis=0) if len(pooled) > 1 else pooled[0]
        return pt.linear(feats, self.params["head.w"], self.params["head.b"])


def encode_motion(face: FaceCrop, encoder: FaceEncoder, basis: MotionBasis) -> Tensor:
    """One crop -> coefficient vector [m] in the orthonormalized basis."""
    if face.image.shape != (3, FACE_SIZE, FACE_SIZE):
        raise ShapeError(f"face crop must be [3,{FACE_SIZE},{FACE_SIZE}], got {face.image.shape}")
    coeff = encoder.encode_batch(pt.reshape(face.image, (1, 3, FACE_SIZE, FACE_SIZE)))
    latent = pt.matmul(coeff, basis.orthonormal())
    return pt.reshape(latent, (basis.m,))


# ---------------------------------------------------------------------------
# temporal alignment


class TemporalDownsampler:
    """Causal conv stack mapping per-frame latents onto the latent timeline.

    Stage one is stride-1 context; stage two taps the last pixel frame of
    every latent's range (its kernel covers exactly one group), so output t
    never sees frames past its group. The frame map must be a run of
    `frame_ranges` (`video.is_frame_run`) covering the per-frame rows, or
    AlignmentError is raised.
    """

    def __init__(self, rng, m: int = N_COEFF, width: int = DOWN_WIDTH, dtype=np.float32):
        mid = 32
        self.m, self.width = m, width
        w1 = rng.standard_normal((mid, m, 3)) * np.sqrt(2.0 / (m * 3))
        w2 = rng.standard_normal((width, mid, TEMPORAL_GROUP)) * np.sqrt(2.0 / (mid * TEMPORAL_GROUP))
        self.params = {
            "down1.w": Tensor(w1.astype(dtype), requires_grad=True),
            "down2.w": Tensor(w2.astype(dtype), requires_grad=True),
        }

    def __call__(self, per_frame: Tensor, frame_map) -> Tensor:
        t = per_frame.shape[0]
        if not frame_map:
            raise AlignmentError("empty frame map: no latent to align the face frames to")
        if not is_frame_run(frame_map):
            raise AlignmentError(f"frame map {list(frame_map)} has an empty range, a gap or an overlap")
        if frame_map[-1][1] - frame_map[0][0] != t:
            raise AlignmentError(
                f"{t} face frames inconsistent with frame map covering "
                f"[{frame_map[0][0]}, {frame_map[-1][1]})"
            )
        base = frame_map[0][0]
        taps = [b - 1 - base for _, b in frame_map]
        x = pt.transpose(per_frame, (1, 0))  # [m, T]
        h = pt.silu(pt.causal_conv1d(x, self.params["down1.w"]))
        y = pt.causal_conv1d(h, self.params["down2.w"], taps=taps)
        return pt.transpose(y, (1, 0))  # [T_z, width]


@dataclass
class FaceLatentSequence:
    """Per-frame coefficients plus their latent-timeline alignment."""

    per_frame: Tensor  # [T, m]
    downsampled: Tensor  # [T_z, width]

    @property
    def t_z(self) -> int:
        return self.downsampled.shape[0]


def encode_face_sequence(
    crops: Tensor,
    encoder: FaceEncoder,
    basis: MotionBasis,
    downsampler: TemporalDownsampler,
    frame_map,
) -> FaceLatentSequence:
    """[T,3,512,512] crop stack -> aligned face latents."""
    coeffs = encoder.encode_batch(crops)
    latents = pt.matmul(coeffs, basis.orthonormal())
    return FaceLatentSequence(latents, downsampler(latents, frame_map))
