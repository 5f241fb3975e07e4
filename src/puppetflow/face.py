"""Face conditioning: crop, augment, encode to motion coefficients, downsample.

The crop box comes from the skeleton's head keypoints, so no face detector is
involved. A crop holds its own copy of the window of the source frame that
its box's bilinear taps read, with the window's origin and the box, not its
512x512 pixels: those are a pure function of these, resampled on each read
of `.image` (a 23-57 px head box in a 128 px float32 frame holds a 6-32 KB
window, against 196 KB for the frame and 3.1 MB for the crop's pixels). One
resample, `_resample`, has two callers: `FrameCrop.image` and the
augmentation's zoom. It writes its output in blocks of rows, through about
1 MB of scratch.
Each crop is squeezed into a small coefficient vector over a learned
row-orthonormal basis (re-orthonormalized on every forward pass),
which together with train-time augmentation keeps identity detail out of the
expression channel. A stack of causal 1D convolutions then aligns the
per-frame latents with the latent-video timeline: the output for latent step
t sees only pixel frames covered by groups up to t.

Augmentation draws its float64 noise field on one worker thread, in order and
in chunks, while the calling thread reads and resizes the crop; the output is
bit-identical to a serial draw. The worker lives for one `augment_face` call,
and `rng` must be a `np.random.Generator` that no other thread uses meanwhile.

Per-frame encodes are independent. The encoder runs them one crop at a time,
which is faster and smaller than one batched conv call (`encode_batch`); the
downsampler is the only sequential piece.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .skeleton import CONF_THRESHOLD, HEAD_JOINTS, Skeleton
from .tensor import AlignmentError, ConfigError, NumericalError, ShapeError, Tensor
from .video import TEMPORAL_GROUP, frame_ranges, is_frame_run

FACE_SIZE = 512
CROP_EXPANSION = 1.8
MIN_BOX_SIDE = 4.0
N_COEFF = 20  # motion coefficients per frame
DOWN_WIDTH = 64  # channel width after temporal downsampling
_ENC_CHANNELS = (3, 4, 8, 8, 16, 16, 32)
_NOISE_CHUNK = 2**16  # float64 noise values per worker draw
_BLOCK_BYTES = 2**18  # bytes of one block of resample scratch
# augmentation: zoom, per-channel gain and bias, each uniform over its range,
# and additive Gaussian noise whose sigma is uniform over [0, NOISE_HI)
SCALE_RANGE = (0.9, 1.1)
GAIN_RANGE = (0.8, 1.2)
BIAS_RANGE = (-0.1, 0.1)
NOISE_HI = 0.05


@dataclass
class FaceCrop:
    """A face crop held as pixels, as `augment_face` returns it."""

    image: Tensor  # [3, 512, 512], values in [0,1]


@dataclass(frozen=True)
class FrameCrop:
    """A face crop held as the window of its frame that its box reads, as
    `crop_face` returns it: the one crop form that `augment_face` takes and
    a `train.Clip` holds.

    `window` is the crop's own read-only copy of the rows and columns of the
    [3,H,W] frame that the FACE_SIZE bilinear taps of `box` (its `head_box`)
    read, and `origin` is the frame (row, column) of the window's first
    pixel. Each read of `.image` resamples them into a fresh float32 array
    (`_resample`, whose other caller is the augmentation's zoom), the same on
    every read. Pixels at FACE_SIZE are the crop over themselves, with origin
    (0, 0) and box (0, 0, FACE_SIZE), whose taps read them back bit for bit.
    """

    window: np.ndarray
    origin: tuple
    box: tuple

    @property
    def image(self) -> Tensor:
        out = np.empty((3, FACE_SIZE, FACE_SIZE), dtype=np.float32)
        return Tensor(_resample(self.window, self.origin, self.box, out))


def _taps(out_size: int, first: int, size: int, lo: float, hi: float):
    """Bilinear taps (u0, frac) of each output pixel over the frame span
    [lo, hi), read from a window of `size` pixels that starts at frame index
    `first`.

    Pixel-center convention in frame coordinates; coordinates clamp to the
    window's first and last pixel, so boxes that overhang it replicate edge
    pixels. `u0` counts from the window's start: each output pixel blends
    window pixels u0 and min(u0 + 1, size - 1), and u0 never decreases.
    """
    u = lo + (np.arange(out_size) + 0.5) * (hi - lo) / out_size - 0.5
    u = np.clip(u, float(first), first + size - 1.0)
    u0 = np.floor(u).astype(np.intp)
    return u0 - first, u - u0


def _span(out_size: int, src_size: int, lo: float, side: float):
    """The source indices [first, stop) that the taps over [lo, lo + side) read.

    The span stops at the frame's edge exactly where a tap clamps, so taps
    clamped to the span's first and last index are those clamped to the frame.
    """
    u0, _ = _taps(out_size, 0, src_size, lo, lo + side)
    return int(u0[0]), min(int(u0[-1]) + 2, src_size)


def _resample(src: np.ndarray, origin, box, out: np.ndarray) -> np.ndarray:
    """Write the bilinear resample of the square `box` (x0, y0, side) into
    `out` [C,n,n] and return it.

    `src` [C,h,w] is a window whose first pixel sits at frame (row, column)
    `origin`. The taps are computed in frame coordinates and clamped to the
    window (`_taps`), so a window that holds every pixel the frame's taps
    read (`_span`) gives the pixels of its whole frame. The arithmetic runs
    in `src`'s dtype and the last add casts into `out`.

    Every output pixel blends two source columns, then two source rows, as
    a + (b - a) * frac. The y pass fills `out` in blocks of output rows: the
    x pass runs over the source rows a block reads, each row's step to the
    next is taken once, and the steps and bases are gathered per output row
    into scratch of about `_BLOCK_BYTES` each. A read holds `out` and about
    1 MB, never a second `out`-sized array.
    """
    c, n = out.shape[0], out.shape[1]
    (top, left), (x0, y0, side) = origin, box
    ux, fx = _taps(n, left, src.shape[2], x0, x0 + side)
    uy, fy = _taps(n, top, src.shape[1], y0, y0 + side)
    ux1 = np.minimum(ux + 1, src.shape[2] - 1)
    fx = fx.astype(src.dtype)
    fy = fy.astype(src.dtype)[:, None]
    k = max(1, _BLOCK_BYTES // (c * n * src.itemsize))  # output rows per block
    blocks = [(r, min(r + k, n)) for r in range(0, n, k)]
    reads = [(int(uy[r0]), min(int(uy[r1 - 1]) + 2, src.shape[1])) for r0, r1 in blocks]
    m = max(hi - lo for lo, hi in reads)
    xbase, cols = np.empty((2, c * m * n), dtype=src.dtype)
    ybase, step = np.empty((2, c * k * n), dtype=src.dtype)
    weight = np.empty((k, n), dtype=src.dtype)

    def rows_of(buf, rows):  # a contiguous [C, rows, n] view of a flat buffer
        return buf[: c * rows * n].reshape(c, rows, n)

    for (r0, r1), (lo, hi) in zip(blocks, reads):
        # x pass over the block's source rows
        a, x = rows_of(xbase, hi - lo), rows_of(cols, hi - lo)
        # every index is in range; "clip" spares take's buffered bounds check
        np.take(src[:, lo:hi], ux, axis=2, out=a, mode="clip")
        np.take(src[:, lo:hi], ux1, axis=2, out=x, mode="clip")
        x -= a
        x *= fx
        x += a
        # y pass: a's rows become each source row's step to the next (zero
        # at the last, where the tap clamps), gathered per output row
        np.subtract(x[:, 1:], x[:, :-1], out=a[:, :-1])
        np.subtract(x[:, -1:], x[:, -1:], out=a[:, -1:])
        u = uy[r0:r1] - lo
        d, b, f = rows_of(step, r1 - r0), rows_of(ybase, r1 - r0), weight[: r1 - r0]
        np.take(a, u, axis=1, out=d, mode="clip")
        f[...] = fy[r0:r1]  # a full-width row of weights multiplies faster than a broadcast column
        d *= f
        np.take(x, u, axis=1, out=b, mode="clip")
        np.add(d, b, out=out[:, r0:r1])
    return out


def head_box(sk: Skeleton, height: int, width: int):
    """Square crop box around confident head keypoints, or None if fewer than 2.

    A confident head keypoint that is NaN or infinite raises NumericalError.
    """
    pts = [sk.joints[j] for j in HEAD_JOINTS if sk.confidence[j] >= CONF_THRESHOLD]
    if len(pts) < 2:
        return None
    pts = np.asarray(pts)
    if not np.isfinite(pts).all():
        raise NumericalError(f"non-finite confident head keypoint in {pts.tolist()}")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    side = max(float((hi - lo).max()) * CROP_EXPANSION, MIN_BOX_SIDE)
    side = min(side, float(min(height, width)))
    cx, cy = (lo + hi) / 2.0
    x0 = min(max(cx - side / 2.0, 0.0), width - side)
    y0 = min(max(cy - side / 2.0, 0.0), height - side)
    return (x0, y0, side)


def crop_face(frame: np.ndarray, sk: Skeleton) -> FrameCrop | None:
    """Skeleton-guided face crop; None is the no-face signal (fewer than two
    confident head keypoints), in which case callers fall back to the model's
    learned null face latent. A non-finite confident head keypoint raises
    NumericalError (`head_box`).

    The crop keeps a copy of the window of the frame that its box's taps
    read, in the frame's dtype, with the window's origin and the box; its
    `.image` resamples them on each read (`FrameCrop`)."""
    if not isinstance(frame, np.ndarray) or frame.ndim != 3 or frame.shape[0] != 3:
        raise ShapeError(f"frame must be a [3,H,W] array, got {type(frame).__name__} {getattr(frame, 'shape', None)}")
    _, h, w = frame.shape
    box = head_box(sk, h, w)
    if box is None:
        return None
    x0, y0, side = box
    (top, bottom), (left, right) = _span(FACE_SIZE, h, y0, side), _span(FACE_SIZE, w, x0, side)
    window = frame[:, top:bottom, left:right].copy()
    window.flags.writeable = False
    return FrameCrop(window, (top, left), box)


def crop_clip(frames: np.ndarray, poses) -> list[FrameCrop] | None:
    """Every [T,3,H,W] frame's `crop_face` under its skeleton, or None when
    some frame has none: the clip then takes the model's null face latent."""
    crops = [crop_face(f, sk) for f, sk in zip(frames, poses)]
    return None if any(c is None for c in crops) else crops


def augment_face(face: FrameCrop, rng) -> FaceCrop:
    """Train-time identity-scrambling: rescale, color jitter, additive noise.

    Draw order is fixed (scale, 3 gains, 3 biases, sigma, then the float64
    noise field) so a seeded generator reproduces the augmentation exactly.
    The noise field is drawn on one worker thread, in order, in chunks of
    `_NOISE_CHUNK` values, into a buffer this call owns; the generator sees
    the same calls as one `standard_normal(shape)` and ends in the same state.
    Meanwhile this thread reads the crop's pixels once (resampled here, in
    the draws' shadow), zooms them and applies gain and bias in place, then
    folds in each chunk as it lands (x sigma in float64, cast into one chunk
    buffer, add, clip). The output is bit-identical to the serial
    computation. `face` must be a `crop_face` result (a `FrameCrop`), or
    ConfigError is raised before any draw; `rng` must be a
    `np.random.Generator` that no other thread uses during the call. The
    worker lives only for this call, so no thread outlives it (a forked child
    inherits none).
    """
    if not isinstance(face, FrameCrop):
        raise ConfigError(f"augment_face: face must be a crop_face result, got {type(face).__name__}")
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"augment_face: rng must be a numpy Generator, got {type(rng).__name__}")
    s = float(rng.uniform(*SCALE_RANGE))
    gains = rng.uniform(*GAIN_RANGE, 3)
    biases = rng.uniform(*BIAS_RANGE, 3)
    sigma = float(rng.uniform(0.0, NOISE_HI))
    side = FACE_SIZE / s
    off = (FACE_SIZE - side) / 2.0
    noise = np.empty(3 * FACE_SIZE * FACE_SIZE, dtype=np.float64)
    starts = range(0, noise.size, _NOISE_CHUNK)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # one worker runs the draws in submission order, so the stream is serial
        draws = [pool.submit(rng.standard_normal, out=noise[a : a + _NOISE_CHUNK]) for a in starts]
        img = face.image.data
        out = _resample(img, (0, 0), (off, off, side), np.empty_like(img))
        out *= gains.astype(out.dtype)[:, None, None]
        out += biases.astype(out.dtype)[:, None, None]
        flat = out.reshape(-1)
        scaled = np.empty(_NOISE_CHUNK, dtype=out.dtype)
        for a, draw in zip(starts, draws):
            draw.result()
            part = flat[a : a + _NOISE_CHUNK]
            buf = scaled[: part.size]
            np.multiply(noise[a : a + _NOISE_CHUNK], sigma, out=buf)
            part += buf
            np.clip(part, 0.0, 1.0, out=part)
    return FaceCrop(Tensor(out))


# ---------------------------------------------------------------------------
# motion encoding


class MotionBasis:
    """Learned raw basis, consumed through its row-orthonormalized form.

    Orthonormalization is classical Gram-Schmidt with reorthogonalization,
    computed differentiably on every forward so that the invariant D D^T = I
    survives optimizer steps: each row takes away its projection onto all
    rows before it as one block, v -= (v Q^T) Q, twice, then is normalized.
    """

    def __init__(self, rng):
        self.params = {"raw": pt.param(rng.standard_normal((N_COEFF, N_COEFF)) / np.sqrt(N_COEFF))}

    def orthonormal(self) -> Tensor:
        raw = self.params["raw"]
        q = None  # the rows done so far, [i, m]
        for i in range(raw.shape[0]):
            v = pt.slice_axis(raw, 0, i, i + 1)  # [1, m]
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
    """Six stride-2 stages 512 -> 8, pooled, projected to motion coefficients.

    Each stage is a 3x3 conv followed by a SiLU. The SiLU of stages 1-5 is
    folded into the next stage's conv (`tensor.silu_conv2d`), so the tape
    holds one [C, H, W] buffer per stage, the conv output, plus the last
    stage's SiLU output that the pooling reads.
    """

    def __init__(self, rng):
        p = {}
        for i in range(6):
            ci, co = _ENC_CHANNELS[i], _ENC_CHANNELS[i + 1]
            p[f"conv{i}.w"] = pt.param(rng.standard_normal((co, ci, 3, 3)) * np.sqrt(2.0 / (ci * 9)))
            p[f"conv{i}.b"] = pt.param(np.zeros(co))
        p["head.w"] = pt.param(rng.standard_normal((_ENC_CHANNELS[-1], N_COEFF)) / np.sqrt(_ENC_CHANNELS[-1]))
        p["head.b"] = pt.param(np.zeros(N_COEFF))
        self.params = p

    def encode_batch(self, crops: Tensor) -> Tensor:
        """[N,3,512,512] -> [N, N_COEFF] coefficients, one crop at a time.

        Each crop runs `conv2d`, five `silu_conv2d` stages and one `silu` on
        its own and is pooled; the head then runs once over the stacked pooled
        features. The tape keeps, per crop, the six conv outputs (1.43 MB in
        float32) and the last SiLU (8 KB); every other SiLU output lives only
        inside a conv's forward. The row-blocked conv forward copies at most
        2^19 bytes of windows per block, so a batch saves no copy, and its
        larger activations cost time and memory: for 17 crops on a 2-vCPU
        Xeon with one BLAS thread, forward plus backward took 242-255 ms of
        CPU at 123 MB max RSS one crop at a time, and 323-436 ms at 252 MB as
        one batched call, with bit-identical coefficients. A crop's conv
        outputs do not depend on the rest of the batch, so its coefficients
        match its single-crop encode up to the head GEMM's rounding.
        """
        if crops.ndim != 4 or crops.shape[0] < 1 or crops.shape[1:] != (3, FACE_SIZE, FACE_SIZE):
            raise ShapeError(f"face crops must be [N>=1,3,{FACE_SIZE},{FACE_SIZE}], got {crops.shape}")
        p = self.params
        pooled = []
        for i in range(crops.shape[0]):
            h = pt.conv2d(pt.slice_axis(crops, 0, i, i + 1), p["conv0.w"], p["conv0.b"], stride=2, pad=1)
            for k in range(1, 6):
                h = pt.silu_conv2d(h, p[f"conv{k}.w"], p[f"conv{k}.b"], stride=2, pad=1)
            h = pt.silu(h)
            pooled.append(pt.mean_axis(pt.reshape(h, (1, _ENC_CHANNELS[-1], 64)), 2))  # GAP over 8x8
        feats = pt.concat(pooled, axis=0)
        return pt.linear(feats, p["head.w"], p["head.b"])


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

    def __init__(self, rng):
        mid = 32
        w1 = rng.standard_normal((mid, N_COEFF, 3)) * np.sqrt(2.0 / (N_COEFF * 3))
        w2 = rng.standard_normal((DOWN_WIDTH, mid, TEMPORAL_GROUP)) * np.sqrt(2.0 / (mid * TEMPORAL_GROUP))
        self.params = {"down1.w": pt.param(w1), "down2.w": pt.param(w2)}

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
        h = pt.silu(pt.causal_conv1d(per_frame, self.params["down1.w"]))
        return pt.causal_conv1d(h, self.params["down2.w"], taps=taps)  # [T_z, DOWN_WIDTH]


@dataclass
class FaceLatentSequence:
    """Face latents aligned with the latent timeline."""

    downsampled: Tensor  # [T_z, DOWN_WIDTH]


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
    return FaceLatentSequence(downsampler(latents, frame_map))


def face_condition(model, images, n: int) -> Tensor:
    """The face condition [T_z, DOWN_WIDTH] of a clip's `n` face images
    ([3,FACE_SIZE,FACE_SIZE] each, from any iterable), read in order into one
    preallocated float32 stack and encoded over `frame_ranges(n)` by `model`'s
    face encoder, basis and downsampler."""
    stack = np.empty((n, 3, FACE_SIZE, FACE_SIZE), dtype=np.float32)
    for row, image in zip(stack, images, strict=True):
        row[...] = image
    return encode_face_sequence(Tensor(stack), model.face_encoder, model.basis, model.downsampler,
                                frame_ranges(n)).downsampled
