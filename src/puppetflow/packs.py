"""Condition-pack construction for the two generation modes.

A pack is the (noise, condition, mask) latent triple the denoiser consumes.
Position 0 is always the reference latent (mask 1). The remaining positions
form the target window, a fresh frame stream whose first latent covers one
pixel frame. The leading 0..2 window positions may carry temporal guidance
(ground-truth latents, mask 1) to chain long videos. What the rest looks
like depends on the mode: animation leaves condition 0 / mask 0 everywhere,
replacement carries environment latents with the subject region knocked out
of both the condition and the mask.

All functions are pure; randomness comes in through an explicit generator,
so concurrent callers stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, ShapeError, Tensor
from .vae import ToyVAE
from .video import LatentVideo, SPATIAL_FACTOR, VideoClip, frame_ranges, is_contiguous, latent_count


@dataclass(frozen=True)
class PackLayout:
    """Labeled half-open latent ranges: [reference][temporal][target]."""

    n_total: int
    n_temporal: int

    @property
    def reference(self) -> tuple[int, int]:
        return (0, 1)

    @property
    def temporal(self) -> tuple[int, int]:
        return (1, 1 + self.n_temporal)

    @property
    def target(self) -> tuple[int, int]:
        return (1 + self.n_temporal, self.n_total)

    @property
    def window(self) -> tuple[int, int]:
        """Everything but the reference: the generated frame stream."""
        return (1, self.n_total)


@dataclass
class ConditionPack:
    noise: Tensor  # [C_z, T_total, h, w]
    condition: Tensor  # same shape
    mask: Tensor  # [1, T_total, h, w]
    layout: PackLayout
    mode: str  # "animation" | "replacement"
    window_frame_map: list[tuple[int, int]]  # pixel ranges of the window stream

    @property
    def n_total(self) -> int:
        return self.layout.n_total

    def window_frames(self) -> int:
        return self.window_frame_map[-1][1]


def sample_temporal_use(p: float, rng) -> bool:
    """Bernoulli(p) switch for feeding temporal guidance during training."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"temporal-conditioning probability {p} outside [0, 1]")
    return bool(rng.random() < p)


def and_pool_mask(pixel_mask: np.ndarray, frame_map) -> np.ndarray:
    """Conservative mask downsampling: [T,1,H,W] binary -> [1,T_z,h,w].

    A latent cell is 1 only if every pixel it covers (its frame range times
    its 8x8 spatial cell) is 1, so no subject pixel is ever marked preserved.
    `frame_map` must partition [0, T) into non-empty ranges in order, or
    ShapeError is raised.
    """
    t, _, h, w = pixel_mask.shape
    if not frame_map:
        raise ShapeError(f"empty frame_map for {t} mask frames")
    if frame_map[0][0] != 0 or not is_contiguous(frame_map):
        raise ShapeError(f"frame_map {list(frame_map)} does not partition the frames from 0 in order")
    if frame_map[-1][1] != t:
        raise ShapeError(f"frame_map covers {frame_map[-1][1]} frames, masks have {t}")
    s = SPATIAL_FACTOR
    if h % s or w % s:
        raise ShapeError(f"mask size {h}x{w} not divisible by the spatial factor {s}")
    hz, wz = h // s, w // s
    out = np.zeros((1, len(frame_map), hz, wz), dtype=pixel_mask.dtype)
    binary = pixel_mask >= 0.5
    for i, (a, b) in enumerate(frame_map):
        cells = binary[a:b, 0].reshape(b - a, hz, s, wz, s)
        out[0, i] = cells.all(axis=(0, 2, 4))
    return out


def _encode_reference(vae: ToyVAE, ref_image) -> np.ndarray:
    img = ref_image.data if isinstance(ref_image, Tensor) else np.asarray(ref_image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"reference image must be [3,H,W], got {img.shape}")
    return vae.encode_frames(img[None])  # [C_z, 1, h, w]


def _check_temporal(temporal_latents, n_target: int) -> int:
    if temporal_latents is None:
        return 0
    g = temporal_latents.latents.shape[1]
    if g not in (1, 2):
        raise ConfigError(f"temporal guidance must be 1 or 2 latents, got {g}")
    if n_target < g:
        raise ConfigError(f"window of {n_target} latents cannot hold {g} guidance latents")
    return g


def build_animation_pack(
    vae: ToyVAE,
    ref_image,
    n_target_latents: int,
    temporal_latents: LatentVideo | None,
    rng,
    window_frames: int | None = None,
) -> ConditionPack:
    """Pack for full-frame generation from a reference image.

    The window is `n_target_latents` long; temporal guidance, when present,
    overlays its first 1 or 2 positions. Noise covers every position,
    reference included: the model denoises the full sequence and the caller
    discards the reference/guidance portions afterwards. `window_frames`
    pins the pixel-frame count when the final latent group is partial.
    """
    if n_target_latents < 1:
        raise ConfigError(f"need at least 1 target latent, got {n_target_latents}")
    g = _check_temporal(temporal_latents, n_target_latents)
    if window_frames is None:
        window_frames = 1 + (n_target_latents - 1) * 4
    if latent_count(window_frames) != n_target_latents:
        raise ShapeError(
            f"{window_frames} window frames need {latent_count(window_frames)} latents, "
            f"not {n_target_latents}"
        )
    ref = _encode_reference(vae, ref_image)
    cz, _, h, w = ref.shape
    n_total = 1 + n_target_latents
    cond = np.zeros((cz, n_total, h, w), dtype=vae.dtype)
    mask = np.zeros((1, n_total, h, w), dtype=vae.dtype)
    cond[:, 0:1] = ref
    mask[:, 0 : 1 + g] = 1.0
    if g:
        cond[:, 1 : 1 + g] = temporal_latents.latents.data
    noise = rng.standard_normal((cz, n_total, h, w)).astype(vae.dtype)
    return ConditionPack(
        noise=Tensor(noise),
        condition=Tensor(cond),
        mask=Tensor(mask),
        layout=PackLayout(n_total=n_total, n_temporal=g),
        mode="animation",
        window_frame_map=frame_ranges(window_frames),
    )


def build_replacement_pack(
    vae: ToyVAE,
    ref_image,
    env_clip: VideoClip,
    subject_masks: np.ndarray,
    temporal_latents: LatentVideo | None,
    rng,
) -> ConditionPack:
    """Pack for generating the subject inside an existing environment.

    Environment frames are the clip with subject pixels zeroed; the latent
    mask is their AND-pooled complement, and the condition is additionally
    zeroed wherever that mask is 0 so a fully-subject frame degenerates to
    the animation formulation.
    """
    t = env_clip.length
    if subject_masks.shape != (t, 1, env_clip.height, env_clip.width):
        raise ShapeError(
            f"subject masks {subject_masks.shape} do not match clip frames "
            f"({t}, 1, {env_clip.height}, {env_clip.width})"
        )
    n_window = latent_count(t)
    g = _check_temporal(temporal_latents, n_window)
    ref = _encode_reference(vae, ref_image)
    cz, _, h, w = ref.shape
    fmap = frame_ranges(t)

    env_pixels = env_clip.frames.data * (1.0 - subject_masks)
    env_latents = vae.encode_frames(env_pixels)
    keep = and_pool_mask(1.0 - subject_masks, fmap).astype(vae.dtype)
    env_latents = env_latents * keep  # zero condition inside subject cells

    n_total = 1 + n_window
    cond = np.zeros((cz, n_total, h, w), dtype=vae.dtype)
    mask = np.zeros((1, n_total, h, w), dtype=vae.dtype)
    cond[:, 0:1] = ref
    cond[:, 1:] = env_latents
    mask[:, 1:] = keep
    mask[:, 0:1] = 1.0
    if g:
        cond[:, 1 : 1 + g] = temporal_latents.latents.data
        mask[:, 1 : 1 + g] = 1.0
    noise = rng.standard_normal((cz, n_total, h, w)).astype(vae.dtype)
    return ConditionPack(
        noise=Tensor(noise),
        condition=Tensor(cond),
        mask=Tensor(mask),
        layout=PackLayout(n_total=n_total, n_temporal=g),
        mode="replacement",
        window_frame_map=fmap,
    )
