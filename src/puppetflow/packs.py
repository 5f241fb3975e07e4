"""Condition-pack construction for the two generation modes.

A pack is the (noise, condition, mask) latent triple the denoiser consumes.
Position 0 is always the reference latent (mask 1). Positions 1 onward form
the window, a fresh frame stream whose first latent covers one pixel frame
(`window_frame_map`). The first `n_temporal` window positions, 0 to 2 of
them, carry temporal guidance (mask 1) to chain long videos: the re-encode
of the last 1 or 5 frames of the previous output, whose frame map must be
the window's first 1 or 2 ranges. The rest, positions 1 + n_temporal
onward, are the target that sampling returns. Both modes share this one
input layout and differ only in the environment behind the window:
replacement carries environment latents with the subject region knocked out
of both the condition and the mask, and animation is the case with no
environment, condition 0 / mask 0 everywhere.

All functions are pure; randomness comes in through an explicit generator,
so concurrent callers stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import AlignmentError, ConfigError, ShapeError, Tensor
from .vae import ToyVAE
from .video import SPATIAL_FACTOR, TEMPORAL_GROUP, LatentVideo, VideoClip, frame_ranges, latent_count


@dataclass
class ConditionPack:
    noise: Tensor  # [C_z, T_total, h, w]
    condition: Tensor  # same shape
    mask: Tensor  # [1, T_total, h, w]
    n_temporal: int  # guidance latents at window positions 1..n_temporal
    window_frame_map: list[tuple[int, int]]  # pixel ranges of the window stream


def sample_temporal_use(p: float, rng) -> bool:
    """Bernoulli(p) switch for feeding temporal guidance during training."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"temporal-conditioning probability {p} outside [0, 1]")
    return bool(rng.random() < p)


def and_pool_mask(pixel_mask: np.ndarray) -> np.ndarray:
    """Conservative mask downsampling: [T,1,H,W] binary -> [1,T_z,h,w].

    Latent i pools the frames of frame_ranges(T)[i]. A latent cell is 1 only
    if every pixel it covers (its frame range times its 8x8 spatial cell) is
    1, so no subject pixel is ever marked preserved.
    """
    if pixel_mask.ndim != 4 or pixel_mask.shape[1] != 1:
        raise ShapeError(f"mask must be [T,1,H,W], got {pixel_mask.shape}")
    t, _, h, w = pixel_mask.shape
    s = SPATIAL_FACTOR
    if h % s or w % s:
        raise ShapeError(f"mask size {h}x{w} not divisible by the spatial factor {s}")
    fmap = frame_ranges(t)
    hz, wz = h // s, w // s
    out = np.zeros((1, len(fmap), hz, wz), dtype=pixel_mask.dtype)
    binary = pixel_mask >= 0.5
    for i, (a, b) in enumerate(fmap):
        cells = binary[a:b, 0].reshape(b - a, hz, s, wz, s)
        out[0, i] = cells.all(axis=(0, 2, 4))
    return out


def _encode_reference(vae: ToyVAE, ref_image: np.ndarray) -> np.ndarray:
    if not isinstance(ref_image, np.ndarray) or ref_image.ndim != 3 or ref_image.shape[0] != 3:
        shape = getattr(ref_image, "shape", None)
        raise ShapeError(f"reference image must be a [3,H,W] array, got {type(ref_image).__name__} {shape}")
    return vae.encode_frames(ref_image[None])  # [C_z, 1, h, w]


def _assemble_pack(
    vae: ToyVAE,
    ref_image,
    window_frame_map,
    env_latents,
    keep,
    temporal_latents: LatentVideo | None,
    rng,
) -> ConditionPack:
    """The one input layout: reference latent, then the window.

    Window positions carry `env_latents` where `keep` is 1 and are generated
    where it is 0; temporal guidance, when present, overlays the first 1 or
    2 window positions, and its frame map must equal theirs. Noise covers
    every position, reference included: the model denoises the full sequence
    and the caller discards the reference/guidance portions afterwards.
    """
    n_window = len(window_frame_map)
    g = 0 if temporal_latents is None else temporal_latents.t_z
    if g > 2:
        raise ConfigError(f"temporal guidance must be 1 or 2 latents, got {g}")
    if n_window < g:
        raise ConfigError(f"window of {n_window} latents cannot hold {g} guidance latents")
    if g and [tuple(r) for r in temporal_latents.frame_map] != window_frame_map[:g]:
        raise AlignmentError(
            f"guidance frame map {list(temporal_latents.frame_map)} is not the window's "
            f"first {g} ranges {window_frame_map[:g]}"
        )
    ref = _encode_reference(vae, ref_image)
    cz, _, h, w = ref.shape
    cond = np.zeros((cz, 1 + n_window, h, w), dtype=vae.dtype)
    mask = np.zeros((1, 1 + n_window, h, w), dtype=vae.dtype)
    cond[:, :1] = ref
    cond[:, 1:] = env_latents * keep
    mask[:, :1] = 1.0
    mask[:, 1:] = keep
    if g:
        cond[:, 1 : 1 + g] = temporal_latents.latents.data
        mask[:, 1 : 1 + g] = 1.0
    noise = rng.standard_normal(cond.shape).astype(vae.dtype)
    return ConditionPack(
        noise=Tensor(noise),
        condition=Tensor(cond),
        mask=Tensor(mask),
        n_temporal=g,
        window_frame_map=window_frame_map,
    )


def build_animation_pack(
    vae: ToyVAE,
    ref_image,
    n_target_latents: int,
    temporal_latents: LatentVideo | None,
    rng,
    window_frames: int | None = None,
) -> ConditionPack:
    """Pack for full-frame generation from a reference image.

    The window is `n_target_latents` long, with no environment: condition 0
    and mask 0 wherever neither reference nor guidance sits. `window_frames`
    pins the pixel-frame count when the final latent group is partial.
    """
    if n_target_latents < 1:
        raise ConfigError(f"need at least 1 target latent, got {n_target_latents}")
    if window_frames is None:
        window_frames = 1 + (n_target_latents - 1) * TEMPORAL_GROUP
    if latent_count(window_frames) != n_target_latents:
        raise ShapeError(
            f"{window_frames} window frames need {latent_count(window_frames)} latents, "
            f"not {n_target_latents}"
        )
    return _assemble_pack(vae, ref_image, frame_ranges(window_frames), 0.0, 0.0, temporal_latents, rng)


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
    env_latents = vae.encode_frames(env_clip.frames.data * (1.0 - subject_masks))
    keep = and_pool_mask(1.0 - subject_masks).astype(vae.dtype)
    return _assemble_pack(vae, ref_image, frame_ranges(t), env_latents, keep, temporal_latents, rng)
