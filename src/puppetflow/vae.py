"""Toy causal video autoencoder.

Deterministic (no KL term, no sampling): three stride-2 convolutions give the
8x spatial factor, then a 1x1 head merges each temporal group into one latent.
The first pixel frame gets its own latent through a dedicated head; every
later latent covers a group of up to 4 frames. Decoding mirrors this, and the
frame map's start decides: a map that starts at frame 0 begins with the
one-frame latent, and a stream sliced off mid-sequence holds only groups and
still decodes. Each of the three decoder stages is a nearest 2x upsample
followed by a 3x3 conv, computed without the upsampled tensor
(`tensor._upsample_conv2d`): one 2x2 `conv2d` over the low-res features whose
output channels are the four output phases, then an interleave of the phases
into the 2x output.

Latents are affinely normalized by corpus statistics fixed after pretraining,
so downstream denoising sees roughly unit-scale inputs.
"""

from __future__ import annotations

import numpy as np

from . import tensor as pt
from .tensor import ShapeError, Tensor
from .video import (
    LATENT_CHANNELS,
    SPATIAL_FACTOR,
    TEMPORAL_GROUP,
    LatentVideo,
    VideoClip,
    frame_ranges,
    is_frame_run,
)

FEAT = 32  # spatial feature width at the bottleneck


def _conv_init(rng, co, ci, k, dtype):
    w = rng.standard_normal((co, ci, k, k)) * np.sqrt(2.0 / (ci * k * k))
    return Tensor(w.astype(dtype), requires_grad=True)


def _bias_init(co, dtype):
    return Tensor(np.zeros(co, dtype=dtype), requires_grad=True)


class ToyVAE:
    """Plain autoencoder over puppet clips; spatial factor 8, temporal factor 4."""

    spatial_factor = SPATIAL_FACTOR
    temporal_group = TEMPORAL_GROUP
    latent_channels = LATENT_CHANNELS

    def __init__(self, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.dtype = dtype
        cz = LATENT_CHANNELS
        p = {}
        widths = [3, 16, 32, FEAT]
        for i in range(3):
            p[f"enc{i}.w"] = _conv_init(rng, widths[i + 1], widths[i], 3, dtype)
            p[f"enc{i}.b"] = _bias_init(widths[i + 1], dtype)
        p["enc_first.w"] = _conv_init(rng, cz, FEAT, 1, dtype)
        p["enc_first.b"] = _bias_init(cz, dtype)
        p["enc_group.w"] = _conv_init(rng, cz, TEMPORAL_GROUP * FEAT, 1, dtype)
        p["enc_group.b"] = _bias_init(cz, dtype)
        p["dec_first.w"] = _conv_init(rng, FEAT, cz, 1, dtype)
        p["dec_first.b"] = _bias_init(FEAT, dtype)
        p["dec_group.w"] = _conv_init(rng, TEMPORAL_GROUP * FEAT, cz, 1, dtype)
        p["dec_group.b"] = _bias_init(TEMPORAL_GROUP * FEAT, dtype)
        widths = [FEAT, 32, 16, 3]
        for i in range(3):
            p[f"dec{i}.w"] = _conv_init(rng, widths[i + 1], widths[i], 3, dtype)
            p[f"dec{i}.b"] = _bias_init(widths[i + 1], dtype)
        self.params = p
        # latent normalization, frozen after pretraining
        self.latent_shift = np.zeros((cz, 1, 1, 1), dtype=dtype)
        self.latent_scale = np.ones((cz, 1, 1, 1), dtype=dtype)

    def set_latent_stats(self, mean, std):
        cz = LATENT_CHANNELS
        self.latent_shift = np.asarray(mean, dtype=self.dtype).reshape(cz, 1, 1, 1)
        self.latent_scale = np.asarray(std, dtype=self.dtype).reshape(cz, 1, 1, 1)

    # -- differentiable cores -------------------------------------------------

    def _spatial_encode(self, frames: Tensor) -> Tensor:
        h = frames
        for i in range(3):
            h = pt.silu(pt.conv2d(h, self.params[f"enc{i}.w"], self.params[f"enc{i}.b"], stride=2, pad=1))
        return h  # [T, FEAT, H/8, W/8]

    def _spatial_decode(self, feats: Tensor) -> Tensor:
        h = feats
        for i in range(3):
            h = pt._upsample_conv2d(h, self.params[f"dec{i}.w"], self.params[f"dec{i}.b"])
            if i < 2:
                h = pt.silu(h)
        return h  # [T, 3, H, W], unclamped

    def encode_tensor(self, frames: Tensor) -> Tensor:
        """[T,3,H,W] -> [C_z,T_z,H/8,W/8] over frame_ranges(T), differentiable."""
        t, _, hh, ww = frames.shape
        if hh % SPATIAL_FACTOR or ww % SPATIAL_FACTOR:
            raise ShapeError(f"frame size {hh}x{ww} not divisible by spatial factor {SPATIAL_FACTOR}")
        feats = self._spatial_encode(frames)
        head = pt.slice_axis(feats, 0, 0, 1)
        parts = [pt.conv2d(head, self.params["enc_first.w"], self.params["enc_first.b"])]
        if t > 1:
            rest = pt.slice_axis(feats, 0, 1, t)
            pad = (1 - t) % TEMPORAL_GROUP
            if pad:  # partial trailing group: repeat the last frame's features
                last = pt.slice_axis(rest, 0, t - 2, t - 1)
                rest = pt.concat([rest] + [last] * pad, axis=0)
            k = rest.shape[0] // TEMPORAL_GROUP
            grouped = pt.reshape(rest, (k, TEMPORAL_GROUP * FEAT) + tuple(rest.shape[2:]))
            parts.append(pt.conv2d(grouped, self.params["enc_group.w"], self.params["enc_group.b"]))
        z = pt.concat(parts, axis=0) if len(parts) > 1 else parts[0]  # [T_z, C_z, h, w]
        z = pt.transpose(z, (1, 0, 2, 3))
        shift = self.latent_shift.reshape(LATENT_CHANNELS, 1, 1, 1)
        inv = (1.0 / self.latent_scale).reshape(LATENT_CHANNELS, 1, 1, 1)
        return pt.mul_const(pt.add_const(z, -np.broadcast_to(shift, z.shape)), np.broadcast_to(inv, z.shape))

    def decode_tensor(self, z: Tensor, frame_map) -> Tensor:
        """[C_z,T_z,h,w] + frame map -> [T,3,H,W], unclamped, differentiable.

        The map must be a run of frame_ranges with one range per latent;
        latent 0 is the one-frame latent exactly when the map starts at 0.
        """
        if len(frame_map) != z.shape[1]:
            raise ShapeError(f"frame_map has {len(frame_map)} ranges for {z.shape[1]} latents")
        if not is_frame_run(frame_map):
            raise ShapeError(f"frame_map {list(frame_map)} is not a run of frame_ranges")
        scale = np.broadcast_to(self.latent_scale.reshape(LATENT_CHANNELS, 1, 1, 1), z.shape)
        shift = np.broadcast_to(self.latent_shift.reshape(LATENT_CHANNELS, 1, 1, 1), z.shape)
        z = pt.add_const(pt.mul_const(z, scale), shift)
        zt = pt.transpose(z, (1, 0, 2, 3))  # [T_z, C_z, h, w]
        t_z = zt.shape[0]
        feat_parts = []
        start = int(frame_map[0][0] == 0)
        if start:
            head = pt.slice_axis(zt, 0, 0, 1)
            feat_parts.append(pt.conv2d(head, self.params["dec_first.w"], self.params["dec_first.b"]))
        if t_z > start:
            groups = pt.slice_axis(zt, 0, start, t_z)
            g = pt.conv2d(groups, self.params["dec_group.w"], self.params["dec_group.b"])
            g = pt.reshape(g, (g.shape[0] * TEMPORAL_GROUP, FEAT) + tuple(g.shape[2:]))
            feat_parts.append(g)
        feats = pt.concat(feat_parts, axis=0) if len(feat_parts) > 1 else feat_parts[0]
        frames = frame_map[-1][1] - frame_map[0][0]
        if frames != feats.shape[0]:  # only the last range of a run can be partial
            feats = pt.slice_axis(feats, 0, 0, frames)
        return self._spatial_decode(feats)

    def reconstruct(self, frames: Tensor) -> Tensor:
        """encode -> decode, unclamped; the pretraining objective path."""
        t = frames.shape[0]
        fmap = frame_ranges(t)
        return self.decode_tensor(self.encode_tensor(frames), fmap)

    # -- public clip API ------------------------------------------------------

    def encode(self, clip: VideoClip) -> LatentVideo:
        with pt.no_grad():
            z = self.encode_tensor(clip.frames)
        return LatentVideo(z.detach(), frame_ranges(clip.length))

    def decode(self, lat: LatentVideo) -> VideoClip:
        with pt.no_grad():
            raw = self.decode_tensor(lat.latents, lat.frame_map)
        return VideoClip(Tensor(np.clip(raw.data, 0.0, 1.0)))

    def encode_frames(self, frames: np.ndarray) -> np.ndarray:
        """Convenience: numpy [T,3,H,W] in, normalized latents out."""
        with pt.no_grad():
            return self.encode_tensor(Tensor(frames.astype(self.dtype))).data
