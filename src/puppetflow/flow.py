"""Velocity-matching objective and Euler sampling.

The probability path is linear: x_t = (1-t) x0 + t noise, target velocity
noise - x0, with t drawn uniformly during training. Loss is averaged over
generated (mask 0) positions only; preserved positions contribute nothing.
Sampling integrates from t=1 to t=0 and keeps only the target latent range,
whose frame map is the window's minus the guidance ranges, with optional
classifier-free guidance on the face branch alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .packs import ConditionPack
from .tensor import ConditioningError, ConfigError, ShapeError, Tensor
from .video import LatentVideo


@dataclass
class FlowState:
    t: float
    x_t: Tensor  # (1-t) x0 + t noise
    v_target: np.ndarray  # noise - x0


def make_flow_state(x0: np.ndarray, noise: np.ndarray, t: float) -> FlowState:
    if x0.shape != noise.shape:
        raise ShapeError(f"x0 {x0.shape} and noise {noise.shape} differ")
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"flow time {t} outside [0, 1]")
    x_t = (1.0 - t) * x0 + t * noise
    return FlowState(t=t, x_t=Tensor(x_t.astype(x0.dtype)), v_target=noise - x0)


def flow_loss(
    pred_v: Tensor,
    v_target: np.ndarray,
    mask: np.ndarray,
    region_weights: np.ndarray | None = None,
) -> Tensor:
    """Weighted MSE over generated positions.

    `mask` is the pack's [1,T,h,w] preserve-mask; `region_weights`, when
    given, has the same shape with every entry >= 1.
    """
    if pred_v.shape != v_target.shape:
        raise ShapeError(f"prediction {pred_v.shape} does not match target {v_target.shape}")
    gen = 1.0 - mask
    n_gen = float(gen.sum())
    if n_gen == 0.0:
        raise ConditioningError("all positions are preserved; nothing to train on")
    w = gen
    if region_weights is not None:
        if region_weights.shape != mask.shape:
            raise ShapeError(f"weights {region_weights.shape} do not match mask {mask.shape}")
        if not (region_weights >= 1.0).all():
            raise ConfigError("region weights must be >= 1 everywhere")
        w = gen * region_weights
    c = pred_v.shape[0]
    w_full = np.broadcast_to(w, pred_v.shape).astype(pred_v.data.dtype)
    diff = pt.sub(pred_v, Tensor(v_target.astype(pred_v.data.dtype)))
    weighted = pt.mul(pt.mul(diff, diff), Tensor(w_full))
    return pt.scale(pt.sum_all(weighted), 1.0 / (c * n_gen))


def sample(
    model,
    pack: ConditionPack,
    pose_latents: Tensor,
    face_down: Tensor | None,
    steps: int,
    face_cfg_scale: float = 1.0,
) -> LatentVideo:
    """Euler integration from pure noise; returns the target range only.

    Face guidance contrasts the conditional velocity against a null-face
    branch. Scale 1 skips the extra pass entirely, and so does
    `face_down=None`, whose conditional pass already is the null-face pass;
    both are bit-identical to a single conditional run. A non-finite scale
    raises ConfigError.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ConfigError(f"need a whole number of at least 1 integration step, got {steps!r}")
    if not np.isfinite(face_cfg_scale):
        raise ConfigError(f"face guidance scale must be finite, got {face_cfg_scale!r}")
    with pt.no_grad():
        x = pack.noise.data.copy()
        dt = 1.0 / steps
        for i in range(steps):
            t = 1.0 - i * dt
            v = model.forward_tokens(Tensor(x), pack, pose_latents, face_down, t).data
            if face_cfg_scale != 1.0 and face_down is not None:
                v_null = model.forward_tokens(Tensor(x), pack, pose_latents, None, t).data
                v = v_null + face_cfg_scale * (v - v_null)
            x = x - dt * v
    g = pack.n_temporal
    return LatentVideo(Tensor(x[:, 1 + g :].copy()), pack.window_frame_map[g:])
