"""Clip preparation, the training step, the Adam update and the loop over them.

The stage being trained is the set of roles whose parameters require grad:
`fit` freezes every role outside its `roles` by setting `requires_grad=False`
on its parameters, and every op skips that role's weight gradients. A step
takes one prepared `Clip`: its VAE latents and pose latents, encoded once by
`prepare_clip`, its own copy of the reference frame, and its face crops (or
None, for the model's null face latent). The generator supplies, in this
order, the crop augmentations, the pack noise and the flow time, so a seeded
step, and a seeded `fit`, is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import face, flow, packs, rasterize
from . import tensor as pt
from .tensor import AlignmentError, ConfigError, ShapeError
from .video import LATENT_CHANNELS, SPATIAL_FACTOR, latent_count

ADAM_BETAS = (0.9, 0.999)  # decay of the first and second moment estimates
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Clip:
    """One training clip, prepared once (`prepare_clip`).

    `latents` are the clip's VAE latents [C_z, T_z, h, w] and `pose_latents`
    those of its pose frames, a `Tensor` of the same shape; `ref_image` is the
    [3, H, W] reference frame, its own array; `crops` is one `crop_face`
    result per clip frame, or None. Latents that are not [LATENT_CHANNELS,
    T_z, H/8, W/8] for the reference frame raise ShapeError, and crops for
    another number of latents than T_z raise AlignmentError.
    """

    latents: np.ndarray
    pose_latents: pt.Tensor
    ref_image: np.ndarray
    crops: list | None

    def __post_init__(self):
        ref, lat = self.ref_image.shape, self.latents.shape
        if (len(ref) != 3 or ref[0] != 3 or len(lat) != 4 or lat[0] != LATENT_CHANNELS or lat[1] < 1
                or (lat[2] * SPATIAL_FACTOR, lat[3] * SPATIAL_FACTOR) != ref[1:]):
            raise ShapeError(f"latents {lat} are not [{LATENT_CHANNELS}, T_z, H/8, W/8] for a [3, H, W] reference {ref}")
        if self.crops is not None and (not self.crops or latent_count(len(self.crops)) != lat[1]):
            raise AlignmentError(f"{len(self.crops)} face crops do not cover {lat[1]} latents")


def prepare_clip(model, sample) -> Clip:
    """A `puppet.SceneSample` as a `Clip`: its frames and its poses, drawn at
    the clip's size, encoded by `model.vae` under `no_grad` (at the latent
    stats the VAE holds now), a copy of frame 0, and `face.crop_clip`'s crops."""
    frames = sample.clip.frames
    with pt.no_grad():
        latents = model.vae.encode_tensor(frames).data
        pose_frames = rasterize.rasterize_sequence(sample.poses, sample.clip.height, sample.clip.width)
        pose_latents = model.vae.encode_tensor(pose_frames)
    return Clip(latents, pose_latents, frames.data[0].copy(), face.crop_clip(frames.data, sample.poses))


def train_step(model, clip: Clip, rng) -> float:
    """Gradients of the flow loss on one prepared clip; returns the loss.

    Each crop is augmented (`face.augment_face`, which raises ConfigError on
    anything but a `crop_face` result) and read into the face condition in
    turn (`face.face_condition`). Every parameter that requires grad starts
    from no gradient, so after the call its `grad` is this clip's alone.
    """
    for p in model.named_params().values():
        if p.requires_grad:
            p.zero_grad()
    face_down = None if clip.crops is None else face.face_condition(
        model, (face.augment_face(c, rng).image.data for c in clip.crops), len(clip.crops))
    pack = packs.build_animation_pack(model.vae, clip.ref_image, clip.latents.shape[1], None, rng)
    x0 = np.concatenate([pack.condition.data[:, :1], clip.latents], axis=1)
    state = flow.make_flow_state(x0, pack.noise.data, float(rng.uniform()))
    pred = model.forward_tokens(state.x_t, pack, clip.pose_latents, face_down, state.t)
    loss = flow.flow_loss(pred, state.v_target, pack.mask.data)
    loss.backward()
    return loss.item()


def _check_lr(lr) -> None:
    if not isinstance(lr, (int, float, np.integer, np.floating)) or not 0.0 < lr < np.inf:
        raise ConfigError(f"learning rate must be a finite number above 0, got {lr!r}")


def adam_update(params: dict, state: dict, lr: float) -> None:
    """One Adam step (Kingma & Ba, 2015) on each named parameter that has a gradient.

    `state` starts empty and keeps, per name, the parameter's step count and
    its first and second moment estimates; the update is bias-corrected. A
    non-finite or non-positive `lr` raises ConfigError before anything changes.
    """
    _check_lr(lr)
    b1, b2 = ADAM_BETAS
    for name, p in params.items():
        if p.grad is None:
            continue
        t, m, v = state.get(name, (0, 0.0, 0.0))
        t, m, v = t + 1, b1 * m + (1.0 - b1) * p.grad, b2 * v + (1.0 - b2) * p.grad * p.grad
        state[name] = (t, m, v)
        step = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ADAM_EPS)
        p.data -= step


def fit(model, roles, clips, steps: int, lr: float, rng) -> list[float]:
    """Train the parameters of `roles` for `steps` steps; -> each step's loss.

    Every parameter requires grad exactly when its role is in `roles`, so the
    other roles stay frozen and keep their data. Step i is `train_step` on
    `clips[i % len(clips)]`, then `adam_update` of the roles' parameters at
    `lr`, with one Adam state over all the steps. An empty `clips`, `steps`
    that is not a whole number of at least 1, a role the model does not have
    or a learning rate `adam_update` refuses raises ConfigError before any
    parameter changes.
    """
    if not clips:
        raise ConfigError("fit: no clips to train on")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ConfigError(f"fit: steps must be a whole number of at least 1, got {steps!r}")
    named = model.named_params()
    unknown = set(roles) - {model.role_of(name) for name in named}
    if unknown:
        raise ConfigError(f"fit: the model has no role {sorted(unknown)}")
    _check_lr(lr)
    for name, p in named.items():
        p.requires_grad = model.role_of(name) in roles
    params, state, losses = model.named_params(roles), {}, []
    for i in range(steps):
        losses.append(train_step(model, clips[i % len(clips)], rng))
        adam_update(params, state, lr)
    return losses
