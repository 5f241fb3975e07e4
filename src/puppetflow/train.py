"""One training step and the Adam update.

The stage being trained is the set of roles whose parameters require grad:
freeze a role by setting `requires_grad=False` on its parameters, and every
op skips that role's weight gradients. A step takes one cached clip: its
face crops (or None, for the model's null face latent), its reference image,
and its VAE latents and pose latents, encoded once. The generator supplies,
in this order, the crop augmentations, the pack noise and the flow time, so
a seeded step is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import face, flow, packs
from . import tensor as pt
from .tensor import AlignmentError, ConfigError
from .video import frame_ranges, latent_count

ADAM_BETAS = (0.9, 0.999)  # decay of the first and second moment estimates
ADAM_EPS = 1e-8


def train_step(model, crops, ref_image, latents: np.ndarray, pose_latents: pt.Tensor, rng) -> float:
    """Gradients of the flow loss on one clip; returns the loss.

    `crops` is one crop per clip frame, or None: a `crop_face` result (the
    window of its frame that its head box reads, resampled as it is
    augmented) or a pixel `FaceCrop`.
    `ref_image` is [3, H, W]; `latents` and `pose_latents` are the clip's and
    its pose frames' VAE latents, [C_z, T_z, h, w] each. Crops for another
    number of latents than T_z raise AlignmentError before any draw. Every
    parameter that requires grad starts from no gradient, so after the call
    its `grad` is this clip's alone.
    """
    if crops is not None and (not crops or latent_count(len(crops)) != latents.shape[1]):
        raise AlignmentError(f"{len(crops)} face crops do not cover {latents.shape[1]} latents")
    for p in model.named_params().values():
        if p.requires_grad:
            p.zero_grad()
    face_down = None  # no crops: the model's null face latent
    if crops is not None:
        augmented = np.stack([face.augment_face(c, rng).image.data for c in crops])
        face_down = face.encode_face_sequence(pt.Tensor(augmented), model.face_encoder, model.basis,
                                              model.downsampler, frame_ranges(len(crops))).downsampled
    pack = packs.build_animation_pack(model.vae, ref_image, latents.shape[1], None, rng)
    x0 = np.concatenate([pack.condition.data[:, :1], latents], axis=1)
    state = flow.make_flow_state(x0, pack.noise.data, float(rng.uniform()))
    pred = model.forward_tokens(state.x_t, pack, pose_latents, face_down, state.t)
    loss = flow.flow_loss(pred, state.v_target, pack.mask.data)
    loss.backward()
    return loss.item()


def adam_update(params: dict, state: dict, lr: float) -> None:
    """One Adam step (Kingma & Ba, 2015) on each named parameter that has a gradient.

    `state` starts empty and keeps, per name, the parameter's step count and
    its first and second moment estimates; the update is bias-corrected. A
    non-finite or non-positive `lr` raises ConfigError before anything changes.
    """
    if not isinstance(lr, (int, float, np.integer, np.floating)) or not 0.0 < lr < np.inf:
        raise ConfigError(f"learning rate must be a finite number above 0, got {lr!r}")
    b1, b2 = ADAM_BETAS
    for name, p in params.items():
        if p.grad is None:
            continue
        t, m, v = state.get(name, (0, 0.0, 0.0))
        t, m, v = t + 1, b1 * m + (1.0 - b1) * p.grad, b2 * v + (1.0 - b2) * p.grad * p.grad
        state[name] = (t, m, v)
        step = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ADAM_EPS)
        p.data -= step
