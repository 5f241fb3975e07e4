"""A driving video and a reference character to an output video, one segment.

The driving poses are retargeted onto the reference skeleton, drawn as pose
frames and encoded; the driving faces are cropped and encoded, or replaced by
the model's null face latent when some frame has no crop. Each crop keeps the
window of its frame that its head box reads and is resampled to 512 px once,
into its slot of one preallocated crop stack.
The animation pack of the reference image is then sampled for `SAMPLE_STEPS`
Euler steps and decoded. There is no chaining: a clip is one segment, with no
temporal guidance.
"""

from __future__ import annotations

import numpy as np

from . import face, flow, packs, rasterize, retarget
from . import tensor as pt
from .tensor import AlignmentError
from .video import VideoClip, frame_ranges, latent_count

SAMPLE_STEPS = 10


def animate(model, ref_image, ref_skeleton, clip: VideoClip, poses, framing: str, rng) -> VideoClip:
    """The output clip, one frame per driving frame; `rng` draws the pack noise."""
    if len(poses) != clip.length:
        raise AlignmentError(f"{len(poses)} driving poses for {clip.length} driving frames")
    with pt.no_grad():
        params = retarget.compute_sequence_params(ref_skeleton, poses, framing)
        pose_frames = rasterize.rasterize_sequence(retarget.retarget_sequence(poses, params),
                                                   clip.height, clip.width)
        pose_latents = model.vae.encode_tensor(pose_frames)
        crops = [face.crop_face(f, sk) for f, sk in zip(clip.frames.data, poses)]
        face_down = None  # no crop for some frame: the model's null face latent
        if all(c is not None for c in crops):
            stack = np.empty((len(crops), 3, face.FACE_SIZE, face.FACE_SIZE), dtype=np.float32)
            for i, c in enumerate(crops):
                stack[i] = c.image.data
            face_down = face.encode_face_sequence(pt.Tensor(stack), model.face_encoder, model.basis,
                                                  model.downsampler, frame_ranges(clip.length)).downsampled
        pack = packs.build_animation_pack(model.vae, ref_image, latent_count(clip.length), None, rng,
                                          window_frames=clip.length)
        return model.vae.decode(flow.sample(model, pack, pose_latents, face_down, SAMPLE_STEPS))
