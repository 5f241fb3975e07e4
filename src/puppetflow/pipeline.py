"""A driving video and a reference character to an output video, one segment.

The driving poses are retargeted onto the reference skeleton, drawn as pose
frames and encoded; the driving faces are cropped by `face.crop_clip`, or
replaced by the model's null face latent when some frame has no crop, and
each crop is resampled to 512 px once, into the face condition's stack
(`face.face_condition`, which training fills with augmented crops).
The animation pack of the reference image is then sampled for `SAMPLE_STEPS`
Euler steps and decoded. There is no chaining: a clip is one segment, with no
temporal guidance.
"""

from __future__ import annotations

from . import face, flow, packs, rasterize, retarget
from . import tensor as pt
from .tensor import AlignmentError
from .video import VideoClip, latent_count

SAMPLE_STEPS = 10


def animate(model, ref_image, ref_skeleton, clip: VideoClip, poses, framing: str, rng) -> VideoClip:
    """The output clip, one frame per driving frame at the driving frame rate; `rng` draws the pack noise."""
    if len(poses) != clip.length:
        raise AlignmentError(f"{len(poses)} driving poses for {clip.length} driving frames")
    with pt.no_grad():
        params = retarget.compute_sequence_params(ref_skeleton, poses, framing)
        pose_frames = rasterize.rasterize_sequence(retarget.retarget_sequence(poses, params),
                                                   clip.height, clip.width)
        pose_latents = model.vae.encode_tensor(pose_frames)
        crops = face.crop_clip(clip.frames.data, poses)
        face_down = None if crops is None else face.face_condition(
            model, (c.image.data for c in crops), clip.length)
        pack = packs.build_animation_pack(model.vae, ref_image, latent_count(clip.length), None, rng,
                                          window_frames=clip.length)
        out = model.vae.decode(flow.sample(model, pack, pose_latents, face_down, SAMPLE_STEPS))
    return VideoClip(out.frames, clip.frame_rate)
