"""Desk-scale conditional video diffusion for character animation and replacement.

The modules, bottom up:

- `tensor`: numpy-backed tensors with reverse-mode differentiation, the ops
  the models use, and the `no_grad`, `finite_checks` and `profile_ops`
  contexts.
- `video`: clips, latent timelines and frame files; `vae`: a toy causal
  video autoencoder.
- `skeleton`, `retarget`, `rasterize`: pose sequences, retargeting onto a
  reference character, and drawing poses as conditioning frames.
- `face`: face crops, augmentation, a motion-coefficient encoder and its
  causal temporal downsampler, and a clip's face condition.
- `packs`: the (noise, condition, mask) latent packs for animation and
  replacement.
- `model`: the diffusion transformer with pose injection, face blocks and a
  low-rank relighting adapter; `flow`: the flow-matching loss and Euler
  sampling.
- `puppet`: procedural puppet scenes, the synthetic corpus.
- `train`: a scene prepared once as a training clip, one step on it, the
  Adam update and `fit`, their loop over chosen roles; `pipeline`: a driving
  video and a reference character to an output video, one unchained segment.
"""

__version__ = "0.1.0"
