"""SHA-256 digests of what the puppet renderer, the pose rasterizer and the
retargeter produce.

A refactor of `puppet.py`, `rasterize.py`, `skeleton.py` or `retarget.py`
that claims bit-identical output runs this on both commits and compares the
three printed digests:

    PYTHONPATH=src python3 tools/render_digest.py

The first line is the render digest. For each of `SEEDS` seeds and each size
(64 and 128 px) it hashes the scene frames and masks, the region weight map of
every frame, the rasterized poses, the relit first frame, a face template, the
expression readout, and the region map and template of the head shifted off
the canvas.

The second line is the retarget digest. For each of `RETARGET_SEEDS` seeds and
each framing it retargets a driving pose sequence onto the reference pose of
another seed, once as generated and once with a wrist hidden in every other
frame and an ear hidden in all of them. It hashes the `compute_sequence_params`
ratios, offset and warning count, the `retarget_sequence` joints and their
rasterization, and the one-frame `compute_sequence_params` on the first frame
pair.

The third line is the clip digest. For each of `CLIP_SEEDS` seeds and each
framing it hashes a clip of the benchmark's size, `CLIP_FRAMES` frames of
`CLIP_SIZE` px, which the renderer and the rasterizer draw on one canvas of
all its frames: the scene frames and masks, and the rasterized poses with the
same wrist and ear hidden.
"""

from __future__ import annotations

import hashlib

import numpy as np

from puppetflow import puppet
from puppetflow.rasterize import rasterize_sequence
from puppetflow.retarget import FRAMINGS, compute_sequence_params, retarget_sequence
from puppetflow.skeleton import Skeleton

SEEDS = 40
RETARGET_SEEDS = 8
RETARGET_FRAMES = 9
RETARGET_SIZE = 128
CLIP_SEEDS = 4
CLIP_FRAMES = 17
CLIP_SIZE = 128


def _hasher():
    h = hashlib.sha256()

    def put(x):
        h.update(np.ascontiguousarray(np.asarray(x, dtype=np.float64)).tobytes())

    return h, put


def digest() -> str:
    h, put = _hasher()
    for size in (64, 128):
        for seed in range(SEEDS):
            sample = puppet.generate_scene(seed, 3, FRAMINGS[seed % 3], size)
            scene, skin = sample.scene, sample.scene.colors["skin"]
            put(sample.clip.frames.data)
            put(sample.masks)
            for t, sk in enumerate(sample.poses):
                put(puppet.region_weight_map(sk, sample.face_params[t], size, size))
            put(rasterize_sequence(sample.poses, size, size).data)
            relit = puppet.relight_augment(sample.clip.frames.data[0], sample.masks[0], np.random.default_rng(seed))
            put(relit.image)
            o, c, px, py = scene.face_params[1]
            sk = sample.poses[1]
            put(puppet.render_face_template(sk, skin, o, c, (px, py), size))
            put(puppet.estimate_face_params(sample.clip.frames.data[1], sk, skin, (px, py)))
            away = Skeleton(sk.joints + np.array([-0.9 * size, 0.2 * size]), sk.confidence)
            put(puppet.region_weight_map(away, sample.face_params[1], size, size))
            put(puppet.render_face_template(away, skin, o, c, (px, py), size))
    return h.hexdigest()


def _partly_hidden(seq: list[Skeleton]) -> list[Skeleton]:
    out = []
    for t, sk in enumerate(seq):
        sk = sk.copy()
        sk.confidence[4] = 0.0  # right ear: unmeasurable in every frame
        if t % 2:
            sk.confidence[9] = 0.0  # left wrist: measurable in half the frames
        out.append(sk)
    return out


def retarget_digest() -> str:
    h, put = _hasher()
    size = RETARGET_SIZE
    for seed in range(RETARGET_SEEDS):
        for framing in FRAMINGS:
            drive = puppet.generate_scene(seed, RETARGET_FRAMES, framing, size).poses
            ref = puppet.generate_scene(seed + 1000, 1, framing, size).poses[0]
            for seq in (drive, _partly_hidden(drive)):
                params = compute_sequence_params(ref, seq, framing)
                put(params.ratios)
                put(params.offset)
                put(len(params.warnings))
                out = retarget_sequence(seq, params)
                put([sk.joints for sk in out])
                put(rasterize_sequence(out, size, size).data)
                pair = compute_sequence_params(ref, [seq[0]], framing)
                put(pair.ratios)
                put(pair.offset)
                put(len(pair.warnings))
    return h.hexdigest()


def clip_digest() -> str:
    h, put = _hasher()
    for seed in range(CLIP_SEEDS):
        for framing in FRAMINGS:
            sample = puppet.generate_scene(seed, CLIP_FRAMES, framing, CLIP_SIZE)
            put(sample.clip.frames.data)
            put(sample.masks)
            put(rasterize_sequence(_partly_hidden(sample.poses), CLIP_SIZE, CLIP_SIZE).data)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
    print(retarget_digest())
    print(clip_digest())
