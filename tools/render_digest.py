"""SHA-256 digest of everything the puppet renderer and pose rasterizer draw.

A refactor of `puppet.py` or `rasterize.py` that claims bit-identical output
runs this on both commits and compares the printed digests:

    PYTHONPATH=src python3 tools/render_digest.py

For each of `SEEDS` seeds and each size (64 and 128 px) it hashes the scene
frames and masks, the region weight map of every frame, the rasterized poses,
the relit first frame, a face template, the expression readout, and the region
map and template of the head shifted off the canvas.
"""

from __future__ import annotations

import hashlib

import numpy as np

from puppetflow import puppet
from puppetflow.rasterize import rasterize_sequence
from puppetflow.retarget import FRAMINGS
from puppetflow.skeleton import Skeleton

SEEDS = 40


def digest(seeds: int) -> str:
    h = hashlib.sha256()

    def put(x):
        h.update(np.ascontiguousarray(np.asarray(x, dtype=np.float64)).tobytes())

    grid = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)
    for size in (64, 128):
        for seed in range(seeds):
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
            put(puppet.estimate_face_params(sample.clip.frames.data[1], sk, skin, (px, py), *grid))
            away = Skeleton(sk.joints + np.array([-0.9 * size, 0.2 * size]), sk.confidence, sk.topology)
            put(puppet.region_weight_map(away, sample.face_params[1], size, size))
            put(puppet.render_face_template(away, skin, o, c, (px, py), size))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(SEEDS))
