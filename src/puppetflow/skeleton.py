"""17-joint skeletons, pose sequences, and their text file format.

The joints are COCO-17 in COCO order: nose (0), eyes (1-2), ears (3-4),
shoulders (5-6), elbows (7-8), wrists (9-10), hips (11-12), knees (13-14) and
ankles (15-16), each pair left first. `TOPOLOGY` is the one limb tree of the
format: a spanning tree rooted at `ROOT`, the left hip in the pelvis role,
listing every parent before its children. Every skeleton, pose file,
rasterizer and retargeter uses it; a pose file whose edge line differs is
rejected on load. Derived anchor points (ankle midpoint, shoulder-midpoint
"neck") live in `retarget`. Joints below the confidence threshold are treated
as missing: their limbs are not rasterized and contribute no retarget ratio.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import ShapeError

N_JOINTS = 17
ROOT = 11  # left hip anchors the pelvis end of the tree

# (parent, child) spanning tree over all 17 joints, parents before children
TOPOLOGY = (
    (11, 12),
    (11, 13),
    (13, 15),
    (12, 14),
    (14, 16),
    (11, 5),
    (12, 6),
    (5, 7),
    (7, 9),
    (6, 8),
    (8, 10),
    (5, 0),
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 4),
)
N_LIMBS = len(TOPOLOGY)
_PARENT = np.array([p for p, _ in TOPOLOGY])
_CHILD = np.array([c for _, c in TOPOLOGY])
CONF_THRESHOLD = 0.3

HEAD_JOINTS = (0, 1, 2, 3, 4)  # nose, eyes, ears


@dataclass
class Skeleton:
    """Joint positions in pixel coordinates, per-joint confidence in [0,1]."""

    joints: np.ndarray  # [17, 2] (x, y)
    confidence: np.ndarray  # [17]

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        if self.joints.shape != (N_JOINTS, 2):
            raise ShapeError(f"joints must be [{N_JOINTS}, 2], got {self.joints.shape}")
        if self.confidence.shape != (N_JOINTS,):
            raise ShapeError(f"confidence must be [{N_JOINTS}], got {self.confidence.shape}")

    def limb_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.joints[_CHILD] - self.joints[_PARENT], axis=1)

    def limb_visible(self) -> np.ndarray:
        """A limb is usable only if both endpoints clear the confidence bar."""
        conf = self.confidence >= CONF_THRESHOLD
        return conf[_PARENT] & conf[_CHILD]

    def copy(self) -> "Skeleton":
        return Skeleton(self.joints.copy(), self.confidence.copy())


# ---------------------------------------------------------------------------
# text format: header line, edge list, one joint-triple line per frame


def save_pose_sequence(path, seq: list[Skeleton]) -> None:
    lines = [f"SKEL v1 joints={N_JOINTS} frames={len(seq)}", " ".join(f"{p}:{c}" for p, c in TOPOLOGY)]
    for sk in seq:
        # repr of a Python float is the shortest exact round-trip form
        triples = [
            f"{float(sk.joints[j, 0])!r},{float(sk.joints[j, 1])!r},{float(sk.confidence[j])!r}"
            for j in range(N_JOINTS)
        ]
        lines.append(" ".join(triples))
    Path(path).write_text("\n".join(lines) + "\n")


_POSE_HEADER = re.compile(r"SKEL v1 joints=(\d+) frames=(\d+)")


def load_pose_sequence(path) -> list[Skeleton]:
    """Read a file written by `save_pose_sequence`.

    An empty, cut or malformed file raises ShapeError naming the path, and so
    does an edge line other than `TOPOLOGY`, edge for edge in order. A cut
    inside the last number of the last row still parses, since the format
    has no end marker.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise ShapeError(f"{path}: not a text file: {e}") from e
    head = _POSE_HEADER.fullmatch(lines[0]) if lines else None
    if head is None:
        raise ShapeError(f"{path}: bad header {lines[0] if lines else ''!r}")
    joints, frames = int(head[1]), int(head[2])
    if joints != N_JOINTS:
        raise ShapeError(f"{path}: expected {N_JOINTS} joints, got {joints}")
    try:
        topo = tuple(tuple(int(v) for v in e.split(":")) for e in lines[1].split())
        if topo != TOPOLOGY:
            raise ShapeError(f"edge list {lines[1]!r} is not the skeleton tree")
        skels = []
        for row in lines[2 : 2 + frames]:
            triples = [t.split(",") for t in row.split()]
            if any(len(t) != 3 for t in triples):
                raise ShapeError(f"frame {len(skels)}: expected x,y,confidence triples in {row!r}")
            pts = np.array([[float(t[0]), float(t[1])] for t in triples])
            conf = np.array([float(t[2]) for t in triples])
            skels.append(Skeleton(pts, conf))
    except (ValueError, IndexError) as e:  # ShapeError is a ValueError
        raise ShapeError(f"{path}: {e}") from e
    if len(skels) != frames:
        raise ShapeError(f"{path}: header says {frames} frames, file has {len(skels)}")
    return skels
