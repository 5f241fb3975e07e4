"""Skeleton retargeting: per-limb length ratios plus anchor translation.

Ratios map the driving character's proportions onto the reference character's:
reference length over driving length per `skeleton.TOPOLOGY` edge, the median
over the driving frames where the limb is measurable (a skeleton pair is the
one-frame case). A limb is unmeasurable in a frame when either endpoint
misses the confidence bar or the driving length degenerates; one unmeasurable
in every frame keeps ratio 1 and is recorded as a warning rather than blowing
up the division.

Reconstruction walks `TOPOLOGY` parents first, keeping each frame's limb
directions, then shifts every joint so the frame's anchor point lands at its
translated position. The translation offset is fixed once from the skeleton
pair, so global motion in the driving sequence survives retargeting. The
anchor point depends on shot framing: ankle midpoint for full-body,
shoulder-midpoint neck for half-body and portraits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skeleton import N_LIMBS, TOPOLOGY, Skeleton
from .tensor import ConfigError

# the two joints whose midpoint is the anchor point of each framing
_ANCHOR_JOINTS = {"full_body": (15, 16), "half_body": (5, 6), "portrait": (5, 6)}
FRAMINGS = tuple(_ANCHOR_JOINTS)
DEGENERATE_LENGTH = 1e-8


@dataclass
class RetargetParams:
    ratios: np.ndarray  # [N_LIMBS], reference/driving length per edge
    framing: str  # one of FRAMINGS, which picks the anchor point
    offset: np.ndarray  # (dx, dy) applied to every frame's anchor
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.ratios = np.asarray(self.ratios, dtype=np.float64)
        self.offset = np.asarray(self.offset, dtype=np.float64)
        if (self.ratios <= 0).any():
            raise ConfigError("limb ratios must be positive")

    def is_identity(self) -> bool:
        return bool((self.ratios == 1.0).all() and (self.offset == 0.0).all())


def anchor_point(sk: Skeleton, framing: str) -> np.ndarray:
    if framing not in _ANCHOR_JOINTS:
        raise ConfigError(f"unknown framing {framing!r}, expected one of {FRAMINGS}")
    a, b = _ANCHOR_JOINTS[framing]
    return 0.5 * (sk.joints[a] + sk.joints[b])


def _limb_ratios(ref_sk: Skeleton, drive_seq):
    """(ratios, warnings) over the driving frames, as the module docstring says."""
    ref_len = ref_sk.limb_lengths()
    ref_vis = ref_sk.limb_visible()
    per_frame = np.full((len(drive_seq), N_LIMBS), np.nan)
    usable_any = np.zeros(N_LIMBS, dtype=bool)
    for row, sk in zip(per_frame, drive_seq):
        dlen = sk.limb_lengths()
        usable = ref_vis & sk.limb_visible() & (dlen > DEGENERATE_LENGTH)
        row[usable] = ref_len[usable] / dlen[usable]
        usable_any |= usable
    ratios = np.ones(N_LIMBS)
    ratios[usable_any] = np.nanmedian(per_frame[:, usable_any], axis=0)
    warnings = [
        f"limb {TOPOLOGY[i]} unmeasurable in every frame, ratio forced to 1"
        for i in np.flatnonzero(~usable_any)
    ]
    return ratios, warnings


def compute_sequence_params(
    ref_sk: Skeleton, drive_seq: list[Skeleton], framing: str
) -> RetargetParams:
    """Ratios pooled over the driving sequence; offset from its first frame."""
    if len(drive_seq) == 0:
        raise ConfigError("empty driving sequence")
    ratios, warnings = _limb_ratios(ref_sk, drive_seq)
    offset = anchor_point(ref_sk, framing) - anchor_point(drive_seq[0], framing)
    return RetargetParams(ratios, framing, offset, warnings)


def retarget_skeleton(sk: Skeleton, params: RetargetParams) -> Skeleton:
    if params.is_identity():
        return sk.copy()
    new_joints = sk.joints.copy()
    for i, (p, c) in enumerate(TOPOLOGY):  # parents first, so new_joints[p] is placed
        new_joints[c] = new_joints[p] + params.ratios[i] * (sk.joints[c] - sk.joints[p])
    scaled = Skeleton(new_joints, sk.confidence.copy())
    target = anchor_point(sk, params.framing) + params.offset
    scaled.joints += target - anchor_point(scaled, params.framing)
    return scaled


def retarget_sequence(seq: list[Skeleton], params: RetargetParams) -> list[Skeleton]:
    return [retarget_skeleton(sk, params) for sk in seq]
