"""Procedural puppet scenes: the training corpus generator.

A scene is an articulated stick figure with a disc head and a parameterized
face (eye openness, mouth curvature, pupil offset), rendered over a solid or
vertical-gradient background. Joint trajectories are sinusoids over the
16-edge skeleton tree, so the emitted skeleton IS the kinematic ground truth:
every limb length equals its configured value on every frame.

All face geometry (disc center/radius, eye ellipses, mouth curve) derives
from skeleton joints alone via `face_geometry`, so the renderer, the loss
weight maps, and the expression estimator stay consistent for generated and
retargeted skeletons alike.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, fields

import numpy as np

from .rasterize import _blend, _capsule, _ellipse, blend_capsule
from .retarget import FRAMINGS, anchor_point
from .skeleton import N_JOINTS, N_LIMBS, ROOT, TOPOLOGY, Skeleton
from .tensor import ConfigError, NumericalError, ShapeError, Tensor
from .video import VideoClip

# proportions of the scene scale s, per topology edge
_EDGE_PROPORTION = np.array(
    [0.13, 0.21, 0.19, 0.21, 0.19, 0.30, 0.30, 0.15, 0.14, 0.15, 0.14, 0.16, 0.04, 0.04, 0.045, 0.045]
)
# canonical world angles (degrees, y grows downward; 90 = straight down)
_EDGE_BASE_ANGLE = np.array(
    [0.0, 78.0, 88.0, 102.0, 92.0, -95.0, -85.0, 55.0, 70.0, 125.0, 110.0, -75.0, 0, 0, 0, 0]
)
# per-edge sway amplitude bounds (degrees); face edges follow the head
_EDGE_AMP_HI = np.array(
    [0.0, 14.0, 10.0, 14.0, 10.0, 5.0, 5.0, 32.0, 24.0, 32.0, 24.0, 8.0, 0, 0, 0, 0]
)
# face edge offsets from the head-up direction (deg): eyes up-and-out, ears out
_FACE_OFFSET = {12: -28.0, 13: 28.0, 14: -95.0, 15: 95.0}

_EDGE_PART = (
    "hips", "legs_u", "legs_l", "legs_u", "legs_l", "torso", "torso",
    "arms_u", "arms_l", "arms_u", "arms_l", "skin", None, None, None, None,
)
_EDGE_WIDTH = np.array(
    [0.050, 0.050, 0.042, 0.050, 0.042, 0.062, 0.062, 0.042, 0.038, 0.042, 0.038, 0.030, 0, 0, 0, 0]
)

SCLERA = (1.0, 1.0, 1.0)
PUPIL = (0.02, 0.02, 0.02)
MOUTH = (0.05, 0.02, 0.02)
HEAD_RADIUS_RATIO = 2.1  # of the mean nose-to-eye distance
MOUTH_POINTS = 9  # points on the mouth curve, so 8 capsule segments


@dataclass
class Background:
    kind: str  # "solid" | "gradient"
    top: tuple
    bottom: tuple

    def __post_init__(self):
        if self.kind not in ("solid", "gradient"):
            raise ConfigError(f"background kind must be 'solid' or 'gradient', got {self.kind!r}")

    def render(self, h: int, w: int) -> np.ndarray:
        top = np.asarray(self.top, dtype=np.float64).reshape(3, 1, 1)
        if self.kind == "solid":
            return np.broadcast_to(top, (3, h, w)).copy()
        bottom = np.asarray(self.bottom, dtype=np.float64).reshape(3, 1, 1)
        ramp = np.linspace(0.0, 1.0, h).reshape(1, h, 1)
        return np.broadcast_to(top * (1.0 - ramp) + bottom * ramp, (3, h, w)).copy()

    def mean_color(self) -> np.ndarray:
        if self.kind == "solid":
            return np.asarray(self.top, dtype=np.float64)
        return 0.5 * (np.asarray(self.top, dtype=np.float64) + np.asarray(self.bottom, dtype=np.float64))


@dataclass
class PuppetScene:
    """Everything needed to re-render the clip deterministically."""

    seed: int
    framing: str
    size: int
    limb_lengths: np.ndarray  # [16] px
    colors: dict  # part name -> rgb
    background: Background
    root_path: np.ndarray  # [T, 2] pelvis-root position per frame
    edge_angles: np.ndarray  # [T, 16] world angles (deg) per frame
    face_params: np.ndarray  # [T, 4]: eye openness, mouth curvature, pupil x, pupil y

    @property
    def frames(self) -> int:
        return self.root_path.shape[0]

    def _joints(self, frames=slice(None)) -> np.ndarray:
        """[T', 17, 2] joints of `frames` (a slice or index list), placed edge
        by edge in `TOPOLOGY` order for all of them at once."""
        root = self.root_path[frames]
        joints = np.zeros((len(root), N_JOINTS, 2))
        joints[:, ROOT] = root
        for i, (p, c) in enumerate(TOPOLOGY):
            r = np.deg2rad(self.edge_angles[frames, i])
            joints[:, c] = joints[:, p] + self.limb_lengths[i] * np.stack([np.cos(r), np.sin(r)], axis=1)
        return joints

    def skeleton(self, t: int) -> Skeleton:
        return Skeleton(self._joints([t])[0], np.ones(N_JOINTS))

    def pose_sequence(self) -> list[Skeleton]:
        """Every frame's skeleton, all frames' joints computed in one pass;
        frame t equals `skeleton(t)`."""
        return [Skeleton(j, np.ones(N_JOINTS)) for j in self._joints()]


@dataclass
class FaceGeometry:
    center: np.ndarray
    radius: float
    up: np.ndarray  # unit, points from shoulders toward the head
    side: np.ndarray  # unit, perpendicular
    eyes: tuple  # two eye centers
    eye_a: float  # horizontal semi-axis
    eye_b_max: float
    mouth_center: np.ndarray
    mouth_half_width: float
    mouth_thickness: float


def face_geometry(sk: Skeleton) -> FaceGeometry:
    nose, eye_l, eye_r = sk.joints[0], sk.joints[1], sk.joints[2]
    eye_mid = 0.5 * (eye_l + eye_r)
    shoulder_mid = 0.5 * (sk.joints[5] + sk.joints[6])
    up = nose - shoulder_mid
    n = np.linalg.norm(up)
    up = up / n if n > 1e-9 else np.array([0.0, -1.0])
    side = np.array([-up[1], up[0]])
    eye_dist = 0.5 * (np.linalg.norm(eye_l - nose) + np.linalg.norm(eye_r - nose))
    radius = HEAD_RADIUS_RATIO * eye_dist
    center = 0.5 * (nose + eye_mid)
    return FaceGeometry(
        center=center,
        radius=radius,
        up=up,
        side=side,
        eyes=(eye_l, eye_r),
        eye_a=0.55 * eye_dist,
        eye_b_max=0.45 * eye_dist,
        mouth_center=center - 0.52 * radius * up,
        mouth_half_width=0.42 * radius,
        mouth_thickness=0.11 * radius,
    )


def mouth_curve(geo: FaceGeometry, curvature: float) -> np.ndarray:
    """Quadratic bezier points; positive curvature bows the center downward
    (screen coordinates), i.e. a smile."""
    p0 = geo.mouth_center - geo.mouth_half_width * geo.side
    p2 = geo.mouth_center + geo.mouth_half_width * geo.side
    p1 = geo.mouth_center - 0.9 * curvature * geo.mouth_half_width * geo.up
    ts = np.linspace(0.0, 1.0, MOUTH_POINTS).reshape(-1, 1)
    return (1 - ts) ** 2 * p0 + 2 * ts * (1 - ts) * p1 + ts**2 * p2


def _stacked(geos: list[FaceGeometry]) -> FaceGeometry:
    """Per-frame geometries as one FaceGeometry of [T, ...] arrays; `eyes`
    stays a pair, each eye [T, 2]."""
    stacked = {f.name: np.stack([getattr(g, f.name) for g in geos]) for f in fields(FaceGeometry)}
    stacked["eyes"] = tuple(stacked["eyes"].transpose(1, 0, 2))
    return FaceGeometry(**stacked)


def _draw_head(imgs, acc, geo: FaceGeometry, skin, openness, pupil) -> None:
    """Head disc, then eyes with pupils, on [T,3,H,W] `imgs` with the
    `_stacked` geometry of the T frames; `openness` and the pupil offset
    (px, py) are scalars or [T]. `acc` (or None) takes the mask."""
    shape = imgs.shape[2:]
    _blend(imgs, _ellipse(shape, geo.center, geo.side, geo.radius, geo.radius), skin, acc)
    eye_b = (0.08 + 0.92 * np.asarray(openness)) * geo.eye_b_max
    pupil_r = 0.38 * geo.eye_a
    px, py = pupil
    lift = np.maximum(eye_b - 0.5 * pupil_r, 0.0)
    off = (px * (geo.eye_a - pupil_r))[:, None] * geo.side - (py * lift)[:, None] * geo.up
    pr = np.minimum(pupil_r, np.maximum(eye_b, 0.12 * geo.eye_a))
    for eye in geo.eyes:
        _blend(imgs, _ellipse(shape, eye, geo.side, geo.eye_a, eye_b), SCLERA, acc)
        _blend(imgs, _ellipse(shape, eye + off, geo.side, pr, pr), PUPIL, acc)


def _mouth_covers(shape, geos: list[FaceGeometry], curvature) -> list:
    """Cover of each mouth capsule on an (H, W) canvas, in drawing order, over
    the frames of `geos`, each with its own curvature."""
    pts = np.stack([mouth_curve(g, c) for g, c in zip(geos, curvature)])
    thickness = np.array([g.mouth_thickness for g in geos])
    return [_capsule(shape, pts[:, k], pts[:, k + 1], thickness) for k in range(pts.shape[1] - 1)]


def _draw_mouth(imgs, acc, covers) -> None:
    """Blend `_mouth_covers` over drawn heads; `acc` (or None) takes the mask."""
    for cover in covers:
        _blend(imgs, cover, MOUTH, acc)


def _draw_scene(scene: PuppetScene, frames, imgs: np.ndarray, acc: np.ndarray) -> None:
    """Draw scene frames `frames` (a slice or index list) over the
    backgrounds in [T',3,S,S] `imgs`, raising [T',S,S] `acc` to the
    subject's alpha: body capsules, shoulder bar, head, eyes, pupils, mouth."""
    shape = imgs.shape[2:]
    joints = scene._joints(frames)
    s = scene.limb_lengths.sum()  # stable overall scale proxy
    for i, (p, c) in enumerate(TOPOLOGY):
        part = _EDGE_PART[i]
        if part is None:
            continue
        width = _EDGE_WIDTH[i] * s * 0.28
        _blend(imgs, _capsule(shape, joints[:, p], joints[:, c], width), scene.colors[part], acc)
    # shoulder bar for visual solidity (not a topology edge)
    _blend(imgs, _capsule(shape, joints[:, 5], joints[:, 6], _EDGE_WIDTH[5] * s * 0.28), scene.colors["torso"], acc)
    openness, curvature, px, py = scene.face_params[frames].T
    geos = [face_geometry(Skeleton(j, np.ones(N_JOINTS))) for j in joints]
    _draw_head(imgs, acc, _stacked(geos), scene.colors["skin"], openness, (px, py))
    _draw_mouth(imgs, acc, _mouth_covers(shape, geos, curvature))


def render_scene_frame(scene: PuppetScene, t: int):
    """-> (frame [3,H,W] float64 in [0,1], subject mask [H,W] float).

    The one-frame case of `render_scene`, drawn on a canvas of its own."""
    h = w = scene.size
    img, acc = scene.background.render(h, w), np.zeros((h, w))
    _draw_scene(scene, [t], img[None], acc[None])
    return np.clip(img, 0.0, 1.0), (acc >= 0.5).astype(np.float32)


def render_scene(scene: PuppetScene):
    """-> (clip of T float32 frames [T,3,S,S], float32 subject masks [T,1,S,S]).

    Frame t and mask t are `render_scene_frame(scene, t)`, the frame rounded
    to float32; both arrays are C-contiguous. The background is rendered once
    and all frames are drawn together, each shape once, on one float64 canvas.
    """
    h = w = scene.size
    imgs = np.empty((scene.frames, 3, h, w))
    imgs[...] = scene.background.render(h, w)
    acc = np.zeros((scene.frames, 1, h, w))
    _draw_scene(scene, slice(None), imgs, acc[:, 0])
    masks = (acc >= 0.5).astype(np.float32)
    del acc  # freed before the float32 frames are made, for a lower peak
    frames = np.clip(imgs, 0.0, 1.0, out=imgs).astype(np.float32)
    return VideoClip(Tensor(frames)), masks


# ---------------------------------------------------------------------------
# scene sampling


def _rand_color(rng, sat=(0.55, 0.95), val=(0.45, 0.9)):
    return colorsys.hsv_to_rgb(rng.uniform(), rng.uniform(*sat), rng.uniform(*val))


def sample_body_colors(rng) -> dict:
    return {
        "skin": _rand_color(rng, sat=(0.3, 0.7), val=(0.55, 0.85)),
        "torso": _rand_color(rng),
        "hips": _rand_color(rng),
        "arms_u": _rand_color(rng),
        "arms_l": _rand_color(rng),
        "legs_u": _rand_color(rng),
        "legs_l": _rand_color(rng),
    }


def sample_background(rng) -> Background:
    kind = "solid" if rng.random() < 0.4 else "gradient"
    return Background(kind, _rand_color(rng, val=(0.08, 0.38)), _rand_color(rng, val=(0.08, 0.38)))


_FRAMING_SCALE = {"full_body": 105.0, "half_body": 190.0, "portrait": 260.0}
# frame-0 anchor height as a share of the canvas, and the per-axis scale of
# its jitter
_PLACEMENT = {"full_body": (0.88, (1.0, 0.3)), "half_body": (0.62, (1.0, 1.0)), "portrait": (0.45, (0.6, 0.6))}


@dataclass
class SceneSample:
    scene: PuppetScene
    clip: VideoClip
    poses: list[Skeleton]
    masks: np.ndarray  # [T, 1, H, W]
    face_params: np.ndarray  # [T, 4]


def generate_scene(seed: int, frames: int, framing: str, size: int = 128) -> SceneSample:
    """Deterministic scene + render + ground-truth annotations."""
    if framing not in FRAMINGS:
        raise ConfigError(f"unknown framing {framing!r}, expected one of {FRAMINGS}")
    if not all(isinstance(n, (int, np.integer)) for n in (seed, frames, size)):
        raise ConfigError(f"seed, frame count and size must be integers, got {seed!r}, {frames!r}, {size!r}")
    if frames < 1 or size < 1:
        raise ConfigError(f"need at least one frame of at least one pixel, got {frames} frames of {size} px")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    s = _FRAMING_SCALE[framing] * rng.uniform(0.9, 1.1) * size / 128.0
    lengths = _EDGE_PROPORTION * s * rng.uniform(0.85, 1.15, N_LIMBS)
    colors = sample_body_colors(rng)
    bg = sample_background(rng)

    amps = rng.uniform(0.35, 1.0, N_LIMBS) * _EDGE_AMP_HI
    freqs = rng.integers(1, 3, N_LIMBS).astype(np.float64)
    phases = rng.uniform(0.0, 2 * np.pi, N_LIMBS)
    base = _EDGE_BASE_ANGLE + rng.uniform(-6.0, 6.0, N_LIMBS)
    ts = np.arange(frames).reshape(-1, 1)
    cycle = 2 * np.pi * ts / max(frames, 2)
    angles = base + amps * np.sin(cycle * freqs + phases)  # [T, 16]

    drift_amp = {"full_body": 8.0, "half_body": 6.0, "portrait": 5.0}[framing] * size / 128.0
    dphase = rng.uniform(0.0, 2 * np.pi, 2)
    dfreq = rng.integers(1, 3, 2)
    drift = drift_amp * np.column_stack(
        [np.sin(cycle[:, 0] * dfreq[0] + dphase[0]), 0.5 * np.sin(cycle[:, 0] * dfreq[1] + dphase[1])]
    )

    # face trajectories
    ob = rng.uniform(0.2, 0.9)
    oa = rng.uniform(0.05, min(ob, 1.0 - ob))
    cb = rng.uniform(-0.75, 0.75)
    ca = rng.uniform(0.1, 0.35)
    pr = rng.uniform(0.0, 0.7)
    fph = rng.uniform(0.0, 2 * np.pi, 3)
    ffr = rng.integers(1, 4, 3)
    openness = np.clip(ob + oa * np.sin(cycle[:, 0] * ffr[0] + fph[0]), 0.0, 1.0)
    curvature = np.clip(cb + ca * np.sin(cycle[:, 0] * ffr[1] + fph[1]), -1.0, 1.0)
    pupil_x = pr * np.cos(cycle[:, 0] * ffr[2] + fph[2])
    pupil_y = pr * np.sin(cycle[:, 0] * ffr[2] + fph[2]) * 0.5
    face_params = np.column_stack([openness, curvature, pupil_x, pupil_y])

    scene = PuppetScene(
        seed=seed,
        framing=framing,
        size=size,
        limb_lengths=lengths,
        colors=colors,
        background=bg,
        root_path=np.zeros((frames, 2)),
        edge_angles=angles,
        face_params=face_params,
    )
    # face edges follow the head-up direction, which no face edge moves
    joints = scene._joints()  # face angles still the placeholder zeros
    up = joints[:, 0] - 0.5 * (joints[:, 5] + joints[:, 6])
    theta = np.rad2deg(np.arctan2(up[:, 1], up[:, 0]))
    for e, offset in _FACE_OFFSET.items():
        scene.edge_angles[:, e] = theta + offset

    # place the frame-0 anchor (a portrait's face centre) at the framing
    # target, drift on top
    sk0 = scene.skeleton(0)
    height, spread = _PLACEMENT[framing]
    jitter = rng.uniform(-0.05, 0.05, 2) * size * np.array(spread)
    anchor = face_geometry(sk0).center if framing == "portrait" else anchor_point(sk0, framing)
    target = np.array([0.5 * size, height * size]) + jitter
    scene.root_path = (target - anchor) + drift - drift[0]

    clip, masks = render_scene(scene)
    return SceneSample(scene, clip, scene.pose_sequence(), masks, face_params)


# ---------------------------------------------------------------------------
# loss region weights

HEAD_WEIGHT = 2.0
EYE_WEIGHT = 4.0
MOUTH_WEIGHT = 4.0


def region_weight_map(sk: Skeleton, face_params, height: int, width: int) -> np.ndarray:
    """[1,H,W] loss weights: 1 everywhere, raised over head/eye/mouth regions
    (max-combined). Regions clip at the canvas, so an off-screen head leaves
    the map uniform."""
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (height, width)):
        raise ConfigError(f"region_weight_map: map size {height!r}x{width!r} is not whole or has no pixel")
    geo = face_geometry(sk)
    out = np.ones((1, height, width), dtype=np.float32)

    def paint(centers, a, b, value):
        """Raise `out` to `value` where an ellipse at one of the [K, 2]
        `centers`, each a frame of one cover, reaches alpha 0.5."""
        cover = _ellipse((height, width), centers, [geo.side] * len(centers), a, b)
        if cover is not None:
            for (x, y), alpha in zip(cover[0].tolist(), cover[1]):
                region = out[0, y : y + alpha.shape[0], x : x + alpha.shape[1]]
                np.maximum(region, value, out=region, where=alpha >= 0.5)

    paint([geo.center], geo.radius, geo.radius, HEAD_WEIGHT)
    openness = float(face_params[0])
    eye_b = max((0.08 + 0.92 * openness) * geo.eye_b_max, 0.3 * geo.eye_a)
    paint(geo.eyes, 1.3 * geo.eye_a, 1.3 * max(eye_b, geo.eye_b_max), EYE_WEIGHT)
    # the mouth threshold applies to the blended union of its segments
    pts = mouth_curve(geo, float(face_params[1]))
    canvas = np.zeros((1, height, width))
    blend_capsule(canvas, pts[:-1], pts[1:], 1.5 * geo.mouth_thickness, (1.0,))
    np.maximum(out[0], MOUTH_WEIGHT, out=out[0], where=canvas[0] >= 0.5)
    return out


# ---------------------------------------------------------------------------
# relight proxy

CAST_STRENGTH = 0.55  # gain slope over the background's mean color
BIAS_STRENGTH = 0.12
RAMP_HI = 0.15  # the brightness ramp's amplitude is uniform over [0, RAMP_HI)


@dataclass
class RelightResult:
    image: np.ndarray  # [3, H, W]
    background: Background
    applied: bool


def relight_augment(
    ref_frame: np.ndarray, subject_mask: np.ndarray, rng, *, identity_cast: bool = False
) -> RelightResult:
    """Composite the subject onto a fresh background with a lighting mismatch.

    The subject picks up an affine color cast derived from the new
    background's mean color plus a directional brightness ramp, producing a
    reference whose lighting disagrees with the original clip. With
    `identity_cast` the subject keeps its pixels (gain 1, bias 0, no ramp)
    and only the background changes. An empty subject mask returns the frame
    unchanged with `applied` False.
    """
    img = np.asarray(ref_frame, dtype=np.float64)
    mask = np.asarray(subject_mask, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3 or mask.shape != (1, *img.shape[1:]):
        raise ShapeError(f"relight: need a [3,H,W] frame and a [1,H,W] mask, got {img.shape}, {mask.shape}")
    h, w = img.shape[1:]
    mask = mask[0]
    bg = sample_background(rng)
    gain = np.ones(3)
    bias = np.zeros(3)
    ramp_amp = 0.0 if identity_cast else float(rng.uniform(0.0, RAMP_HI))
    theta = rng.uniform(0.0, 2 * np.pi)
    if not identity_cast:
        mean = bg.mean_color()
        gain = 1.0 + CAST_STRENGTH * (mean - 0.5)
        bias = BIAS_STRENGTH * (mean - 0.5)
    if mask.max() < 0.5:
        return RelightResult(img.astype(np.float32), bg, applied=False)
    xs, ys = np.arange(w), np.arange(h)[:, None]
    proj = (xs * np.cos(theta) + ys * np.sin(theta)) / np.hypot(h, w)
    proj = (proj - proj.min()) / max(proj.max() - proj.min(), 1e-9)
    ramp = 1.0 + ramp_amp * (proj - 0.5)
    subject = np.clip(img * gain.reshape(3, 1, 1) * ramp + bias.reshape(3, 1, 1), 0.0, 1.0)
    out = np.where(mask >= 0.5, subject, bg.render(h, w))
    return RelightResult(out.astype(np.float32), bg, applied=True)


# ---------------------------------------------------------------------------
# expression readout (evaluation)

OPENNESS_GRID = np.linspace(0.0, 1.0, 11)
CURVATURE_GRID = np.linspace(-1.0, 1.0, 11)


def render_face_template(sk: Skeleton, skin_color, openness, curvature, pupil, size: int):
    """Face-only render over black, for template-matching estimation."""
    img = np.zeros((1, 3, size, size))
    geo = face_geometry(sk)
    _draw_head(img, None, _stacked([geo]), skin_color, openness, pupil)
    _draw_mouth(img, None, _mouth_covers((size, size), [geo], [curvature]))
    return img[0]


def estimate_face_params(frame: np.ndarray, sk: Skeleton, skin_color, pupil) -> tuple:
    """Template matching over the `OPENNESS_GRID` x `CURVATURE_GRID`
    (openness, curvature) grid inside the head disc.

    The scene geometry and identity are known at evaluation time; only the
    expression is read out of the pixels. Each template is drawn as
    `render_face_template` draws it, bit for bit, from shared parts: the
    mouth coverages of all curvatures once, and per openness the head and
    eyes once, copied into a stack of one frame per curvature, with the
    mouths blended on together. The first strict minimum, openness-major,
    wins. A non-finite pixel inside the disc raises NumericalError.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3 or frame.shape[0] != 3 or frame.shape[1] != frame.shape[2]:
        raise ShapeError(f"estimate_face_params: frame must be square [3,S,S], got {frame.shape}")
    size = frame.shape[1]
    geo = face_geometry(sk)
    xs, ys = np.arange(size), np.arange(size)[:, None]
    disc = (xs - geo.center[0]) ** 2 + (ys - geo.center[1]) ** 2 <= geo.radius**2
    if not disc.any():
        return (float("nan"), float("nan"))
    target = frame[:, disc]
    if not np.isfinite(target).all():
        raise NumericalError("estimate_face_params: non-finite pixel inside the head disc")
    best = (np.inf, 0.0, 0.0)
    mouths = _mouth_covers((size, size), [geo] * len(CURVATURE_GRID), CURVATURE_GRID)
    head_geo = _stacked([geo])
    tmpls = np.empty((len(CURVATURE_GRID), 3, size, size))
    for o in OPENNESS_GRID:
        tmpls[0] = 0.0
        _draw_head(tmpls[:1], None, head_geo, skin_color, o, pupil)
        tmpls[1:] = tmpls[0]
        _draw_mouth(tmpls, None, mouths)
        # each template's [3, disc] block is summed as one contiguous array
        for c, sq in zip(CURVATURE_GRID, (tmpls[:, :, disc] - target) ** 2):
            err = float(sq.sum())
            if err < best[0]:
                best = (err, float(o), float(c))
    return best[1], best[2]
