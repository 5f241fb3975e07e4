"""The denoising transformer and its conditioning adapters.

Input is the channel-concatenated (noisy latent, condition, mask) triple,
patchified to tokens. The timestep enters through adaLN-zero as in DiT: the
timestep features regress a shift, a scale and a gate per normalization, and
each normalization is one `layer_norm` node with gain 1 + scale and bias
shift. Pose conditioning is spatially aligned: projected pose latents are
added to the tokens of every window position, never to the reference
latent's tokens. Expression conditioning enters through face blocks
inserted after every k-th transformer block. Each is the paper's temporally
masked face cross-attention: the tokens of latent step t may attend to the
face latent of step t only (the reference step to a learned null latent), so
the softmax is one-hot and the block reduces exactly to a row gather of the
projected face values. `forward_tokens` resolves the face condition once per
forward: the value rows (the window's face latents, or the null latent for
every window step when no face is given, then the null row) and the row each
token reads. Face-block gates and the low-rank adapter's up-projections start
at zero, so each new pathway begins as the identity over whatever the
previous training stage produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as pt
from .face import DOWN_WIDTH, FaceEncoder, MotionBasis, TemporalDownsampler
from .packs import ConditionPack
from .tensor import AlignmentError, ConfigError, ShapeError, Tensor
from .vae import ToyVAE
from .video import LATENT_CHANNELS

TIME_FREQ_DIM = 64
PATCH = (1, 2, 2)  # latent (t, h, w) patch per token
MLP_RATIO = 4
LORA_ALPHA = 16.0
MAX_LATENTS = 24  # positional table length


@dataclass
class DiTConfig:
    n_layers: int = 8
    dim: int = 128
    n_heads: int = 4
    face_stride: int = 2  # face block after every k-th layer
    lora_rank: int = 8
    latent_size: int = 16  # spatial side of the latent grid

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{field.name} must be a whole number, got {value!r}")
        if self.face_stride < 1:
            raise ConfigError(f"face stride must be positive, got {self.face_stride}")
        if self.n_layers % self.face_stride:
            raise ConfigError(
                f"n_layers {self.n_layers} not divisible by face stride {self.face_stride}"
            )
        if self.n_heads < 1 or self.dim % self.n_heads:
            raise ConfigError(f"{self.n_heads} heads do not divide model dim {self.dim}")
        if not 1 <= self.lora_rank < self.dim:
            raise ConfigError(f"lora rank {self.lora_rank} must be in [1, model dim {self.dim})")
        if self.latent_size < PATCH[1] or self.latent_size % PATCH[1]:
            raise ConfigError(f"latent size {self.latent_size} is not a positive multiple of patch side {PATCH[1]}")

    @property
    def face_block_count(self) -> int:
        return self.n_layers // self.face_stride

    @property
    def tokens_per_step(self) -> int:
        return (self.latent_size // PATCH[1]) * (self.latent_size // PATCH[2])

    @property
    def token_dim(self) -> int:
        return (2 * LATENT_CHANNELS + 1) * math.prod(PATCH)

    @property
    def out_dim(self) -> int:
        return LATENT_CHANNELS * math.prod(PATCH)


def timestep_embedding(t: float) -> np.ndarray:
    half = TIME_FREQ_DIM // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return np.concatenate([np.cos(ang), np.sin(ang)])[None]  # [1, TIME_FREQ_DIM], float64


def _init(rng, shape, scale):
    return pt.param(rng.standard_normal(shape) * scale)


class LoRAAdapter:
    """Low-rank residual weights on the attention projections.

    Storage matches the x @ W convention: `down` [D_in, r], `up` [r, D_out]
    with `up` zero-initialized, so a fresh adapter is exactly a no-op.
    """

    def __init__(self, rng, targets: dict, rank: int):
        if not isinstance(rank, (int, np.integer)) or rank < 1:
            raise ConfigError(f"lora rank must be a whole number of at least 1, got {rank!r}")
        self.scale = LORA_ALPHA / rank
        self.params = {}
        for name, (d_in, d_out) in targets.items():
            if rank >= min(d_in, d_out):
                raise ConfigError(f"lora rank {rank} must be below layer dims ({d_in}, {d_out})")
            self.params[f"{name}.down"] = _init(rng, (d_in, rank), 1.0 / np.sqrt(d_in))
            self.params[f"{name}.up"] = pt.param(np.zeros((rank, d_out)))


def lora_forward(x: Tensor, w: Tensor, adapter: LoRAAdapter | None, name: str) -> Tensor:
    """x @ W plus the adapter's low-rank residual for layer `name`, if there is an adapter."""
    y = pt.matmul(x, w)
    if adapter is not None:
        delta = pt.matmul(pt.matmul(x, adapter.params[f"{name}.down"]), adapter.params[f"{name}.up"])
        y = pt.add(y, pt.scale(delta, adapter.scale))
    return y


class FaceBlock:
    """Temporally confined face conditioning, as a row gather.

    `values` holds one face latent per window step plus a trailing null
    latent, and `key_of_token` names the row each token reads. Masked
    cross-attention would let every token see that one value only; its single
    key takes softmax weight 1.0 whatever the query, so the block projects
    the values by `v`, gathers each token's row, projects it by `o` and adds
    it through a zero-initialized gate. Confinement is exact by construction,
    and no query or key projection exists.
    """

    def __init__(self, rng, cfg: DiTConfig):
        d = cfg.dim
        self.params = {
            "v": _init(rng, (DOWN_WIDTH, d), 1.0 / np.sqrt(DOWN_WIDTH)),
            "o": _init(rng, (d, d), 0.02),
            "gate": pt.param(np.zeros(d)),
        }

    def __call__(
        self, tokens: Tensor, values: Tensor, key_of_token: np.ndarray, adapter: LoRAAdapter | None, name: str
    ) -> Tensor:
        v = lora_forward(values, self.params["v"], adapter, f"{name}.v")
        out = lora_forward(pt.take_rows(v, key_of_token), self.params["o"], adapter, f"{name}.o")
        return pt.add(tokens, pt.mul(out, self.params["gate"]))


class AnimationModel:
    """Everything the denoiser needs: autoencoder, backbone, adapters.

    Parameters are reachable through `named_params(roles)`; role is one of
    base / face / lora and drives the stage freeze contracts.
    """

    def __init__(self, cfg: DiTConfig, rng):
        self.cfg = cfg
        self.vae = ToyVAE(rng)
        self.face_encoder = FaceEncoder(rng)
        self.basis = MotionBasis(rng)
        self.downsampler = TemporalDownsampler(rng)
        d = cfg.dim
        p = {}
        p["input.w"] = _init(rng, (cfg.token_dim, d), 1.0 / np.sqrt(cfg.token_dim))
        p["input.b"] = pt.param(np.zeros(d))
        p["body.w"] = pt.param(np.zeros((cfg.out_dim, d)))  # pose injection starts silent
        p["pos.temporal"] = _init(rng, (MAX_LATENTS, d), 0.02)
        p["pos.spatial"] = _init(rng, (cfg.tokens_per_step, d), 0.02)
        p["time.w1"] = _init(rng, (TIME_FREQ_DIM, d), 1.0 / np.sqrt(TIME_FREQ_DIM))
        p["time.b1"] = pt.param(np.zeros(d))
        p["time.w2"] = _init(rng, (d, d), 1.0 / np.sqrt(d))
        p["time.b2"] = pt.param(np.zeros(d))
        hidden = MLP_RATIO * d
        for i in range(cfg.n_layers):
            pre = f"blocks.{i}"
            for proj in ("q", "k", "v", "o"):
                p[f"{pre}.attn.{proj}"] = _init(rng, (d, d), 0.02)
            p[f"{pre}.mlp.w1"] = _init(rng, (d, hidden), np.sqrt(2.0 / d))
            p[f"{pre}.mlp.b1"] = pt.param(np.zeros(hidden))
            p[f"{pre}.mlp.w2"] = _init(rng, (hidden, d), np.sqrt(2.0 / hidden))
            p[f"{pre}.mlp.b2"] = pt.param(np.zeros(d))
            p[f"{pre}.ada.w"] = pt.param(np.zeros((d, 6 * d)))  # adaLN-zero
            p[f"{pre}.ada.b"] = pt.param(np.zeros(6 * d))
        p["final.ada.w"] = pt.param(np.zeros((d, 2 * d)))
        p["final.ada.b"] = pt.param(np.zeros(2 * d))
        p["final.w"] = pt.param(np.zeros((d, cfg.out_dim)))  # zero-init output head
        p["final.b"] = pt.param(np.zeros(cfg.out_dim))
        p["null_face"] = _init(rng, (DOWN_WIDTH,), 0.02)
        self.params = p
        self.face_blocks = [FaceBlock(rng, cfg) for _ in range(cfg.face_block_count)]
        self.lora: LoRAAdapter | None = None

    # -- parameter bookkeeping -------------------------------------------------

    def attach_lora(self, rng) -> LoRAAdapter:
        """Create (or replace) the relighting adapter over all attention layers."""
        d = self.cfg.dim
        targets = {}
        for i in range(self.cfg.n_layers):
            for proj in ("q", "k", "v", "o"):
                targets[f"blocks.{i}.attn.{proj}"] = (d, d)
        for j in range(self.cfg.face_block_count):
            targets[f"face_blocks.{j}.v"] = (DOWN_WIDTH, d)
            targets[f"face_blocks.{j}.o"] = (d, d)
        self.lora = LoRAAdapter(rng, targets, self.cfg.lora_rank)
        return self.lora

    def named_params(self, roles=None) -> dict:
        modules = [("vae", self.vae), ("dit", self)]
        modules += [(f"face_blocks.{j}", fb) for j, fb in enumerate(self.face_blocks)]
        modules += [("face_enc", self.face_encoder), ("face_basis", self.basis), ("face_down", self.downsampler)]
        if self.lora is not None:
            modules.append(("lora", self.lora))
        named = ((f"{prefix}.{name}", t) for prefix, module in modules for name, t in module.params.items())
        return {k: t for k, t in named if roles is None or self.role_of(k) in roles}

    @staticmethod
    def role_of(name: str) -> str:
        if name.startswith("lora."):
            return "lora"
        if name.startswith(("face_", "dit.null_face")):
            return "face"
        if name.startswith("vae."):
            return "vae"
        return "base"

    # -- forward ----------------------------------------------------------------

    def _time_features(self, t: float) -> Tensor:
        e = Tensor(timestep_embedding(t).astype(self.params["time.w1"].dtype))
        h = pt.silu(pt.linear(e, self.params["time.w1"], self.params["time.b1"]))
        return pt.silu(pt.linear(h, self.params["time.w2"], self.params["time.b2"]))  # [1, D]

    def _modulation(self, tfeat: Tensor, prefix: str, n_chunks: int):
        raw = pt.linear(tfeat, self.params[f"{prefix}.w"], self.params[f"{prefix}.b"])
        d = self.cfg.dim
        return [pt.reshape(pt.slice_axis(raw, 1, i * d, (i + 1) * d), (d,)) for i in range(n_chunks)]

    def _self_attention(self, x: Tensor, layer: int, adapter) -> Tensor:
        pre = f"blocks.{layer}.attn"
        q, k, v = (lora_forward(x, self.params[f"{pre}.{p}"], adapter, f"{pre}.{p}") for p in "qkv")
        att = pt.attention(q, k, v, self.cfg.n_heads)
        return lora_forward(att, self.params[f"{pre}.o"], adapter, f"{pre}.o")

    def forward_tokens(
        self,
        x_t: Tensor,
        pack: ConditionPack,
        pose_latents: Tensor,
        face_down: Tensor | None,
        t: float,
        use_lora: bool = True,
    ) -> Tensor:
        """Velocity prediction [C_z, T_total, h, w] for the current noisy latent."""
        cfg = self.cfg
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"flow time {t} outside [0, 1]")
        if x_t.shape != pack.condition.shape:
            raise ShapeError(f"x_t {x_t.shape} does not match pack {pack.condition.shape}")
        adapter = self.lora if (use_lora and self.lora is not None) else None
        n_total = pack.condition.shape[1]
        n_window = n_total - 1
        tps = cfg.tokens_per_step

        stacked = pt.concat([x_t, pack.condition, pack.mask], axis=0)
        tokens = pt.linear(pt.patchify(stacked, PATCH), self.params["input.w"], self.params["input.b"])
        step_of_token = np.repeat(np.arange(n_total), tps)
        tokens = pt.add(tokens, pt.take_rows(self.params["pos.temporal"], step_of_token))
        tokens = pt.add(tokens, pt.take_rows(self.params["pos.spatial"], np.tile(np.arange(tps), n_total)))

        if not isinstance(pose_latents, Tensor) or pose_latents.shape[1] != n_window:
            shape = getattr(pose_latents, "shape", None)
            raise AlignmentError(f"pose latents must cover the {n_window} window steps, got {shape}")
        # window rows only: the reference step adds zero rows
        pose_tokens = pt.matmul(pt.patchify(pose_latents, PATCH), self.params["body.w"])
        zero_rows = Tensor(np.zeros((tps, cfg.dim), dtype=pose_tokens.dtype))
        tokens = pt.add(tokens, pt.concat([zero_rows, pose_tokens], axis=0))

        # face values: one row per window step, then the null row the reference step reads
        null = pt.reshape(self.params["null_face"], (1, DOWN_WIDTH))
        if face_down is None:
            face_values = pt.take_rows(null, np.zeros(n_total, dtype=np.intp))
        elif face_down.shape[0] != n_window:
            raise AlignmentError(f"face latents cover {face_down.shape[0]} steps, window has {n_window}")
        else:
            face_values = pt.concat([face_down, null], axis=0)
        key_of_token = np.where(step_of_token == 0, n_window, step_of_token - 1)

        tfeat = self._time_features(t)
        x = tokens
        face_idx = 0
        for i in range(cfg.n_layers):
            sh1, sc1, g1, sh2, sc2, g2 = self._modulation(tfeat, f"blocks.{i}.ada", 6)
            h = pt.layer_norm(x, pt.add_scalar(sc1, 1.0), sh1)
            x = pt.add(x, pt.mul(self._self_attention(h, i, adapter), g1))
            h = pt.layer_norm(x, pt.add_scalar(sc2, 1.0), sh2)
            h = pt.linear(pt.gelu(pt.linear(h, self.params[f"blocks.{i}.mlp.w1"], self.params[f"blocks.{i}.mlp.b1"])),
                          self.params[f"blocks.{i}.mlp.w2"], self.params[f"blocks.{i}.mlp.b2"])
            x = pt.add(x, pt.mul(h, g2))
            if (i + 1) % cfg.face_stride == 0:
                x = self.face_blocks[face_idx](x, face_values, key_of_token, adapter, f"face_blocks.{face_idx}")
                face_idx += 1

        sh, sc = self._modulation(tfeat, "final.ada", 2)
        x = pt.layer_norm(x, pt.add_scalar(sc, 1.0), sh)
        x = pt.linear(x, self.params["final.w"], self.params["final.b"])
        dims = (LATENT_CHANNELS,) + tuple(pack.condition.shape[1:])
        return pt.unpatchify(x, dims, PATCH)
