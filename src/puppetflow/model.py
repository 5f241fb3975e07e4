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
projected face values. Face-block gates and the low-rank adapter's
up-projections start at zero, so each new pathway begins as the identity over
whatever the previous training stage produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as pt
from .face import DOWN_WIDTH, N_COEFF, FaceEncoder, MotionBasis, TemporalDownsampler
from .packs import ConditionPack
from .tensor import AlignmentError, ConfigError, ShapeError, Tensor
from .vae import ToyVAE

TIME_FREQ_DIM = 64


@dataclass
class DiTConfig:
    n_layers: int = 8
    dim: int = 128
    n_heads: int = 4
    face_stride: int = 2  # face block after every k-th layer
    patch: tuple = (1, 2, 2)
    lora_rank: int = 8
    lora_alpha: float = 16.0
    latent_channels: int = 4
    latent_size: int = 16  # spatial side of the latent grid
    max_latents: int = 24  # positional table length
    face_width: int = DOWN_WIDTH
    face_coeff: int = N_COEFF
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.face_stride < 1:
            raise ConfigError(f"face stride must be positive, got {self.face_stride}")
        if self.n_layers % self.face_stride:
            raise ConfigError(
                f"n_layers {self.n_layers} not divisible by face stride {self.face_stride}"
            )
        if self.n_heads < 1 or self.dim % self.n_heads:
            raise ConfigError(f"{self.n_heads} heads do not divide model dim {self.dim}")
        if self.lora_rank >= self.dim:
            raise ConfigError(f"lora rank {self.lora_rank} must be below model dim {self.dim}")

    @property
    def face_block_count(self) -> int:
        return self.n_layers // self.face_stride

    @property
    def tokens_per_step(self) -> int:
        return (self.latent_size // self.patch[1]) * (self.latent_size // self.patch[2])

    @property
    def token_dim(self) -> int:
        pt_, ph, pw = self.patch
        return (2 * self.latent_channels + 1) * pt_ * ph * pw

    @property
    def out_dim(self) -> int:
        pt_, ph, pw = self.patch
        return self.latent_channels * pt_ * ph * pw


def timestep_embedding(t: float, dim: int = TIME_FREQ_DIM, dtype=np.float32) -> Tensor:
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return Tensor(np.concatenate([np.cos(ang), np.sin(ang)]).astype(dtype))


def _init(rng, shape, scale, dtype):
    return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


class LoRAAdapter:
    """Low-rank residual weights on the attention projections.

    Storage matches the x @ W convention: `down` [D_in, r], `up` [r, D_out]
    with `up` zero-initialized, so a fresh adapter is exactly a no-op.
    """

    def __init__(self, rng, targets: dict, rank: int, alpha: float, dtype=np.float32):
        self.rank = rank
        self.scale = alpha / rank
        self.params = {}
        for name, (d_in, d_out) in targets.items():
            if rank >= min(d_in, d_out):
                raise ConfigError(f"lora rank {rank} must be below layer dims ({d_in}, {d_out})")
            self.params[f"{name}.down"] = _init(rng, (d_in, rank), 1.0 / np.sqrt(d_in), dtype)
            self.params[f"{name}.up"] = _zeros((rank, d_out), dtype)

    def targets(self):
        return sorted({k.rsplit(".", 1)[0] for k in self.params})


def lora_forward(x: Tensor, w: Tensor, adapter: LoRAAdapter | None, name: str) -> Tensor:
    """x @ W plus the adapter's low-rank residual when it targets this layer."""
    y = pt.matmul(x, w)
    if adapter is not None and f"{name}.down" in adapter.params:
        delta = pt.matmul(pt.matmul(x, adapter.params[f"{name}.down"]), adapter.params[f"{name}.up"])
        y = pt.add(y, pt.scale(delta, adapter.scale))
    return y


class FaceBlock:
    """Temporally confined face conditioning, as a row gather.

    The values are one face latent per latent step plus a trailing null
    latent, projected by `v`. Masked cross-attention would let every token
    see its own step's value only; that single key takes softmax weight 1.0
    whatever the query, so the block gathers the token's value row, projects
    it by `o` and adds it through a zero-initialized gate. Confinement is
    exact by construction, and no query or key projection exists.
    """

    def __init__(self, rng, cfg: DiTConfig, null_latent: Tensor, dtype=np.float32):
        d, fw = cfg.dim, cfg.face_width
        self.null_latent = null_latent  # shared with the model's other face blocks
        self.params = {
            "v": _init(rng, (fw, d), 1.0 / np.sqrt(fw), dtype),
            "o": _init(rng, (d, d), 0.02, dtype),
            "gate": _zeros((d,), dtype),
        }

    def __call__(
        self,
        tokens: Tensor,
        face: Tensor | None,
        step_of_token: np.ndarray,
        n_window: int,
        adapter: LoRAAdapter | None = None,
        name: str = "face",
    ) -> Tensor:
        if face is not None and face.shape[0] != n_window:
            raise AlignmentError(
                f"face latents cover {face.shape[0]} steps, window has {n_window}"
            )
        # values: per-step face latents then the null latent (row n_window)
        null = pt.reshape(self.null_latent, (1, self.null_latent.shape[0]))
        if face is None:
            src = pt.take_rows(null, np.zeros(n_window + 1, dtype=np.intp))
        else:
            src = pt.concat([face, null], axis=0)
        v = lora_forward(src, self.params["v"], adapter, f"{name}.v")
        key_of_token = np.where(step_of_token == 0, n_window, step_of_token - 1)
        out = lora_forward(pt.take_rows(v, key_of_token), self.params["o"], adapter, f"{name}.o")
        return pt.add(tokens, pt.mul(out, self.params["gate"]))


class AnimationModel:
    """Everything the denoiser needs: autoencoder, backbone, adapters.

    Parameters are reachable through `named_params(roles)`; role is one of
    base / face / lora and drives the stage freeze contracts.
    """

    def __init__(self, cfg: DiTConfig, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        self.dtype = dtype
        self.vae = ToyVAE(rng, dtype)
        self.face_encoder = FaceEncoder(rng, cfg.face_coeff, dtype)
        self.basis = MotionBasis(rng, cfg.face_coeff, dtype)
        self.downsampler = TemporalDownsampler(rng, cfg.face_coeff, cfg.face_width, dtype)
        d = cfg.dim
        p = {}
        p["input.w"] = _init(rng, (cfg.token_dim, d), 1.0 / np.sqrt(cfg.token_dim), dtype)
        p["input.b"] = _zeros((d,), dtype)
        p["body.w"] = _zeros((cfg.out_dim, d), dtype)  # pose injection starts silent
        p["pos.temporal"] = _init(rng, (cfg.max_latents, d), 0.02, dtype)
        p["pos.spatial"] = _init(rng, (cfg.tokens_per_step, d), 0.02, dtype)
        p["time.w1"] = _init(rng, (TIME_FREQ_DIM, d), 1.0 / np.sqrt(TIME_FREQ_DIM), dtype)
        p["time.b1"] = _zeros((d,), dtype)
        p["time.w2"] = _init(rng, (d, d), 1.0 / np.sqrt(d), dtype)
        p["time.b2"] = _zeros((d,), dtype)
        hidden = cfg.mlp_ratio * d
        for i in range(cfg.n_layers):
            pre = f"blocks.{i}"
            for proj in ("q", "k", "v", "o"):
                p[f"{pre}.attn.{proj}"] = _init(rng, (d, d), 0.02, dtype)
            p[f"{pre}.mlp.w1"] = _init(rng, (d, hidden), np.sqrt(2.0 / d), dtype)
            p[f"{pre}.mlp.b1"] = _zeros((hidden,), dtype)
            p[f"{pre}.mlp.w2"] = _init(rng, (hidden, d), np.sqrt(2.0 / hidden), dtype)
            p[f"{pre}.mlp.b2"] = _zeros((d,), dtype)
            p[f"{pre}.ada.w"] = _zeros((d, 6 * d), dtype)  # adaLN-zero
            p[f"{pre}.ada.b"] = _zeros((6 * d,), dtype)
        p["final.ada.w"] = _zeros((d, 2 * d), dtype)
        p["final.ada.b"] = _zeros((2 * d,), dtype)
        p["final.w"] = _zeros((d, cfg.out_dim), dtype)  # zero-init output head
        p["final.b"] = _zeros((cfg.out_dim,), dtype)
        p["null_face"] = _init(rng, (cfg.face_width,), 0.02, dtype)
        self.params = p
        self.face_blocks = [FaceBlock(rng, cfg, p["null_face"], dtype) for _ in range(cfg.face_block_count)]
        self.lora: LoRAAdapter | None = None

    # -- parameter bookkeeping -------------------------------------------------

    def attach_lora(self, rng=None) -> LoRAAdapter:
        """Create (or replace) the relighting adapter over all attention layers."""
        rng = rng or np.random.default_rng(0)
        d = self.cfg.dim
        targets = {}
        for i in range(self.cfg.n_layers):
            for proj in ("q", "k", "v", "o"):
                targets[f"blocks.{i}.attn.{proj}"] = (d, d)
        for j in range(self.cfg.face_block_count):
            targets[f"face_blocks.{j}.v"] = (self.cfg.face_width, d)
            targets[f"face_blocks.{j}.o"] = (d, d)
        self.lora = LoRAAdapter(rng, targets, self.cfg.lora_rank, self.cfg.lora_alpha, self.dtype)
        return self.lora

    def named_params(self, roles=None) -> dict:
        out = {}
        for name, t in self.vae.params.items():
            out[f"vae.{name}"] = t
        for name, t in self.params.items():
            out[f"dit.{name}"] = t
        for j, fb in enumerate(self.face_blocks):
            for name, t in fb.params.items():
                out[f"face_blocks.{j}.{name}"] = t
        for name, t in self.face_encoder.params.items():
            out[f"face_enc.{name}"] = t
        out["face_basis.raw"] = self.basis.raw
        for name, t in self.downsampler.params.items():
            out[f"face_down.{name}"] = t
        if self.lora is not None:
            for name, t in self.lora.params.items():
                out[f"lora.{name}"] = t
        if roles is not None:
            out = {k: v for k, v in out.items() if self.role_of(k) in roles}
        return out

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
        e = pt.reshape(timestep_embedding(t, dtype=self.dtype), (1, TIME_FREQ_DIM))
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
        pose_latents: Tensor | None,
        face_down: Tensor | None,
        t: float,
        use_lora: bool = True,
    ) -> Tensor:
        """Velocity prediction [C_z, T_total, h, w] for the current noisy latent."""
        cfg = self.cfg
        if x_t.shape != pack.condition.shape:
            raise ShapeError(f"x_t {x_t.shape} does not match pack {pack.condition.shape}")
        adapter = self.lora if (use_lora and self.lora is not None) else None
        n_total = pack.n_total
        n_window = n_total - 1
        tps = cfg.tokens_per_step

        stacked = pt.concat([x_t, pack.condition, pack.mask], axis=0)
        tokens = pt.linear(pt.patchify(stacked, cfg.patch), self.params["input.w"], self.params["input.b"])
        step_of_token = np.repeat(np.arange(n_total), tps)
        tokens = pt.add(tokens, pt.take_rows(self.params["pos.temporal"], step_of_token))
        tokens = pt.add(tokens, pt.take_rows(self.params["pos.spatial"], np.tile(np.arange(tps), n_total)))

        if pose_latents is not None:
            tokens = _inject_pose(tokens, pose_latents, self.params["body.w"], n_total, cfg.patch)

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
                x = self.face_blocks[face_idx](
                    x, face_down, step_of_token, n_window, adapter, f"face_blocks.{face_idx}"
                )
                face_idx += 1

        sh, sc = self._modulation(tfeat, "final.ada", 2)
        x = pt.layer_norm(x, pt.add_scalar(sc, 1.0), sh)
        x = pt.linear(x, self.params["final.w"], self.params["final.b"])
        dims = (cfg.latent_channels,) + tuple(pack.condition.shape[1:])
        return pt.unpatchify(x, dims, cfg.patch)


def _inject_pose(tokens: Tensor, pose_latents: Tensor, proj_w: Tensor, n_total: int, patch) -> Tensor:
    """Add projected, patchified pose latents to the window tokens.

    Pose latents cover exactly the window (temporal guidance included); the
    reference latent's tokens pass through untouched.
    """
    n_window = n_total - 1
    if pose_latents.shape[1] != n_window:
        raise AlignmentError(f"pose latents cover {pose_latents.shape[1]} steps, window has {n_window}")
    pose_tokens = pt.matmul(pt.patchify(pose_latents, patch), proj_w)
    tps = tokens.shape[0] // n_total
    ref = pt.slice_axis(tokens, 0, 0, tps)
    win = pt.add(pt.slice_axis(tokens, 0, tps, tokens.shape[0]), pose_tokens)
    return pt.concat([ref, win], axis=0)
