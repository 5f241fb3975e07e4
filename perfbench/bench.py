"""Workloads, output checks and metrics of the puppetflow benchmark.

Every workload uses the default DiTConfig, 128 px frames and 17-frame clips
(5 window latents, 384 tokens) and cycles its scenes through the three
framings. All inputs derive from the workload seed; the expression readout
behind `expr_err` uses a fixed scene set so that its value is comparable
across seeds. See README.md for why each workload exists.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from puppetflow import face, flow, packs, puppet, rasterize, retarget, skeleton, video
from puppetflow import model as pmodel
from puppetflow import tensor as pt

import spans
import timing

FRAMES = 17
SIZE = 128
LATENTS = video.latent_count(FRAMES)
FRAMINGS = puppet.FRAMINGS
SAMPLE_STEPS = 10
SETUP_REPEATS = 3
MODEL_SEED = 0
REFERENCE_SEED = 20250917
# Flow loss and gradient norm of the train step on REFERENCE_SEED inputs. The
# step runs in float32, so summation-order changes (BLAS kernels, op rewrites)
# may move them in the last digits; REFERENCE_RTOL admits that and no more.
REFERENCE_LOSS = 2.05661940574646
REFERENCE_GRAD_NORM = 10.392552907906783
REFERENCE_RTOL = 1e-5
EXPR_SEEDS = tuple(range(6))
WARM_UP_OP = 1 << 20  # op index of the untimed warm-up; timed ops count from 0

LAYER_MODULES = ("tensor", "model", "flow", "vae", "face", "packs", "retarget", "rasterize",
                 "puppet", "video", "skeleton")
TENSOR_OPS = ("matmul", "conv2d", "causal_conv1d", "upsample2x", "gelu", "silu", "softmax",
              "layer_norm", "attention", "transpose", "concat", "slice_axis")
SPAN_METRICS = (
    "tensor.backward", "model.forward_tokens", "model.face_block", "model.lora_forward",
    "flow.sample", "flow.flow_loss", "flow.make_flow_state", "vae.encode_tensor",
    "vae.decode_tensor", "face.crop_face", "face.augment_face", "face.encode_batch",
    "face.orthonormal", "face.downsample", "packs.build_animation_pack",
    "retarget.compute_sequence_params", "retarget.retarget_sequence",
    "rasterize.rasterize_sequence", "puppet.generate_scene", "puppet.render_scene",
    "puppet.region_weight_map", "puppet.relight_augment", "puppet.estimate_face_params",
    "video.load_clip", "video.save_clip", "skeleton.load_pose_sequence",
)
COUNT_METRICS = tuple(name for name, _ in spans.COUNTERS.values())
# measured over the expression readout after the timed loop, not over ops
READOUT_SPAN = "puppet.estimate_face_params"

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s", "op_tail_s": "s",
    "frames_per_s": "1/s", "expr_err": "1",
}


def layer_modules():
    return [sys.modules[f"puppetflow.{m}"] for m in LAYER_MODULES]


def per_layer_units():
    units = {}
    for op in TENSOR_OPS:
        units.update({f"tensor.{op}.calls": "count", f"tensor.{op}.self_s": "s",
                      f"tensor.{op}.out_mb": "MB"})
    for name in SPAN_METRICS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s"})
    units.update({name: "count" for name in COUNT_METRICS})
    units["trace.overhead_pct"] = "%"
    return units


class CheckFailed(Exception):
    """An op's output broke one of the workload's invariants."""


def scene_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def build_model():
    """Default-config model whose every parameter is drawn from its own name.

    Zero-initialised pathways (gates, adaLN, output heads, biases) become
    live, as after training, and the draw of one parameter does not depend on
    which other parameters exist or in what order they were created.
    """
    model = pmodel.AnimationModel(pmodel.DiTConfig(), np.random.default_rng(MODEL_SEED))
    for name, p in model.named_params().items():
        rng = np.random.default_rng([MODEL_SEED, zlib.crc32(name.encode())])
        fan_in = p.shape[0] if p.ndim == 2 else int(np.prod(p.shape[1:]))
        scale = 0.02 if p.ndim == 1 else 1.0 / np.sqrt(fan_in)
        p.data[...] = rng.standard_normal(p.shape) * scale
    return model


# ---------------------------------------------------------------------------
# workloads: set up in __init__, one timed op per `op(i)`, untimed `check`


@dataclass
class TrainItem:
    crops: list  # 17 FaceCrop, 512 px
    ref_image: np.ndarray  # [3, H, W]
    latents: np.ndarray  # [C_z, 5, h, w] cached VAE latents of the clip
    pose: pt.Tensor  # [C_z, 5, h, w] cached VAE latents of the rasterized poses


class Train:
    """One joint-stage step: base and face roles trainable, VAE frozen."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = build_model()
        for name, p in self.model.named_params().items():
            p.requires_grad = self.model.role_of(name) in ("base", "face")
        self.trainable = list(self.model.named_params(("base", "face")).values())
        self.items = [self._cache(scene_seed(seed, i), FRAMINGS[i % 3]) for i in range(3)]
        self.reference = self._cache(REFERENCE_SEED, FRAMINGS[0])

    def _cache(self, s, framing):
        sample = puppet.generate_scene(s, FRAMES, framing, SIZE)
        vae = self.model.vae
        with pt.no_grad():
            latents = vae.encode_tensor(sample.clip.frames).data
            pose = vae.encode_tensor(rasterize.rasterize_sequence(sample.poses, SIZE, SIZE))
        crops = [face.crop_face(f, sk) for f, sk in zip(sample.clip.frames.data, sample.poses)]
        if any(c is None for c in crops):
            raise CheckFailed(f"scene {s} has a frame without a face crop")
        return TrainItem(crops, sample.clip.frames.data[0], latents, pose)

    def _step(self, item, rng):
        m = self.model
        for p in self.trainable:
            p.zero_grad()
        crops = np.stack([face.augment_face(c, rng).image.data for c in item.crops])
        seq = face.encode_face_sequence(pt.Tensor(crops), m.face_encoder, m.basis, m.downsampler,
                                        video.frame_ranges(FRAMES))
        pack = packs.build_animation_pack(m.vae, item.ref_image, LATENTS, None, rng)
        x0 = np.concatenate([pack.condition.data[:, :1], item.latents], axis=1)
        state = flow.make_flow_state(x0, pack.noise.data, float(rng.uniform()))
        pred = m.forward_tokens(state.x_t, pack, item.pose, seq.downsampled, state.t)
        loss = flow.flow_loss(pred, state.v_target, pack.mask.data)
        loss.backward()
        return loss.item()

    def op(self, i):
        return self._step(self.items[i % 3], np.random.default_rng([self.seed, i]))

    def check(self, loss):
        if not np.isfinite(loss):
            raise CheckFailed(f"non-finite loss {loss}")
        for p in self.trainable:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise CheckFailed(f"non-finite gradient on a {p.shape} parameter")

    def warm_up(self):
        """The reference step doubles as the warm-up op."""
        loss = self._step(self.reference, np.random.default_rng(REFERENCE_SEED))
        self.check(loss)
        grad_norm = float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                                      for p in self.trainable if p.grad is not None)))
        for what, got, recorded in (("loss", loss, REFERENCE_LOSS),
                                    ("gradient norm", grad_norm, REFERENCE_GRAD_NORM)):
            if not np.isclose(got, recorded, rtol=REFERENCE_RTOL, atol=0):
                raise CheckFailed(f"reference step {what} {got!r}, recorded {recorded!r}")


@dataclass
class Segment:
    framing: str
    clip_dir: Path
    pose_path: Path
    out_dir: Path
    ref_image: np.ndarray
    ref_skeleton: skeleton.Skeleton


class Animate:
    """Driving video + reference image of another character -> output video."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = build_model()
        self.segments = []
        for i, framing in enumerate(FRAMINGS):
            drive = puppet.generate_scene(scene_seed(seed, i), FRAMES, framing, SIZE)
            ref = puppet.generate_scene(scene_seed(seed, len(FRAMINGS) + i), 1, framing, SIZE)
            seg = Segment(framing, workdir / f"drive{i}", workdir / f"drive{i}.skel",
                          workdir / f"out{i}", ref.clip.frames.data[0], ref.poses[0])
            video.save_clip(seg.clip_dir, drive.clip)
            skeleton.save_pose_sequence(seg.pose_path, drive.poses)
            self.segments.append(seg)

    def op(self, i):
        seg = self.segments[i % len(self.segments)]
        m = self.model
        rng = np.random.default_rng([self.seed, i])
        with pt.no_grad():
            clip = video.load_clip(seg.clip_dir)
            poses = skeleton.load_pose_sequence(seg.pose_path)
            params = retarget.compute_sequence_params(seg.ref_skeleton, poses, seg.framing)
            pose_frames = rasterize.rasterize_sequence(retarget.retarget_sequence(poses, params), SIZE, SIZE)
            pose_latents = m.vae.encode_tensor(pose_frames)
            crops = [face.crop_face(f, sk) for f, sk in zip(clip.frames.data, poses)]
            face_down = None  # no crop for some frame: the model's null face latent
            if all(c is not None for c in crops):
                face_down = face.encode_face_sequence(
                    pt.Tensor(np.stack([c.image.data for c in crops])), m.face_encoder, m.basis,
                    m.downsampler, video.frame_ranges(FRAMES)).downsampled
            pack = packs.build_animation_pack(m.vae, seg.ref_image, LATENTS, None, rng)
            out = m.vae.decode(flow.sample(m, pack, pose_latents, face_down, SAMPLE_STEPS))
        video.save_clip(seg.out_dir, out)
        return out

    def check(self, out):
        frames = out.frames.data
        if frames.shape != (FRAMES, 3, SIZE, SIZE):
            raise CheckFailed(f"output frames {frames.shape}, expected {(FRAMES, 3, SIZE, SIZE)}")
        if not np.isfinite(frames).all() or frames.min() < 0.0 or frames.max() > 1.0:
            raise CheckFailed("output frames not finite or outside [0, 1]")

    def warm_up(self):
        self.check(self.op(WARM_UP_OP))


class Corpus:
    """One 17-frame scene per op, with its loss weights, relight and pose frames."""

    RERENDERED = 3  # ops re-rendered after the loop to check determinism

    def __init__(self, seed, workdir):
        self.seed = seed
        self.fingerprints = {}

    def op(self, i):
        sample = puppet.generate_scene(scene_seed(self.seed, i), FRAMES, FRAMINGS[i % 3], SIZE)
        weights = [puppet.region_weight_map(sample.poses[t], sample.face_params[t], SIZE, SIZE)
                   for t in range(FRAMES)]
        relit = puppet.relight_augment(sample.clip.frames.data[0], sample.masks[0],
                                       np.random.default_rng([self.seed, i]))
        pose_frames = rasterize.rasterize_sequence(sample.poses, SIZE, SIZE)
        return i, sample, weights, relit, pose_frames

    def check(self, out):
        i, sample, weights, relit, pose_frames = out
        configured = sample.scene.limb_lengths
        for sk in sample.poses:
            if not np.allclose(sk.limb_lengths(), configured, rtol=1e-9, atol=1e-9):
                raise CheckFailed(f"scene {sample.scene.seed}: limb lengths drift from configuration")
        if min(float(w.min()) for w in weights) < 1.0:
            raise CheckFailed(f"scene {sample.scene.seed}: region weight below 1")
        for arr in (sample.clip.frames.data, relit.image, pose_frames.data):
            if not np.isfinite(arr).all():
                raise CheckFailed(f"scene {sample.scene.seed}: non-finite pixels")
        if 0 <= i < self.RERENDERED:
            self.fingerprints[i] = sample.clip.frames.data.tobytes()

    def verify(self):
        for i, frames in self.fingerprints.items():
            again = puppet.generate_scene(scene_seed(self.seed, i), FRAMES, FRAMINGS[i % 3], SIZE)
            if again.clip.frames.data.tobytes() != frames:
                raise CheckFailed(f"scene of op {i} does not re-render bit-identically")

    def warm_up(self):
        self.check(self.op(WARM_UP_OP))


WORKLOADS = {"train": Train, "animate": Animate, "corpus": Corpus}


# ---------------------------------------------------------------------------
# measurement


def expression_error():
    """Mean |readout - truth| of (openness, curvature) over the fixed scene set."""
    errs = []
    for k, s in enumerate(EXPR_SEEDS):
        sample = puppet.generate_scene(s, 1, FRAMINGS[k % 3], SIZE)
        openness, curvature, px, py = sample.face_params[0]
        got = puppet.estimate_face_params(sample.clip.frames.data[0], sample.poses[0],
                                          sample.scene.colors["skin"], (px, py))
        errs += [abs(got[0] - openness), abs(got[1] - curvature)]
    return float(np.mean(errs))


# Corpus ops are interpreter-bound: small arrays and Python loops. On a shared
# host their speed swings with other tenants' load, up to 1.6x for seconds at a
# time, which spreads 30 s medians by about 30% across runs. A paced workload
# therefore samples `pace_kernel`, work of the same kind, between ops and
# reports each op time scaled to the speed at which the kernel takes
# PACE_REF_S, by the mean of the samples just before and just after the op.
# Scaled corpus op times stay within a few percent across the host's phases.
# train and animate are BLAS-bound, swing much less, and the kernel's time does
# not predict theirs, so they report unscaled times.
PACED = ("corpus",)
PACE_REF_S = 1.0e-3


def pace_kernel():
    acc = 0.0
    for _ in range(20):
        ys, xs = np.mgrid[0:24, 0:24]
        acc += float(np.clip(3.0 - np.hypot(xs - 11.5, ys - 7.2), 0.0, 1.0).sum())
        acc += sum(i * 0.5 for i in range(300))
    return acc


def pace_sample():
    """Seconds of the fastest of three pace-kernel runs; the minimum drops interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        pace_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(root, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": blas_threads, "nproc": os.cpu_count(), "machine": platform.machine(),
        "commit": git_commit(root),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def set_up(cls, seed, workdir, repeats):
    """Build the workload and run its warm-up op, `repeats` times.

    The warm-up op pays the cold first BLAS calls and lazy set-up, so each
    repetition lasts until the first timed op could start. Returns the last
    build, the median time, every time and the number of failed warm-up ops.
    """
    times, failed = [], 0
    for _ in range(repeats):
        wl = None
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        wl = cls(seed, workdir)
        try:
            wl.warm_up()
        except Exception:
            failed += 1
            traceback.print_exc()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times), times, failed


def run(workload, seed, seconds, trace, root, import_s=0.0, blas_threads=None, repeats=SETUP_REPEATS):
    """Run one workload and return (result line, record).

    The result line holds correct/attempted/failed and the metrics; the record
    adds the environment, the sample counts and the tail percentile.
    """
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{workload}-{os.getpid()}"
    try:
        wl, setup_s, setup_times, failed = set_up(WORKLOADS[workload], seed, workdir, repeats)
        attempted = repeats
        paced = workload in PACED
        before = pace_sample() if paced else None
        tracer = spans.Tracer(layer_modules()) if trace else None
        timed, traced_times, untraced_times, paces = [], [], [], []
        op = 0
        start = time.perf_counter()
        while True:
            # a traced run alternates traced and untraced ops to measure the overhead
            recording = tracer is not None and op % 2 == 0
            ctx = tracer.recording(op) if recording else nullcontext()
            pace = 1.0
            t0 = time.perf_counter()
            try:
                with ctx:
                    out = wl.op(op)
                dt = time.perf_counter() - t0
                if paced:
                    after = pace_sample()
                    pace = 2.0 * PACE_REF_S / (before + after)
                    before = after
                    dt *= pace
                wl.check(out)
            except Exception:
                failed += 1
                traceback.print_exc()
            else:
                timed.append(dt)
                paces.append(pace)
                (traced_times if recording else untraced_times).append(dt)
            op += 1
            attempted += 1
            if op >= 1 + trace and time.perf_counter() - start >= seconds:
                break
        if isinstance(wl, Corpus):
            attempted += 1
            try:
                wl.verify()
            except Exception:
                failed += 1
                traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(root, blas_threads), "import_s": import_s,
              "setup_repeats_s": setup_times, "ops_timed": len(timed),
              "op_s": timed, "op_pace": paces}
    if not timed or trace and not (traced_times and untraced_times):
        raise RuntimeError(f"too many ops of {workload} failed to measure it")
    if trace:
        readout = spans.Tracer(layer_modules())
        with readout.recording(-1):
            expression_error()
        metrics = layer_metrics(tracer, len(traced_times), readout)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_times)
                                                 / statistics.median(untraced_times) - 1.0)
        units = per_layer_units()
        values = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        record["ops_traced"] = len(traced_times)
        record["spans"] = len(tracer.spans)
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{workload}-seed{seed}.json", "w") as f:
            json.dump(tracer.spans, f)
    else:
        tail_s, tail_p = timing.tail(timed)
        metrics = {
            "setup_s": import_s + setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "op_p50_s": statistics.median(timed),
            "op_tail_s": tail_s,
            "frames_per_s": FRAMES * len(timed) / sum(timed),
            "expr_err": expression_error(),
        }
        record["op_tail_percentile"] = tail_p
        values = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}
    return result, record


def layer_metrics(tracer, n_ops, readout):
    """Per-op calls, self seconds, computed output MB and counts of the traced ops."""
    by_name = spans.totals(tracer.spans)
    by_name[READOUT_SPAN] = spans.totals(readout.spans).get(READOUT_SPAN, (0, 0.0))
    metrics = {}
    for name in [f"tensor.{op}" for op in TENSOR_OPS] + list(SPAN_METRICS):
        calls, busy = by_name.get(name, (0, 0.0))
        per = 1 if name == READOUT_SPAN else n_ops
        metrics[f"{name}.calls"] = calls / per
        metrics[f"{name}.self_s"] = busy / per
        if name.startswith("tensor.") and name != "tensor.backward":
            metrics[f"{name}.out_mb"] = tracer.out_bytes[name] / 1e6 / n_ops
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts[name] / n_ops
    return metrics
