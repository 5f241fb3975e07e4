"""Span recorder around the public functions and methods of puppetflow.

Wrappers are installed where callers look names up: module attributes, so
that `pt.matmul` reached from model.py and `blend_capsule` imported by name
into puppet.py both resolve to the wrapper, and class attributes, so that
`Tensor.backward` and `FaceBlock.__call__` do. A span is
[name, start, end, parent span index, op]; spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

from puppetflow.tensor import Tensor

# A __call__ method is named after what its object does in the layer.
CALL_NAMES = {"FaceBlock": "face_block", "TemporalDownsampler": "downsample"}

# Called from inside the backward closures; left unwrapped so that
# tensor.backward's self time is the whole tape replay.
UNWRAPPED = {"Tensor.accumulate_grad"}


# span name -> (count name, amount to add given the call's args and result)
COUNTERS = {
    "face.crop_face": ("face.crop_null", lambda args, out: int(out is None)),
    "vae.encode_tensor": ("vae.frames_encoded", lambda args, out: args[1].shape[0]),  # args[0]: ToyVAE
    "vae.decode_tensor": ("vae.frames_decoded", lambda args, out: out.shape[0]),
    "retarget.compute_sequence_params": ("retarget.warnings", lambda args, out: len(out.warnings)),
    "rasterize.rasterize_sequence": ("rasterize.frames", lambda args, out: out.shape[0]),
    "puppet.relight_augment": ("puppet.relight_skipped", lambda args, out: int(not out.applied)),
}


def _public_callables(modules):
    """(owner, attribute, original, span name) for everything to wrap.

    Functions are `<layer>.<name>`; methods are `<layer>.<method>`, or
    `<layer>.<Class>.<method>` when that name is taken twice in the layer.
    """
    found = []  # (owner, attribute, original, layer, class name or None, label)
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                found.append((mod, attr, obj, layer, None, attr))
            elif isinstance(obj, type):
                for meth, fn in vars(obj).items():
                    if not isinstance(fn, types.FunctionType):
                        continue
                    if meth == "__call__":
                        label = CALL_NAMES.get(obj.__name__, obj.__name__)
                    elif meth.startswith("_") or f"{obj.__name__}.{meth}" in UNWRAPPED:
                        continue
                    else:
                        label = meth
                    found.append((obj, meth, fn, layer, obj.__name__, label))
    taken = Counter((layer, label) for _, _, _, layer, _, label in found)
    named = {}
    for _, _, fn, layer, cls, label in found:
        clash = cls is not None and taken[layer, label] > 1
        named[fn] = f"{layer}.{cls}.{label}" if clash else f"{layer}.{label}"
    targets = [(owner, attr, fn, named[fn]) for owner, attr, fn, *_ in found]
    # a function is also wrapped in every other module that imported it by name
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj in named and not attr.startswith("_")
                    and obj.__module__ != mod.__name__):
                targets.append((mod, attr, obj, named[obj]))
    return targets


class Tracer:
    """Records spans, per-name output bytes and counts while installed."""

    def __init__(self, modules):
        self.spans = []
        self.counts = Counter()
        self.out_bytes = Counter()
        self.op = None
        self._stack = []
        wrappers = {}
        self._patches = []
        for owner, attr, fn, name in _public_callables(modules):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            self._patches.append((owner, attr, fn, wrappers[fn]))

    def _wrap(self, name, fn):
        spans, stack, out_bytes, counts = self.spans, self._stack, self.out_bytes, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if isinstance(out, Tensor):
                out_bytes[name] += out.data.nbytes
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return traced

    @contextmanager
    def recording(self, op):
        """Install the wrappers for the duration of one op, tagging its spans."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn, _ in reversed(self._patches):
                setattr(owner, attr, fn)
            self.op = None


def _covered(intervals):
    """Total length of the union of (lo, hi) intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        inside = [(max(lo, start), min(hi, end)) for lo, hi in children[i]]
        out.append((end - start) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def totals(spans):
    """name -> (calls, total self seconds)."""
    calls = Counter()
    busy = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        calls[s[0]] += 1
        busy[s[0]] += own
    return {name: (calls[name], busy[name]) for name in calls}
