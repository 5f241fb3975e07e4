"""Finite-difference verification of tape gradients.

Checks run in the widest precision: central differences are meaningless in
float32 at the tolerances we assert.
"""

from __future__ import annotations

import numpy as np

from puppetflow.tensor import WIDE, finite_checks


def grad_check(f, xs, eps: float = 1e-6, abs_floor: float = 1e-8) -> float:
    """Max relative error between tape gradients and central differences.

    `f` maps the tensors in `xs` to a scalar Tensor. Every input is perturbed
    elementwise; the relative error uses `abs_floor` to keep zero-gradient
    entries comparable. Inputs must be float64.
    """
    xs = list(xs)
    for x in xs:
        if x.dtype != WIDE:
            raise ValueError("grad_check requires wide-precision (float64) inputs")
        x.requires_grad = True
        x.zero_grad()
    with finite_checks():
        out = f(*xs)
    out.backward()
    worst = 0.0
    for x in xs:
        g = x.grad if x.grad is not None else np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(*xs).item()
            flat[i] = orig - eps
            lo = f(*xs).item()
            flat[i] = orig
            num[i] = (hi - lo) / (2.0 * eps)
        num = num.reshape(x.shape)
        err = np.abs(g - num) / np.maximum(np.maximum(np.abs(g), np.abs(num)), abs_floor)
        worst = max(worst, float(err.max()))
    return worst


def widen(params) -> None:
    """Cast each parameter's data to float64 in place.

    Parameters are built narrow; a float64 check widens them after
    construction. The tensors stay the same objects, so one shared by several
    modules (the model's null face latent) is widened everywhere at once.
    """
    for p in params:
        p.data = p.data.astype(WIDE)
