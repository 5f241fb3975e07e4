"""Summaries of per-op latency samples."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie above a reported tail percentile
MIN_PERCENTILE = 90


def tail(samples):
    """(value, percentile) of the highest percentile with MIN_BEYOND samples above it.

    Percentiles are nearest-rank: the p-th is the ceil(p*n/100)-th smallest
    sample, so n - ceil(p*n/100) samples lie beyond it. Only percentiles from
    MIN_PERCENTILE up count as a tail. With fewer samples than that needs (100)
    the maximum is reported as percentile 100. The cut-off lies far from the
    op counts of the slow workloads, so a small speed change does not flip
    their tail between the maximum and a mid percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    p = (100 * (n - MIN_BEYOND)) // n
    if p < MIN_PERCENTILE:
        return xs[-1], 100
    return xs[math.ceil(p * n / 100) - 1], p
