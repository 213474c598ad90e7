"""Segment SNR estimation from pseudo labels."""

from __future__ import annotations

import math

import numpy as np


def estimate_snr(s3, y) -> float:
    """``10*log10(||s3||^2 / ||s3 - y||^2)`` with infinite sentinels.

    A zero residual returns ``+inf``; an all-zero estimate returns
    ``-inf``.
    """
    s3 = np.asarray(s3, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if s3.shape != y.shape:
        raise ValueError(f"length mismatch: {s3.shape} vs {y.shape}")
    if not np.any(y):
        raise ValueError("reference signal has zero energy")
    num = float(np.sum(s3 * s3))
    den = float(np.sum((s3 - y) ** 2))
    if den == 0.0:
        return math.inf
    if num == 0.0:
        return -math.inf
    return 10.0 * math.log10(num / den)
