"""Time offset estimation (GCC-PHAT) and integer-sample shift compensation.

Sign convention: if ``y(t) = a * s1(t - d)`` (the reference lags the
close-talk signal by ``d`` samples) the estimated offset is ``-d``, and
``apply_shift(s1, offset, len(y))`` produces a signal sample-aligned
with ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class AlignmentResult:
    """Offset estimate, and the correlation peak over the window's second highest value
    (``inf`` when no other lag is positive): how far the offset can be trusted."""

    offset_samples: int
    peak_ratio: float


def _fft_len(n: int) -> int:
    """Smallest 5-smooth integer ``2**a * 3**b * 5**c`` that is >= ``n``."""
    best = 1 << (max(n, 1) - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def gcc_phat(s1, y, max_lag: int) -> AlignmentResult:
    """Phase-transform cross-correlation peak over lags in [-max_lag, max_lag].

    The cross spectrum is whitened by its own magnitude (floored at
    1e-12 times the largest cross-spectral magnitude, and never below the
    smallest normal float), which makes the estimate insensitive to
    spectral coloration and overall scale. A NaN or infinite sample
    raises ``ValueError`` before any FFT; a cross spectrum that
    underflows to all zeros, or overflows, raises it after.

    The FFT length is the smallest 5-smooth ``n`` of at least
    ``max(len(s1), len(y)) + max_lag + 1``, so no lag in the window picks
    up circular aliasing, and of at least ``2 * max_lag + 2``, so every
    lag in the window is distinct. The cost grows with the longer
    signal plus ``max_lag``, not with twice the signal length. The two
    signals must hold more than ``max_lag + 1`` samples between them; on
    shorter ones a lag with little or no overlap can win the peak.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if s1.ndim != 1 or y.ndim != 1 or s1.size == 0 or y.size == 0:
        raise ValueError("gcc_phat expects two nonempty 1-D signals")
    for name, x in (("s1", s1), ("y", y)):
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite sample in {name}")
    if not np.any(s1) or not np.any(y):
        raise ValueError("gcc_phat requires both signals to have nonzero energy")
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if max_lag >= s1.size + y.size - 1:
        raise ValueError(f"max_lag {max_lag} needs more than {max_lag + 1} samples between "
                         f"the two signals, got {s1.size} + {y.size}")

    n = _fft_len(max(max(s1.size, y.size) + max_lag + 1, 2 * max_lag + 2))
    cross = np.fft.rfft(y, n)
    np.multiply(np.fft.rfft(s1, n), np.conjugate(cross, out=cross), out=cross)
    mag = np.abs(cross)
    peak_mag = mag.max()
    if not 0.0 < peak_mag < math.inf:  # at 0 every lag would tie, and argmax picks the first
        raise ValueError("gcc_phat cross spectrum underflows to zero" if peak_mag == 0.0
                         else "gcc_phat cross spectrum is not finite")
    floor = max(1e-12 * peak_mag, np.finfo(np.float64).tiny)
    np.maximum(mag, floor, out=mag)
    for part in (cross.real, cross.imag):  # a real divisor: no complex division
        np.divide(part, mag, out=part)
    corr = np.fft.irfft(cross, n)

    # lag m lives at index m mod n; gather [-max_lag, max_lag] in order
    window = np.concatenate((corr[n - max_lag :], corr[: max_lag + 1]))
    idx = int(np.argmax(window))
    offset = idx - max_lag
    peak = float(window[idx])
    second = float(max(window[:idx].max(initial=0.0), window[idx + 1 :].max(initial=0.0)))
    ratio = peak / second if second > 0.0 else math.inf
    return AlignmentResult(offset_samples=offset, peak_ratio=ratio)


def apply_shift(s1, offset_samples: int, target_len: int) -> np.ndarray:
    """Return ``s2(t) = s1(t + offset)`` with zero fill, length ``target_len``."""
    if target_len <= 0:
        raise ValueError(f"target_len must be positive, got {target_len}")
    s1 = np.asarray(s1, dtype=np.float64)
    out = np.zeros(target_len)
    src_lo = max(0, offset_samples)
    src_hi = min(s1.size, target_len + offset_samples)
    if src_hi > src_lo:
        out[src_lo - offset_samples : src_hi - offset_samples] = s1[src_lo:src_hi]
    return out
