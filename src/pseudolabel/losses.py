"""Training-side math: MCA loss with analytic gradient and ideal
amplitude mask targets.

The MCA loss combines elementwise mean-squared error with an adjustable
cosine-similarity penalty on two magnitude grids:

    mse    = mean((A - B)^2)
    cossim = 1 - <A, B> / (||A|| * ||B||)
    mca    = mse + alpha * cossim

The cosine term penalizes shape mismatch but not scale, so it is a
softer constraint than the MSE term it regularizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MCA_ALPHA = 1.0


@dataclass
class McaReport:
    mse: float
    cossim_loss: float
    mca: float
    alpha: float


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")


def _as_grid(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("grid contains non-finite entries")
    return arr


def _grid_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    A, B = _as_grid(A), _as_grid(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return A, B


def _norms(A: np.ndarray, B: np.ndarray) -> tuple[float, float, float]:
    na = float(np.linalg.norm(A))
    nb = float(np.linalg.norm(B))
    if na == 0.0 and nb == 0.0:
        raise ValueError("both grids are all-zero")
    inner = float(np.sum(A * B))
    return na, nb, inner


def _denom_guard(na: float, nb: float) -> float:
    return max(na * nb, 1e-12 * max(na, nb) ** 2, np.finfo(np.float64).tiny)


def mca_loss(A, B, alpha: float = DEFAULT_MCA_ALPHA) -> McaReport:
    """MSE plus alpha-weighted cosine-similarity loss between two grids."""
    _check_alpha(alpha)
    A, B = _grid_pair(A, B)
    na, nb, inner = _norms(A, B)
    mse = float(np.mean((A - B) ** 2))
    cossim = 1.0 - inner / _denom_guard(na, nb)
    return McaReport(mse=mse, cossim_loss=cossim, mca=mse + alpha * cossim, alpha=alpha)


def mca_grad(A, B, alpha: float = DEFAULT_MCA_ALPHA) -> np.ndarray:
    """Gradient of the MCA loss with respect to the second grid ``B``."""
    _check_alpha(alpha)
    A, B = _grid_pair(A, B)
    na, nb, inner = _norms(A, B)
    g_mse = 2.0 * (B - A) / A.size
    denom = _denom_guard(na, nb)
    denom3 = max(denom * nb * nb, np.finfo(np.float64).tiny)
    g_cos = -A / denom + inner * B / denom3
    return g_mse + alpha * g_cos


def iam_target(mag_S, mag_Y, clip_max: float = 2.0) -> np.ndarray:
    """Ideal amplitude mask ``min(|S| / |Y|, clip_max)``; ``|Y|`` must not be all zero."""
    if not clip_max > 0:
        raise ValueError(f"clip_max must be positive, got {clip_max}")
    S, Y = _grid_pair(mag_S, mag_Y)
    if not Y.any():
        raise ValueError("mixture grid is all-zero")
    floor = max(1e-12 * float(Y.max()), np.finfo(np.float64).tiny)
    # Y is floored above 0 and both grids are finite, so the one fault is an overflow:
    # a ratio past the largest float, which is inf, and then clip_max, as it should be.
    with np.errstate(over="ignore"):
        return np.minimum(S / np.maximum(Y, floor), clip_max)
