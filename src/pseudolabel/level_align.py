"""Level alignment via per-frequency multiframe linear filtering.

For each frequency bin an L-tap complex filter is fit by weighted least
squares so that the filtered, time-aligned close-talk spectrogram best
matches the reference mixture:

    minimize over h(f):  sum_t |Y(t,f) - h(f)^H s(t,f)|^2 / lambda(t,f)

where ``s(t,f)`` stacks the current and L-1 previous close-talk frames.
The per-cell weights ``lambda`` de-emphasize loud time-frequency cells so
low-energy regions also constrain the fit. Filtering then rescales (and
mildly reshapes) the close-talk signal onto the reference's level without
inheriting the reference's noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import Spectrogram, StftConfig, istft, stft


@dataclass(frozen=True)
class MflfConfig:
    """Multiframe filter settings: tap count, weight floor, and loading.

    ``xi`` floors the per-cell weights at ``xi * max|Y|^2``: cells quieter
    than that are weighted uniformly, louder cells are de-emphasized. A
    floor much below the reference's noise level lets the noise dictate
    the weights and systematically shrinks the fitted filters (and the
    downstream SNR estimates) on low-SNR references, so the default keeps
    the floor within 20 dB of the spectral peak.
    """

    L: int = 2
    xi: float = 1e-2
    diag_load: float = 1e-6

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        _check_xi(self.xi)
        _check_diag_load(self.diag_load)


def _check_xi(xi: float) -> None:
    if not 0 < xi < math.inf:
        raise ValueError(f"xi must be positive and finite, got {xi}")


def _check_diag_load(diag_load: float) -> None:
    if not 0 <= diag_load < math.inf:
        raise ValueError(f"diag_load must be >= 0 and finite, got {diag_load}")


@dataclass
class FilterSet:
    """Per-bin complex filters ``h[f, k]`` of ``L = h.shape[1]`` taps, current frame first.

    ``flags[f]`` is True where the normal equations were singular (an
    all-silent bin) and the filter was zeroed instead of solved.
    """

    h: np.ndarray
    flags: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.h.ndim != 2:
            raise ValueError(f"filter array must have shape (n_bins, L), got {self.h.shape}")
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.shape != (self.h.shape[0],):
            raise ValueError("flags must have one entry per bin")


def stack_frames(spec: Spectrogram, L: int) -> np.ndarray:
    """Stack each frame with its L-1 predecessors: output [t, f, tap].

    Tap ``k`` of frame ``t`` is frame ``t - k``; frames before the start
    are zeros (causal edge padding). The result is a read-only view over
    one zero-padded copy of the frames, not L copies.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    data = spec.data
    padded = np.concatenate((np.zeros((L - 1, data.shape[1]), dtype=np.complex128), data))
    return sliding_window_view(padded, L, axis=0)[:, :, ::-1]


# Frames per block of solve_mflf's sums: a block's complex temporaries
# (263 KB each at 257 bins) stay in a core's L2 cache. 48-64 frames were
# fastest on 1-30 s segments; a 1 s segment fits in one block.
_BLOCK = 64


def fcp_weights(Y: Spectrogram, xi: float) -> np.ndarray:
    """Per-cell weights ``xi * max|Y|^2 + |Y(t,f)|^2`` for the filter fit."""
    _check_xi(xi)
    power = Y.data.real**2
    power += Y.data.imag**2
    peak = power.max()
    if peak == 0.0:
        raise ValueError("reference spectrogram is identically zero; segment unusable")
    power += xi * peak
    return power


def solve_mflf(stacked: np.ndarray, Y: Spectrogram, lam: np.ndarray,
               diag_load: float = MflfConfig.diag_load) -> FilterSet:
    """Solve the per-bin weighted normal equations for the filter taps.

    Per bin ``A h = b`` with ``A = sum_t s s^H / lam`` and
    ``b = sum_t s Y* / lam``, after adding ``diag_load * trace(A) / L``
    to the diagonal. Bins that stay singular (all-silent) get a zero
    filter and are flagged.

    The sums over frames run over blocks of ``_BLOCK`` frames, so that a
    block's temporaries stay in cache. With ``w = 1 / lam``, a block forms
    each tap's weighted conjugate ``g_l = w s_l*`` once. ``b_k`` is the
    conjugate of ``sum_t g_k Y``, so ``Y`` is never conjugated. ``A`` is
    Hermitian, so only the pairs ``k >= l`` are summed, as ``s_k g_l``; on
    the diagonal that is ``w |s_k|^2``, whose real part is kept. Each
    running sum starts at zero and enters every block's reduction as its
    first row, and an axis-0 reduction adds rows in order, so the sums
    have the same bits for any block size.
    """
    _check_diag_load(diag_load)
    n_frames, n_bins, L = stacked.shape
    if Y.data.shape != (n_frames, n_bins) or lam.shape != (n_frames, n_bins):
        raise ValueError("stacked, Y, and lam shapes disagree")
    if not (lam > 0).all():
        raise ValueError("weights must be strictly positive")

    # Sum j multiplies source i (tap i, or Y for i = L) by g_l: b's L sums, then A's pairs.
    pairs = [(L, l) for l in range(L)] + [(k, l) for l in range(L) for k in range(l, L)]
    rows = min(n_frames, _BLOCK)
    w = np.empty((rows, n_bins), dtype=np.complex128)  # complex: a product then needs no cast
    g = np.empty((L, rows, n_bins), dtype=np.complex128)
    prod = np.empty((rows + 1, n_bins), dtype=np.complex128)
    sums = np.zeros((len(pairs), n_bins), dtype=np.complex128)
    for t0 in range(0, n_frames, _BLOCK):
        n = min(n_frames - t0, _BLOCK)
        blk = slice(t0, t0 + n)
        wb = np.divide(1.0, lam[blk], out=w[:n])
        sources = [stacked[blk, :, k] for k in range(L)] + [Y.data[blk]]
        conj = [np.multiply(np.conjugate(s, out=gl), wb, out=gl)
                for s, gl in zip(sources, g[:, :n])]
        for j, (i, l) in enumerate(pairs):
            np.multiply(sources[i], conj[l], out=prod[1:n + 1])
            prod[0] = sums[j]
            np.add.reduce(prod[:n + 1], axis=0, out=sums[j])

    A = np.empty((n_bins, L, L), dtype=np.complex128)
    for (k, l), total in zip(pairs[L:], sums[L:]):
        A[:, k, l], A[:, l, k] = total, total.conj()
    A.reshape(n_bins, L * L)[:, ::L + 1].imag = 0.0  # keep the diagonal's real part
    b = sums[:L].T.conj()
    trace = np.trace(A, axis1=1, axis2=2).real
    A += (diag_load * trace / L)[:, None, None] * np.eye(L)

    h = np.zeros((n_bins, L), dtype=np.complex128)
    flags = trace <= 0.0
    live = ~flags
    try:
        h[live] = np.linalg.solve(A[live], b[live][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for f in np.nonzero(live)[0]:
            try:
                h[f] = np.linalg.solve(A[f], b[f])
            except np.linalg.LinAlgError:
                flags[f] = True
    bad = ~np.isfinite(h).all(axis=1)
    h[bad] = 0.0
    flags |= bad
    return FilterSet(h=h, flags=flags)


def apply_mflf(filters: FilterSet, stacked: np.ndarray) -> np.ndarray:
    """Filter the stacked frames: ``out(t,f) = sum_k h*(f,k) s(t,f,k)``."""
    n_bins, L = filters.h.shape
    if stacked.ndim != 3 or stacked.shape[2] != L:
        raise ValueError(f"stacked tensor tap count {stacked.shape[-1]} does not match filter L={L}")
    if stacked.shape[1] != n_bins:
        raise ValueError("stacked tensor bin count does not match filter set")
    h_conj = filters.h.conj()
    n_frames = stacked.shape[0]
    out = np.empty((n_frames, n_bins), dtype=np.complex128)
    tap = np.empty((min(n_frames, _BLOCK), n_bins), dtype=np.complex128)
    for t0 in range(0, n_frames, _BLOCK):  # blocks of solve_mflf's size, for the cache
        blk = slice(t0, t0 + _BLOCK)
        part = np.multiply(h_conj[:, 0], stacked[blk, :, 0], out=out[blk])
        for k in range(1, L):
            part += np.multiply(h_conj[:, k], stacked[blk, :, k], out=tap[:len(part)])
    return out


def level_align(s2, y, stft_cfg: StftConfig, mflf_cfg: MflfConfig) -> np.ndarray:
    """Fit and apply the multiframe filter; returns the pseudo label waveform.

    ``s2`` is the time-aligned close-talk signal and ``y`` the reference
    far-field mixture, equal length (``apply_shift`` guarantees this).
    """
    s2 = np.asarray(s2, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if s2.shape != y.shape:
        raise ValueError(f"length mismatch: {s2.shape} vs {y.shape}")
    Y = stft(y, stft_cfg)
    S2 = stft(s2, stft_cfg)
    lam = fcp_weights(Y, mflf_cfg.xi)
    stacked = stack_frames(S2, mflf_cfg.L)
    del S2  # each grid is dropped once its last step is done: the peak holds fewer of them
    filters = solve_mflf(stacked, Y, lam, mflf_cfg.diag_load)
    del Y, lam
    aligned = apply_mflf(filters, stacked)
    del stacked
    return istft(Spectrogram(aligned, stft_cfg), y.size)
