"""STFT analysis/synthesis and windowing shared by every processing stage.

All arithmetic is double precision. Analysis frames are taken from a
signal zero-padded by ``n_fft // 2`` on both sides, so the timestamp of
frame ``t`` (``t * hop`` samples) lines up with the signal sample it is
centered on. Synthesis uses windowed overlap-add divided by the
accumulated analysis*synthesis window overlap, which reconstructs the
input exactly wherever that overlap sum is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW_KINDS = ("hann", "sqrt_hann")


def make_window(kind: str, n_fft: int) -> np.ndarray:
    """Return a periodic taper of length ``n_fft``.

    ``hann`` is the periodic Hann window ``0.5 - 0.5*cos(2*pi*n/n_fft)``;
    ``sqrt_hann`` is its elementwise square root.
    """
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unsupported window kind {kind!r}; expected one of {WINDOW_KINDS}")
    if n_fft < 2 or n_fft % 2 != 0:
        raise ValueError(f"window length must be even and >= 2, got {n_fft}")
    n = np.arange(n_fft, dtype=np.float64)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / n_fft)
    if kind == "sqrt_hann":
        return np.sqrt(hann)
    return hann


@dataclass(frozen=True)
class StftConfig:
    """Transform geometry: FFT size, hop, window family, and sample rate."""

    n_fft: int = 512
    hop: int = 256
    window_kind: str = "sqrt_hann"
    sample_rate: int = 16000

    def __post_init__(self) -> None:
        if self.n_fft < 16 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ValueError(f"n_fft must be a power of two >= 16, got {self.n_fft}")
        if self.hop < 1 or self.hop > self.n_fft or self.n_fft % self.hop != 0:
            raise ValueError(f"hop must divide n_fft and satisfy 1 <= hop <= n_fft, got {self.hop}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        win = make_window(self.window_kind, self.n_fft)
        # Invertibility: the overlapped analysis*synthesis product must be
        # strictly positive at every sample phase.
        profile = (win * win).reshape(-1, self.hop).sum(axis=0)
        if profile.min() <= 1e-6 * profile.max():
            raise ValueError(
                f"window {self.window_kind!r} with hop={self.hop} is not invertible"
            )

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def window(self) -> np.ndarray:
        return make_window(self.window_kind, self.n_fft)


@dataclass
class Spectrogram:
    """Complex one-sided STFT grid, indexed [frame, bin]."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError(f"spectrogram data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[1] != self.config.n_bins:
            raise ValueError(
                f"bin count {self.data.shape[1]} does not match config n_bins {self.config.n_bins}"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


def stft(signal, config: StftConfig) -> Spectrogram:
    """One-sided STFT of a single channel.

    Frame ``t`` covers samples ``[t*hop, t*hop + n_fft)`` of the signal
    zero-padded by ``n_fft // 2`` on both ends; enough frames are produced
    to cover the whole padded signal.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("empty signal")
    n_fft, hop = config.n_fft, config.hop
    pad = n_fft // 2
    n_frames = int(np.ceil(x.size / hop)) + 1
    total = (n_frames - 1) * hop + n_fft
    buf = np.zeros(total)
    buf[pad : pad + x.size] = x
    frames = np.lib.stride_tricks.sliding_window_view(buf, n_fft)[::hop]
    data = np.fft.rfft(frames * config.window(), axis=1)
    return Spectrogram(data, config)


def istft(spec: Spectrogram, target_len: int) -> np.ndarray:
    """Windowed overlap-add synthesis, trimmed or zero-padded to ``target_len``.

    The overlap-add runs over the ``n_fft // hop`` phases of a frame, not
    over frames: phase ``j`` of every frame lands in hop-block ``t + j``.
    Phases are added in descending ``j``, which is ascending frame order
    at each sample, so every sample gets its terms in the same order as
    a per-frame loop would add them, and the same bits.
    """
    if target_len <= 0:
        raise ValueError(f"target_len must be positive, got {target_len}")
    cfg = spec.config
    win = cfg.window()
    n_frames = spec.n_frames
    k = cfg.n_fft // cfg.hop
    blocks = (np.fft.irfft(spec.data, n=cfg.n_fft, axis=1) * win).reshape(n_frames, k, cfg.hop)
    wsq = (win * win).reshape(k, cfg.hop)
    out = np.zeros((n_frames + k - 1, cfg.hop))
    norm = np.zeros_like(out)
    for j in range(k - 1, -1, -1):
        out[j : j + n_frames] += blocks[:, j]
        norm[j : j + n_frames] += wsq[j]
    out = out.ravel()
    norm = norm.ravel()
    covered = norm > norm.max() * 1e-12
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    pad = cfg.n_fft // 2
    y = out[pad : pad + target_len]
    if y.size < target_len:
        y = np.pad(y, (0, target_len - y.size))
    return y

