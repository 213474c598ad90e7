"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark's cores are shared with other tenants. Their speed shifts
by tens of percent from one second to the next, and the speed they reach
drifts too, over minutes. So right after each timed pass the run times a
short block of this kernel, and it divides the program's wall time by
the kernel's time over the same stretch. A slow spell slows both alike
and cancels. Each block runs in a fresh process,

    python3 perfbench/pb_ref.py SECONDS DECODE_S

which prints the call times as one JSON list, so the kernel always
starts from the same process state, whatever the pass before it left.

One call does the kinds of work one segment does, on fixed data: the
numpy DSP of a 5 s segment (an FFT cross-correlation with a phase
transform, a short-time spectrum, per-bin weighted normal equations by
``einsum``, a batched small solve and the filter's application) and, when
``DECODE_S`` is not 0, the decode of two PCM16 files of ``DECODE_S``
seconds, as a segment of a session layout reads its close-talk and
far-field files whole. DSP is compute-bound and decoding is bound by
memory traffic, and the two slow down differently when the machine is
busy, so the kernel mixes them as the workload does. It uses numpy alone
and never calls the program, so a change to the program does not move it.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

SAMPLE_RATE = 16000
FRAMES, BINS, TAPS = 313, 257, 5  # 5 s of 16 kHz audio in 256-sample hops
# About the kernel's call time in the fast spells of the machine the
# benchmark was built on (2-vCPU Xeon, numpy 2 with OpenBLAS): DSP_S for
# the DSP part, DECODE_S_PER_S per second of audio in each decoded file.
# Scaled times are wall times multiplied by nominal_s() over the kernel's
# time in the same run.
DSP_S = 0.030
DECODE_S_PER_S = 0.00012
SHARE = 0.25  # seconds of kernel after a timed pass, per second of the pass's wall


def nominal_s(decode_s: float) -> float:
    return DSP_S + 2 * DECODE_S_PER_S * decode_s


def _make_data(decode_s: float):
    rng = np.random.default_rng(20250530)
    x = rng.standard_normal(SAMPLE_RATE * 5)
    stacked = (rng.standard_normal((FRAMES, BINS, TAPS))
               + 1j * rng.standard_normal((FRAMES, BINS, TAPS)))
    y = rng.standard_normal((FRAMES, BINS)) + 1j * rng.standard_normal((FRAMES, BINS))
    w = rng.random((FRAMES, BINS)) + 0.1
    pcm = rng.integers(-3000, 3000, int(SAMPLE_RATE * decode_s), dtype=np.int16).tobytes()
    return x, stacked, y, w, pcm


def _decode(pcm: bytes) -> np.ndarray:
    """Copy and decode mono PCM16 bytes to float64 channels, as a whole-file read does."""
    flat = np.frombuffer(bytes(bytearray(pcm)), dtype="<i2") / 32768.0
    return flat.reshape(-1, 1).T.copy()


def kernel(x, stacked, y, w, pcm) -> float:
    """One call of the reference work; returns a number so none of it is skipped."""
    n = 1 << 18
    cross = np.fft.rfft(x, n) * np.conj(np.fft.rfft(x[::-1], n))
    corr = np.fft.irfft(cross / np.maximum(np.abs(cross), 1e-12), n)
    frames = np.lib.stride_tricks.sliding_window_view(np.pad(x, (256, 512)), 512)[::256][:FRAMES]
    spec = np.fft.rfft(np.hanning(512) * frames, axis=1)
    a = np.einsum("tfk,tfl,tf->fkl", stacked, stacked.conj(), w, optimize=True)
    b = np.einsum("tfk,tf,tf->fk", stacked, y.conj(), w, optimize=True)
    a += 1e-3 * np.eye(TAPS)
    h = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    out = np.einsum("fk,tfk->tf", h.conj(), stacked)
    back = np.fft.irfft(out * spec.conj(), axis=1)
    decoded = sum(float(_decode(pcm)[0, -1]) for _ in range(2)) if pcm else 0.0
    return float(corr[0] + back[0, 0]) + decoded


def block(seconds: float, decode_s: float = 0.0) -> list[float]:
    """Call the kernel for about ``seconds`` (at least once); return each call's seconds.

    One untimed call first builds numpy's FFT plans and ``einsum`` paths.
    """
    data = _make_data(decode_s)
    kernel(*data)
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel(*data)
        times.append(time.perf_counter() - t0)
    return times


if __name__ == "__main__":
    print(json.dumps(block(float(sys.argv[1]), float(sys.argv[2]))))
