"""Label fidelity: the pseudo label against the truth direct sound, under noise.

TLS's product is the label waveform, so this module measures it directly.
Seeded pairs are drawn in memory with ``speech_like``, ``gen_rir`` and
``synth_pair`` over two length bands (0.5-2 s and 4-8 s) and five truth
SNR bands, 12 pairs per cell. Each pair goes through the run path's own
stages (``pipeline._label`` at the default ``PipelineConfig``), and its
label SDR is ``10*log10(||d||^2 / ||d - s3||^2)`` against the
direct sound ``d`` (the BSS Eval SDR of Vincent, Gribonval & Fevotte,
IEEE TASLP 2006, with no allowed distortion).

The draws mirror ``simulate_corpus``'s ranges (delay 0-4000 samples, gain
0.05-0.5, a quarter anechoic), except that each tail is cut at one decay
time instead of four, which keeps the convolutions cheap. Per cell the
median and the p10 of label SDR have lower bounds. Each bound is the
value measured on numpy 2.4.6, less 0.3 dB, rounded down to 0.1 dB: a
change that only rounds differently passes, while weighting the fit by
the close-talk ``|S2|^2`` instead of ``|Y|^2`` fails all four 0.5-2 s
cells below 10 dB.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pseudolabel.pipeline import PipelineConfig, _label
from pseudolabel.synth import SynthScenario, gen_rir, speech_like, synth_pair
from pseudolabel.time_align import _fft_len

RATE = 16000
PER_CELL = 12
SNR_BANDS = ((-15.0, -10.0), (-10.0, -5.0), (-5.0, 0.0), (0.0, 10.0), (10.0, 20.0))
LENGTH_BANDS = {"0.5-2s": (0.5, 2.0), "4-8s": (4.0, 8.0)}

# (length band, SNR band) -> (median bound, p10 bound) in dB. Measured on
# numpy 2.4.6, median / p10, from the -15..-10 dB band up:
#   0.5-2s:  5.35 / 4.08,  9.45 / 7.39, 14.52 / 12.54, 20.76 / 19.36, 25.39 / 23.58
#   4-8s:   10.01 / 8.24, 14.57 / 11.88, 18.60 / 17.15, 24.53 / 20.60, 26.52 / 23.72
BOUNDS = {
    ("0.5-2s", SNR_BANDS[0]): (5.0, 3.7),
    ("0.5-2s", SNR_BANDS[1]): (9.1, 7.0),
    ("0.5-2s", SNR_BANDS[2]): (14.2, 12.2),
    ("0.5-2s", SNR_BANDS[3]): (20.4, 19.0),
    ("0.5-2s", SNR_BANDS[4]): (25.0, 23.2),
    ("4-8s", SNR_BANDS[0]): (9.7, 7.9),
    ("4-8s", SNR_BANDS[1]): (14.2, 11.5),
    ("4-8s", SNR_BANDS[2]): (18.3, 16.8),
    ("4-8s", SNR_BANDS[3]): (24.2, 20.3),
    ("4-8s", SNR_BANDS[4]): (26.2, 23.4),
}


def label_sdr(length_s: float, snr_db: float, rng: np.random.Generator) -> float:
    """Draw one pair, make its label as the run path does, and return its SDR in dB.

    The source length is rounded up to a 5-smooth sample count:
    ``speech_like``'s pink-noise FFT is slow on a length with a large prime
    factor."""
    delay = int(rng.integers(0, 4001))
    gain = float(rng.uniform(0.05, 0.5))
    rir = None
    if rng.random() >= 0.25:
        decay_ms = float(rng.uniform(10.0, 50.0))
        rir = gen_rir(decay_ms, int(decay_ms / 1000.0 * RATE) + 1, int(rng.integers(2**31)), RATE)
    clean = speech_like(_fft_len(round(length_s * RATE)) / RATE, RATE, int(rng.integers(2**31)))
    scenario = SynthScenario(delay=delay, gain=gain, rir_taps=rir, noise_snr_db=snr_db,
                             seed=int(rng.integers(2**31)))
    return run_path_sdr(*synth_pair(clean, scenario))


def run_path_sdr(close: np.ndarray, far: np.ndarray, direct: np.ndarray) -> float:
    """The SDR in dB against ``direct`` of the label the run path makes from a pair."""
    _, label = _label(close, far, RATE, PipelineConfig())
    err = direct - label
    return 10.0 * math.log10(float(np.sum(direct * direct)) / float(np.sum(err * err)))


@pytest.fixture(scope="module")
def sdrs() -> dict:
    """Label SDRs by (length band, SNR band), each cell from its own seeded draw."""
    out = {}
    for i, (name, (lo, hi)) in enumerate(LENGTH_BANDS.items()):
        for j, (snr_lo, snr_hi) in enumerate(SNR_BANDS):
            rng = np.random.default_rng([22, i, j])
            out[name, (snr_lo, snr_hi)] = np.array([
                label_sdr(float(rng.uniform(lo, hi)), float(rng.uniform(snr_lo, snr_hi)), rng)
                for _ in range(PER_CELL)])
    return out


@pytest.mark.parametrize("cell", list(BOUNDS), ids=lambda c: f"{c[0]}_{c[1][0]:+g}..{c[1][1]:+g}dB")
def test_label_sdr_median_and_p10_hold(sdrs, cell):
    median_bound, p10_bound = BOUNDS[cell]
    values = sdrs[cell]
    median, p10 = float(np.median(values)), float(np.percentile(values, 10))
    assert median >= median_bound, (median, values.round(2).tolist())
    assert p10 >= p10_bound, (p10, values.round(2).tolist())
