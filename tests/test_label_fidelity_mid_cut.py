"""Label fidelity on cuts that start and end inside continuous talk.

A diarized manifest cuts the close-talk and the far field on the same
interval, and the far field lags the close-talk. On a cut that starts
mid-speech, the far field's first ``|offset|`` samples hold talk from
before the cut's start, while ``apply_shift`` zero-fills that head of the
shifted close-talk. So the label misses it, and the fit counts it as
noise. The whole-file cells of ``test_label_fidelity`` never show this.

Each pair is drawn in memory: ``speech_like`` talk at least 1 s longer
than the cut, a delay of 0-4000 samples, a gain of 0.05-0.5, a ``gen_rir``
tail of 10-50 ms decay (cut at one decay time) and white noise at the
cell's truth SNR. Both channels and the direct sound are cut on one
interval from 0.5 s, inside the talk of both channels. The cut pair then
goes through the run path's stages at the default configs, and its label
SDR is measured against the cut direct sound, as ``test_label_fidelity``
measures it. 40 pairs per cell, as in the probe that found the loss.

Per cell the median and the p10 of label SDR have lower bounds: the value
measured on numpy 2.4.6, less 0.3 dB, rounded down to 0.1 dB. They pin
today's zero-filled head; taking the shifted close-talk from the file
instead would raise them.
"""

from __future__ import annotations

import numpy as np
import pytest

from pseudolabel.synth import SynthScenario, gen_rir, speech_like, synth_pair
from pseudolabel.time_align import _fft_len
from test_label_fidelity import RATE, run_path_sdr

PER_CELL = 40
LEAD = RATE // 2  # the cut starts 0.5 s into the talk, past the longest delay
SNR_BANDS = ((-5.0, 5.0), (5.0, 15.0))
LENGTH_BANDS = {"0.5-2s": (0.5, 2.0), "4-8s": (4.0, 8.0)}

# (length band, SNR band) -> (median bound, p10 bound) in dB. Measured on
# numpy 2.4.6, median / p10, at -5..5 and 5..15 dB:
#   0.5-2s:  9.14 / 4.13, 11.65 / 4.42
#   4-8s:   15.45 / 12.25, 17.80 / 12.32
BOUNDS = {
    ("0.5-2s", SNR_BANDS[0]): (8.8, 3.8),
    ("0.5-2s", SNR_BANDS[1]): (11.3, 4.1),
    ("4-8s", SNR_BANDS[0]): (15.1, 11.9),
    ("4-8s", SNR_BANDS[1]): (17.5, 12.0),
}


def mid_cut_sdr(length_s: float, snr_db: float, rng: np.random.Generator) -> float:
    """Draw one pair, cut it mid-talk, and return the SDR in dB of the cut's label."""
    delay = int(rng.integers(0, 4001))
    gain = float(rng.uniform(0.05, 0.5))
    decay_ms = float(rng.uniform(10.0, 50.0))
    rir = gen_rir(decay_ms, int(decay_ms / 1000.0 * RATE) + 1, int(rng.integers(2**31)), RATE)
    n_cut = round(length_s * RATE)
    # 5-smooth, as in test_label_fidelity: speech_like's FFT is slow on a large prime factor
    clean = speech_like(_fft_len(n_cut + RATE) / RATE, RATE, int(rng.integers(2**31)))
    scenario = SynthScenario(delay=delay, gain=gain, rir_taps=rir, noise_snr_db=snr_db,
                             seed=int(rng.integers(2**31)))
    return run_path_sdr(*(x[LEAD : LEAD + n_cut] for x in synth_pair(clean, scenario)))


@pytest.fixture(scope="module")
def sdrs() -> dict:
    """Label SDRs by (length band, SNR band), each cell from its own seeded draw."""
    out = {}
    for i, (name, (lo, hi)) in enumerate(LENGTH_BANDS.items()):
        for j, (snr_lo, snr_hi) in enumerate(SNR_BANDS):
            rng = np.random.default_rng([31, i, j])
            out[name, (snr_lo, snr_hi)] = np.array([
                mid_cut_sdr(float(rng.uniform(lo, hi)), float(rng.uniform(snr_lo, snr_hi)), rng)
                for _ in range(PER_CELL)])
    return out


@pytest.mark.parametrize("cell", list(BOUNDS), ids=lambda c: f"{c[0]}_{c[1][0]:+g}..{c[1][1]:+g}dB")
def test_mid_cut_label_sdr_median_and_p10_hold(sdrs, cell):
    median_bound, p10_bound = BOUNDS[cell]
    values = sdrs[cell]
    median, p10 = float(np.median(values)), float(np.percentile(values, 10))
    assert median >= median_bound, (median, values.round(2).tolist())
    assert p10 >= p10_bound, (p10, values.round(2).tolist())
