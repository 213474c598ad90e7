import math

import numpy as np
import pytest

from pseudolabel.synth import speech_like
from pseudolabel.time_align import _fft_len, apply_shift, gcc_phat


def brute_force_offset(s1, y, max_lag):
    """Oracle: argmax over tau of sum_t s1(t + tau) * y(t), plain dot products."""
    best_tau, best_val = 0, -math.inf
    for tau in range(-max_lag, max_lag + 1):
        lo_t = max(0, -tau)
        hi_t = min(len(y), len(s1) - tau)
        if hi_t <= lo_t:
            continue
        val = float(np.dot(s1[lo_t + tau : hi_t + tau], y[lo_t:hi_t]))
        if val > best_val:
            best_val, best_tau = val, tau
    return best_tau


def delayed_pair(delay=160, gain=0.5, n=16000, noise_rms=0.0, seed=0):
    """Pair with y(t) = gain * s1(t - delay) + noise; expected offset is -delay."""
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(n + abs(delay))
    s1 = src[:n].copy()
    if delay >= 0:
        y = gain * np.concatenate((np.zeros(delay), s1))[:n]
    else:
        y = gain * src[-delay : -delay + n]
    if noise_rms > 0:
        y = y + noise_rms * rng.standard_normal(n)
    return s1, y


class TestGccPhat:
    def test_autocorrelation_zero_offset(self):
        x = np.random.default_rng(1).standard_normal(8000)
        res = gcc_phat(x, x, max_lag=1000)
        assert res.offset_samples == 0
        assert res.peak_ratio > 1e6  # a whitened autocorrelation is a delta; the rest is rounding

    def test_delayed_white_noise_matches_oracle(self):
        rng = np.random.default_rng(2)
        src = rng.standard_normal(16161)
        s1 = src[:16000]
        y = np.concatenate((np.zeros(160), s1))[:16000]  # y(t) = s1(t - 160)
        res = gcc_phat(s1, y, max_lag=400)
        assert res.offset_samples == -160
        assert res.offset_samples == brute_force_offset(s1, y, 400)

    def test_noisy_attenuated_delay(self):
        rng = np.random.default_rng(3)
        s1 = rng.standard_normal(16000)
        clean = 0.5 * np.concatenate((np.zeros(160), s1))[:16000]
        noise = rng.standard_normal(16000)
        noise *= np.linalg.norm(clean) / np.linalg.norm(noise)  # 0 dB
        y = clean + noise
        res = gcc_phat(s1, y, max_lag=400)
        assert res.offset_samples == -160
        assert res.peak_ratio > 2
        assert res.offset_samples == brute_force_offset(s1, y, 400)

    def test_scale_invariance(self):
        s1, y = delayed_pair(delay=777, noise_rms=0.2, seed=4)
        base = gcc_phat(s1, y, max_lag=1500).offset_samples
        for c in (1e-4, 3.0, 1e5):
            assert gcc_phat(c * s1, y, max_lag=1500).offset_samples == base

    def test_composition_invariant(self):
        for seed in range(5):
            s1, y = delayed_pair(delay=200 + 37 * seed, gain=0.4, seed=seed)
            res = gcc_phat(s1, y, max_lag=2000)
            s2 = apply_shift(s1, res.offset_samples, len(y))
            assert gcc_phat(s2, y, max_lag=2000).offset_samples == 0

    def test_exact_recovery_mixed_delays(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(-3000, 3001))
            snr_db = float(rng.uniform(0, 25))
            src = rng.standard_normal(26000)
            s1 = src[4000:20000]
            target = 0.5 * src[4000 + d : 20000 + d]
            noise = rng.standard_normal(16000)
            noise *= np.linalg.norm(target) / (np.linalg.norm(noise) * 10 ** (snr_db / 20))
            y = target + noise
            res = gcc_phat(s1, y, max_lag=4000)
            assert res.offset_samples == d, f"delay {d} at {snr_db:.1f} dB"

    @pytest.mark.parametrize("max_lag", [0, 160])
    def test_offset_at_a_window_edge(self, max_lag):
        s1, y = delayed_pair(delay=160, seed=6)
        res = gcc_phat(s1, y, max_lag=max_lag)
        assert res.offset_samples == -max_lag
        if max_lag == 0:  # a one-lag window has no second peak
            assert res.peak_ratio == math.inf

    def test_peak_ratio_at_least_one(self):
        for seed in range(5):
            s1, y = delayed_pair(delay=seed * 31, noise_rms=1.0, seed=seed)
            assert gcc_phat(s1, y, max_lag=500).peak_ratio >= 1.0

    def test_zero_energy_rejected(self):
        x = np.random.default_rng(7).standard_normal(1000)
        with pytest.raises(ValueError, match="energy"):
            gcc_phat(np.zeros(1000), x, max_lag=100)
        with pytest.raises(ValueError, match="energy"):
            gcc_phat(x, np.zeros(1000), max_lag=100)

    # Signals so small that the product of their spectra underflows: at 1e-165
    # every cross-spectral cell is 0 and there is no peak to find; at 1e-160
    # the peak is subnormal, 1e-12 of it underflows, and the floor falls back
    # to the smallest normal float. At 1e-158 1e-12 of the peak is itself
    # subnormal, and dividing by it would overflow: the floor is never below
    # the smallest normal float.
    def test_underflowing_cross_spectrum_rejected(self):
        x = speech_like(2.0, 16000, 0)
        y = np.concatenate((np.zeros(120), x))[: x.size]
        with pytest.raises(ValueError, match="^gcc_phat cross spectrum underflows to zero$"):
            gcc_phat(1e-165 * x, 1e-165 * y, max_lag=8000)

    # Checked before the FFT, which would warn of an infinity's inf - inf.
    @pytest.mark.parametrize("side, name", [(0, "s1"), (1, "y")], ids=["close", "reference"])
    def test_nan_sample_rejected(self, side, name):
        pair = [np.random.default_rng(seed).standard_normal(1000) for seed in (9, 10)]
        pair[side][500] = np.nan
        with pytest.raises(ValueError, match=f"^non-finite sample in {name}$"):
            gcc_phat(*pair, max_lag=100)

    def test_infinite_sample_rejected(self):
        x, y = (np.random.default_rng(seed).standard_normal(1000) for seed in (9, 10))
        x[500] = np.inf
        with pytest.raises(ValueError, match="^non-finite sample in s1$"):
            gcc_phat(x, y, max_lag=100)

    # An overflow, not a non-finite sample, makes the cross spectrum infinite.
    def test_overflowing_cross_spectrum_rejected(self):
        x, y = (1e300 * np.random.default_rng(seed).standard_normal(1000) for seed in (9, 10))
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="^gcc_phat cross spectrum is not finite$"):
            gcc_phat(x, y, max_lag=100)

    def test_subnormal_peak_keeps_the_offset(self):
        x = speech_like(2.0, 16000, 0)
        y = np.concatenate((np.zeros(120), x))[: x.size]
        n = _fft_len(x.size + 8001)
        peak = np.abs(np.fft.rfft(1e-160 * x, n) * np.conj(np.fft.rfft(1e-160 * y, n))).max()
        assert 0.0 < peak and 1e-12 * peak == 0.0  # the floor's fallback is taken
        assert gcc_phat(1e-160 * x, 1e-160 * y, max_lag=8000).offset_samples == -120

    def test_subnormal_floor_is_raised_to_the_smallest_normal(self):
        x = speech_like(2.0, 16000, 0)
        y = np.concatenate((np.zeros(120), x))[: x.size]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert gcc_phat(1e-158 * x, 1e-158 * y, max_lag=8000).offset_samples == -120

    def test_negative_max_lag_rejected(self):
        x = np.random.default_rng(8).standard_normal(500)
        with pytest.raises(ValueError, match="max_lag must be >= 0, got -1"):
            gcc_phat(x, x, max_lag=-1)

    def test_max_lag_too_large(self):
        x = np.random.default_rng(8).standard_normal(500)
        with pytest.raises(ValueError, match="max_lag"):
            gcc_phat(x, x, max_lag=999)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gcc_phat(np.array([]), np.ones(10), max_lag=2)


class TestFftLen:
    def test_smallest_5_smooth_at_least_n(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        expected = 20480  # 2**12 * 5, the smallest 5-smooth integer >= 20000
        for n in range(20000, 0, -1):
            if smooth(n):
                expected = n
            assert _fft_len(n) == expected, n


class TestGccPhatGrid:
    """Lengths where the FFT grid rule matters: unequal signals, short signals."""

    @pytest.mark.parametrize("s1_len, y_len", [(16000, 4000), (4000, 16000)])
    def test_unequal_lengths_match_oracle(self, s1_len, y_len):
        # y is a weak copy of s1 at a lag inside the window plus a loud burst
        # that matches s1's far edge, at a lag just past the longest overlap:
        # an FFT shorter than max(len) + max_lag + 1 wraps it into the window.
        max_lag, burst = 1000, 100
        rng = np.random.default_rng(s1_len)
        for _ in range(8):
            src = rng.standard_normal(3 * (s1_len + y_len))
            base = s1_len + y_len
            s1 = src[base : base + s1_len]
            d = int(rng.integers(-max_lag, max_lag + 1))
            y = 0.3 * src[base + d : base + d + y_len] + 0.1 * rng.standard_normal(y_len)
            if s1_len > y_len:
                y[:burst] += 15.0 * s1[-burst:]
            else:
                y[-burst:] += 15.0 * s1[:burst]
            res = gcc_phat(s1, y, max_lag=max_lag)
            assert res.offset_samples == d
            assert res.offset_samples == brute_force_offset(s1, y, max_lag)

    @pytest.mark.parametrize("max_lag", [400, 600])
    def test_signals_no_longer_than_max_lag_match_oracle(self, max_lag):
        rng = np.random.default_rng(max_lag)
        for _ in range(10):
            d = int(rng.integers(-300, 301))
            src = rng.standard_normal(1200)
            s1 = src[400:800]
            y = 0.5 * src[400 + d : 800 + d] + 0.1 * rng.standard_normal(400)
            res = gcc_phat(s1, y, max_lag=max_lag)
            assert res.offset_samples == d
            assert res.offset_samples == brute_force_offset(s1, y, max_lag)


class TestApplyShift:
    def test_zero_offset_identity(self):
        x = np.random.default_rng(9).standard_normal(1000)
        np.testing.assert_array_equal(apply_shift(x, 0, 1000), x)

    def test_alignment_after_estimation(self):
        rng = np.random.default_rng(10)
        src = rng.standard_normal(16200)
        s1 = src[:16000]
        y = np.concatenate((np.zeros(160), s1))[:16000]
        s2 = apply_shift(s1, -160, len(y))
        ncc = np.dot(s2, y) / (np.linalg.norm(s2) * np.linalg.norm(y))
        assert ncc > 0.99

    def test_full_shift_out_is_zero(self):
        x = np.ones(100)
        assert np.all(apply_shift(x, 200, 100) == 0)
        assert np.all(apply_shift(x, -200, 100) == 0)

    def test_zero_fill_and_length(self):
        x = np.arange(1.0, 11.0)
        out = apply_shift(x, 3, 10)
        np.testing.assert_array_equal(out[:7], x[3:])
        np.testing.assert_array_equal(out[7:], 0)
        out = apply_shift(x, -2, 5)
        np.testing.assert_array_equal(out, [0, 0, 1, 2, 3])

    def test_bad_target_len(self):
        with pytest.raises(ValueError):
            apply_shift(np.ones(5), 0, 0)
