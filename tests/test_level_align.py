import math

import numpy as np
import pytest

from pseudolabel.dsp import Spectrogram, StftConfig, istft, stft
from pseudolabel.level_align import (
    FilterSet,
    MflfConfig,
    apply_mflf,
    fcp_weights,
    level_align,
    solve_mflf,
    stack_frames,
)

CFG = StftConfig()


def random_spec(n_frames, seed, cfg=CFG, scale=1.0):
    rng = np.random.default_rng(seed)
    data = scale * (rng.standard_normal((n_frames, cfg.n_bins))
                    + 1j * rng.standard_normal((n_frames, cfg.n_bins)))
    return Spectrogram(data, cfg)


def weighted_objective(h, stacked, Y, lam, f):
    """Direct evaluation of the per-bin fit objective, independent loops."""
    total = 0.0
    for t in range(stacked.shape[0]):
        pred = np.vdot(h, stacked[t, f])  # sum_k conj(h_k) s_k
        total += abs(Y.data[t, f] - pred) ** 2 / lam[t, f]
    return total


class TestStackFrames:
    def test_single_tap_is_identity(self):
        spec = random_spec(10, 0)
        stacked = stack_frames(spec, 1)
        np.testing.assert_array_equal(stacked[:, :, 0], spec.data)

    def test_first_frame_past_tap_is_zero(self):
        spec = random_spec(10, 1)
        stacked = stack_frames(spec, 2)
        assert np.all(stacked[0, :, 1] == 0)

    def test_taps_are_shifted_frames(self):
        spec = random_spec(10, 2)
        stacked = stack_frames(spec, 2)
        np.testing.assert_array_equal(stacked[5, :, 0], spec.data[5])
        np.testing.assert_array_equal(stacked[5, :, 1], spec.data[4])

    def test_bad_tap_count(self):
        with pytest.raises(ValueError):
            stack_frames(random_spec(4, 3), 0)


class TestFcpWeights:
    def test_constant_grid(self):
        data = np.ones((4, CFG.n_bins), dtype=complex)
        lam = fcp_weights(Spectrogram(data, CFG), 1e-4)
        np.testing.assert_allclose(lam, 1.0001)

    def test_single_hot_bin(self):
        data = np.zeros((4, CFG.n_bins), dtype=complex)
        data[2, 10] = 2.0
        lam = fcp_weights(Spectrogram(data, CFG), 1e-4)
        assert lam[2, 10] == pytest.approx(4 + 4e-4)
        assert lam[0, 0] == pytest.approx(4e-4)

    def test_lower_bound(self):
        spec = random_spec(8, 4)
        lam = fcp_weights(spec, 1e-4)
        assert np.all(lam >= 1e-4 * np.max(np.abs(spec.data) ** 2))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="unusable"):
            fcp_weights(Spectrogram(np.zeros((4, CFG.n_bins)), CFG), 1e-4)


class TestSolveMflf:
    def test_exact_scalar_gain(self):
        # diag_load=0: the loading bias (1e-6 relative) would swamp the 1e-8 bound
        spec = random_spec(60, 5)
        for c in (0.3, 0.3 + 0.1j):
            Y = Spectrogram(c * spec.data, CFG)
            stacked = stack_frames(spec, 2)
            lam = fcp_weights(Y, 1e-4)
            fs = solve_mflf(stacked, Y, lam, diag_load=0.0)
            np.testing.assert_allclose(fs.h[:, 0], np.conj(c), atol=1e-8)
            np.testing.assert_allclose(fs.h[:, 1], 0, atol=1e-8)

    def test_known_two_tap_recovery(self):
        spec = random_spec(200, 6)
        rng = np.random.default_rng(7)
        h_true = rng.standard_normal((CFG.n_bins, 2)) + 1j * rng.standard_normal((CFG.n_bins, 2))
        stacked = stack_frames(spec, 2)
        Y = Spectrogram(np.einsum("fk,tfk->tf", h_true.conj(), stacked), CFG)
        lam = fcp_weights(Y, 1e-4)
        fs = solve_mflf(stacked, Y, lam, diag_load=0.0)
        err = np.linalg.norm(fs.h - h_true) / np.linalg.norm(h_true)
        assert err < 1e-6

    def test_local_optimality_against_direct_objective(self):
        spec = random_spec(80, 8)
        rng = np.random.default_rng(9)
        noise = 3.0 * (rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(spec.data.shape))
        Y = Spectrogram(spec.data + noise, CFG)
        stacked = stack_frames(spec, 2)
        lam = fcp_weights(Y, 1e-2)
        fs = solve_mflf(stacked, Y, lam, diag_load=0.0)
        for f in (0, 64, 128, 256):
            base = weighted_objective(fs.h[f], stacked, Y, lam, f)
            for _ in range(100):
                delta = 1e-3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                assert weighted_objective(fs.h[f] + delta, stacked, Y, lam, f) >= base

    def test_objective_beats_zero_and_identity(self):
        spec = random_spec(60, 10)
        rng = np.random.default_rng(11)
        Y = Spectrogram(0.4 * spec.data + 0.5 * (rng.standard_normal(spec.data.shape)
                        + 1j * rng.standard_normal(spec.data.shape)), CFG)
        stacked = stack_frames(spec, 2)
        lam = fcp_weights(Y, 1e-2)
        fs = solve_mflf(stacked, Y, lam, 1e-6)
        zero = np.zeros(2, dtype=complex)
        identity = np.array([1.0, 0.0], dtype=complex)
        for f in (1, 50, 200):
            best = weighted_objective(fs.h[f], stacked, Y, lam, f)
            assert best <= weighted_objective(zero, stacked, Y, lam, f)
            assert best <= weighted_objective(identity, stacked, Y, lam, f)

    def test_normal_equation_residual(self):
        spec = random_spec(120, 12)
        rng = np.random.default_rng(13)
        Y = Spectrogram(spec.data + 0.3 * (rng.standard_normal(spec.data.shape)
                        + 1j * rng.standard_normal(spec.data.shape)), CFG)
        stacked = stack_frames(spec, 2)
        lam = fcp_weights(Y, 1e-2)
        diag_load = 1e-6
        fs = solve_mflf(stacked, Y, lam, diag_load)
        w = 1.0 / lam
        for f in range(0, CFG.n_bins, 16):
            A = np.zeros((2, 2), dtype=complex)
            b = np.zeros(2, dtype=complex)
            for t in range(stacked.shape[0]):
                s = stacked[t, f]
                A += np.outer(s, s.conj()) * w[t, f]
                b += s * np.conj(Y.data[t, f]) * w[t, f]
            A += diag_load * np.trace(A).real / 2 * np.eye(2)
            assert np.linalg.norm(A @ fs.h[f] - b) <= 1e-8 * np.linalg.norm(b)

    def test_silent_bins_flagged_zero(self):
        data = np.zeros((50, CFG.n_bins), dtype=complex)
        rng = np.random.default_rng(14)
        live = slice(10, 100)
        data[:, live] = rng.standard_normal((50, 90)) + 1j * rng.standard_normal((50, 90))
        spec = Spectrogram(data, CFG)
        Y = Spectrogram(0.5 * data, CFG)
        stacked = stack_frames(spec, 2)
        lam = fcp_weights(Y, 1e-4)
        fs = solve_mflf(stacked, Y, lam, 1e-6)
        assert fs.flags[0] and fs.flags[-1]
        assert not fs.flags[50]
        assert np.all(fs.h[fs.flags] == 0)

    def test_singular_live_bin_falls_back_to_per_bin_solve(self):
        # With no loading, a bin whose only nonzero frame is the last one has
        # A = diag(a, 0): a positive trace, so it is live, but singular, so the
        # batched solve raises and every live bin is solved on its own.
        spec = random_spec(12, 19)
        spec.data[:, 7] = 0.0
        spec.data[-1, 7] = 1.0 + 2.0j
        Y = random_spec(12, 20)
        lam = fcp_weights(Y, 1e-2)
        stacked = stack_frames(spec, 2)
        fs = solve_mflf(stacked, Y, lam, diag_load=0.0)
        silenced = stacked.copy()
        silenced[:, 7] = 0.0
        ref = solve_mflf(silenced, Y, lam, diag_load=0.0)
        assert np.array_equal(fs.flags, ref.flags)
        assert np.flatnonzero(fs.flags).tolist() == [7]
        assert np.all(fs.h[7] == 0)
        assert np.array_equal(fs.h, ref.h)

    def test_scale_of_predictor_absorbed(self):
        spec = random_spec(80, 15)
        rng = np.random.default_rng(16)
        Y = Spectrogram(0.25 * spec.data + 0.1 * (rng.standard_normal(spec.data.shape)
                        + 1j * rng.standard_normal(spec.data.shape)), CFG)
        lam = fcp_weights(Y, 1e-2)
        out_ref = None
        for c in (1.0, 8.0):
            scaled = Spectrogram(c * spec.data, CFG)
            stacked = stack_frames(scaled, 2)
            fs = solve_mflf(stacked, Y, lam, 1e-6)
            out = apply_mflf(fs, stacked)
            if out_ref is None:
                out_ref = out
            else:
                assert np.linalg.norm(out - out_ref) / np.linalg.norm(out_ref) < 1e-8

    def test_shape_mismatch(self):
        spec = random_spec(10, 17)
        stacked = stack_frames(spec, 2)
        Y = random_spec(9, 18)
        with pytest.raises(ValueError, match="disagree"):
            solve_mflf(stacked, Y, np.ones((10, CFG.n_bins)), 1e-6)


class TestApplyMflf:
    def test_zero_filter_zero_output(self):
        spec = random_spec(10, 19)
        stacked = stack_frames(spec, 2)
        fs = FilterSet(np.zeros((CFG.n_bins, 2), dtype=complex), 2, np.zeros(CFG.n_bins, bool))
        assert np.all(apply_mflf(fs, stacked) == 0)

    def test_identity_tap(self):
        spec = random_spec(10, 20)
        stacked = stack_frames(spec, 2)
        h = np.zeros((CFG.n_bins, 2), dtype=complex)
        h[:, 0] = 1.0
        fs = FilterSet(h, 2, np.zeros(CFG.n_bins, bool))
        np.testing.assert_allclose(apply_mflf(fs, stacked), spec.data, atol=1e-14)

    def test_reconstructs_constructed_target(self):
        spec = random_spec(150, 21)
        rng = np.random.default_rng(22)
        h_true = rng.standard_normal((CFG.n_bins, 2)) + 1j * rng.standard_normal((CFG.n_bins, 2))
        stacked = stack_frames(spec, 2)
        target = np.einsum("fk,tfk->tf", h_true.conj(), stacked)
        Y = Spectrogram(target, CFG)
        fs = solve_mflf(stacked, Y, fcp_weights(Y, 1e-4), diag_load=0.0)
        out = apply_mflf(fs, stacked)
        assert np.linalg.norm(out - target) / np.linalg.norm(target) < 1e-6

    def test_tap_count_mismatch(self):
        spec = random_spec(10, 23)
        stacked = stack_frames(spec, 3)
        fs = FilterSet(np.zeros((CFG.n_bins, 2), dtype=complex), 2, np.zeros(CFG.n_bins, bool))
        with pytest.raises(ValueError, match="tap count"):
            apply_mflf(fs, stacked)


class TestLevelAlign:
    def test_pure_attenuation(self):
        rng = np.random.default_rng(24)
        s2 = rng.standard_normal(32000)
        y = 0.3 * s2
        s3 = level_align(s2, y, CFG, MflfConfig())
        assert np.linalg.norm(s3 - y) / np.linalg.norm(y) < 1e-3

    def test_delayed_attenuated_noisy(self):
        rng = np.random.default_rng(25)
        s2 = rng.standard_normal(48000)
        clean = 0.3 * np.concatenate((np.zeros(3), s2))[:48000]
        noise = rng.standard_normal(48000)
        noise *= np.linalg.norm(clean) / (np.linalg.norm(noise) * 10 ** (20 / 20))
        y = clean + noise
        s3 = level_align(s2, y, CFG, MflfConfig())
        corr = np.dot(s3, clean) / (np.linalg.norm(s3) * np.linalg.norm(clean))
        assert corr > 0.99
        rms_ratio = np.sqrt(np.mean(s3**2) / np.mean(clean**2))
        assert 0.9 < rms_ratio < 1.1

    def test_uninformative_predictor_regresses_to_zero(self):
        rng = np.random.default_rng(26)
        n = 80000  # 5 s: capture fraction ~ sqrt(2 / n_frames) stays under 0.1
        s2 = rng.standard_normal(n)
        y = rng.standard_normal(n)
        s3 = level_align(s2, y, CFG, MflfConfig())
        assert np.sqrt(np.mean(s3**2)) <= 0.1 * np.sqrt(np.mean(y**2))
        # direct least-squares oracle: per-bin lstsq on the whitened system
        Y = stft(y, CFG)
        stacked = stack_frames(stft(s2, CFG), 2)
        lam = fcp_weights(Y, MflfConfig().xi)
        fs = solve_mflf(stacked, Y, lam, diag_load=0.0)
        for f in (3, 97, 201):
            # residual Y - h^H s conjugates to conj(Y) - conj(s)^T h, a plain
            # linear system in h after weighting both sides by 1/sqrt(lam)
            root_w = (1.0 / np.sqrt(lam[:, f]))[:, None]
            h_ls, *_ = np.linalg.lstsq(stacked[:, f, :].conj() * root_w,
                                       Y.data[:, f].conj() * root_w[:, 0], rcond=None)
            np.testing.assert_allclose(fs.h[f], h_ls, rtol=1e-6, atol=1e-9)

    def test_energy_bounded_by_mixture(self):
        rng = np.random.default_rng(27)
        s2 = rng.standard_normal(32000)
        y = 0.5 * s2 + 0.05 * rng.standard_normal(32000)
        s3 = level_align(s2, y, CFG, MflfConfig())
        assert np.sum(s3**2) <= (1 + 1e-3) * np.sum(y**2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            level_align(np.ones(100), np.ones(99), CFG, MflfConfig())

    def test_zero_reference_propagates(self):
        with pytest.raises(ValueError, match="unusable"):
            level_align(np.random.default_rng(28).standard_normal(4000), np.zeros(4000),
                        CFG, MflfConfig())


class TestMflfConfig:
    def test_defaults(self):
        cfg = MflfConfig()
        assert cfg.L == 2
        assert cfg.diag_load == 1e-6

    @pytest.mark.parametrize("kwargs", [{"L": 0}, {"xi": 0.0}, {"diag_load": -1.0},
                                        {"xi": math.inf}, {"xi": math.nan},
                                        {"diag_load": math.inf}, {"diag_load": math.nan}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MflfConfig(**kwargs)
