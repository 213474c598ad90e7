import importlib
import math
import tracemalloc

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
from pseudolabel.synth import speech_like

CFG = StftConfig()
# The module, for its block size: the package's ``level_align`` is the function.
level_align_module = importlib.import_module("pseudolabel.level_align")
BLOCK = level_align_module._BLOCK


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


# The einsum forms of the parent's stack, solve and apply, kept as oracles for
# the tap-pair reductions; they differ from them only in summation order.
def zero_filled_stack(spec, L):
    n_frames, n_bins = spec.data.shape
    stacked = np.zeros((n_frames, n_bins, L), dtype=np.complex128)
    for k in range(min(L, n_frames)):
        stacked[k:, :, k] = spec.data[: n_frames - k]
    return stacked


def einsum_solve(stacked, Y, lam, diag_load):
    n_frames, n_bins, L = stacked.shape
    w = 1.0 / lam
    A = np.einsum("tfk,tfl,tf->fkl", stacked, stacked.conj(), w, optimize=True)
    b = np.einsum("tfk,tf,tf->fk", stacked, Y.data.conj(), w, optimize=True)
    trace = np.einsum("fkk->f", A).real
    if diag_load > 0:
        A += (diag_load * trace / L)[:, None, None] * np.eye(L)
    h = np.zeros((n_bins, L), dtype=np.complex128)
    flags = trace <= 0.0
    live = ~flags
    if live.any():
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
    return h, flags | bad


def einsum_apply(h, stacked):
    return np.einsum("fk,tfk->tf", h.conj(), stacked)


def oracle_case(L, n_frames, kind):
    """Spectrograms for the oracle comparison: ``plain``, ``silent`` (bins
    with no energy in the predictor) or ``singular`` (a live bin whose only
    energy is in the last frame, singular without loading when L > 1)."""
    spec = random_spec(n_frames, 100 + L)
    rng = np.random.default_rng(200 + L)
    Y = Spectrogram(0.4 * spec.data + 0.3 * (rng.standard_normal(spec.data.shape)
                    + 1j * rng.standard_normal(spec.data.shape)), CFG)
    if kind == "silent":
        spec.data[:, :20] = 0.0
        spec.data[:, -5:] = 0.0
    elif kind == "singular":
        spec.data[:, 7] = 0.0
        spec.data[-1, 7] = 1.0 + 2.0j
    return spec, Y


class TestOracles:
    # T < L as 1 or 2 frames: with more frames short of L, A is rank-deficient
    # but for the loading, and rounding moves h by up to cond(A) * eps ~ 5e-10.
    # BLOCK - 1, BLOCK, BLOCK + 1 and 2 BLOCK + 1 frames straddle solve_mflf's blocks.
    CASES = [(L, n_frames, kind, diag_load)
             for L in (1, 2, 3, 5)
             for n_frames, kind, diag_load in ((40, "plain", 1e-6), (40, "plain", 0.0),
                                               (min(2, max(L - 1, 1)), "plain", 1e-6),
                                               (BLOCK - 1, "plain", 1e-6), (BLOCK, "plain", 1e-6),
                                               (BLOCK + 1, "plain", 1e-6),
                                               (2 * BLOCK + 1, "plain", 1e-6),
                                               (30, "silent", 1e-6), (30, "singular", 0.0))]

    @pytest.mark.parametrize("L, n_frames, kind, diag_load", CASES)
    def test_solve_and_apply_match_einsum(self, L, n_frames, kind, diag_load):
        spec, Y = oracle_case(L, n_frames, kind)
        lam = fcp_weights(Y, 1e-2)
        stacked = stack_frames(spec, L)
        fs = solve_mflf(stacked, Y, lam, diag_load)
        h_ref, flags_ref = einsum_solve(zero_filled_stack(spec, L), Y, lam, diag_load)
        assert np.array_equal(fs.flags, flags_ref)
        scale = np.abs(h_ref).max()
        np.testing.assert_allclose(fs.h, h_ref, rtol=1e-12, atol=1e-12 * scale)
        out, out_ref = apply_mflf(fs, stacked), einsum_apply(fs.h, zero_filled_stack(spec, L))
        np.testing.assert_allclose(out, out_ref, rtol=1e-12, atol=1e-12 * np.abs(out_ref).max())
        if kind == "silent":
            assert fs.flags[:20].all() and fs.flags[-5:].all() and not fs.flags[20:-5].any()
        if kind == "singular" and L > 1:
            assert np.flatnonzero(fs.flags).tolist() == [7]

    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_block_size_does_not_change_a_bit(self, L, monkeypatch):
        # Each running sum starts at zero and enters every block's reduction as its first
        # row. The bytes are compared, so a signed zero counts.
        for kind, diag_load in (("plain", 1e-6), ("silent", 0.0), ("singular", 0.0)):
            spec, Y = oracle_case(L, 2 * BLOCK + 1, kind)
            args = stack_frames(spec, L), Y, fcp_weights(Y, 1e-2), diag_load
            monkeypatch.setattr(level_align_module, "_BLOCK", BLOCK)
            ref = solve_mflf(*args)
            for block in (1, 7, BLOCK + 1, 10**6):
                monkeypatch.setattr(level_align_module, "_BLOCK", block)
                fs = solve_mflf(*args)
                assert fs.h.tobytes() == ref.h.tobytes(), (kind, block)
                assert np.array_equal(fs.flags, ref.flags), (kind, block)

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_normal_matrix_is_exactly_hermitian(self, L, monkeypatch):
        spec, Y = oracle_case(L, 40, "plain")
        seen = []
        real_solve = np.linalg.solve

        def spy(A, b):
            seen.append(A.copy())
            return real_solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        solve_mflf(stack_frames(spec, L), Y, fcp_weights(Y, 1e-2), 1e-6)
        [A] = seen
        assert np.all(np.diagonal(A, axis1=1, axis2=2).imag == 0)
        assert np.array_equal(A, A.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("L, n_frames", [(1, 6), (1, 1), (2, 6), (3, 6), (5, 6), (2, 1),
                                             (5, 3), (8, 2)])
    def test_stack_is_the_zero_filled_tensor_read_only(self, L, n_frames):
        spec = random_spec(n_frames, 30 + L)
        stacked = stack_frames(spec, L)
        assert np.array_equal(stacked, zero_filled_stack(spec, L))
        assert not np.shares_memory(stacked, spec.data)  # a copy, even with one tap
        assert stacked.shape == (n_frames, CFG.n_bins, L)
        assert not stacked.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stacked[0, 0, 0] = 1.0


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

    @pytest.mark.parametrize("xi", [0.0, -1e-2, math.inf, math.nan])
    def test_bad_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="xi must be positive and finite"):
            fcp_weights(random_spec(4, 3), xi)


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

    @pytest.mark.parametrize("diag_load", [0.0, 1e-6])
    def test_no_live_bin_solves_an_empty_batch(self, diag_load):
        # A silent close-talk signal: every trace is zero, so the batched solve gets no bin.
        stacked = stack_frames(Spectrogram(np.zeros((30, CFG.n_bins), dtype=complex), CFG), 2)
        Y = random_spec(30, 21)
        with np.errstate(all="raise"):  # as on the run path
            fs = solve_mflf(stacked, Y, fcp_weights(Y, 1e-2), diag_load)
        assert fs.flags.all()
        assert fs.h.shape == (CFG.n_bins, 2) and np.all(fs.h == 0)

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

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan])
    def test_non_positive_weights_rejected(self, weight):
        spec = random_spec(10, 17)
        lam = np.ones((10, CFG.n_bins))
        lam[3, 40] = weight
        with pytest.raises(ValueError, match="strictly positive"):
            solve_mflf(stack_frames(spec, 2), random_spec(10, 18), lam, 1e-6)

    @pytest.mark.parametrize("diag_load", [-1e-6, math.inf, math.nan])
    def test_bad_diag_load_rejected(self, diag_load):
        spec = random_spec(10, 17)
        with pytest.raises(ValueError, match="diag_load must be >= 0 and finite"):
            solve_mflf(stack_frames(spec, 2), spec, np.ones((10, CFG.n_bins)), diag_load)

    def test_non_finite_solution_is_zeroed_and_flagged(self):
        # |s|^2 ~ 1e-306 keeps each bin live, while b ~ 1e7 makes h = b / A
        # overflow inside the solver; such a bin gets the zero filter.
        s = Spectrogram(np.full((4, CFG.n_bins), 1e-153, dtype=complex), CFG)
        Y = Spectrogram(np.full((4, CFG.n_bins), 1e160, dtype=complex), CFG)
        fs = solve_mflf(stack_frames(s, 1), Y, np.ones((4, CFG.n_bins)), diag_load=0.0)
        assert fs.flags.all() and not fs.h.any()


class TestApplyMflf:
    def test_zero_filter_zero_output(self):
        spec = random_spec(10, 19)
        stacked = stack_frames(spec, 2)
        fs = FilterSet(np.zeros((CFG.n_bins, 2), dtype=complex), np.zeros(CFG.n_bins, bool))
        assert np.all(apply_mflf(fs, stacked) == 0)

    def test_identity_tap(self):
        spec = random_spec(10, 20)
        stacked = stack_frames(spec, 2)
        h = np.zeros((CFG.n_bins, 2), dtype=complex)
        h[:, 0] = 1.0
        fs = FilterSet(h, np.zeros(CFG.n_bins, bool))
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
        fs = FilterSet(np.zeros((CFG.n_bins, 2), dtype=complex), np.zeros(CFG.n_bins, bool))
        with pytest.raises(ValueError, match="tap count"):
            apply_mflf(fs, stacked)

    def test_bin_count_mismatch(self):
        stacked = stack_frames(random_spec(10, 23), 2)
        fs = FilterSet(np.zeros((CFG.n_bins - 1, 2), dtype=complex),
                       np.zeros(CFG.n_bins - 1, bool))
        with pytest.raises(ValueError, match="bin count"):
            apply_mflf(fs, stacked)


class TestFilterSet:
    @pytest.mark.parametrize("h, flags, message", [
        (np.zeros(CFG.n_bins), np.zeros(CFG.n_bins, bool), "must have shape"),
        (np.zeros((CFG.n_bins, 2)), np.zeros(CFG.n_bins - 1, bool), "one entry per bin"),
    ], ids=["1-D", "flags"])
    def test_rejects(self, h, flags, message):
        with pytest.raises(ValueError, match=message):
            FilterSet(h, flags)


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

    def test_peak_memory_per_audio_second(self):
        # tracemalloc's peak on a 30 s pair read 0.86 MiB per audio second on
        # numpy 2.4.6 (1.96 before the blocked sums and the early frees); the
        # bound leaves room for another numpy to allocate a little more.
        seconds, rate = 30, 16000
        s2 = speech_like(seconds, rate, 29)
        y = 0.3 * s2 + 0.05 * np.random.default_rng(30).standard_normal(s2.size)
        tracemalloc.start()
        try:
            level_align(s2, y, CFG, MflfConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 / seconds < 1.1

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
