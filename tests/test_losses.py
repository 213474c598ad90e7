import math

import numpy as np
import pytest

from pseudolabel.audio_io import AudioClip, read_wav, write_wav
from pseudolabel.dsp import StftConfig, stft
from pseudolabel.losses import iam_target, mca_grad, mca_loss
from pseudolabel.pipeline import read_pair
from pseudolabel.synth import speech_like


def finite_difference_grad(A, B, alpha, step=1e-6):
    """Central differences of the loss report's mca value, element by element."""
    grad = np.zeros_like(B)
    it = np.nditer(B, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = B.copy(); hi[idx] += step / 2
        lo = B.copy(); lo[idx] -= step / 2
        grad[idx] = (mca_loss(A, hi, alpha).mca - mca_loss(A, lo, alpha).mca) / step
        it.iternext()
    return grad


class TestMcaLoss:
    def test_identical_grids(self):
        A = np.random.default_rng(0).uniform(0.1, 2.0, (5, 7))
        report = mca_loss(A, A.copy(), alpha=3.0)
        assert report.mse == 0.0
        assert abs(report.cossim_loss) < 1e-12
        assert abs(report.mca) < 1e-12

    def test_parallel_grids(self):
        A = np.ones((2, 2))
        B = np.full((2, 2), 2.0)
        report = mca_loss(A, B, alpha=17.0)
        assert report.mse == pytest.approx(1.0, abs=1e-12)
        assert report.cossim_loss == pytest.approx(0.0, abs=1e-12)
        assert report.mca == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [0.0, 1.0]])
        report = mca_loss(A, B, alpha=0.5)
        assert report.mse == pytest.approx(0.5, abs=1e-12)
        assert report.cossim_loss == pytest.approx(1.0, abs=1e-12)
        assert report.mca == pytest.approx(1.0, abs=1e-12)

    def test_report_identity_exact(self):
        rng = np.random.default_rng(1)
        A, B = rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (4, 4))
        report = mca_loss(A, B, alpha=0.7)
        assert report.mca == report.mse + 0.7 * report.cossim_loss

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        A, B = rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (6, 3))
        ab, ba = mca_loss(A, B), mca_loss(B, A)
        assert ab.mse == pytest.approx(ba.mse, rel=1e-15)
        assert ab.cossim_loss == pytest.approx(ba.cossim_loss, rel=1e-12)

    def test_cossim_scale_invariant_mse_not(self):
        rng = np.random.default_rng(3)
        A, B = rng.uniform(0.1, 1, (5, 5)), rng.uniform(0.1, 1, (5, 5))
        base = mca_loss(A, B)
        scaled = mca_loss(A, 4.0 * B)
        assert scaled.cossim_loss == pytest.approx(base.cossim_loss, abs=1e-12)
        assert scaled.mse != pytest.approx(base.mse)

    def test_bounds_nonnegative_grids(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.uniform(0, 1, (3, 8))
            B = rng.uniform(0, 1, (3, 8))
            report = mca_loss(A, B, alpha=0.9)
            assert 0.0 <= report.cossim_loss <= 1.0
            assert report.mca >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mca_loss(np.ones((2, 2)), np.ones((2, 3)))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            mca_loss(np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, value):
        B = np.ones((2, 2))
        B[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            mca_loss(np.ones((2, 2)), B)

    @pytest.mark.parametrize("loss", [mca_loss, mca_grad])
    @pytest.mark.parametrize("alpha", [-1.0, math.inf, math.nan])
    def test_bad_alpha_rejected(self, loss, alpha):
        with pytest.raises(ValueError, match="alpha must be >= 0 and finite"):
            loss(np.ones((2, 2)), np.full((2, 2), 2.0), alpha=alpha)

    # A float32 grid is read as float64, and a grid may have any number of axes.
    @pytest.mark.parametrize("loss", [mca_loss, mca_grad])
    @pytest.mark.parametrize("shape", [(5, 7), (3, 5, 2)], ids=["2d", "3d"])
    def test_float32_grid_equals_its_float64_copy(self, loss, shape):
        rng = np.random.default_rng(15)
        A, B32 = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape).astype(np.float32)
        np.testing.assert_equal(loss(A, B32, alpha=0.5),
                                loss(A, B32.astype(np.float64), alpha=0.5))


class TestMcaGrad:
    def test_identical_grids_leave_only_cossim_term(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(0.1, 1, (4, 4))
        alpha = 0.8
        total = mca_grad(A, A.copy(), alpha)
        cos_only = mca_grad(A, A.copy(), alpha) - mca_grad(A, A.copy(), 0.0)
        np.testing.assert_allclose(total, cos_only, atol=1e-12)
        # and the mse part alone is exactly zero
        np.testing.assert_array_equal(mca_grad(A, A.copy(), 0.0), 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(0.05, 1.0, (4, 4))
        B = rng.uniform(0.05, 1.0, (4, 4))
        analytic = mca_grad(A, B, alpha=1.0)
        numeric = finite_difference_grad(A, B, alpha=1.0)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-5

    def test_scaled_copy_has_no_cossim_pull(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(0.1, 1.0, (5, 5))
        B = 2.5 * A
        g_cos = mca_grad(A, B, alpha=1.0) - mca_grad(A, B, alpha=0.0)
        projection = float(np.sum(g_cos * A)) / np.linalg.norm(A)
        assert abs(projection) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mca_grad(np.ones((2, 2)), np.ones((3, 2)))


class TestIamTarget:
    def test_equal_magnitudes_give_unit_mask(self):
        Y = np.random.default_rng(8).uniform(0.1, 1, (6, 9))
        np.testing.assert_allclose(iam_target(Y.copy(), Y), 1.0)

    def test_zero_target_gives_zero_mask(self):
        Y = np.random.default_rng(9).uniform(0.1, 1, (6, 9))
        np.testing.assert_array_equal(iam_target(np.zeros_like(Y), Y), 0.0)

    def test_clip_rule(self):
        Y = np.random.default_rng(10).uniform(0.1, 1, (4, 4))
        np.testing.assert_allclose(iam_target(3.0 * Y, Y, clip_max=2.0), 2.0)

    def test_reconstruction_when_unclipped(self):
        rng = np.random.default_rng(11)
        S = rng.uniform(0.0, 1.0, (5, 5))
        Y = rng.uniform(0.5, 1.5, (5, 5))
        mask = iam_target(S, Y, clip_max=np.inf)
        np.testing.assert_allclose(mask * Y, S, rtol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            iam_target(np.ones((2, 2)), np.ones((2, 3)))

    def test_bad_clip(self):
        with pytest.raises(ValueError):
            iam_target(np.ones((2, 2)), np.ones((2, 2)), clip_max=0.0)
        with pytest.raises(ValueError, match="clip_max must be positive, got nan"):
            iam_target(np.ones((2, 2)), np.ones((2, 2)), clip_max=math.nan)

    def test_all_zero_mixture_is_rejected(self):
        # No floor gives a mask here: |S| / tiny overflows for any |S| above about 4.
        S = np.array([[0.0, 0.5], [1.0, 0.25]])
        with pytest.raises(ValueError, match="^mixture grid is all-zero$"):
            iam_target(S, np.zeros((2, 2)))

    def test_divisor_floor_is_relative_to_the_peak(self):
        mask = iam_target(np.array([[0.5, 1e-13]]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(mask, [[0.5, 0.1]], rtol=1e-12)

    # The README's recipe for a mask file: read_pair, stft, iam_target, np.save.
    def test_readme_recipe_saves_the_mask_of_two_wavs(self, tmp_path):
        clean = speech_like(0.5, 16000, 3)
        mix = clean + 0.1 * np.random.default_rng(4).standard_normal(clean.size)
        paths = [tmp_path / "clean.wav", tmp_path / "mixture.wav"]
        for path, samples in zip(paths, (clean, mix)):
            write_wav(path, AudioClip(samples, 16000), "float32")
        cfg = StftConfig()
        s, y, _ = read_pair(*paths)
        np.save(tmp_path / "mask.npy",
                iam_target(np.abs(stft(s, cfg).data), np.abs(stft(y, cfg).data)))
        mask = np.load(tmp_path / "mask.npy")
        assert mask.ndim == 2 and mask.dtype == np.float64
        assert mask.min() >= 0.0 and mask.max() <= 2.0
        mag_s, mag_y = (np.abs(stft(read_wav(p).channels[0], cfg).data) for p in paths)
        np.testing.assert_array_equal(mask, iam_target(mag_s, mag_y))
