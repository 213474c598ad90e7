import numpy as np
import pytest

from pseudolabel.dsp import (
    Spectrogram,
    StftConfig,
    istft,
    make_window,
    stft,
)

ALL_CONFIGS = [
    StftConfig(n_fft=n_fft, hop=hop, window_kind=kind)
    for n_fft in (256, 512, 1024)
    for hop in (n_fft // 2, n_fft // 4)
    for kind in ("hann", "sqrt_hann")
]


def naive_dft(frame):
    n = len(frame)
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, t) / n) @ frame


def loop_istft(spec, target_len):
    """Reference overlap-add: one frame at a time, in frame order."""
    cfg = spec.config
    win = cfg.window()
    frames = np.fft.irfft(spec.data, n=cfg.n_fft, axis=1) * win
    total = (spec.n_frames - 1) * cfg.hop + cfg.n_fft
    out = np.zeros(total)
    norm = np.zeros(total)
    for t in range(spec.n_frames):
        out[t * cfg.hop : t * cfg.hop + cfg.n_fft] += frames[t]
        norm[t * cfg.hop : t * cfg.hop + cfg.n_fft] += win * win
    covered = norm > norm.max() * 1e-12
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    y = out[cfg.n_fft // 2 : cfg.n_fft // 2 + target_len]
    return np.pad(y, (0, target_len - y.size))


def frame_of(x, cfg, t):
    """Windowed analysis frame per the padding contract, computed independently."""
    pad = cfg.n_fft // 2
    buf = np.concatenate((np.zeros(pad), x, np.zeros(pad + cfg.n_fft)))
    return buf[t * cfg.hop : t * cfg.hop + cfg.n_fft] * cfg.window()


class TestMakeWindow:
    def test_hann_closed_form(self):
        assert make_window("hann", 4) == pytest.approx([0.0, 0.5, 1.0, 0.5], abs=1e-15)

    def test_sqrt_hann_is_elementwise_sqrt(self):
        np.testing.assert_allclose(
            make_window("sqrt_hann", 4), np.sqrt(make_window("hann", 4)), atol=1e-15
        )

    @pytest.mark.parametrize("kind", ["hann", "sqrt_hann"])
    def test_symmetry_n8(self, kind):
        w = make_window(kind, 8)
        assert w[0] == 0.0
        assert np.argmax(w) == 4

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="unsupported"):
            make_window("hamming", 512)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            make_window("hann", 5)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.n_fft == 512 and cfg.hop == 256
        assert cfg.n_bins == 257

    def test_hop_must_divide(self):
        with pytest.raises(ValueError):
            StftConfig(n_fft=512, hop=200)

    def test_n_fft_power_of_two(self):
        with pytest.raises(ValueError):
            StftConfig(n_fft=500, hop=250)

    def test_hop_equal_n_fft_not_invertible(self):
        with pytest.raises(ValueError, match="invertible"):
            StftConfig(n_fft=512, hop=512, window_kind="hann")


class TestStft:
    def test_zero_signal(self):
        spec = stft(np.zeros(4096), StftConfig())
        assert np.all(spec.data == 0)

    def test_impulse_at_frame_center(self):
        cfg = StftConfig(window_kind="hann")
        x = np.zeros(4096)
        t = 3
        x[t * cfg.hop] = 1.0
        spec = stft(x, cfg)
        center = cfg.window()[cfg.n_fft // 2]
        np.testing.assert_allclose(np.abs(spec.data[t]), center, atol=1e-12)

    def test_sine_bin_argmax_and_dft_oracle(self):
        cfg = StftConfig()
        n = 16000
        x = np.sin(2 * np.pi * 1000.0 * np.arange(n) / 16000)
        spec = stft(x, cfg)
        mags = np.abs(spec.data)
        # expected bin: 1000 * 512 / 16000 = 32
        energetic = mags.max(axis=1) > 0.1 * mags.max()
        assert np.all(np.argmax(mags[energetic], axis=1) == 32)
        # one interior frame against a direct DFT of the windowed frame
        t = 10
        np.testing.assert_allclose(spec.data[t], naive_dft(frame_of(x, cfg, t)), atol=1e-9)

    def test_empty_signal(self):
        with pytest.raises(ValueError, match="empty"):
            stft(np.array([]), StftConfig())

    def test_two_d_array_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            stft(np.ones((1, 4096)), StftConfig())

    def test_linearity(self):
        cfg = StftConfig()
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal(5000), rng.standard_normal(5000)
        a, b = 0.7, -1.3
        lhs = stft(a * x + b * y, cfg).data
        rhs = a * stft(x, cfg).data + b * stft(y, cfg).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_parseval_consistency(self):
        cfg = StftConfig()
        rng = np.random.default_rng(12)
        x = rng.standard_normal(7001)
        spec = stft(x, cfg)
        for t in range(spec.n_frames):
            frame = frame_of(x, cfg, t)
            time_energy = np.sum(frame**2)
            m = np.abs(spec.data[t]) ** 2
            spectral_energy = (m[0] + m[-1] + 2 * np.sum(m[1:-1])) / cfg.n_fft
            assert spectral_energy == pytest.approx(time_energy, rel=1e-6, abs=1e-12)


class TestIstft:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.window_kind}-{c.n_fft}-{c.hop}")
    def test_round_trip(self, cfg):
        rng = np.random.default_rng(cfg.n_fft + cfg.hop)
        x = rng.standard_normal(10000)
        back = istft(stft(x, cfg), x.size)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_round_trip_relative_l2(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16000)
        back = istft(stft(x, StftConfig()), x.size)
        assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-9

    def test_zero_spectrogram(self):
        cfg = StftConfig()
        spec = Spectrogram(np.zeros((10, cfg.n_bins)), cfg)
        assert np.all(istft(spec, 2000) == 0)

    def test_target_len_truncate_and_pad(self):
        cfg = StftConfig()
        x = np.random.default_rng(4).standard_normal(5000)
        spec = stft(x, cfg)
        short = istft(spec, 4000)
        np.testing.assert_allclose(short, x[:4000], atol=1e-9)
        long = istft(spec, 9000)
        assert long.size == 9000
        np.testing.assert_allclose(long[:5000], x, atol=1e-9)

    def test_bad_target_len(self):
        cfg = StftConfig()
        spec = Spectrogram(np.zeros((4, cfg.n_bins)), cfg)
        with pytest.raises(ValueError):
            istft(spec, 0)

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.window_kind}-{c.n_fft}-{c.hop}")
    def test_bit_identical_to_frame_loop(self, cfg):
        rng = np.random.default_rng(cfg.n_fft * cfg.hop)
        # 2 frames is fewer than n_fft // hop for every hop = n_fft / 4
        for n_frames in (1, 2, 3, 40):
            shape = (n_frames, cfg.n_bins)
            spec = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg)
            for target_len in (1, cfg.hop + 1, (n_frames - 1) * cfg.hop, n_frames * cfg.hop + 777):
                target_len = max(target_len, 1)
                assert np.array_equal(istft(spec, target_len), loop_istft(spec, target_len))


class TestValidation:
    # The signal is checked; a Spectrogram built from an array is not scanned.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_stft_rejects_a_non_finite_sample(self, bad):
        x = np.zeros(1000)
        x[500] = bad
        with pytest.raises(ValueError, match="^non-finite sample in signal$"):
            stft(x, StftConfig())

    def test_spectrogram_rejects_three_d_data(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            Spectrogram(np.zeros((3, 257, 1)), StftConfig())

    def test_spectrogram_rejects_wrong_bins(self):
        with pytest.raises(ValueError, match="bin count"):
            Spectrogram(np.zeros((3, 100)), StftConfig())

