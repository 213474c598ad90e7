import errno
import json
import math
import os
import warnings

import numpy as np
import pytest

from pseudolabel import synth
from pseudolabel.audio_io import read_wav
from pseudolabel.synth import (
    SynthScenario,
    gen_noise,
    gen_rir,
    simulate_corpus,
    speech_like,
    synth_pair,
)


class TestGenNoise:
    def test_deterministic(self):
        a = gen_noise("white", 4000, seed=42)
        b = gen_noise("white", 4000, seed=42)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["white", "pink"])
    def test_unit_rms(self, kind):
        x = gen_noise(kind, 16384, seed=1)
        assert abs(math.sqrt(np.mean(x * x)) - 1.0) < 1e-9

    def test_pink_band_density_slope(self):
        # mean per-bin power in octave bands falls ~3 dB per octave; average
        # the spectrum over draws so narrow low bands aren't fluctuation-bound
        power = np.mean(
            [np.abs(np.fft.rfft(gen_noise("pink", 16384, seed=s))) ** 2 for s in range(8)],
            axis=0,
        )
        densities = []
        lo = 32
        while lo * 2 <= 4096:
            densities.append(np.mean(power[lo : 2 * lo]))
            lo *= 2
        steps = 10 * np.diff(np.log10(densities))
        assert np.all(np.abs(steps + 3.0) < 1.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            gen_noise("brown", 100, 0)

    # One sample of pink noise is its DC bin, which the 1/sqrt(f) shaping zeroes.
    def test_one_pink_sample_is_a_degenerate_draw(self):
        with pytest.raises(ValueError, match="^degenerate noise draw$"):
            gen_noise("pink", 1, 0)

    @pytest.mark.parametrize("length", [0, -5])
    def test_bad_length(self, length):
        with pytest.raises(ValueError, match="length must be >= 1"):
            gen_noise("white", length, 0)


class TestGenRir:
    def test_single_tap_is_anechoic(self):
        np.testing.assert_array_equal(gen_rir(50.0, 1, 0, 16000), [1.0])

    def test_deterministic(self):
        a = gen_rir(50.0, 1000, seed=3, sample_rate=16000)
        b = gen_rir(50.0, 1000, seed=3, sample_rate=16000)
        np.testing.assert_array_equal(a, b)

    def test_unit_direct_tap(self):
        rir = gen_rir(30.0, 500, seed=4, sample_rate=16000)
        assert rir[0] == 1.0

    def test_envelope_closed_form(self):
        # decay 50 ms at 16 kHz: envelope at tap 800 is e^-1 of the tap-0 level;
        # divide out the (deterministic, regenerable) noise to expose the envelope
        decay_ms, n_taps, seed, rate = 50.0, 2001, 5, 16000
        rir = gen_rir(decay_ms, n_taps, seed, rate)
        draw = np.random.default_rng(seed).standard_normal(n_taps - 1)
        envelope = rir[1:] / draw
        tau = decay_ms / 1000 * rate
        assert envelope[800 - 1] / envelope[0] == pytest.approx(
            math.exp(-(800 - 1) / tau), rel=1e-9
        )
        np.testing.assert_allclose(envelope, envelope[0] * np.exp(-(np.arange(1, n_taps) - 1) / tau),
                                   rtol=1e-9)

    def test_tail_energy_normalized(self):
        rir = gen_rir(40.0, 3000, seed=6, sample_rate=16000)
        tail_energy = float(np.sum(rir[1:] ** 2))
        assert 10 * math.log10(tail_energy) == pytest.approx(-25.0, abs=1e-9)

    def test_bad_len(self):
        with pytest.raises(ValueError):
            gen_rir(50.0, 0, 0, 16000)

    @pytest.mark.parametrize("decay_ms", [math.nan, math.inf, -1.0])
    def test_bad_decay_rejected(self, decay_ms):
        with pytest.raises(ValueError, match="decay_ms must be >= 0 and finite"):
            gen_rir(decay_ms, 100, 0, 16000)

    @pytest.mark.parametrize("sample_rate", [0, -16000])
    def test_bad_sample_rate_rejected_without_a_warning(self, sample_rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                gen_rir(50.0, 100, 0, sample_rate)
        assert str(exc.value) == f"sample_rate must be positive, got {sample_rate}"


class TestSynthPair:
    def test_identity_scenario(self):
        clean = speech_like(1.0, 16000, 7)
        close, far, direct = synth_pair(clean, SynthScenario())
        np.testing.assert_array_equal(close, clean)
        np.testing.assert_array_equal(far, clean)
        np.testing.assert_array_equal(direct, clean)

    def test_noiseless_direct_equals_mixture_snr(self):
        from pseudolabel import estimate_snr

        clean = speech_like(1.0, 16000, 8)
        scenario = SynthScenario(delay=160, gain=0.5)
        _, far, direct = synth_pair(clean, scenario)
        assert estimate_snr(direct, far) == math.inf

    def test_requested_snr_realized(self):
        clean = speech_like(2.0, 16000, 9)
        scenario = SynthScenario(delay=100, gain=0.4, noise_snr_db=5.0, seed=11)
        _, far, direct = synth_pair(clean, scenario)
        realized = 10 * math.log10(np.sum(direct**2) / np.sum((far - direct) ** 2))
        assert realized == pytest.approx(5.0, abs=0.01)

    def test_deterministic(self):
        clean = speech_like(1.0, 16000, 10)
        scenario = SynthScenario(delay=50, gain=0.7, noise_snr_db=10.0, seed=12)
        a = synth_pair(clean, scenario)
        b = synth_pair(clean, scenario)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_delay_and_gain_in_direct(self):
        clean = speech_like(1.0, 16000, 13)
        _, _, direct = synth_pair(clean, SynthScenario(delay=320, gain=0.25))
        assert np.all(direct[:320] == 0)
        np.testing.assert_allclose(direct[320:], 0.25 * clean, atol=1e-15)

    def test_rir_tail_in_mixture_not_direct(self):
        clean = speech_like(1.0, 16000, 14)
        rir = gen_rir(30.0, 1000, seed=15, sample_rate=16000)
        _, far, direct = synth_pair(clean, SynthScenario(rir_taps=rir, gain=0.5))
        assert far.size == clean.size + rir.size - 1
        np.testing.assert_allclose(direct[: clean.size], 0.5 * clean, atol=1e-15)
        assert np.linalg.norm(far - direct) > 0

    def test_degenerate_scenarios_rejected(self):
        with pytest.raises(ValueError):
            SynthScenario(gain=0.0)
        with pytest.raises(ValueError):
            SynthScenario(delay=-1)
        with pytest.raises(ValueError):
            SynthScenario(rir_taps=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="energy"):
            synth_pair(np.zeros(100), SynthScenario())

    @pytest.mark.parametrize("kwargs, message", [
        ({"gain": math.nan}, "gain must be positive and finite"),
        ({"gain": math.inf}, "gain must be positive and finite"),
        ({"noise_snr_db": math.nan}, "noise_snr_db must be finite or inf"),
        ({"noise_snr_db": -math.inf}, "noise_snr_db must be finite or inf"),
    ], ids=["gain_nan", "gain_inf", "noise_snr_nan", "noise_snr_minus_inf"])
    def test_non_finite_scenarios_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SynthScenario(**kwargs)


class TestSpeechLike:
    def test_deterministic(self):
        np.testing.assert_array_equal(speech_like(1.0, 16000, 16), speech_like(1.0, 16000, 16))

    def test_peak_normalized(self):
        x = speech_like(2.0, 16000, 17)
        assert np.max(np.abs(x)) == pytest.approx(0.5)

    def test_one_sample_is_a_degenerate_draw(self):
        with pytest.raises(ValueError, match="^degenerate noise draw$"):
            speech_like(1 / 16000, 16000, 0)

    @pytest.mark.parametrize("duration_s, sample_rate", [(0.0, 16000), (1e-5, 16000), (1.0, 0)])
    def test_too_short_rejected(self, duration_s, sample_rate):
        with pytest.raises(ValueError, match="duration too short"):
            speech_like(duration_s, sample_rate, 0)


class TestSimulateCorpus:
    def test_writes_consistent_corpus(self, tmp_path):
        manifest_path, truth_path = simulate_corpus(tmp_path / "c", count=3, seed=5,
                                                    duration_range=(1.0, 2.0))
        manifest = [json.loads(l) for l in manifest_path.read_text().splitlines()]
        truth = [json.loads(l) for l in truth_path.read_text().splitlines()]
        assert len(manifest) == len(truth) == 3
        for m, t in zip(manifest, truth):
            assert m["session_id"] == t["session_id"]
            close = read_wav(m["close_talk_path"])
            far = read_wav(m["farfield_path"])
            direct = read_wav(t["direct_path"])
            assert far.n_samples == direct.n_samples
            assert close.n_samples <= far.n_samples
            # stored ground truth matches the written signals (float32 quantization)
            gt = 10 * math.log10(
                np.sum(direct.channels[0] ** 2)
                / np.sum((far.channels[0] - direct.channels[0]) ** 2)
            )
            assert gt == pytest.approx(t["gt_snr_db"], abs=0.05)

    def test_reproducible(self, tmp_path):
        m1, _ = simulate_corpus(tmp_path / "a", count=2, seed=9, duration_range=(1.0, 1.5))
        m2, _ = simulate_corpus(tmp_path / "b", count=2, seed=9, duration_range=(1.0, 1.5))
        rows1 = [json.loads(l) for l in m1.read_text().splitlines()]
        rows2 = [json.loads(l) for l in m2.read_text().splitlines()]
        for a, b in zip(rows1, rows2):
            assert a["end_s"] == b["end_s"]
            wa = read_wav(a["farfield_path"])
            wb = read_wav(b["farfield_path"])
            np.testing.assert_array_equal(wa.samples, wb.samples)

    # Every file reaches its name whole, and the manifest and truth file come last: a
    # write that fails at the second segment's first WAV leaves the first segment's
    # three WAVs, and no manifest, truth file or partial file, not even an earlier
    # corpus's manifest, which would describe other audio.
    def test_interrupted_call_leaves_only_whole_wavs(self, tmp_path, monkeypatch):
        out = tmp_path / "c"
        simulate_corpus(out, count=1, seed=6, duration_range=(1.0, 1.5))
        write_wav, calls = synth.write_wav, []

        def full_disk_at_call_4(path, clip, encoding):
            calls.append(path)
            if len(calls) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_wav(path, clip, encoding)

        monkeypatch.setattr(synth, "write_wav", full_disk_at_call_4)
        with pytest.raises(OSError) as raised:
            simulate_corpus(out, count=3, seed=5, duration_range=(1.0, 1.5))
        assert raised.value.errno == errno.ENOSPC
        names = ["s000_close.wav", "s000_far.wav", "s000_direct.wav"]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        monkeypatch.undo()
        simulate_corpus(tmp_path / "whole", count=1, seed=5, duration_range=(1.0, 1.5))
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_negative_count_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="count"):
            simulate_corpus(tmp_path / "c", count=-3)
        assert not (tmp_path / "c").exists()
        manifest_path, _ = simulate_corpus(tmp_path / "empty", count=0)
        assert manifest_path.read_text() == ""

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 0},
        {"duration_range": (math.nan, 1.0)},
        {"duration_range": (1.0, math.inf)},
        {"duration_range": (0.0, 1.0)},
        {"delay_range": (-1, 5)},
        {"delay_range": (5, 1)},
        {"snr_range_db": (math.nan, 20.0)},
        {"snr_range_db": (0.0, math.inf)},
        {"snr_range_db": (-math.inf, 0.0)},
        {"max_decay_ms": math.nan},
        {"max_decay_ms": math.inf},
        {"max_decay_ms": -1.0},
    ], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_bad_parameter_rejected_before_writing(self, tmp_path, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            simulate_corpus(tmp_path / "c", count=1, **kwargs)
        assert not (tmp_path / "c").exists()
