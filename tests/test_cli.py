import argparse
import dataclasses
import functools
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudolabel
from pseudolabel import PipelineConfig
from pseudolabel.audio_io import AudioClip, read_wav, write_wav
from pseudolabel.cli import build_parser, main, parse_config_file
from pseudolabel.dsp import WINDOW_KINDS, StftConfig, stft
from pseudolabel.level_align import MflfConfig, solve_mflf
from pseudolabel.losses import iam_target, mca_grad, mca_loss
from pseudolabel.pipeline import filter_pairs, read_pair
from pseudolabel.synth import SynthScenario, simulate_corpus, speech_like, synth_pair
from pseudolabel.time_align import gcc_phat
from rawwav import raw_wav_bytes


def wav_of(tmp_path, name, samples, rate=16000):
    path = tmp_path / name
    write_wav(path, AudioClip(samples, rate), "float32")
    return str(path)


class TestBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "pseudolabel" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_version_is_written_once(self):
        read_configuration = pytest.importorskip("setuptools.config.pyprojecttoml").read_configuration
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
            project = read_configuration(pyproject)["project"]
        assert project["version"] == pseudolabel.__version__

    # Every listed name resolves, and every public name the package binds is
    # listed; submodules become attributes once imported, so they are skipped.
    def test_all_lists_exactly_the_public_bindings(self):
        bound = {name for name, value in vars(pseudolabel).items()
                 if not name.startswith("_") and not inspect.ismodule(value)}
        assert sorted(pseudolabel.__all__) == sorted(bound)


@pytest.mark.parametrize("command", ["iam"])
def test_two_wav_commands_reject_differing_rates(tmp_path, capsys, command):
    x = speech_like(0.5, 16000, 0)
    a = wav_of(tmp_path, "a16k.wav", x)
    b = wav_of(tmp_path, "b8k.wav", x[::2], rate=8000)
    assert main([command, a, b, "-o", str(tmp_path / "mask.npy")]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == \
           f"{command}: sample rates differ: 16000 Hz in {a}, 8000 Hz in {b}"
    assert captured.out == ""
    assert not (tmp_path / "mask.npy").exists()


@pytest.mark.parametrize("command", ["iam"])
def test_two_wav_commands_reject_a_non_finite_sample(tmp_path, capsys, command):
    x = speech_like(0.5, 16000, 0)
    a = wav_of(tmp_path, "a.wav", x)
    x[x.size // 2] = np.nan
    b = wav_of(tmp_path, "b_nan.wav", x)
    assert main([command, a, b, "-o", str(tmp_path / "mask.npy")]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"{command}: non-finite sample in {b}"
    assert captured.out == ""
    assert not (tmp_path / "mask.npy").exists()


def float64_wav_of(tmp_path, name, samples, rate=16000) -> str:
    """A mono float64 WAV, which ``write_wav`` does not write."""
    path = tmp_path / name
    path.write_bytes(raw_wav_bytes(np.asarray(samples, dtype="<f8").tobytes(), 3, 1, rate, 64))
    return str(path)


# A 1e300 clean file over a 1e-300 mixture overflows the magnitude ratio; the
# command fails instead of writing a mask of inf.
@pytest.mark.parametrize("command", ["iam"])
def test_two_wav_commands_reject_an_overflow(tmp_path, capsys, command):
    s = np.random.default_rng(5).standard_normal(8000)
    a = float64_wav_of(tmp_path, "a.wav", 1e300 * s)
    b = float64_wav_of(tmp_path, "b.wav", 1e-300 * s)
    assert main([command, a, b, "-o", str(tmp_path / "mask.npy")]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"{command}: overflow encountered in divide"
    assert captured.out == ""
    assert not (tmp_path / "mask.npy").exists()


def empty_wav_of(tmp_path, name) -> str:
    """A float32 WAV with an empty ``data`` chunk, which ``write_wav`` refuses to write."""
    path = tmp_path / name
    path.write_bytes(raw_wav_bytes(b"", 3, 1, 16000, 32))
    return str(path)


# A fault in an input file exits 1: missing, undecodable, or two files the
# command cannot compare. A fault in a flag exits 2.
_EXIT_RULE = {"missing": 1, "undecodable": 1, "incomparable": 1, "bad_flag": 2}


@pytest.mark.parametrize("fault", list(_EXIT_RULE))
@pytest.mark.parametrize("command", ["iam"])
def test_exit_code_rule(tmp_path, capsys, command, fault):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"neither a WAV nor a grid")
    good = wav_of(tmp_path, "good.wav", speech_like(0.5, 16000, 0))
    second = {"missing": tmp_path / "missing", "undecodable": junk,
              "incomparable": empty_wav_of(tmp_path, "empty.wav"), "bad_flag": good}[fault]
    argv = [command, str(good), str(second), "-o", str(tmp_path / "mask.npy")]
    argv += ["--n-fft", "100"] if fault == "bad_flag" else []
    assert main(argv) == _EXIT_RULE[fault]
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err
    assert not (tmp_path / "mask.npy").exists()


class TestIamCommand:
    def test_writes_mask_grid(self, tmp_path, capsys):
        clean = speech_like(0.5, 16000, 3)
        mix = clean + 0.1 * np.random.default_rng(4).standard_normal(clean.size)
        c = wav_of(tmp_path, "c.wav", clean)
        m = wav_of(tmp_path, "m.wav", mix)
        out = tmp_path / "mask.npy"
        assert main(["iam", c, m, "-o", str(out), "--clip-max", "2.0"]) == 0
        mask = np.load(out)
        assert mask.ndim == 2 and mask.dtype == np.float64
        assert mask.min() >= 0.0 and mask.max() <= 2.0
        mag_c, mag_m = (np.abs(stft(read_wav(p).channels[0], StftConfig()).data) for p in (c, m))
        np.testing.assert_array_equal(mask, iam_target(mag_c, mag_m, clip_max=2.0))

    # np.save appends ".npy" to a name without it, unless handed an open file.
    def test_writes_exactly_the_named_path(self, tmp_path, capsys):
        c = wav_of(tmp_path, "c.wav", speech_like(0.5, 16000, 3))
        out = tmp_path / "mask"
        assert main(["iam", c, c, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 33x257 mask to {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.wav", "mask"]
        np.testing.assert_array_equal(np.load(out), np.ones((33, 257)))

    # An interrupted save leaves the earlier mask whole, and no partial file.
    def test_interrupted_save_keeps_the_earlier_mask(self, tmp_path, monkeypatch):
        c = wav_of(tmp_path, "c.wav", speech_like(0.5, 16000, 3))
        out = tmp_path / "mask.npy"
        out.write_bytes(b"earlier")

        def torn_save(fh, array):
            fh.write(b"torn")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "save", torn_save)
        with pytest.raises(KeyboardInterrupt):
            main(["iam", c, c, "-o", str(out)])
        assert out.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.wav", "mask.npy"]

    # A kept segment against the longer session file it was cut from is two
    # grid shapes; no crop picks a part of the longer one.
    def test_two_lengths_are_bad_input(self, tmp_path, capsys):
        clean = speech_like(1.0, 16000, 3)
        c = wav_of(tmp_path, "c.wav", clean[:8000])
        m = wav_of(tmp_path, "m.wav", clean)
        out = tmp_path / "mask.npy"
        assert main(["iam", c, m, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "iam: shape mismatch: (33, 257) vs (64, 257)\n"
        assert captured.out == ""
        assert not out.exists()

    def test_silent_mixture_is_bad_input(self, tmp_path, capsys):
        c = wav_of(tmp_path, "c.wav", speech_like(0.5, 16000, 3))
        silent = wav_of(tmp_path, "silent.wav", np.zeros(8000))
        out = tmp_path / "mask.npy"
        assert main(["iam", c, silent, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "iam: mixture grid is all-zero\n"
        assert captured.out == ""
        assert not out.exists()

    def test_clip_max_is_checked_before_either_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.wav")
        assert main(["iam", missing, missing, "-o", str(tmp_path / "m.npy"),
                     "--clip-max", "0"]) == 2
        assert capsys.readouterr().err == "pseudolabel iam: clip_max must be positive, got 0.0\n"

    def test_nan_clip_max_is_usage_error(self, tmp_path, capsys):
        c = wav_of(tmp_path, "c.wav", speech_like(0.5, 16000, 3))
        out = tmp_path / "mask.npy"
        assert main(["iam", c, c, "-o", str(out), "--clip-max", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "pseudolabel iam: clip_max must be positive, got nan\n"
        assert captured.out == ""
        assert not out.exists()


class TestSimulateAndRun:
    def test_end_to_end(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "3", "--seed", "11",
                     "--min-duration-s", "1.0", "--max-duration-s", "2.0"]) == 0
        out_dir = tmp_path / "out"
        assert main(["run", "--manifest", str(corpus / "manifest.jsonl"),
                     "--out", str(out_dir)]) == 0
        results = [json.loads(l) for l in (out_dir / "results.jsonl").read_text().splitlines()]
        assert len(results) == 3
        truth = [json.loads(l) for l in (corpus / "truth.jsonl").read_text().splitlines()]
        for row, t in zip(results, truth):
            assert row["status"] == "ok"
            assert row["offset_samples"] == -t["delay"]
            assert row["kept"] is True
        summary = capsys.readouterr().out
        assert "3 segments" in summary

    # What the align command printed: a one-row manifest over the whole pair gives
    # gcc_phat's offset and peak ratio on the same samples, at run's max_lag_s.
    def test_one_row_manifest_gives_the_offset_and_peak_ratio(self, tmp_path):
        rng = np.random.default_rng(2)
        s1 = rng.standard_normal(16000)
        y = 0.5 * np.concatenate((np.zeros(160), s1))[:16000]
        a, b = wav_of(tmp_path, "c.wav", s1), wav_of(tmp_path, "f.wav", y)
        row = {"session_id": "s", "speaker_id": "a", "start_s": 0, "end_s": 2.0,
               "close_talk_path": a, "farfield_path": b}
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(row) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
        (result,) = map(json.loads, (out / "results.jsonl").read_text().splitlines())
        close, far, rate = read_pair(a, b)
        want = gcc_phat(close, far, max_lag=round(PipelineConfig().max_lag_s * rate))
        assert result["offset_samples"] == want.offset_samples == -160
        assert result["peak_ratio"] == want.peak_ratio > 1.0

    def test_rate_comes_from_the_files(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "3", "--seed", "11",
                     "--sample-rate", "8000", "--min-duration-s", "1.0",
                     "--max-duration-s", "1.5"]) == 0
        manifest = str(corpus / "manifest.jsonl")
        out_dir = tmp_path / "out"
        assert main(["run", "--manifest", manifest, "--out", str(out_dir)]) == 0
        results = [json.loads(l) for l in (out_dir / "results.jsonl").read_text().splitlines()]
        truth = [json.loads(l) for l in (corpus / "truth.jsonl").read_text().splitlines()]
        assert len(results) == 3
        for row, t in zip(results, truth):
            assert row["status"] == "ok" and row["kept"] is True
            assert row["offset_samples"] == -t["delay"]
            assert read_wav(row["output_path"]).sample_rate == 8000
        # the rate is no setting of run's
        assert main(["run", "--manifest", manifest, "--out", str(out_dir),
                     "--sample-rate", "8000"]) == 2

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "pseudolabel simulate: count must be >= 0, got -3"
        assert captured.out == ""
        assert not corpus.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--snr-min-db", "nan", "snr_range_db must be finite with low <= high, got (nan, 20.0)"),
        ("--snr-max-db", "inf", "snr_range_db must be finite with low <= high, got (0.0, inf)"),
        ("--min-duration-s", "nan",
         "duration_range must be finite with 0 < low <= high, got (nan, 8.0)"),
        ("--max-duration-s", "inf",
         "duration_range must be finite with 0 < low <= high, got (4.0, inf)"),
        ("--max-decay-ms", "nan", "max_decay_ms must be >= 0 and finite, got nan"),
        ("--sample-rate", "0", "sample_rate must be positive, got 0"),
    ], ids=["snr_min_nan", "snr_max_inf", "min_duration_nan", "max_duration_inf",
            "max_decay_nan", "rate_0"])
    def test_bad_parameter_is_usage_error(self, tmp_path, capsys, flag, value, message):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"pseudolabel simulate: {message}\n"
        assert captured.out == ""
        assert not corpus.exists()

    # At 1.2 GHz a float32 file's byte rate overflows its header's 32-bit field.
    # The durations keep any corpus that does get made to a few samples.
    def test_rate_past_the_wav_header_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "1",
                     "--sample-rate", "1200000000", "--min-duration-s", "1e-9",
                     "--max-duration-s", "2e-9", "--max-decay-ms", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("pseudolabel simulate: out of range for a WAV header: 1 channel(s) "
                                "of 32-bit samples at 1200000000 Hz, 0 data bytes\n")
        assert captured.out == ""
        assert not corpus.exists()

    def test_missing_manifest_is_batch_failure(self, tmp_path):
        assert main(["run", "--manifest", str(tmp_path / "no.jsonl"),
                     "--out", str(tmp_path / "o")]) == 1

    # A manifest's relative paths resolve against the working directory, so
    # run from a sibling directory every row fails; the rows are still written.
    def test_every_row_failed_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "c1", "--count", "3", "--seed", "11",
                     "--min-duration-s", "1.0", "--max-duration-s", "1.5"]) == 0
        (tmp_path / "sibling").mkdir()
        monkeypatch.chdir(tmp_path / "sibling")
        capsys.readouterr()
        assert main(["run", "--manifest", "../c1/manifest.jsonl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "3 segments: 0 kept, 0 discarded, 3 failed -> out/results.jsonl\n"
        assert captured.err == ("run: every segment failed; most common (1 of 3): "
                                "[Errno 2] No such file or directory: 'c1/s000_close.wav'\n")
        rows = [json.loads(l) for l in Path("out/results.jsonl").read_text().splitlines()]
        assert [row["status"][:16] for row in rows] == ["error: [Errno 2]"] * 3
        Path("empty.jsonl").write_text("")
        assert main(["run", "--manifest", "empty.jsonl"]) == 0  # no row, so none failed

    def test_infinite_manifest_end_is_bad_manifest(self, tmp_path, capsys):
        row = {"session_id": "s", "speaker_id": "a", "start_s": 0.0, "end_s": math.inf,
               "close_talk_path": "c.wav", "farfield_path": "f.wav"}
        (tmp_path / "m.jsonl").write_text(json.dumps(row) + "\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(out_dir)]) == 1
        assert "bad manifest: line 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_undecodable_manifest_is_bad_manifest(self, tmp_path, capsys):
        (tmp_path / "m.jsonl").write_bytes(b'{"session_id": "Zo\xc3\n')  # a torn character
        out_dir = tmp_path / "o"
        assert main(["run", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.strip() == "run: bad manifest: line 1: not UTF-8 text"
        assert not out_dir.exists()

    def test_missing_required_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run"]) == 2
        assert capsys.readouterr().err == \
               "pseudolabel run: --manifest is required (flag or config file)\n"
        assert not any(tmp_path.iterdir())

    # StftConfig alone checks the window kind, so a flag and a config file
    # fail with one line, before anything is read or written.
    @pytest.mark.parametrize("command", ["run", "iam"])
    def test_bad_window_is_the_config_files_one_line(self, tmp_path, capsys, monkeypatch,
                                                     command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.cfg").write_text("window = foo\n")
        assert main(["run", "--config", "w.cfg", "--manifest", "m"]) == 2
        from_file = capsys.readouterr().err
        assert from_file == ("pseudolabel run: unsupported window kind 'foo'; "
                             f"expected one of {WINDOW_KINDS}\n")
        argv = {"run": ["run", "--manifest", "m"],
                "iam": ["iam", "c.wav", "m.wav", "-o", "mask.npy"]}[command]
        assert main(argv + ["--window", "foo"]) == 2
        captured = capsys.readouterr()
        assert captured.err == from_file.replace("run:", f"{command}:")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["w.cfg"]
        assert main([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        assert all(kind in help_text for kind in WINDOW_KINDS)

    def test_output_dir_that_is_a_file_is_input_error(self, tmp_path, capsys):
        (tmp_path / "m.jsonl").write_text("")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(taken)]) == 1
        assert capsys.readouterr().err == f"run: [Errno 17] File exists: {str(taken)!r}\n"

    def test_nan_threshold_is_usage_error(self, tmp_path):
        (tmp_path / "m.jsonl").write_text("")
        out_dir = tmp_path / "o"
        assert main(["run", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
                     "--snr-threshold-db", "nan"]) == 2
        assert not out_dir.exists()

    def test_simulate_defaults_are_the_signature_defaults(self, monkeypatch):
        calls = []

        @functools.wraps(simulate_corpus)  # keeps the signature the flags are built from
        def fake(out_dir, **kwargs):
            calls.append((out_dir, kwargs))
            return "m", "t"

        monkeypatch.setattr("pseudolabel.cli.simulate_corpus", fake)
        assert main(["simulate", "--out", "X"]) == 0
        params = inspect.signature(simulate_corpus).parameters
        (out_dir, kwargs), = calls
        assert out_dir == "X" and kwargs.pop("count") == 50
        assert sorted(kwargs) == ["delay_range", "duration_range", "max_decay_ms",
                                  "sample_rate", "seed", "snr_range_db"]
        assert kwargs == {name: params[name].default for name in kwargs}

    # simulate_corpus owns the low end of the delay range; --max-delay sets the high end.
    def test_simulate_delay_low_end_is_simulate_corpus_default(self, monkeypatch):
        calls = []
        real = inspect.signature(simulate_corpus)
        high = real.parameters["delay_range"].default[1]

        def fake(out_dir, **kwargs):
            calls.append(kwargs["delay_range"])
            return "m", "t"

        fake.__signature__ = real.replace(parameters=[
            p.replace(default=(100, high)) if p.name == "delay_range" else p
            for p in real.parameters.values()])
        monkeypatch.setattr("pseudolabel.cli.simulate_corpus", fake)
        assert main(["simulate", "--out", "X"]) == 0
        assert main(["simulate", "--out", "X", "--max-delay", "900"]) == 0
        assert calls == [(100, high), (100, 900)]


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "# pipeline settings\n"
            "n_fft = 256\n"
            "hop=128\n"
            "window = hann\n"
            "snr_threshold_db = -5.0  # stricter\n"
            "workers = 2\n"
        )
        values = parse_config_file(cfg)
        assert values == {"n_fft": 256, "hop": 128, "window": "hann",
                          "snr_threshold_db": -5.0, "workers": 2}

    # A "#" opens a comment only at the start of a line or after whitespace.
    def test_hash_inside_a_value_is_part_of_it(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("  # indented comment\n"
                       "out = /data/run#3\t# tab before the comment\n"
                       "manifest = /data/take#2/m.jsonl\n")
        assert parse_config_file(cfg) == {"out": "/data/run#3",
                                          "manifest": "/data/take#2/m.jsonl"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(cfg)

    def test_flags_override_config(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "1", "--seed", "2",
                     "--min-duration-s", "1.0", "--max-duration-s", "1.5"]) == 0
        cfg = tmp_path / "p.cfg"
        out_dir = tmp_path / "from_config"
        cfg.write_text(f"manifest = {corpus / 'manifest.jsonl'}\n"
                       f"out = {out_dir}\n"
                       "snr_threshold_db = 1000\n")
        # config alone: threshold 1000 discards everything
        assert main(["run", "--config", str(cfg)]) == 0
        rows = [json.loads(l) for l in (out_dir / "results.jsonl").read_text().splitlines()]
        assert rows[0]["kept"] is False
        # flag overrides the config threshold
        override_dir = tmp_path / "from_flag"
        assert main(["run", "--config", str(cfg), "--out", str(override_dir),
                     "--snr-threshold-db", "-10"]) == 0
        rows = [json.loads(l) for l in (override_dir / "results.jsonl").read_text().splitlines()]
        assert rows[0]["kept"] is True

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("not a key value line\n")
        assert main(["run", "--config", str(cfg), "--manifest", "m", "--out", "o"]) == 2

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(missing), "--manifest", "m",
                     "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == ("pseudolabel run: cannot read config file: [Errno 2] "
                                           f"No such file or directory: {str(missing)!r}\n")
        assert not out_dir.exists()

    def test_bad_value_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("# pipeline settings\nworkers = two\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--manifest", "m", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(
            f"pseudolabel run: {cfg}:2: bad value for workers: ")
        assert not out_dir.exists()


@pytest.fixture
def run_configs(tmp_path, monkeypatch):
    """Stub out the batch; each ``run`` appends the config it built.

    Runs in ``tmp_path`` with an empty manifest ``m.jsonl``.
    """
    configs = []

    def fake_run_tls(manifest, config):
        configs.append(config)
        return []

    monkeypatch.setattr("pseudolabel.cli.run_tls", fake_run_tls)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.jsonl").write_text("")
    return configs


# One non-default value per public ``run`` key.
_NON_DEFAULTS = {
    "out": "elsewhere", "workers": "2", "n_fft": "1024", "hop": "128",
    "window": "hann", "taps": "3", "xi": "0.02", "diag_load": "1e-05", "max_lag_s": "0.25",
    "snr_threshold_db": "-5.0",
}


def _field_values(config):
    values = {}
    for obj in (config, config.stft, config.mflf):
        for f in dataclasses.fields(obj):
            if f.name not in ("stft", "mflf"):
                values[(type(obj).__name__, f.name)] = getattr(obj, f.name)
    return values


class TestRunConfig:
    def test_dataclasses_supply_every_default(self, run_configs):
        assert main(["run", "--manifest", "m.jsonl", "--out", "o"]) == 0
        assert run_configs == [PipelineConfig(output_dir="o", worker_count=1)]

    # An unset out resolves like every other key: flag, then file, then
    # PipelineConfig.output_dir, under the working directory.
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_falls_back_to_the_dataclass_default(self, tmp_path, run_configs, source):
        (tmp_path / "p.cfg").write_text("manifest = m.jsonl\n")
        argv = {"flag": ["--manifest", "m.jsonl"], "config": ["--config", "p.cfg"]}[source]
        assert main(["run"] + argv) == 0
        assert run_configs == [PipelineConfig()]
        assert (tmp_path / PipelineConfig.output_dir / "results.jsonl").is_file()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_each_field_set_by_exactly_one_key(self, tmp_path, run_configs, source):
        base = ["run", "--manifest", "m.jsonl", "--out", "o"]
        assert main(base) == 0
        baseline = _field_values(run_configs.pop())
        setters = {}
        for key, value in _NON_DEFAULTS.items():
            if source == "flag":
                argv = base + ["--" + key.replace("_", "-"), value]
            else:
                cfg = tmp_path / f"{key}.cfg"
                cfg.write_text(f"manifest = m.jsonl\nout = o\n{key} = {value}\n")
                argv = ["run", "--config", str(cfg)]
            assert main(argv) == 0
            changed = [field for field, v in _field_values(run_configs.pop()).items()
                       if v != baseline[field]]
            assert len(changed) == 1, (key, changed)
            setters.setdefault(changed[0], []).append(key)
        assert sorted(setters) == sorted(baseline)
        assert all(len(keys) == 1 for keys in setters.values()), setters

    def test_explicit_workers_ignore_invalid_env(self, tmp_path, run_configs, monkeypatch):
        monkeypatch.setenv("PSEUDOLABEL_WORKERS", "many")
        base = ["run", "--manifest", "m.jsonl", "--out", "o"]
        assert main(base + ["--workers", "1"]) == 0
        (tmp_path / "p.cfg").write_text("workers = 2\n")
        assert main(base + ["--config", "p.cfg"]) == 0
        assert [c.worker_count for c in run_configs] == [1, 2]
        # with workers unset the environment is not read; the dataclass default holds
        assert main(base) == 0
        assert run_configs[-1].worker_count == PipelineConfig.worker_count == 1


def _signature_defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


class TestFlagDefaults:
    def test_each_flag_default_is_its_owners(self):
        subparsers, = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        flags = {command: {a.dest: a.default for a in sub._actions
                           if a.option_strings and a.dest != "help"}
                 for command, sub in subparsers.choices.items()}
        assert list(flags) == ["run", "simulate", "iam"]
        stft, sim = StftConfig(), _signature_defaults(simulate_corpus)
        # run's flags default to unset, so its config file and the dataclasses
        # fill in (TestRunConfig); required flags have no default to own.
        assert set(flags["run"].values()) == {None}
        assert flags["iam"] == {"out": None, "n_fft": stft.n_fft, "hop": stft.hop,
                                "window": stft.window_kind,
                                "clip_max": _signature_defaults(iam_target)["clip_max"]}
        simulate = flags["simulate"]
        assert simulate.pop("out") is None
        simulate.pop("count")  # simulate_corpus has no default count; the CLI owns it
        assert simulate == {
            "seed": sim["seed"], "sample_rate": sim["sample_rate"],
            "min_duration_s": sim["duration_range"][0],
            "max_duration_s": sim["duration_range"][1],
            "snr_min_db": sim["snr_range_db"][0], "snr_max_db": sim["snr_range_db"][1],
            "max_delay": sim["delay_range"][1], "max_decay_ms": sim["max_decay_ms"],
        }

    def test_library_defaults_read_their_owners(self):
        assert _signature_defaults(mca_grad)["alpha"] == _signature_defaults(mca_loss)["alpha"]
        assert _signature_defaults(solve_mflf)["diag_load"] == MflfConfig().diag_load
        assert _signature_defaults(filter_pairs)["threshold_db"] == \
               PipelineConfig().snr_threshold_db
