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
from pseudolabel.audio_io import AudioClip, write_wav
from pseudolabel.cli import build_parser, main, parse_config_file
from pseudolabel.dsp import StftConfig
from pseudolabel.gridio import load_grid, save_grid
from pseudolabel.level_align import MflfConfig, solve_mflf
from pseudolabel.losses import iam_target, mca_grad, mca_loss
from pseudolabel.synth import SynthScenario, simulate_corpus, speech_like, synth_pair


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


@pytest.mark.parametrize("command", ["snr", "align", "iam"])
def test_two_wav_commands_reject_differing_rates(tmp_path, capsys, command):
    x = speech_like(0.5, 16000, 0)
    a = wav_of(tmp_path, "a16k.wav", x)
    b = wav_of(tmp_path, "b8k.wav", x[::2], rate=8000)
    extra = ["-o", str(tmp_path / "mask.grid")] if command == "iam" else []
    assert main([command, a, b] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"{command}: sample rates differ"
    assert captured.out == ""
    assert not (tmp_path / "mask.grid").exists()


class TestSnrCommand:
    def test_identical_files_print_inf(self, tmp_path, capsys):
        x = speech_like(0.5, 16000, 0)
        a = wav_of(tmp_path, "a.wav", x)
        assert main(["snr", a, a]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_finite_value(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(8000)
        n = rng.standard_normal(8000)
        n *= np.sqrt(np.sum(s**2) / np.sum(n**2))
        a = wav_of(tmp_path, "a.wav", s)
        b = wav_of(tmp_path, "b.wav", s + n)
        assert main(["snr", a, b]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.0, abs=0.01)

    def test_length_mismatch_is_a_bad_pair(self, tmp_path, capsys):
        x = speech_like(0.5, 16000, 0)
        a = wav_of(tmp_path, "a.wav", x)
        b = wav_of(tmp_path, "b.wav", x[:-100])
        assert main(["snr", a, b]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "snr: length mismatch: (8000,) vs (7900,)"
        assert captured.out == ""

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["snr", str(tmp_path / "no.wav"), str(tmp_path / "no2.wav")]) == 1


class TestAlignCommand:
    def test_reports_offset(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        s1 = rng.standard_normal(16000)
        y = 0.5 * np.concatenate((np.zeros(160), s1))[:16000]
        a = wav_of(tmp_path, "c.wav", s1)
        b = wav_of(tmp_path, "f.wav", y)
        assert main(["align", a, b]) == 0
        out = capsys.readouterr().out
        assert "offset_samples=-160" in out
        assert "peak_ratio=" in out


    @pytest.mark.parametrize("max_lag_s", ["inf", "nan", "-1", "0"])
    def test_bad_max_lag_is_usage_error_before_any_read(self, tmp_path, capsys, max_lag_s):
        missing = str(tmp_path / "missing.wav")
        assert main(["align", missing, missing, "--max-lag-s", max_lag_s]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("pseudolabel align: max_lag_s must be positive and finite")
        assert captured.out == ""


class TestMcaCommand:
    def test_report_line(self, tmp_path, capsys):
        a = tmp_path / "a.grid"
        b = tmp_path / "b.grid"
        save_grid(a, np.ones((2, 2)))
        save_grid(b, np.full((2, 2), 2.0))
        assert main(["mca", str(a), str(b), "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "mse=1" in out
        assert "cossim=0" in out

    def test_bad_grid_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.grid"
        bad.write_bytes(b"nope")
        good = tmp_path / "good.grid"
        save_grid(good, np.ones((2, 2)))
        assert main(["mca", str(bad), str(good)]) == 2


class TestIamCommand:
    def test_writes_mask_grid(self, tmp_path, capsys):
        clean = speech_like(0.5, 16000, 3)
        mix = clean + 0.1 * np.random.default_rng(4).standard_normal(clean.size)
        c = wav_of(tmp_path, "c.wav", clean)
        m = wav_of(tmp_path, "m.wav", mix)
        out = tmp_path / "mask.grid"
        assert main(["iam", c, m, "-o", str(out), "--clip-max", "2.0"]) == 0
        mask = load_grid(out)
        assert mask.ndim == 2
        assert mask.min() >= 0.0 and mask.max() <= 2.0


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

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--out", str(corpus), "--count", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "pseudolabel simulate: count must be >= 0, got -3"
        assert captured.out == ""
        assert not corpus.exists()

    def test_missing_manifest_is_batch_failure(self, tmp_path):
        assert main(["run", "--manifest", str(tmp_path / "no.jsonl"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_infinite_manifest_end_is_bad_manifest(self, tmp_path, capsys):
        row = {"session_id": "s", "speaker_id": "a", "start_s": 0.0, "end_s": math.inf,
               "close_talk_path": "c.wav", "farfield_path": "f.wav"}
        (tmp_path / "m.jsonl").write_text(json.dumps(row) + "\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(out_dir)]) == 1
        assert "bad manifest: line 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_required_flags(self, tmp_path):
        assert main(["run"]) == 2

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
    "out": "elsewhere", "workers": "2", "sample_rate": "8000", "n_fft": "1024", "hop": "128",
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
        stft, sim = StftConfig(), _signature_defaults(simulate_corpus)
        # run's flags default to unset, so its config file and the dataclasses
        # fill in (TestRunConfig); required flags have no default to own.
        assert set(flags["run"].values()) == {None}
        assert flags["align"] == {"max_lag_s": PipelineConfig().max_lag_s}
        assert flags["iam"] == {"out": None, "n_fft": stft.n_fft, "hop": stft.hop,
                                "window": stft.window_kind,
                                "clip_max": _signature_defaults(iam_target)["clip_max"]}
        assert flags["mca"] == {"alpha": _signature_defaults(mca_loss)["alpha"]}
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
        assert _signature_defaults(simulate_corpus)["sample_rate"] == StftConfig().sample_rate
