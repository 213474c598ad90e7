import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudolabel
from pseudolabel import PipelineConfig, pipeline
from pseudolabel.audio_io import AudioClip, read_wav, write_wav
from pseudolabel.cli import _RUN_KEYS, build_parser, main, parse_config_file
from pseudolabel.dsp import WINDOW_KINDS
from pseudolabel.level_align import MflfConfig, solve_mflf
from pseudolabel.losses import mca_grad, mca_loss
from pseudolabel.pipeline import filter_pairs, read_pair
from pseudolabel.synth import simulate_corpus
from pseudolabel.time_align import gcc_phat


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

    # The deleted commands (align, iam, snr, mca) are unknown like any other name.
    @pytest.mark.parametrize("command", ["frobnicate", "align", "iam", "snr", "mca"])
    def test_unknown_command_is_usage_error(self, capsys, command):
        assert main([command, "a", "b"]) == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{command}'" in err and "Traceback" not in err

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

    # A row is a pure function of its inputs, so the output directories match file for
    # file. At hop 128, n_fft // hop = 4 phases reach istft's edges, and solve_mflf runs
    # unloaded. Each case starts 2 processes, and none outlives its run.
    @pytest.mark.parametrize("flags", [[], ["--hop", "128", "--diag-load", "0", "--taps", "3"]],
                             ids=["defaults", "hop128_unloaded_3taps"])
    def test_output_is_the_same_at_1_and_2_workers(self, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "corpus", "--count", "3", "--seed", "1",
                     "--min-duration-s", "1", "--max-duration-s", "2"]) == 0
        trees = []
        for workers in ("1", "2"):
            assert main(["run", "--manifest", "corpus/manifest.jsonl", "--out", "out",
                         "--workers", workers, *flags]) == 0
            os.replace("out", f"out{workers}")  # the same --out path, so the rows can match
            trees.append({p.name: p.read_bytes() for p in Path(f"out{workers}").iterdir()})
        assert trees[0] == trees[1]
        assert "results.jsonl" in trees[0] and not [n for n in trees[0] if n.endswith(".partial")]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    # An exception with an empty message, such as the MemoryError of a read too large
    # to allocate, names its type in the row and in the all-failed line.
    def test_empty_error_message_names_its_type(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(pipeline, "read_pair", out_of_memory)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(
            json.dumps({"session_id": "s", "speaker_id": "a", "start_s": float(i),
                        "end_s": i + 1.0, "close_talk_path": "c.wav",
                        "farfield_path": "f.wav"}) + "\n" for i in range(3)))
        out_dir = tmp_path / "o"
        assert main(["run", "--manifest", str(manifest), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == \
            "run: every segment failed; most common (3 of 3): MemoryError\n"
        rows = [json.loads(l) for l in (out_dir / "results.jsonl").read_text().splitlines()]
        assert [row["status"] for row in rows] == ["error: MemoryError"] * 3

    # A worker that dies loses the batch: one line, exit 1, no results.jsonl and no
    # child left. Any other exception from run_tls keeps its traceback. Starts 2
    # processes in all.
    @pytest.mark.skipif(not pipeline._CAN_FORK, reason="run_tls forks no worker here")
    def test_dead_worker_is_one_line(self, tmp_path, capsys, monkeypatch):
        def dies_on_row_2(seg, clash, config):
            if seg.start_s == 2.0:
                os._exit(9)
            return pipeline.PseudoLabelRecord(seg)

        monkeypatch.setattr(pipeline, "_process_segment", dies_on_row_2)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(
            json.dumps({"session_id": "s", "speaker_id": "a", "start_s": float(i),
                        "end_s": i + 1.0, "close_talk_path": "c.wav",
                        "farfield_path": "f.wav"}) + "\n" for i in range(4)))
        out_dir = tmp_path / "o"
        argv = ["run", "--manifest", str(manifest), "--out", str(out_dir), "--workers", "2"]
        assert issubclass(pipeline.WorkerDiedError, RuntimeError)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "run: a pool worker died (exit status 9) before returning rows 2-3\n"
        assert captured.out == ""
        assert not (out_dir / "results.jsonl").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        def fails(manifest, config):
            raise RuntimeError("not a dead worker")

        monkeypatch.setattr("pseudolabel.cli.run_tls", fails)
        with pytest.raises(RuntimeError, match="^not a dead worker$"):
            main(argv)

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

    # An empty output directory would be the working directory: PipelineConfig rejects
    # it, from the flag and from the config file, before anything is written.
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_is_usage_error(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        Path("m.jsonl").write_text("")
        Path("o.cfg").write_text("out =\n")
        given = ["--out", ""] if source == "flag" else ["--config", "o.cfg"]
        assert main(["run", "--manifest", "m.jsonl", *given]) == 2
        captured = capsys.readouterr()
        assert captured.err == "pseudolabel run: output_dir must not be empty\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "o.cfg"]

    # StftConfig alone checks the window kind, so a flag and a config file
    # fail with one line, before anything is read or written.
    @pytest.mark.parametrize("command", ["run"])
    def test_bad_window_is_the_config_files_one_line(self, tmp_path, capsys, monkeypatch,
                                                     command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.cfg").write_text("window = foo\n")
        assert main(["run", "--config", "w.cfg", "--manifest", "m"]) == 2
        from_file = capsys.readouterr().err
        assert from_file == ("pseudolabel run: unsupported window kind 'foo'; "
                             f"expected one of {WINDOW_KINDS}\n")
        assert main(["run", "--manifest", "m", "--window", "foo"]) == 2
        captured = capsys.readouterr()
        assert captured.err == from_file
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

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("\ufeffhop = 128\n", encoding="utf-8")
        assert parse_config_file(cfg) == {"hop": 128}

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

    # One file is one config: the second setting of a key is a fault, not an override.
    def test_key_set_twice_names_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("hop = 128\nhop = 256\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--manifest", "m", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"pseudolabel run: {cfg}:2: hop is already set on line 1\n"
        assert not out_dir.exists()

    def test_non_utf8_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_bytes(b"# pipeline settings\nout = caf\xe9\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--manifest", "m", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"pseudolabel run: {cfg}:2: not UTF-8 text\n"
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
                lines = {"manifest": "m.jsonl", "out": "o", key: value}  # each key once
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
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
        assert list(flags) == ["run", "simulate"]
        sim = _signature_defaults(simulate_corpus)
        # run's flags default to unset, so its config file and the dataclasses
        # fill in (TestRunConfig); required flags have no default to own. Each key's
        # help is its row's, followed by the default of the field it sets.
        assert set(flags["run"].values()) == {None}
        helps = {a.dest: a.help for a in subparsers.choices["run"]._actions}
        for key, (owner, name, text) in _RUN_KEYS.items():
            assert helps[key] == f"{text} (default: {getattr(owner(), name)})"
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
