import dataclasses
import errno
import json
import math
import os
import pickle
import platform
import signal
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pseudolabel import audio_io, pipeline
from pseudolabel.audio_io import AudioClip, ManifestError, SegmentRecord, read_wav, write_wav
from pseudolabel.cli import main
from pseudolabel.dsp import StftConfig
from pseudolabel.level_align import MflfConfig, level_align
from pseudolabel.pipeline import (
    PipelineConfig,
    estimate_snr,
    read_pair,
    read_results,
    record_from_dict,
    record_to_dict,
    run_tls,
    write_results,
)
from pseudolabel import PseudoLabelRecord
from pseudolabel.synth import SynthScenario, simulate_corpus, speech_like, synth_pair
from pseudolabel.time_align import gcc_phat
from pseudolabel import parse_segments
from rawwav import raw_wav_bytes


def write_scenario(tmp_path, name, delay=160, gain=0.5, snr_db=10.0, seconds=3.0, seed=0):
    clean = speech_like(seconds, 16000, seed)
    scenario = SynthScenario(delay=delay, gain=gain, noise_snr_db=snr_db, seed=seed + 1000)
    close, far, direct = synth_pair(clean, scenario)
    close_path = tmp_path / f"{name}_close.wav"
    far_path = tmp_path / f"{name}_far.wav"
    write_wav(close_path, AudioClip(close, 16000), "float32")
    write_wav(far_path, AudioClip(far, 16000), "float32")
    seg = SegmentRecord(name, "spk", 0.0, far.size / 16000, str(close_path), str(far_path))
    gt_snr = 10 * math.log10(np.sum(direct**2) / np.sum((far - direct) ** 2)) if math.isfinite(snr_db) else math.inf
    return seg, gt_snr


needs_fork = pytest.mark.skipif(not pipeline._CAN_FORK, reason="run_tls forks no worker here")


class TestRunTls:
    def test_empty_manifest(self, tmp_path):
        records = run_tls([], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert records == []

    def test_synthetic_segment_recovers_truth(self, tmp_path):
        seg, gt_snr = write_scenario(tmp_path, "a", delay=160, gain=0.5, snr_db=10.0)
        config = PipelineConfig(output_dir=str(tmp_path / "out"))
        records = run_tls([seg], config)
        assert len(records) == 1
        rec = records[0]
        assert rec.status == "ok"
        assert rec.offset_samples == -160
        assert rec.snr_db == pytest.approx(gt_snr, abs=1.0)
        assert rec.kept
        assert rec.output_path is not None
        pseudo = read_wav(rec.output_path)
        assert pseudo.sample_rate == 16000

    # A kept label is written to <name>.partial, then renamed: a write that fails
    # leaves neither name, and the row fails with the write's error.
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        written = []

        def short_write(path, clip, encoding):
            written.append(Path(path).name)
            Path(path).write_bytes(b"RIFF")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        seg, _ = write_scenario(tmp_path, "w", seed=7)
        out = tmp_path / "out"
        monkeypatch.setattr(pipeline, "write_wav", short_write)
        (rec,) = run_tls([seg], PipelineConfig(output_dir=str(out)))
        assert written == [pipeline._output_name(seg) + ".partial"]
        assert rec.status == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert not rec.kept and rec.output_path is None
        assert list(out.iterdir()) == []
        monkeypatch.undo()
        (rec,) = run_tls([seg], PipelineConfig(output_dir=str(out)))
        assert rec.kept and [p.name for p in out.iterdir()] == [pipeline._output_name(seg)]

    def test_low_snr_segment_discarded(self, tmp_path):
        seg, _ = write_scenario(tmp_path, "b", delay=80, gain=0.4, snr_db=-20.0, seed=3)
        records = run_tls([seg], PipelineConfig(output_dir=str(tmp_path / "out")))
        rec = records[0]
        assert rec.status == "ok"
        assert not rec.kept
        assert rec.snr_db < -10.0
        assert rec.output_path is None

    def test_missing_file_recorded_not_fatal(self, tmp_path):
        seg_ok, _ = write_scenario(tmp_path, "c", seed=5)
        seg_bad = SegmentRecord("bad", "spk", 0.0, 1.0, str(tmp_path / "nope.wav"),
                                str(tmp_path / "nope2.wav"))
        records = run_tls([seg_bad, seg_ok], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert len(records) == 2
        assert records[0].status.startswith("error:")
        assert not records[0].kept
        assert records[0].snr_db is None
        assert records[1].status == "ok"

    def test_rate_mismatch_reported(self, tmp_path):
        seg, _ = write_scenario(tmp_path, "d", seed=6)
        far = read_wav(seg.farfield_path)
        write_wav(seg.farfield_path, AudioClip(far.channels[0][::2], 8000), "float32")
        records = run_tls([seg], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert records[0].status.startswith("error:")
        assert "rate" in records[0].status

    def test_completeness_partition(self, tmp_path):
        segs = []
        for i, snr in enumerate([15.0, -25.0, 8.0]):
            seg, _ = write_scenario(tmp_path, f"e{i}", snr_db=snr, seed=10 + i)
            segs.append(seg)
        segs.append(SegmentRecord("missing", "spk", 0.0, 1.0, "no.wav", "no2.wav"))
        records = run_tls(segs, PipelineConfig(output_dir=str(tmp_path / "out")))
        assert len(records) == len(segs)
        kept = [r for r in records if r.kept]
        discarded = [r for r in records if not r.kept and r.status == "ok"]
        failed = [r for r in records if r.status != "ok"]
        assert len(kept) + len(discarded) + len(failed) == len(segs)
        assert len(kept) == 2 and len(discarded) == 1 and len(failed) == 1

    def test_worker_pool_matches_serial(self, tmp_path):
        manifest_path, _ = simulate_corpus(tmp_path / "corpus", count=6, seed=21,
                                           duration_range=(1.0, 2.0))
        manifest = parse_segments(manifest_path)
        serial = run_tls(manifest, PipelineConfig(worker_count=1, output_dir=str(tmp_path / "o1")))
        pooled = run_tls(manifest, PipelineConfig(worker_count=4, output_dir=str(tmp_path / "o4")))
        for a, b in zip(serial, pooled):
            assert a.offset_samples == b.offset_samples
            assert a.snr_db == b.snr_db
            assert a.kept == b.kept
            assert a.status == b.status

    @needs_fork
    def test_pool_is_never_larger_than_the_manifest(self, tmp_path, monkeypatch):
        segs = [write_scenario(tmp_path, f"p{i}", seed=60 + i)[0] for i in range(2)]
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)  # in the parent, before the child exists
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        out = str(tmp_path / "out")  # one directory, so output_path compares equal too
        pooled = run_tls(segs, PipelineConfig(worker_count=8, output_dir=out))
        assert len(forks) == 2
        serial = run_tls(segs, PipelineConfig(worker_count=1, output_dir=out))
        run_tls(segs[:1], PipelineConfig(worker_count=8, output_dir=out))
        run_tls([], PipelineConfig(worker_count=8, output_dir=out))
        assert len(forks) == 2  # one worker or one segment: no fork
        assert pooled == serial
        assert [r.status for r in serial] == ["ok", "ok"]

    # Neither a serial nor a pooled run loads an executor's machinery; checked
    # in a fresh interpreter, as this one may have loaded it for another test.
    @staticmethod
    def _modules_a_run_loads(tmp_path, workers):
        seg, _ = write_scenario(tmp_path, "lean", seconds=1.0, seed=70)
        other = dataclasses.replace(seg, speaker_id="other")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(seg.to_dict()) + "\n" + json.dumps(other.to_dict()) + "\n")
        code = f"""
import json, sys
from pseudolabel import PipelineConfig, parse_segments, run_tls
rows = run_tls(parse_segments({str(manifest)!r}),
               PipelineConfig(output_dir={str(tmp_path / "out")!r}, worker_count={workers}))
names = ("concurrent.futures.process", "multiprocessing")
print(json.dumps([[r.status for r in rows], [n for n in names if n in sys.modules]]))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=os.environ | {"PYTHONPATH": str(src)}, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        statuses, loaded = json.loads(proc.stdout)
        assert statuses == ["ok", "ok"]
        return loaded

    def test_serial_run_loads_no_pool(self, tmp_path):
        assert self._modules_a_run_loads(tmp_path, 1) == []

    def test_pooled_run_loads_no_executor(self, tmp_path):
        assert self._modules_a_run_loads(tmp_path, 2) == []

    # 7 rows, so the last chunk is short at 2 and at 3 workers; row 2 fails to
    # read, row 4 collides with row 0, and row 5 is discarded.
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_rows_and_wavs_equal_serial(self, tmp_path, workers):
        segs = [write_scenario(tmp_path, f"m{i}", seconds=1.0, seed=80 + i,
                               snr_db=-20.0 if i == 3 else 10.0)[0] for i in range(5)]
        missing = SegmentRecord("missing", "spk", 0.0, 1.0, "no.wav", "no2.wav")
        manifest = segs[:2] + [missing, segs[2], segs[0]] + segs[3:]
        runs = {}
        for count in (1, workers):
            out = tmp_path / f"out{count}"
            rows = run_tls(manifest, PipelineConfig(worker_count=count, output_dir=str(out)))
            wavs = {p.name: p.read_bytes() for p in out.iterdir()}
            runs[count] = [record_to_dict(r) | {"output_path": r.output_path and Path(r.output_path).name}
                           for r in rows], wavs
        assert runs[workers] == runs[1]
        statuses = [row["status"] for row in runs[1][0]]
        assert statuses[2].startswith("error: ") and statuses[4].startswith("error: output name ")
        assert [row["kept"] for row in runs[1][0]] == [True, True, False, True, False, False, True]
        assert all((row["peak_ratio"] is None) == (row["offset_samples"] is None)
                   for row in runs[1][0])

    @needs_fork
    def test_dead_worker_raises_and_leaves_no_child(self, tmp_path, monkeypatch):
        def dies_on_row_2(seg, clash, config):
            if seg.start_s == 2.0:
                os._exit(3)
            return PseudoLabelRecord(seg)

        monkeypatch.setattr(pipeline, "_process_segment", dies_on_row_2)
        segs = [SegmentRecord("s", "spk", float(i), i + 1.0, "c.wav", "f.wav") for i in range(4)]
        with pytest.raises(RuntimeError, match=r"\(exit status 3\) before returning rows 2-3$"):
            run_tls(segs, PipelineConfig(worker_count=2, output_dir=str(tmp_path / "out")))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # 8 rows at 2 workers are chunks of 4: a worker that dies on row 5 held rows
    # 4-7, and row 4 may have finished before it died. 2 rows are chunks of 1.
    @needs_fork
    @pytest.mark.parametrize("n_rows, dies_on, named", [(8, 5, "rows 4-7"), (2, 1, "row 1")])
    def test_dead_worker_error_names_every_row_of_its_chunk(self, tmp_path, monkeypatch,
                                                            n_rows, dies_on, named):
        def dies(seg, clash, config):
            if seg.start_s == dies_on:
                os._exit(3)
            return PseudoLabelRecord(seg)

        monkeypatch.setattr(pipeline, "_process_segment", dies)
        segs = [SegmentRecord("s", "spk", float(i), i + 1.0, "c.wav", "f.wav")
                for i in range(n_rows)]
        with pytest.raises(RuntimeError, match=rf"\(exit status 3\) before returning {named}$"):
            run_tls(segs, PipelineConfig(worker_count=2, output_dir=str(tmp_path / "out")))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # Every second fork fails, as at a process limit: the first worker is killed
    # and reaped, every pipe is closed, and run exits 1. Starts 2 processes in all.
    @needs_fork
    def test_fork_failure_leaves_no_child_and_no_pipe(self, tmp_path, monkeypatch, capsys):
        real_fork, forks = os.fork, []

        def every_second_fork_fails():
            forks.append(len(forks))
            if len(forks) % 2 == 0:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        monkeypatch.setattr(os, "fork", every_second_fork_fails)
        monkeypatch.setattr(pipeline, "_process_segment",
                            lambda seg, clash, config: PseudoLabelRecord(seg))
        segs = [SegmentRecord("s", "spk", float(i), i + 1.0, "c.wav", "f.wav") for i in range(4)]
        fd_dir = Path("/proc/self/fd")
        open_fds = len(list(fd_dir.iterdir())) if fd_dir.is_dir() else None
        with pytest.raises(BlockingIOError) as exc:
            run_tls(segs, PipelineConfig(worker_count=2, output_dir=str(tmp_path / "out")))
        assert exc.value.errno == errno.EAGAIN
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if open_fds is not None:
            assert len(list(fd_dir.iterdir())) == open_fds
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(seg.to_dict()) + "\n" for seg in segs))
        argv = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "o"), "--workers", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"run: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
        assert len(forks) == 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # A fault in the parent while a worker is busy: it propagates, and the busy
    # worker is killed rather than waited for.
    @needs_fork
    def test_parent_exception_propagates_and_leaves_no_child(self, tmp_path, monkeypatch):
        def stalls_on_row_2(seg, clash, config):
            if seg.start_s == 2.0:
                time.sleep(60)
            return PseudoLabelRecord(seg)

        def load(file):
            raise ZeroDivisionError("fault in the parent")

        monkeypatch.setattr(pipeline, "_process_segment", stalls_on_row_2)
        monkeypatch.setattr(pickle, "load", load)
        segs = [SegmentRecord("s", "spk", float(i), i + 1.0, "c.wav", "f.wav") for i in range(4)]
        t0 = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="fault in the parent"):
            run_tls(segs, PipelineConfig(worker_count=2, output_dir=str(tmp_path / "out")))
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # Ctrl-C sends SIGINT to the whole process group. A worker it reaches exits
    # without a traceback; the parent raises KeyboardInterrupt, or, when only a
    # worker got it, reports that worker's end. Run in a session of its own.
    @needs_fork
    @pytest.mark.parametrize("target", ["worker", "group"])
    def test_interrupt_leaves_no_child_and_no_traceback(self, tmp_path, target):
        ready = tmp_path / "ready"
        ready.mkdir()
        code = f"""
import json, os, signal, time
from pseudolabel import PipelineConfig, SegmentRecord, pipeline

def stall(seg, clash, config):
    open(os.path.join({str(ready)!r}, str(os.getpid())), "w").close()
    time.sleep(60)

signal.signal(signal.SIGINT, signal.default_int_handler)
pipeline._process_segment = stall
segs = [SegmentRecord("s", "spk", float(i), i + 1.0, "c.wav", "f.wav") for i in range(4)]
try:
    pipeline.run_tls(segs, PipelineConfig(worker_count=2, output_dir={str(tmp_path / "out")!r}))
except (KeyboardInterrupt, RuntimeError) as exc:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    print(json.dumps([type(exc).__name__, str(exc), left]))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True,
                                env=os.environ | {"PYTHONPATH": str(src)}, cwd=tmp_path)
        try:
            deadline = time.monotonic() + 30
            while len(list(ready.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            pids = sorted(int(p.name) for p in ready.iterdir())
            assert len(pids) == 2
            if target == "worker":
                os.kill(pids[0], signal.SIGINT)
            else:
                os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert stderr == ""
        kind, message, left = json.loads(stdout)
        if target == "worker":
            assert kind == "RuntimeError"
            assert "(exit status 1) before returning row" in message
        else:
            assert kind == "KeyboardInterrupt"
        assert not left

    def test_multichannel_reference_uses_first_channel(self, tmp_path):
        seg, gt_snr = write_scenario(tmp_path, "mc", delay=120, snr_db=12.0, seed=40)
        far = read_wav(seg.farfield_path)
        stereo = AudioClip(np.vstack([far.channels[0], np.zeros(far.n_samples)]), 16000)
        stereo_path = tmp_path / "mc_far_stereo.wav"
        write_wav(stereo_path, stereo, "float32")
        seg.farfield_path = str(stereo_path)
        records = run_tls([seg], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert records[0].status == "ok"
        assert records[0].offset_samples == -120
        assert records[0].snr_db == pytest.approx(gt_snr, abs=1.0)

    def test_path_separator_in_id_fails_that_row(self, tmp_path):
        good, _ = write_scenario(tmp_path, "g", seed=50)
        escaping = dataclasses.replace(good, session_id="../x")
        nested = dataclasses.replace(good, speaker_id="a/b")
        out_dir = tmp_path / "deep" / "out"
        records = run_tls([escaping, good, nested], PipelineConfig(output_dir=str(out_dir)))
        assert records[1].status == "ok" and records[1].kept
        assert "session_id" in records[0].status and "speaker_id" in records[2].status
        for rec in (records[0], records[2]):
            assert rec.status.startswith("error:")
            assert not rec.kept and rec.output_path is None
        written = {p for p in (tmp_path / "deep").rglob("*") if p.is_file()}
        assert written == {Path(records[1].output_path)}

    @pytest.mark.parametrize("threshold", [-math.inf, math.inf], ids=["kept", "discarded"])
    def test_nul_in_id_fails_that_row_before_any_read(self, tmp_path, threshold):
        good, _ = write_scenario(tmp_path, "g", seed=50)
        absent = dataclasses.replace(good, close_talk_path=str(tmp_path / "absent.wav"))
        segs = [dataclasses.replace(good, session_id="s\0"), good,
                dataclasses.replace(absent, speaker_id="a\0b")]
        out_dir = tmp_path / "out"
        records = run_tls(segs, PipelineConfig(output_dir=str(out_dir), snr_threshold_db=threshold))
        assert records[0].status == "error: session_id 's\\x00' contains a path separator or NUL"
        assert records[2].status == "error: speaker_id 'a\\x00b' contains a path separator or NUL"
        assert records[1].status == "ok" and records[1].kept == (threshold < 0)
        assert not records[0].kept and not records[2].kept
        assert list(out_dir.glob("*")) == ([Path(records[1].output_path)] if threshold < 0 else [])

    def test_huge_end_names_the_clamped_cut(self, tmp_path):
        # A WAV lasts under 2**32 s, so every end from there on cuts the same and names it alike.
        good, _ = write_scenario(tmp_path, "e", seed=52)
        segs = [dataclasses.replace(good, end_s=1e305), dataclasses.replace(good, end_s=1e300), good]
        records = run_tls(segs, PipelineConfig(output_dir=str(tmp_path / "out")))
        name = "e_spk_0.000_4294967296.000.wav"
        assert records[0].status == "ok" and records[0].kept
        assert Path(records[0].output_path).name == name
        assert records[1].status == f"error: output name {name} collides with row 0"
        assert records[2].status == "ok" and records[2].snr_db == records[0].snr_db
        assert Path(records[0].output_path).read_bytes() == Path(records[2].output_path).read_bytes()

    @pytest.mark.parametrize("which", ["close_talk_path", "farfield_path"])
    def test_nan_sample_fails_that_row(self, tmp_path, which):
        segs = [write_scenario(tmp_path, f"n{i}", seed=60 + i)[0] for i in range(3)]
        path = getattr(segs[1], which)
        clip = read_wav(path)
        samples = clip.channels[0].copy()
        samples[samples.size // 2] = np.nan
        write_wav(path, AudioClip(samples, 16000), "float32")
        out_dir = tmp_path / "out"
        records = run_tls(segs, PipelineConfig(output_dir=str(out_dir)))
        assert records[1].status == f"error: non-finite sample in {path}"
        assert not records[1].kept and records[1].output_path is None
        clean = run_tls([segs[0], segs[2]], PipelineConfig(output_dir=str(tmp_path / "ref")))
        for rec, ref in zip((records[0], records[2]), clean):
            assert rec.status == "ok" and rec.kept
            assert rec.snr_db == ref.snr_db and rec.offset_samples == ref.offset_samples
        assert sorted(p.name for p in out_dir.iterdir()) == \
               sorted(Path(r.output_path).name for r in clean)

    # Each row has two faults; the status names the one met first. The order is:
    # ids, name clash, the close-talk file (header, then range), the far-field
    # file (header, then range), the two rates, the samples. ``rate`` is the
    # far-field file's.
    @pytest.mark.parametrize("close,far,rate,start,expected", [
        ("1s", "1s", 8000, 2.0, "error: segment start 2.0s is beyond the clip end (1.000s)"),
        ("1s", "junk", 16000, 2.0, "error: segment start 2.0s is beyond the clip end (1.000s)"),
        ("junk", "missing", 16000, 0.0, "error: {close}: not a RIFF/WAVE file"),
        ("1s", "2s", 16000, 2.0, "error: segment start 2.0s is beyond the clip end (1.000s)"),
        ("3s_nan", "1s", 16000, 2.0, "error: segment start 2.0s is beyond the clip end (1.000s)"),
    ], ids=["close_range_before_rate", "close_range_before_far_header",
            "close_header_before_far_file", "close_range_before_far_range",
            "range_before_finiteness"])
    def test_row_reports_the_first_of_two_faults(self, tmp_path, close, far, rate, start,
                                                 expected):
        paths = {}
        for role, spec in (("close", close), ("far", far)):
            path = paths[role] = tmp_path / f"{role}.wav"
            if spec == "junk":
                path.write_bytes(b"not a wav file")
            elif spec != "missing":
                file_rate = rate if role == "far" else 16000
                x = np.full(int(spec[0]) * file_rate, 0.1)
                if spec.endswith("nan"):
                    x[int(2.25 * file_rate)] = np.nan  # inside the segment
                write_wav(path, AudioClip(x, file_rate), "float32")
        seg = SegmentRecord("s", "a", start, start + 0.5, str(paths["close"]), str(paths["far"]))
        [rec] = run_tls([seg], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert rec.status == expected.format(**paths)
        assert not rec.kept and rec.output_path is None

    # Finite far-field samples so large that their squares overflow, or so small
    # that the reference spectrogram underflows to zero: the row fails instead of
    # reading ok with a -inf SNR, and numpy warns of nothing.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numeric_fault_fails_that_row(self, tmp_path, workers):
        good, _ = write_scenario(tmp_path, "g", delay=100, seed=95)
        far = read_wav(good.farfield_path).channels[0]
        segs = []
        for scale in (1e300, 1e200, 1e-310):
            path = tmp_path / f"far_{scale:g}.wav"
            path.write_bytes(raw_wav_bytes((far * scale).astype("<f8").tobytes(), 3, 1, 16000, 64))
            segs.append(dataclasses.replace(good, speaker_id=f"{scale:g}", farfield_path=str(path)))
        # pytest makes a warning an error, which would fail these rows at any
        # revision; record warnings instead, and expect none.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_tls(segs + [good], PipelineConfig(output_dir=str(tmp_path / "out"),
                                                            worker_count=workers))
        assert caught == []
        assert [rec.status for rec in records] == [
            "error: overflow encountered in square", "error: overflow encountered in square",
            "error: reference spectrogram is identically zero; segment unusable", "ok"]
        for rec in records[:3]:
            assert not rec.kept and rec.offset_samples is None and rec.snr_db is None
        assert records[3].kept and records[3].offset_samples == -100

    # Both files scaled by 1e-165: their cross spectrum underflows to all zeros,
    # and the row fails at gcc_phat rather than aligning to the window's edge.
    def test_underflowing_pair_fails_at_gcc_phat(self, tmp_path):
        seg, _ = write_scenario(tmp_path, "u", delay=120, seed=97)
        paths = {}
        for side in ("close_talk_path", "farfield_path"):
            x = read_wav(getattr(seg, side)).channels[0]
            paths[side] = tmp_path / f"tiny_{side}.wav"
            paths[side].write_bytes(raw_wav_bytes((1e-165 * x).astype("<f8").tobytes(), 3, 1,
                                                  16000, 64))
        seg = dataclasses.replace(seg, **{side: str(path) for side, path in paths.items()})
        [rec] = run_tls([seg], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert rec.status == "error: gcc_phat cross spectrum underflows to zero"
        assert not rec.kept and rec.offset_samples is None

    # At the default +-0.5 s window (8000 samples at 16 kHz) gcc_phat needs
    # more than 8001 samples between the two cuts: 0.24 s is 2 x 3840, 0.26 s
    # is 2 x 4160.
    @pytest.mark.parametrize("seconds,status", [
        (0.24, "error: max_lag 8000 needs more than 8001 samples between the two signals, "
               "got 3840 + 3840"),
        (0.26, "ok"),
    ])
    def test_short_segment(self, tmp_path, seconds, status):
        seg, _ = write_scenario(tmp_path, "short", delay=40, snr_db=20.0, seed=96)
        seg = dataclasses.replace(seg, start_s=1.0, end_s=1.0 + seconds)
        [rec] = run_tls([seg], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert rec.status == status
        assert rec.offset_samples == (-40 if status == "ok" else None)

    def test_each_wav_header_is_read_once(self, tmp_path, monkeypatch):
        segs = [write_scenario(tmp_path, f"h{i}", seed=90 + i)[0] for i in range(3)]
        calls = []
        read_header = audio_io._read_header

        def counting(fh, path):
            calls.append(path)
            return read_header(fh, path)

        monkeypatch.setattr(audio_io, "_read_header", counting)
        records = run_tls(segs, PipelineConfig(output_dir=str(tmp_path / "out")))
        assert [rec.status for rec in records] == ["ok"] * 3
        assert calls == [p for seg in segs for p in (seg.close_talk_path, seg.farfield_path)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_colliding_output_names_fail_later_rows(self, tmp_path, workers):
        a, _ = write_scenario(tmp_path, "a", seed=70)
        b, _ = write_scenario(tmp_path, "b", seed=71)
        near = dataclasses.replace(a, start_s=a.start_s + 0.0002)
        out_dir = tmp_path / "out"
        records = run_tls([a, b, a, near],
                          PipelineConfig(worker_count=workers, output_dir=str(out_dir)))
        name = Path(records[0].output_path).name
        for rec in records[2:]:
            assert rec.status == f"error: output name {name} collides with row 0"
            assert not rec.kept and rec.output_path is None
        assert sorted(out_dir.iterdir()) == sorted(Path(r.output_path) for r in records[:2])
        # same directory, so output_path compares equal too
        ref = run_tls([a, b], PipelineConfig(output_dir=str(out_dir)))
        assert records[:2] == ref

    def test_idempotent_rerun(self, tmp_path):
        seg, _ = write_scenario(tmp_path, "f", seed=30)
        config = PipelineConfig(output_dir=str(tmp_path / "out"))
        first = run_tls([seg], config)
        second = run_tls([seg], config)
        assert first == second
        wav1 = read_wav(first[0].output_path)
        np.testing.assert_array_equal(wav1.samples, read_wav(second[0].output_path).samples)


def _read_pair_of_arrays(tmp_path, a, b):
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for path, x in zip(paths, (a, b)):
        write_wav(path, AudioClip(x, 16000), "float32")
    return read_pair(*paths)


# Each public entry that takes samples rejects a NaN or an infinity in either
# argument itself, with ValueError and no numpy warning; stft is in test_dsp.
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("entry, message", [
    (lambda tmp_path, a, b: level_align(a, b, StftConfig(), MflfConfig()),
     "non-finite sample in signal"),
    (lambda tmp_path, a, b: gcc_phat(a, b, max_lag=100), "non-finite sample in (s1|y)"),
    (lambda tmp_path, a, b: estimate_snr(a, b), "signal energy is not finite"),
    (_read_pair_of_arrays, "non-finite sample in .*[ab].wav"),
], ids=["level_align", "gcc_phat", "estimate_snr", "read_pair"])
def test_every_sample_entry_rejects_a_non_finite_sample(tmp_path, entry, message, side, bad):
    pair = [np.random.default_rng(seed).standard_normal(4000) for seed in (7, 8)]
    pair[side][2000] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{message}"):
            entry(tmp_path, *pair)
    assert caught == []


class TestRetainFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's thresholds")
    def test_second_pass_does_not_fault_its_memory_in_again(self, tmp_path):
        resource = pytest.importorskip("resource")
        manifest_path, _ = simulate_corpus(tmp_path / "corpus", count=4, seed=80,
                                           duration_range=(4.0, 4.0))
        manifest = parse_segments(manifest_path)
        config = PipelineConfig(output_dir=str(tmp_path / "out"))
        run_tls(manifest, config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_tls(manifest, config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # glibc's defaults unmap each freed temporary: some 2,700 faults a segment
        assert faults / len(manifest) < 100

    @pytest.mark.parametrize("library", [SimpleNamespace(), OSError("no C library")],
                             ids=["no_mallopt", "no_library"])
    def test_no_op_without_mallopt(self, monkeypatch, library):
        def cdll(name):
            if isinstance(library, Exception):
                raise library
            return library

        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
        pipeline._retain_freed_memory()

    @pytest.mark.parametrize("mmap_result, expected", [
        (1, [(-3, 32 << 20), (-1, 64 << 20)]),
        (0, [(-3, 32 << 20)]),  # rejected: leave the trim threshold, and its adaptive rule, alone
    ])
    def test_trim_threshold_only_after_the_mmap_threshold(self, monkeypatch, mmap_result,
                                                          expected):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return mmap_result

        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        pipeline._retain_freed_memory()
        assert calls == expected


class TestResultsIO:
    # Every float-annotated row field, read as record_from_dict reads them, so
    # a new float field joins these tests as it is declared.
    FLOAT_FIELDS = [name for name, hint in typing.get_type_hints(PseudoLabelRecord).items()
                    if float in (typing.get_args(hint) or (hint,))]

    def test_round_trip_with_sentinels(self, tmp_path):
        seg = SegmentRecord("s", "a", 0.0, 1.0, "c.wav", "f.wav")
        records = [
            PseudoLabelRecord(seg, offset_samples=-3, snr_db=math.inf, kept=True,
                              output_path="x.wav"),
            PseudoLabelRecord(seg, offset_samples=2, snr_db=-math.inf, kept=False),
            PseudoLabelRecord(seg, snr_db=None, kept=False, status="error: boom"),
            PseudoLabelRecord(seg, offset_samples=0, snr_db=-3.25, kept=True),
        ]
        records += [PseudoLabelRecord(seg, **{name: value}) for name in self.FLOAT_FIELDS
                    for value in (math.inf, -math.inf)]

        def no_constant(literal):
            raise AssertionError(f"bare {literal} in results.jsonl")

        path = tmp_path / "results.jsonl"
        write_results(records, path)
        # strict JSON: no line holds NaN, Infinity or -Infinity
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=no_constant)
        back = read_results(path)
        assert back == records
        assert [r.snr_db for r in back[:4]] == [math.inf, -math.inf, None, -3.25]
        assert [r.kept for r in back[:4]] == [True, False, False, True]
        assert back[2].status == "error: boom"

    def test_every_float_field_round_trips_the_sentinels_and_an_integer(self):
        assert "snr_db" in self.FLOAT_FIELDS
        seg = SegmentRecord("s", "a", 0.0, 1.0, "c.wav", "f.wav")
        for name in self.FLOAT_FIELDS:
            for value, text in ((math.inf, '"inf"'), (-math.inf, '"-inf"'), (3, "3")):
                line = json.dumps(record_to_dict(PseudoLabelRecord(seg, **{name: value})))
                assert json.loads(line)[name] == json.loads(text)
                back = getattr(record_from_dict(json.loads(line)), name)
                assert back == value and type(back) is float, (name, value)

    @pytest.mark.parametrize("bad_line, line_no, message", [
        ('{"session_id": "s", "spea', 3, "invalid JSON"),  # torn by an interrupted write
        ("[1, 2]", 2, "expected a JSON object"),
    ])
    def test_bad_row_names_its_file_line(self, tmp_path, bad_line, line_no, message):
        seg = SegmentRecord("s", "a", 0.0, 1.0, "c.wav", "f.wav")
        path = tmp_path / "results.jsonl"
        write_results([PseudoLabelRecord(seg)] * 2, path)
        lines = path.read_text().splitlines()
        lines.insert(line_no - 1, bad_line)
        path.write_text("\n".join(lines))
        with pytest.raises(ManifestError, match=f"^line {line_no}: {message}") as info:
            read_results(path)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("field, value", [
        ("kept", "no"), ("kept", 1), ("kept", None),
        ("offset_samples", True), ("offset_samples", 1.5), ("offset_samples", "3"),
        ("snr_db", "high"), ("snr_db", False), ("snr_db", [7.5]),
        ("status", None), ("status", 0),
        ("output_path", 3), ("output_path", False),
        ("snr_db", math.nan), ("snr_db", math.inf), ("snr_db", -math.inf),  # no run writes these
    ])
    def test_wrong_json_type_names_field_and_line(self, tmp_path, field, value):
        seg = SegmentRecord("s", "a", 0.0, 1.0, "c.wav", "f.wav")
        path = tmp_path / "results.jsonl"
        write_results([PseudoLabelRecord(seg)] * 2, path)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]) | {field: value})
        path.write_text("\n".join(lines))
        with pytest.raises(ManifestError, match=f"^line 2: {field} must be .*, got ") as info:
            read_results(path)
        assert info.value.line_no == 2

    def test_real_results_file_round_trips(self, tmp_path):
        seg, _ = write_scenario(tmp_path, "r", seed=90)
        low, _ = write_scenario(tmp_path, "q", snr_db=-25.0, seed=91)
        missing = SegmentRecord("m", "spk", 0.0, 1.0, "no.wav", "no2.wav")
        records = run_tls([seg, low, missing], PipelineConfig(output_dir=str(tmp_path / "out")))
        assert [r.kept for r in records] == [True, False, False]
        path = tmp_path / "out" / "results.jsonl"
        write_results(records, path)
        assert read_results(path) == records
        # earlier versions stamped each row with processed_at; such a file still reads
        stamped = [json.loads(line) | {"processed_at": "2025-01-01T00:00:00+00:00"}
                   for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(row) + "\n" for row in stamped))
        assert read_results(path) == records
        write_results(read_results(path), path)
        assert "processed_at" not in path.read_text()

    def test_record_dict_round_trip(self):
        seg = SegmentRecord("s", "a", 0.5, 2.0, "c.wav", "f.wav")
        rec = PseudoLabelRecord(seg, offset_samples=-42, snr_db=7.5, kept=True,
                                output_path="p.wav")
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_row_schema_is_the_dataclass_fields(self):
        seg = SegmentRecord("s", "a", 0.5, 2.0, "c.wav", "f.wav")
        rec = PseudoLabelRecord(seg, offset_samples=-42, snr_db=7.5, kept=True,
                                status="error: x", output_path="p.wav", peak_ratio=3.5)
        row_fields = [f for f in dataclasses.fields(rec) if f.name != "segment"]
        assert list(record_to_dict(rec)) == \
               [f.name for f in dataclasses.fields(seg)] + [f.name for f in row_fields]
        # every field non-default, so the round trip exercises each one
        assert all(getattr(rec, f.name) != f.default for f in row_fields)
        assert record_from_dict(json.loads(json.dumps(record_to_dict(rec)))) == rec
        # a manifest-only row reads back with the dataclass defaults
        assert record_from_dict(seg.to_dict()) == PseudoLabelRecord(seg)


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.snr_threshold_db == -10.0
        assert config.worker_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(worker_count=0)
        with pytest.raises(ValueError):
            PipelineConfig(max_lag_s=0.0)
        for bad in ({"max_lag_s": math.nan}, {"max_lag_s": math.inf},
                    {"snr_threshold_db": math.nan}):
            with pytest.raises(ValueError):
                PipelineConfig(**bad)
        # an infinite threshold keeps its meaning: keep nothing, or everything
        PipelineConfig(snr_threshold_db=math.inf)
        PipelineConfig(snr_threshold_db=-math.inf)
