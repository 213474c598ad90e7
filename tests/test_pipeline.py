import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pseudolabel.audio_io import AudioClip, ManifestError, SegmentRecord, read_wav, write_wav
from pseudolabel.pipeline import (
    PipelineConfig,
    read_results,
    record_from_dict,
    record_to_dict,
    run_tls,
    write_results,
)
from pseudolabel import PseudoLabelRecord
from pseudolabel.synth import SynthScenario, simulate_corpus, speech_like, synth_pair
from pseudolabel import parse_segments


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
        config = PipelineConfig(stft=__import__("pseudolabel").StftConfig(sample_rate=8000),
                                output_dir=str(tmp_path / "out"))
        records = run_tls([seg], config)
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

    # Each row has two faults; the status names the one checked first. The order
    # is: ids, name clash, close header, far header, rate, close range, far range,
    # finiteness.
    @pytest.mark.parametrize("close,far,rate,start,expected", [
        ("1s", "1s", 8000, 2.0, "error: sample rate mismatch: close 16000, far 16000, config 8000"),
        ("1s", "junk", 16000, 2.0, "error: {far}: not a RIFF/WAVE file"),
        ("junk", "missing", 16000, 0.0, "error: {close}: not a RIFF/WAVE file"),
        ("1s", "2s", 16000, 2.0, "error: segment start 2.0s is beyond the clip end (1.000s)"),
        ("3s_nan", "1s", 16000, 2.0, "error: segment start 2.0s is beyond the clip end (1.000s)"),
    ], ids=["rate_before_range", "far_header_before_close_range", "close_header_before_far_file",
            "close_range_before_far_range", "range_before_finiteness"])
    def test_row_reports_the_first_of_two_faults(self, tmp_path, close, far, rate, start,
                                                 expected):
        paths = {}
        for role, spec in (("close", close), ("far", far)):
            path = paths[role] = tmp_path / f"{role}.wav"
            if spec == "junk":
                path.write_bytes(b"not a wav file")
            elif spec != "missing":
                x = np.full(int(spec[0]) * 16000, 0.1)
                if spec.endswith("nan"):
                    x[int(2.25 * 16000)] = np.nan  # inside the segment
                write_wav(path, AudioClip(x, 16000), "float32")
        seg = SegmentRecord("s", "a", start, start + 0.5, str(paths["close"]), str(paths["far"]))
        config = PipelineConfig(stft=__import__("pseudolabel").StftConfig(sample_rate=rate),
                                output_dir=str(tmp_path / "out"))
        [rec] = run_tls([seg], config)
        assert rec.status == expected.format(**paths)
        assert not rec.kept and rec.output_path is None

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
        strip = lambda rec: record_to_dict(rec) | {"processed_at": ""}
        assert [strip(r) for r in records[:2]] == [strip(r) for r in ref]

    def test_idempotent_rerun(self, tmp_path):
        seg, _ = write_scenario(tmp_path, "f", seed=30)
        config = PipelineConfig(output_dir=str(tmp_path / "out"))
        first = run_tls([seg], config)
        second = run_tls([seg], config)
        assert record_to_dict(first[0]) | {"processed_at": ""} == \
               record_to_dict(second[0]) | {"processed_at": ""}
        wav1 = read_wav(first[0].output_path)
        np.testing.assert_array_equal(wav1.samples, read_wav(second[0].output_path).samples)


class TestResultsIO:
    def test_round_trip_with_sentinels(self, tmp_path):
        seg = SegmentRecord("s", "a", 0.0, 1.0, "c.wav", "f.wav")
        records = [
            PseudoLabelRecord(seg, offset_samples=-3, snr_db=math.inf, kept=True,
                              output_path="x.wav", processed_at="t0"),
            PseudoLabelRecord(seg, offset_samples=2, snr_db=-math.inf, kept=False,
                              processed_at="t0"),
            PseudoLabelRecord(seg, snr_db=None, kept=False, status="error: boom",
                              processed_at="t0"),
            PseudoLabelRecord(seg, offset_samples=0, snr_db=-3.25, kept=True,
                              processed_at="t0"),
        ]
        path = tmp_path / "results.jsonl"
        write_results(records, path)
        # strict JSON: every line must parse with a standard parser
        for line in path.read_text().splitlines():
            json.loads(line)
        back = read_results(path)
        assert [r.snr_db for r in back] == [math.inf, -math.inf, None, -3.25]
        assert [r.kept for r in back] == [True, False, False, True]
        assert back[2].status == "error: boom"

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

    def test_record_dict_round_trip(self):
        seg = SegmentRecord("s", "a", 0.5, 2.0, "c.wav", "f.wav")
        rec = PseudoLabelRecord(seg, offset_samples=-42, snr_db=7.5, kept=True,
                                output_path="p.wav", processed_at="now")
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_row_schema_is_the_dataclass_fields(self):
        seg = SegmentRecord("s", "a", 0.5, 2.0, "c.wav", "f.wav")
        rec = PseudoLabelRecord(seg, offset_samples=-42, snr_db=7.5, kept=True,
                                status="error: x", output_path="p.wav", processed_at="now")
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
