import importlib

import pytest

import pb_corpus
import pb_trace
from conftest import TINY_FILES


def _current():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in pb_trace.STAGES}


def test_wrappers_record_every_stage_and_are_restored(tmp_path):
    from pseudolabel import PipelineConfig, parse_segments, run_tls

    manifest_path, _ = pb_corpus.generate("tiny", 3, tmp_path / "corpus", TINY_FILES)
    segments = parse_segments(manifest_path)
    before = _current()
    tracer = pb_trace.Tracer()
    with tracer.installed():
        assert all(_current()[key] is not fn for key, fn in before.items())
        run_tls(segments, PipelineConfig(output_dir=str(tmp_path / "out")))
    assert _current() == before

    summary = tracer.summary()
    calls = {name: len(ms) for name, ms in summary["stages"].items()}
    n = len(segments)
    assert calls["audio_io.read_wav"] == calls["dsp.stft"] == 2 * n
    assert calls["level_align.solve_mflf"] == calls["snr_filter.estimate_snr"] == n
    assert summary["counts"]["audio_io.read_wav.bytes"] > 0
    assert summary["counts"]["level_align.bins"] == n * 257
    top = sum(end - start for name, start, end, depth in tracer.spans if depth == 0)
    assert summary["top_ms"] == pytest.approx(top * 1e3)
    assert not summary["missing"]


def test_wrappers_are_restored_after_an_error():
    before = _current()
    with pytest.raises(RuntimeError):
        with pb_trace.Tracer().installed():
            raise RuntimeError("stage blew up")
    assert _current() == before


def test_a_removed_stage_is_reported_missing(monkeypatch):
    pipeline = importlib.import_module("pseudolabel.pipeline")
    monkeypatch.delattr(pipeline, "cut_segment")
    tracer = pb_trace.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["audio_io.cut_segment"]
    assert tracer.summary()["stages"]["audio_io.cut_segment"] == []
