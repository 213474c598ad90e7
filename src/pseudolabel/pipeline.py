"""Batch pipeline: segment, time-align, level-align, SNR-filter, write.

Segments are independent, so the batch can fan out over a process pool;
results are always emitted in manifest order and per-segment failures
are recorded in the output row instead of aborting the run.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .audio_io import (AudioClip, SegmentClampWarning, SegmentRecord, _read_jsonl, _sample_rate,
                       read_wav, write_wav)
from .audio_io import cut_segment  # noqa: F401 - not called; perfbench/pb_trace.py wraps the name
from .dsp import StftConfig
from .level_align import MflfConfig, level_align
from .snr_filter import DEFAULT_SNR_THRESHOLD_DB, estimate_snr, filter_pairs
from .time_align import apply_shift, gcc_phat


@dataclass
class PipelineConfig:
    stft: StftConfig = field(default_factory=StftConfig)
    mflf: MflfConfig = field(default_factory=MflfConfig)
    max_lag_s: float = 0.5
    snr_threshold_db: float = DEFAULT_SNR_THRESHOLD_DB
    worker_count: int = 1
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not 0 < self.max_lag_s < math.inf:
            raise ValueError(f"max_lag_s must be positive and finite, got {self.max_lag_s}")
        if math.isnan(self.snr_threshold_db):
            raise ValueError("snr_threshold_db must not be NaN")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")


@dataclass
class PseudoLabelRecord:
    """Outcome of processing one segment: offset, SNR, keep decision.

    A result row holds the segment's fields followed by the other fields
    here, in declaration order; a key absent from a row reads back as the
    field's default.
    """

    segment: SegmentRecord
    offset_samples: int | None = None
    snr_db: float | None = None
    kept: bool = False
    status: str = "ok"
    output_path: str | None = None
    processed_at: str = ""


_ROW_FIELDS = [f.name for f in fields(PseudoLabelRecord) if f.name != "segment"]


def _output_name(seg: SegmentRecord) -> str:
    return f"{seg.session_id}_{seg.speaker_id}_{seg.start_s:.3f}_{seg.end_s:.3f}.wav"


def _process_segment(seg: SegmentRecord, clash: int | None, config: PipelineConfig,
                     ) -> PseudoLabelRecord:
    """One segment's row; ``clash`` is the index of an earlier row with the
    same output name, if any."""
    rec = PseudoLabelRecord(segment=seg)
    try:
        # Both ids become part of the output file name.
        for name in ("session_id", "speaker_id"):
            if set(getattr(seg, name)) & {"/", os.sep, os.altsep}:
                raise ValueError(f"{name} {getattr(seg, name)!r} contains a path separator")
        if clash is not None:
            raise ValueError(f"output name {_output_name(seg)} collides with row {clash}")
        # Both headers before either range: a bad file or rate outranks a range fault.
        rate = config.stft.sample_rate
        close_rate, far_rate = _sample_rate(seg.close_talk_path), _sample_rate(seg.farfield_path)
        if close_rate != rate or far_rate != rate:
            raise ValueError(f"sample rate mismatch: close {close_rate}, far {far_rate}, config {rate}")
        with warnings.catch_warnings():
            # Diarization routinely overshoots media bounds; clamping is normal here.
            warnings.simplefilter("ignore", SegmentClampWarning)
            s1 = read_wav(seg.close_talk_path, seg.start_s, seg.end_s).channels[0]
            y = read_wav(seg.farfield_path, seg.start_s, seg.end_s).channels[0]
        for path, x in ((seg.close_talk_path, s1), (seg.farfield_path, y)):
            if not np.isfinite(x).all():
                raise ValueError(f"non-finite sample in {path}")
        max_lag = int(round(config.max_lag_s * rate))
        align = gcc_phat(s1, y, max_lag=max_lag)
        shifted = apply_shift(s1, align.offset_samples, y.size)
        pseudo = level_align(shifted, y, config.stft, config.mflf)
        rec.offset_samples = align.offset_samples
        rec.snr_db = estimate_snr(pseudo, y)
        filter_pairs([rec], config.snr_threshold_db)
        if rec.kept:
            out_path = Path(config.output_dir) / _output_name(seg)
            write_wav(out_path, AudioClip(pseudo, rate), "float32")
            rec.output_path = str(out_path)
    except Exception as exc:  # keep the batch alive; the row carries the reason
        rec.status = f"error: {exc}"
        rec.kept = False
    return rec


def run_tls(manifest: list[SegmentRecord], config: PipelineConfig) -> list[PseudoLabelRecord]:
    """Process every manifest segment; returns one record per segment.

    Kept segments get their pseudo label written under
    ``config.output_dir``. Failed segments yield a row with an error
    status rather than aborting the batch; so does every row whose output
    file name an earlier row already has.
    """
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    first_row: dict[str, int] = {}
    firsts = [first_row.setdefault(_output_name(seg), i) for i, seg in enumerate(manifest)]
    clashes = [None if first == i else first for i, first in enumerate(firsts)]
    worker = partial(_process_segment, config=config)
    if config.worker_count == 1 or len(manifest) <= 1:
        records = list(map(worker, manifest, clashes))
    else:
        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            records = list(pool.map(worker, manifest, clashes))
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    for rec in records:
        rec.processed_at = stamp
    return records


def record_to_dict(rec: PseudoLabelRecord) -> dict:
    out = rec.segment.to_dict() | {name: getattr(rec, name) for name in _ROW_FIELDS}
    if rec.snr_db is not None and math.isinf(rec.snr_db):
        out["snr_db"] = str(rec.snr_db)  # "inf"/"-inf": strict JSON has no infinity
    return out


def record_from_dict(obj: dict) -> PseudoLabelRecord:
    rec = PseudoLabelRecord(SegmentRecord.from_dict(obj),
                            **{name: obj[name] for name in _ROW_FIELDS if name in obj})
    if rec.snr_db is not None:
        rec.snr_db = float(rec.snr_db)  # also parses the "inf"/"-inf" sentinels
    return rec


def write_results(records: list[PseudoLabelRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec)) + "\n")


def read_results(path) -> list[PseudoLabelRecord]:
    """Read a results file; raises :class:`ManifestError` naming the first bad line."""
    return _read_jsonl(path, record_from_dict)
