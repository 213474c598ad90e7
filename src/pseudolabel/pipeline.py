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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .audio_io import AudioClip, SegmentClampWarning, SegmentRecord, cut_segment, read_wav, write_wav
from .dsp import StftConfig
from .level_align import MflfConfig, level_align
from .snr_filter import DEFAULT_SNR_THRESHOLD_DB, PseudoLabelRecord, estimate_snr, filter_pairs
from .time_align import apply_shift, gcc_phat

WORKERS_ENV = "PSEUDOLABEL_WORKERS"


def default_worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {count}")
    return count


@dataclass
class PipelineConfig:
    stft: StftConfig = field(default_factory=StftConfig)
    mflf: MflfConfig = field(default_factory=MflfConfig)
    max_lag_s: float = 0.5
    snr_threshold_db: float = DEFAULT_SNR_THRESHOLD_DB
    worker_count: int = 1
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.max_lag_s <= 0:
            raise ValueError(f"max_lag_s must be positive, got {self.max_lag_s}")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")


def _output_name(seg: SegmentRecord) -> str:
    return f"{seg.session_id}_{seg.speaker_id}_{seg.start_s:.3f}_{seg.end_s:.3f}.wav"


def _process_segment(seg: SegmentRecord, config: PipelineConfig) -> PseudoLabelRecord:
    rec = PseudoLabelRecord(segment=seg)
    try:
        # Both ids become part of the output file name.
        for name in ("session_id", "speaker_id"):
            if set(getattr(seg, name)) & {"/", os.sep, os.altsep}:
                raise ValueError(f"{name} {getattr(seg, name)!r} contains a path separator")
        with warnings.catch_warnings():
            # Diarization routinely overshoots media bounds; clamping is normal here.
            warnings.simplefilter("ignore", SegmentClampWarning)
            close = read_wav(seg.close_talk_path)
            far = read_wav(seg.farfield_path)
            rate = config.stft.sample_rate
            if close.sample_rate != rate or far.sample_rate != rate:
                raise ValueError(
                    f"sample rate mismatch: close {close.sample_rate}, far {far.sample_rate}, "
                    f"config {rate}"
                )
            s1 = cut_segment(close, seg.start_s, seg.end_s).channels[0]
            y = cut_segment(far, seg.start_s, seg.end_s).channels[0]
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
    status rather than aborting the batch.
    """
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    worker = partial(_process_segment, config=config)
    if config.worker_count == 1 or len(manifest) <= 1:
        records = [worker(seg) for seg in manifest]
    else:
        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            records = list(pool.map(worker, manifest))
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    for rec in records:
        rec.processed_at = stamp
    return records


def _snr_to_json(value: float | None):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _snr_from_json(value):
    if value is None:
        return None
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def record_to_dict(rec: PseudoLabelRecord) -> dict:
    out = rec.segment.to_dict()
    out.update({
        "offset_samples": rec.offset_samples,
        "snr_db": _snr_to_json(rec.snr_db),
        "kept": rec.kept,
        "status": rec.status,
        "output_path": rec.output_path,
        "processed_at": rec.processed_at,
    })
    return out


def record_from_dict(obj: dict) -> PseudoLabelRecord:
    return PseudoLabelRecord(
        segment=SegmentRecord.from_dict(obj),
        offset_samples=obj.get("offset_samples"),
        snr_db=_snr_from_json(obj.get("snr_db")),
        kept=bool(obj.get("kept", False)),
        status=obj.get("status", "ok"),
        output_path=obj.get("output_path"),
        processed_at=obj.get("processed_at", ""),
    )


def write_results(records: list[PseudoLabelRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec)) + "\n")


def read_results(path) -> list[PseudoLabelRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(record_from_dict(json.loads(line)))
    return records
