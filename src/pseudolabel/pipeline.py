"""Batch pipeline: segment, time-align, level-align, SNR-filter, write.

Segments are independent, so the batch can fan out over forked worker
processes; results are always emitted in manifest order and per-segment
failures are recorded in the output row instead of aborting the run.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import pickle
import sys
from collections.abc import Callable, Iterator
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import BinaryIO, get_args, get_type_hints

import numpy as np

from .audio_io import (AudioClip, SegmentRecord, _read_jsonl, _write_jsonl, _write_whole, read_wav,
                       write_wav)
# Never called: perfbench/pb_trace.py wraps the name until ROADMAP I drops that stage.
from .audio_io import _frame_range as cut_segment  # noqa: F401
from .dsp import StftConfig
from .level_align import MflfConfig, level_align
from .time_align import AlignmentResult, apply_shift, gcc_phat


@dataclass
class PipelineConfig:
    stft: StftConfig = field(default_factory=StftConfig)
    mflf: MflfConfig = field(default_factory=MflfConfig)
    max_lag_s: float = 0.5
    snr_threshold_db: float = -10.0
    worker_count: int = 1
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not 0 < self.max_lag_s < math.inf:
            raise ValueError(f"max_lag_s must be positive and finite, got {self.max_lag_s}")
        if math.isnan(self.snr_threshold_db):
            raise ValueError("snr_threshold_db must not be NaN")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        if not self.output_dir:  # "" would write into the working directory
            raise ValueError("output_dir must not be empty")


@dataclass
class PseudoLabelRecord:
    """Outcome of processing one segment: offset and its peak ratio, SNR, keep decision.

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
    # Last: a record built positionally, as (segment, offset, snr, kept), keeps its meaning.
    peak_ratio: float | None = None


def estimate_snr(s3, y) -> float:
    """``10*log10(||s3||^2 / ||s3 - y||^2)`` with infinite sentinels.

    A zero residual returns ``+inf``; an all-zero estimate returns
    ``-inf``. A NaN or infinite energy raises ``ValueError``.
    """
    s3 = np.asarray(s3, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if s3.shape != y.shape:
        raise ValueError(f"length mismatch: {s3.shape} vs {y.shape}")
    if not np.any(y):
        raise ValueError("reference signal has zero energy")
    num = float(np.sum(s3 * s3))
    residual = s3 - y
    den = float(np.sum(np.square(residual, out=residual)))
    if not (math.isfinite(num) and math.isfinite(den)):
        raise ValueError("signal energy is not finite (a non-finite sample, or an overflow)")
    if den == 0.0:
        return math.inf
    if num == 0.0:
        return -math.inf
    return 10.0 * math.log10(num / den)


def filter_pairs(records: list[PseudoLabelRecord],
                 threshold_db: float = PipelineConfig.snr_threshold_db,
                 ) -> tuple[list[PseudoLabelRecord], list[PseudoLabelRecord]]:
    """Partition records into (kept, discarded) by SNR, boundary kept.

    Updates each record's ``kept`` flag in place; input order is
    preserved within both halves.
    """
    kept: list[PseudoLabelRecord] = []
    discarded: list[PseudoLabelRecord] = []
    for rec in records:
        if rec.snr_db is None:
            raise ValueError("record has no SNR estimate; run the pipeline first")
        rec.kept = rec.snr_db >= threshold_db
        (kept if rec.kept else discarded).append(rec)
    return kept, discarded


# A float is finite in JSON; record_to_dict writes an infinity as "inf" or "-inf".
_JSON_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: 'a finite number, "inf", "-inf"',
                    str: "a string", type(None): "null"}


def _json_rule(hint) -> tuple[set, str]:
    """The types a row field annotated ``hint`` holds, and their JSON names."""
    types = get_args(hint) or (hint,)
    return set(types), " or ".join(_JSON_TYPE_NAMES[t] for t in types)


# Row field name -> (its types, their JSON names), in declaration order, from
# the annotations, evaluated once as ``SegmentRecord``'s are.
_ROW_RULES = {name: _json_rule(hint) for name, hint in get_type_hints(PseudoLabelRecord).items()
              if name != "segment"}


def read_pair(path_a, path_b, start_s=0.0, end_s=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Channel 0 of two WAVs over ``[start_s, end_s)``, and their common rate.

    Raises for the first fault met: in ``path_a`` (as :func:`read_wav`), in ``path_b``, in
    the two rates, in a sample (a NaN or inf)."""
    clip_a, clip_b = (read_wav(path, start_s, end_s) for path in (path_a, path_b))
    rate_a, rate_b = clip_a.sample_rate, clip_b.sample_rate
    if rate_a != rate_b:
        raise ValueError(f"sample rates differ: {rate_a} Hz in {path_a}, {rate_b} Hz in {path_b}")
    for path, clip in ((path_a, clip_a), (path_b, clip_b)):
        if not np.isfinite(clip.samples[0]).all():
            raise ValueError(f"non-finite sample in {path}")
    return clip_a.samples[0], clip_b.samples[0], rate_a


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _retain_freed_memory() -> None:
    """Let glibc keep freed heap in this process instead of unmapping it.

    Each segment allocates and frees numpy temporaries of 1-4 MB. By
    default glibc returns such blocks to the kernel when they are freed,
    and the kernel zero-fills fresh pages at the next segment's first
    touch: about a third of a 4-8 s segment's time. Serving blocks under
    32 MiB from the heap, and trimming its top only beyond 64 MiB free,
    lets every segment reuse the previous one's pages. Either setting
    alone switches off glibc's adaptive threshold and faults more than the
    defaults, so the second is made only if the first is accepted. Does
    nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:  # glibc's 64-bit maximum
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _output_name(seg: SegmentRecord) -> str:
    # No WAV lasts 2**32 s (a 32-bit data size at >= 1 Hz), so every larger end cuts the same.
    # A start of -0.0 cuts as 0.0 does; adding +0.0 names it alike.
    start, end = seg.start_s + 0.0, min(seg.end_s, 2**32)
    return f"{seg.session_id}_{seg.speaker_id}_{start:.3f}_{end:.3f}.wav"


def _label(s1: np.ndarray, y: np.ndarray, rate: int, config: PipelineConfig,
           ) -> tuple[AlignmentResult, np.ndarray]:
    """The run path's stages: ``s1``'s alignment to ``y``, and the pseudo label, ``s1``
    shifted by it and level-aligned to ``y``."""
    align = gcc_phat(s1, y, max_lag=int(round(config.max_lag_s * rate)))
    shifted = apply_shift(s1, align.offset_samples, y.size)
    return align, level_align(shifted, y, config.stft, config.mflf)


def _process_segment(seg: SegmentRecord, clash: int | None, config: PipelineConfig,
                     ) -> PseudoLabelRecord:
    """One segment's row; ``clash`` is the index of an earlier row with the same output
    name, if any. A numpy float fault fails the row instead of warning."""
    rec = PseudoLabelRecord(segment=seg)
    try:
        # Both ids become part of the output file name.
        for name in ("session_id", "speaker_id"):
            if set(getattr(seg, name)) & {"/", os.sep, os.altsep, "\0"}:
                raise ValueError(f"{name} {getattr(seg, name)!r} contains a path separator or NUL")
        if clash is not None:
            raise ValueError(f"output name {_output_name(seg)} collides with row {clash}")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            s1, y, rate = read_pair(seg.close_talk_path, seg.farfield_path, seg.start_s, seg.end_s)
            align, pseudo = _label(s1, y, rate, config)
            rec.offset_samples, rec.peak_ratio = align.offset_samples, align.peak_ratio
            rec.snr_db = estimate_snr(pseudo, y)
            filter_pairs([rec], config.snr_threshold_db)
            if rec.kept:
                out_path = Path(config.output_dir) / _output_name(seg)
                with _write_whole(out_path) as part:
                    write_wav(part, AudioClip(pseudo, rate), "float32")
                rec.output_path = str(out_path)
    except Exception as exc:  # keep the batch alive; the row carries the reason
        rec.status = f"error: {str(exc) or type(exc).__name__}"
        rec.kept = False
    return rec


class WorkerDiedError(RuntimeError):
    """A forked worker ended before it sent back the rows it held."""


# Rows a worker takes at a time, fewer when the manifest is short. run_tls over the
# turns_w2 corpus (150 turns of 0.5-2 s, 2 workers, 2 cores), median of 25 fresh
# processes each, interleaved: 454, 442, 426, 445 and 436 ms at 1, 2, 4, 8 and 16.
_CHUNK_ROWS = 4

# Only where fork is safe. Windows has no fork, and on macOS system libraries start
# threads, which is why CPython made spawn its default there; a run there is serial,
# which gives the same rows.
_CAN_FORK = hasattr(os, "fork") and sys.platform != "darwin"


def _fork_map(fn: Callable, args: list[tuple], workers: int) -> Iterator:
    """Yield ``fn(*a)`` for each ``a`` in ``args``, in order, from ``workers`` forked children,
    ``1 <= workers <= len(args)``.

    Each child takes ``_CHUNK_ROWS`` contiguous items at a time (fewer, so that every
    child gets one, when ``args`` is short) and is handed the next chunk when it sends
    one back. A child that dies before sending its chunk raises :class:`WorkerDiedError`
    naming how it ended and every item of the chunk (``rows 4-7``, or ``row 4`` for one).
    Every child is killed and reaped before this generator ends, on any path."""
    # Imported here, so that import pseudolabel and a serial run load neither.
    import select
    import signal

    chunk = min(_CHUNK_ROWS, len(args) // workers)
    starts = iter(range(0, len(args), chunk))
    # Per child, keyed by the parent's end of its result pipe: its pid until it is reaped,
    # the parent's end of its task pipe, its result pipe, and the start of its chunk.
    pids: dict[int, int] = {}
    tasks: dict[int, int] = {}
    results: dict[int, BinaryIO] = {}
    held: dict[int, int | None] = {}
    poller = select.poll()

    def fork_child() -> int:
        """Fork a child that sends back ``[fn(*a) for a in args[start:start + chunk]]``,
        pickled, for each ``start`` on its task pipe until that pipe closes; return its key.
        The child closes the parent's ends of the earlier children's pipes, so that only the
        parent holds each pipe's other end."""
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to be had: close the pipes before raising
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                for fd in (task_w, result_r, *tasks, *tasks.values()):
                    os.close(fd)
                with open(result_w, "wb") as out:
                    while task := os.read(task_r, 8):
                        start = int.from_bytes(task, "little")
                        pickle.dump([fn(*a) for a in args[start:start + chunk]], out)
                        out.flush()
                status = 0
            except (KeyboardInterrupt, BrokenPipeError):  # Ctrl-C reached the group, or no reader
                pass
            except BaseException:
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(status)  # never return into the parent's code
        os.close(task_r)
        os.close(result_w)
        pids[result_r], tasks[result_r], results[result_r] = pid, task_w, open(result_r, "rb")
        poller.register(result_r, select.POLLIN)
        return result_r

    def hand_out(key: int) -> None:
        """Send the child the next chunk; with none left, it waits until its task pipe closes."""
        start = held[key] = next(starts, None)
        if start is None:
            poller.unregister(key)
            return
        with suppress(BrokenPipeError):  # it died; its result pipe's end reports it
            os.write(tasks[key], start.to_bytes(8, "little"))

    try:
        for _ in range(workers):
            hand_out(fork_child())
        done: dict[int, list] = {}  # chunk start -> its results, until their turn
        row = 0
        while row < len(args):
            for key, _ in poller.poll():
                start = held[key]
                try:
                    done[start] = pickle.load(results[key])
                except (EOFError, pickle.UnpicklingError):  # its pipe ended early
                    code = os.waitstatus_to_exitcode(os.waitpid(pids[key], 0)[1])
                    del pids[key]  # reaped, so never signalled
                    how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                    last = min(start + chunk, len(args)) - 1
                    rows = f"rows {start}-{last}" if last > start else f"row {last}"
                    raise WorkerDiedError(f"a pool worker died ({how}) before returning "
                                          f"{rows}") from None
                hand_out(key)
            while row in done:
                ready = done.pop(row)
                row += len(ready)
                yield from ready
    finally:
        for key, task_w in tasks.items():
            os.close(task_w)
            results[key].close()
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)  # what it still computes, nobody reads
            os.waitpid(pid, 0)


def run_tls(manifest: list[SegmentRecord], config: PipelineConfig) -> list[PseudoLabelRecord]:
    """Process every manifest segment; returns one record per segment.

    Kept segments get their pseudo label written under
    ``config.output_dir``. Failed segments yield a row with an error
    status rather than aborting the batch; so does every row whose output
    file name an earlier row already has.

    Forks ``min(config.worker_count, len(manifest))`` worker processes, or
    none when that is at most 1 or where fork is not safe (Windows, macOS);
    the rows are the same either way. A worker that dies raises
    :class:`WorkerDiedError`, and no row is returned; no worker outlives the call.
    Sets glibc's allocator thresholds for the whole process, which forked
    workers inherit (see :func:`_retain_freed_memory`).
    """
    _retain_freed_memory()
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    first_row: dict[str, int] = {}
    firsts = [first_row.setdefault(_output_name(seg), i) for i, seg in enumerate(manifest)]
    clashes = [None if first == i else first for i, first in enumerate(firsts)]
    worker = partial(_process_segment, config=config)
    workers = min(config.worker_count, len(manifest)) if _CAN_FORK else 1
    if workers <= 1:
        return list(map(worker, manifest, clashes))
    return list(_fork_map(worker, list(zip(manifest, clashes)), workers))


def record_to_dict(rec: PseudoLabelRecord) -> dict:
    out = rec.segment.to_dict()
    for name in _ROW_RULES:
        value = getattr(rec, name)
        # Strict JSON has no infinity: a float field writes one as "inf" or "-inf".
        out[name] = str(value) if isinstance(value, float) and math.isinf(value) else value
    return out


def record_from_dict(obj: dict) -> PseudoLabelRecord:
    """A row read back, each field checked against its annotation; a float field
    also takes an integer or an "inf"/"-inf" sentinel, and stores a float."""
    segment = SegmentRecord.from_dict(obj)
    row = {name: obj[name] for name in _ROW_RULES if name in obj}
    for name, value in row.items():
        types, names = _ROW_RULES[name]
        as_float = float in types and (type(value) in (int, float) or value in ("inf", "-inf"))
        # Python's json reads NaN, Infinity and -Infinity as floats; no row holds one.
        if not (as_float or type(value) in types) or \
                (type(value) is float and not math.isfinite(value)):
            raise ValueError(f"{name} must be {names}, got {json.dumps(value)}")
        row[name] = float(value) if as_float else value
    return PseudoLabelRecord(segment, **row)


def write_results(records: list[PseudoLabelRecord], path) -> None:
    """One JSON line per record; ``path`` holds the whole file, or what it held before."""
    _write_jsonl(path, map(record_to_dict, records))


def read_results(path) -> list[PseudoLabelRecord]:
    """Read a results file; raises :class:`ManifestError` naming the first bad line."""
    return _read_jsonl(path, record_from_dict)
