"""Correctness gate and accuracy figures for one benchmark run.

The gate fails the run, rather than letting it print a number, when
the program's rows or kept WAVs are wrong:

* one row per manifest segment, in manifest order, echoing its fields;
* no failed segment (every generated segment is processable);
* ``kept`` follows the discard rule, and exactly the kept rows have a
  WAV on disk holding one finite sample per segment sample;
* every segment at or above 0 dB true SNR (the regime in which the
  package's acceptance gate demands exact delays) gets the exact offset;
* over the whole corpus, at least 95% of those segments estimate the SNR
  within 1.5 dB of the truth, the tolerance of the package's end-to-end
  oracle;
* repeated passes, and for a pooled workload its serial traced pass,
  give identical rows (``processed_at`` aside) and identical kept WAVs;
  ``pb_child.py`` digests both after every pass and ``run.py`` compares.
"""

from __future__ import annotations

import json
import math

import numpy as np

from pb_corpus import SAMPLE_RATE

KEEP_THRESHOLD_DB = -10.0  # the package's default discard rule
ORACLE_MIN_SNR_DB = 0.0
SNR_TOL_DB = 1.5
ORACLE_SHARE = 0.95
SEGMENT_FIELDS = ("session_id", "speaker_id", "start_s", "end_s",
                  "close_talk_path", "farfield_path")


class GateError(Exception):
    """The program produced a wrong output; the run reports no numbers."""


def load_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _snr(value) -> float:
    return float(value)  # numbers, or the "inf" / "-inf" sentinels


def check_rows(rows: list[dict], manifest: list[dict], truth: list[dict]) -> None:
    """Raise :class:`GateError` on the first wrong row of one pass."""
    from pseudolabel import WavFormatError, read_wav

    if len(rows) != len(manifest):
        raise GateError(f"{len(rows)} rows for {len(manifest)} segments")
    for i, (row, seg, t) in enumerate(zip(rows, manifest, truth)):
        where = f"row {i} ({seg['session_id']} {seg['speaker_id']} {seg['start_s']})"
        if any(row.get(k) != seg[k] for k in SEGMENT_FIELDS):
            raise GateError(f"{where}: segment fields do not match the manifest")
        if row.get("status") != "ok":
            raise GateError(f"{where}: failed: {row.get('status')}")
        snr = _snr(row["snr_db"])
        if row["kept"] != (snr >= KEEP_THRESHOLD_DB):
            raise GateError(f"{where}: kept={row['kept']} at {snr} dB")
        out = row.get("output_path")
        if bool(out) != row["kept"]:
            raise GateError(f"{where}: output_path {out!r} for kept={row['kept']}")
        if out:
            want = round(seg["end_s"] * SAMPLE_RATE) - round(seg["start_s"] * SAMPLE_RATE)
            try:
                clip = read_wav(out)
            except (OSError, WavFormatError) as exc:
                raise GateError(f"{where}: kept WAV unreadable: {exc}") from None
            if clip.n_samples != want:
                raise GateError(f"{where}: kept WAV has {clip.n_samples} samples, segment has {want}")
            if not np.isfinite(clip.channels[0]).all():
                raise GateError(f"{where}: kept WAV holds non-finite samples")
        if t["gt_snr_db"] >= ORACLE_MIN_SNR_DB and row["offset_samples"] != -t["delay"]:
            raise GateError(f"{where}: offset {row['offset_samples']}, "
                            f"true delay {t['delay']} at {t['gt_snr_db']:.1f} dB")


def check_oracle(rows: list[dict], truth: list[dict]) -> None:
    """Raise :class:`GateError` unless 95% of the corpus's >= 0 dB segments are within 1.5 dB."""
    errs = [abs(_snr(row["snr_db"]) - t["gt_snr_db"])
            for row, t in zip(rows, truth) if t["gt_snr_db"] >= ORACLE_MIN_SNR_DB]
    within = sum(e <= SNR_TOL_DB for e in errs)
    if within < ORACLE_SHARE * len(errs):
        raise GateError(f"only {within}/{len(errs)} segments at >= {ORACLE_MIN_SNR_DB} dB "
                        f"estimate the SNR within {SNR_TOL_DB} dB")


def accuracy(rows: list[dict], truth: list[dict]) -> dict[str, float]:
    """Accuracy against ground truth; deterministic for fixed code and seed."""
    n = len(rows)
    ok = [(row, t) for row, t in zip(rows, truth) if row.get("status") == "ok"]
    errs = [abs(_snr(row["snr_db"]) - t["gt_snr_db"]) for row, t in ok]
    return {
        "offset_exact_frac": sum(row.get("offset_samples") == -t["delay"]
                                 for row, t in zip(rows, truth)) / n,
        "snr_within_1.5db_frac": sum(e <= SNR_TOL_DB for e in errs) / max(len(errs), 1),
        "snr_err_db_p90": float(np.percentile(errs, 90)) if errs else math.inf,
        "keep_agree_frac": sum(row.get("kept") == (t["gt_snr_db"] >= KEEP_THRESHOLD_DB)
                               for row, t in zip(rows, truth)) / n,
        "kept_frac": sum(bool(row.get("kept")) for row in rows) / n,
    }
