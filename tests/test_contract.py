"""The output contract: `run_tls` on a fixed corpus gives the committed rows.

The corpus is rebuilt on every run from `simulate_corpus` and a
hand-written session manifest whose rows each hit one documented rule: a
clamped end, a start past the end, a colliding output name, a NaN sample
and differing sample rates. The expected rows and the length and sum of
squares of each kept WAV are committed under `tests/data/contract/`; no
audio is. `tests/data/contract/regenerate.py` rewrites them, and a change
that runs it means to change outputs.

Offsets, keep decisions, statuses and output paths must match exactly.
`snr_db` may differ by 1e-9 dB, `peak_ratio` by 1e-9 relative and a kept
WAV's energy by 1e-12 relative, which leaves room for numpy's FFT to
round differently across versions and SIMD dispatch, but for no decision
to change. A null or an "inf"/"-inf" sentinel must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pseudolabel import AudioClip, PipelineConfig, parse_segments, read_wav, run_tls, write_wav
from pseudolabel.pipeline import record_to_dict
from pseudolabel.synth import simulate_corpus

FIXTURE = Path(__file__).resolve().parent / "data" / "contract"
SNR_TOL_DB = 1e-9
PEAK_RATIO_RTOL = 1e-9
ENERGY_RTOL = 1e-12


def build_corpus(root: Path) -> list:
    """Write the contract corpus under ``root`` and return its manifest."""
    manifest_path, _ = simulate_corpus(root / "sim", count=8, seed=11, duration_range=(0.5, 4.0),
                                       snr_range_db=(-15.0, 20.0))
    manifest = parse_segments(manifest_path)
    first, second = manifest[6], manifest[7]  # the session rows cut a kept pair, s006
    far = read_wav(first.farfield_path)
    rate, duration = far.sample_rate, far.n_samples / far.sample_rate
    nan_far = far.channels[0].copy()
    nan_far[nan_far.size // 2] = np.nan
    write_wav(root / "nan_far.wav", AudioClip(nan_far, rate), "float32")
    close = read_wav(first.close_talk_path).channels[0]
    write_wav(root / "close_8k.wav", AudioClip(close[::2], rate // 2), "float32")

    def row(speaker, start, end, close=first.close_talk_path, far=first.farfield_path):
        return {"session_id": "sess", "speaker_id": speaker, "start_s": start, "end_s": end,
                "close_talk_path": close, "farfield_path": far}

    session = [
        row("mid", 0.1 * duration, 0.6 * duration),
        row("clamped", 0.25, duration + 1.5),
        row("late", duration + 0.5, duration + 1.0),
        row("clamped", 0.25, duration + 1.5, second.close_talk_path, second.farfield_path),
        row("nan", 0.1, 0.9 * duration, far=str(root / "nan_far.wav")),
        row("rate", 0.1, 0.9 * duration, close=str(root / "close_8k.wav")),
    ]
    session_path = root / "session.jsonl"
    session_path.write_text("".join(json.dumps(r) + "\n" for r in session), encoding="utf-8")
    return manifest + parse_segments(session_path)


def run_outputs(root: Path, manifest: list, workers: int,
                ) -> tuple[list[dict], list[dict], dict[str, bytes]]:
    """Run ``manifest``, built by :func:`build_corpus` under ``root / "corpus"``,
    with ``workers`` processes. Returns its rows and kept WAVs in the
    fixture's form (the corpus and output directories written as ``<corpus>``
    and ``<out>`` in every string), and each kept WAV's bytes by its output
    path in that form."""
    corpus, out = root / "corpus", root / f"out_w{workers}"
    records = run_tls(manifest, PipelineConfig(output_dir=str(out), worker_count=workers))

    def portable(value):
        if not isinstance(value, str):
            return value
        return value.replace(str(out), "<out>").replace(str(corpus), "<corpus>")

    rows, wavs, wav_bytes = [], [], {}
    for rec in records:
        row = {key: portable(value) for key, value in record_to_dict(rec).items()}
        rows.append(row)
        if rec.output_path is not None:
            samples = read_wav(rec.output_path).samples
            wavs.append({"output_path": row["output_path"], "n_samples": samples.shape[1],
                         "energy": float(np.sum(samples * samples))})
            wav_bytes[row["output_path"]] = Path(rec.output_path).read_bytes()
    return rows, wavs, wav_bytes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[int, tuple]:
    """The corpus, built once and run with 1 and 2 workers: ``run_outputs``
    by worker count."""
    root = tmp_path_factory.mktemp("contract")
    manifest = build_corpus(root / "corpus")
    return {workers: run_outputs(root, manifest, workers) for workers in (1, 2)}


def load_fixture() -> tuple[list[dict], list[dict]]:
    return tuple([json.loads(line) for line in (FIXTURE / name).read_text().splitlines()]
                 for name in ("rows.jsonl", "kept_wavs.jsonl"))


# The float keys that may round differently, and math.isclose's tolerances for each.
_TOLERANCES = {"snr_db": {"rel_tol": 0.0, "abs_tol": SNR_TOL_DB},
               "peak_ratio": {"rel_tol": PEAK_RATIO_RTOL}}


def _close(key, got, want) -> bool:
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return math.isfinite(got) and math.isclose(got, want, **_TOLERANCES[key])
    return got == want  # null, or an "inf"/"-inf" sentinel


def _energy_close(got, want) -> bool:
    return abs(got - want) <= ENERGY_RTOL * want


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_and_kept_wavs_match_the_fixture(outputs, workers):
    rows, wavs, _ = outputs[workers]
    want_rows, want_wavs = load_fixture()
    assert len(rows) == len(want_rows)
    for i, (got, want) in enumerate(zip(rows, want_rows)):
        assert got.keys() == want.keys(), i
        assert {k: v for k, v in got.items() if k not in _TOLERANCES} == \
               {k: v for k, v in want.items() if k not in _TOLERANCES}, i
        for key in _TOLERANCES:
            assert _close(key, got[key], want[key]), (i, key, got[key], want[key])
    assert [w["output_path"] for w in wavs] == [w["output_path"] for w in want_wavs]
    for got, want in zip(wavs, want_wavs):
        assert got["n_samples"] == want["n_samples"], got["output_path"]
        assert _energy_close(got["energy"], want["energy"]), \
            (got["output_path"], got["energy"], want["energy"])


def test_worker_counts_give_the_same_rows_and_kept_wav_bytes(outputs):
    (serial_rows, _, serial_wavs), (pooled_rows, _, pooled_wavs) = outputs[1], outputs[2]
    assert serial_rows == pooled_rows
    assert serial_wavs and serial_wavs.keys() == pooled_wavs.keys()
    for path, data in serial_wavs.items():
        assert pooled_wavs[path] == data, path


def test_fixture_covers_every_outcome():
    rows, wavs = load_fixture()
    statuses = [row["status"] for row in rows]
    assert all((row["peak_ratio"] is None) == (row["offset_samples"] is None) for row in rows)
    assert any(row["kept"] for row in rows) and len(wavs) == sum(row["kept"] for row in rows)
    assert any(not row["kept"] and status == "ok" for row, status in zip(rows, statuses))
    for needle in ("beyond the clip end", "collides with row", "non-finite sample",
                   "sample rates differ"):
        assert sum(needle in status for status in statuses) == 1, needle
    clamped = [row for row in rows if row["speaker_id"] == "clamped" and row["status"] == "ok"]
    assert len(clamped) == 1 and clamped[0]["kept"]
    (n_samples,) = [w["n_samples"] for w in wavs if w["output_path"] == clamped[0]["output_path"]]
    rate = 16000  # simulate_corpus's default
    assert n_samples < round(clamped[0]["end_s"] * rate) - round(clamped[0]["start_s"] * rate)
