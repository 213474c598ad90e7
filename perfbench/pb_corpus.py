"""Benchmark corpora: generated audio, a segment manifest and ground truth.

Two layouts:

* ``files``: the ``simulate_corpus`` layout, one float32 close-talk /
  far-field file pair per segment, written by ``simulate_corpus`` itself.
* ``session``: a meeting layout. Each speaker has one long PCM16
  close-talk file and one long PCM16 far-field file, and many diarized
  segments with gaps point into them. Built only from the public
  ``speech_like``, ``synth_pair`` and ``write_wav``.

Segment durations, SNRs and delays are stratified (one draw per equal
slice of the range, in a seeded order), in blocks of a timed batch, so
corpora from different seeds, and each timed batch, have the same mix of
short and long, clean and noisy segments. That
keeps per-segment cost and the accuracy figures comparable across seeds
without fixing the inputs.

The program sees only the files and the manifest; the truth file stays
with the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
DELAY_RANGE = (0, 4000)  # samples, the range simulate_corpus draws from by default


@dataclass(frozen=True)
class Workload:
    layout: str
    segments: int
    duration_s: tuple[float, float]
    snr_db: tuple[float, float]
    workers: int
    speakers: int = 1
    session_s: float = 0.0
    batch: int = 0  # segments per timed pass: the manifest's first rows; 0 means all

    @property
    def batch_segments(self) -> int:
        return self.batch or self.segments


WORKLOADS = {
    # DSP-bound: long segments, each in its own small file. The accuracy
    # figures need the whole corpus; timed passes take 15 segments, short
    # enough to fall between the shared machine's slow spells.
    "segment_files": Workload("files", 60, (4.0, 8.0), (0.0, 20.0), workers=1, batch=15),
    # I/O-bound: each segment sits in a 10 min PCM16 session file per speaker.
    "meeting": Workload("session", 24, (2.0, 8.0), (0.0, 20.0), workers=1,
                        speakers=2, session_s=600.0),
    # Fixed-cost-bound: many short turns, low SNRs, two pool workers.
    "turns_w2": Workload("files", 150, (0.5, 2.0), (-15.0, 15.0), workers=2),
}


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``n`` equal slices of [lo, hi], shuffled."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _draws(rng: np.random.Generator, wl: Workload) -> list[dict]:
    """Stratified draws, block by block, so each timed batch holds the whole mix."""
    return [draw for start in range(0, wl.segments, wl.batch_segments)
            for draw in _block(rng, wl, min(wl.batch_segments, wl.segments - start))]


def _block(rng: np.random.Generator, wl: Workload, n: int) -> list[dict]:
    durations = _strata(rng, n, *wl.duration_s)
    snrs = _strata(rng, n, *wl.snr_db)
    delays = np.floor(_strata(rng, n, DELAY_RANGE[0], DELAY_RANGE[1] + 1)).astype(int)
    seeds = rng.integers(2**31, size=n)
    return [{"duration_s": float(round(d * SAMPLE_RATE) / SAMPLE_RATE), "snr_db": float(s),
             "delay": int(k), "seed": int(g)}
            for d, s, k, g in zip(durations, snrs, delays, seeds)]


def _files_corpus(out: Path, wl: Workload, rng: np.random.Generator) -> tuple[list, list]:
    from pseudolabel import simulate_corpus

    manifest, truth = [], []
    for i, draw in enumerate(_draws(rng, wl)):
        sid = f"seg{i:04d}"
        m_path, t_path = simulate_corpus(
            out / sid, 1, seed=draw["seed"], sample_rate=SAMPLE_RATE,
            duration_range=(draw["duration_s"],) * 2, delay_range=(draw["delay"],) * 2,
            snr_range_db=(draw["snr_db"],) * 2,
        )
        row = json.loads(m_path.read_text())
        t = json.loads(t_path.read_text())
        Path(t["direct_path"]).unlink()  # the benchmark scores against truth numbers only
        row["session_id"] = sid
        manifest.append(row)
        truth.append({"session_id": sid, "delay": t["delay"], "gt_snr_db": t["gt_snr_db"]})
    return manifest, truth


def _quantize16(x: np.ndarray) -> np.ndarray:
    """PCM16 samples exactly as ``write_wav(..., "pcm16")`` stores them."""
    return np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)


def _session_corpus(out: Path, wl: Workload, rng: np.random.Generator) -> tuple[list, list]:
    from pseudolabel import AudioClip, SynthScenario, speech_like, synth_pair, write_wav

    out.mkdir(parents=True, exist_ok=True)
    n_total = int(round(wl.session_s * SAMPLE_RATE))
    draws = _draws(rng, wl)
    gains = rng.uniform(0.05, 0.5, size=len(draws))
    rows = []
    for spk in range(wl.speakers):
        mine = list(range(spk, len(draws), wl.speakers))
        close_q = np.zeros(n_total, dtype=np.int16)
        far_q = np.zeros(n_total, dtype=np.int16)
        cuts = []
        for i in mine:
            clean = speech_like(draws[i]["duration_s"], SAMPLE_RATE, draws[i]["seed"])
            scenario = SynthScenario(delay=draws[i]["delay"], gain=float(gains[i]),
                                     noise_snr_db=draws[i]["snr_db"],
                                     seed=draws[i]["seed"] + 1)
            cuts.append((i,) + synth_pair(clean, scenario))
        # Spread the windows over the session with random gaps of at least 0.5 s.
        used = sum(far.size for _, _, far, _ in cuts)
        min_gap = SAMPLE_RATE // 2
        slack = n_total - used - min_gap * (len(cuts) + 1)
        if slack < 0:
            raise ValueError("session too short for its segments")
        weights = rng.random(len(cuts) + 1)
        gaps = min_gap + np.floor(slack * weights / weights.sum()).astype(int)
        pos = 0
        close_path = out / f"spk{spk}_close.wav"
        far_path = out / f"spk{spk}_far.wav"
        for (i, close, far, direct), gap in zip(cuts, gaps):
            start = pos + int(gap)
            close_q[start:start + close.size] = _quantize16(close)
            far_q[start:start + far.size] = _quantize16(far)
            heard = far_q[start:start + far.size] / 32768.0
            residual = heard - direct
            gt = 10.0 * math.log10(float(np.sum(direct * direct)) / float(np.sum(residual * residual)))
            rows.append((start, {
                "session_id": "mtg", "speaker_id": f"spk{spk}",
                "start_s": start / SAMPLE_RATE, "end_s": (start + far.size) / SAMPLE_RATE,
                "close_talk_path": str(close_path), "farfield_path": str(far_path),
            }, {"session_id": "mtg", "delay": draws[i]["delay"], "gt_snr_db": gt}))
            pos = start + far.size
        for path, q in ((close_path, close_q), (far_path, far_q)):
            write_wav(path, AudioClip(q / 32768.0, SAMPLE_RATE), "pcm16")
    rows.sort(key=lambda r: r[0])  # diarization output runs in time order
    return [m for _, m, _ in rows], [t for _, _, t in rows]


def generate(name: str, seed: int, out_dir, workload: Workload | None = None) -> tuple[Path, list]:
    """Write workload ``name``'s corpus for ``seed`` under ``out_dir``.

    Returns the manifest path and one truth dict (``delay``,
    ``gt_snr_db``) per manifest row, in manifest order.
    """
    wl = workload or WORKLOADS[name]
    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = np.random.default_rng([seed, len(name)] + [ord(c) for c in name])
    build = _files_corpus if wl.layout == "files" else _session_corpus
    manifest, truth = build(out, wl, rng)
    manifest_path = out / "manifest.jsonl"
    manifest_path.write_text("".join(json.dumps(row) + "\n" for row in manifest))
    (out / "truth.jsonl").write_text("".join(json.dumps(row) + "\n" for row in truth))
    return manifest_path, truth
