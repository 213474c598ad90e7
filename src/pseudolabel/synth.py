"""Synthetic close-talk / far-field pair generation with known ground truth.

Every scenario is fully determined by its parameters and seed, so each
pipeline stage can be checked quantitatively: the true delay, the true
direct sound, and the realized SNR are all available to tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, SegmentRecord, _wav_header, _write_jsonl, _write_whole, write_wav
from .pipeline import estimate_snr

NOISE_KINDS = ("white", "pink")

# Total tail energy relative to the direct tap. Kept well below the
# direct path so the tail perturbs rather than dominates the mixture,
# matching an already-enhanced far-field reference.
TAIL_DB = -25.0

# A quarter of a simulated corpus has no tail: the pure delay-and-gain case.
ANECHOIC_FRACTION = 0.25

# The far field's gain on the direct sound, drawn uniformly per simulated segment.
GAIN_RANGE = (0.05, 0.5)


@dataclass
class SynthScenario:
    """Ground-truth generator parameters for one synthetic pair."""

    delay: int = 0
    gain: float = 1.0
    rir_taps: np.ndarray | None = None
    noise_snr_db: float = math.inf
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.gain < math.inf:
            raise ValueError(f"gain must be positive and finite, got {self.gain}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if not -math.inf < self.noise_snr_db <= math.inf:
            raise ValueError(f"noise_snr_db must be finite or inf, got {self.noise_snr_db}")
        if self.rir_taps is not None:
            taps = np.asarray(self.rir_taps, dtype=np.float64)
            if taps.size == 0 or taps[0] == 0.0:
                raise ValueError("rir_taps must be nonempty with a nonzero first tap")
            self.rir_taps = taps


def gen_noise(kind: str, length: int, seed: int) -> np.ndarray:
    """Unit-RMS noise; ``pink`` shapes white noise by 1/sqrt(f) in frequency."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length)
    if kind == "pink":
        spec = np.fft.rfft(x)
        scale = np.zeros(spec.size)
        scale[1:] = 1.0 / np.sqrt(np.arange(1, spec.size))
        x = np.fft.irfft(spec * scale, length)
    rms = math.sqrt(float(np.mean(x * x)))
    if rms == 0.0:
        raise ValueError("degenerate noise draw")
    return x / rms


def gen_rir(decay_ms: float, len_taps: int, seed: int, sample_rate: int) -> np.ndarray:
    """Unit direct tap followed by an exponentially decaying noise tail.

    The tail envelope is ``exp(-n / (decay_ms/1000 * sample_rate))`` and
    its total energy is normalized to ``TAIL_DB`` relative to the direct
    tap.
    """
    if len_taps < 1:
        raise ValueError(f"len_taps must be >= 1, got {len_taps}")
    if not 0 <= decay_ms < math.inf:
        raise ValueError(f"decay_ms must be >= 0 and finite, got {decay_ms}")
    if not sample_rate > 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    rir = np.zeros(len_taps)
    rir[0] = 1.0
    if len_taps > 1 and decay_ms > 0:
        tau = decay_ms / 1000.0 * sample_rate
        n = np.arange(1, len_taps, dtype=np.float64)
        tail = np.random.default_rng(seed).standard_normal(len_taps - 1) * np.exp(-n / tau)
        energy = float(np.sum(tail * tail))
        if energy > 0:
            tail *= math.sqrt(10.0 ** (TAIL_DB / 10.0) / energy)
        rir[1:] = tail
    return rir


def synth_pair(clean, scenario: SynthScenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (close_talk, far_mixture, direct_sound) from a clean source.

    The far mixture applies delay, gain, the optional impulse response,
    and white noise scaled so that direct-to-noise energy hits
    ``noise_snr_db`` exactly. The direct sound is the delayed, scaled
    clean signal through the direct tap only.
    """
    clean = np.asarray(clean, dtype=np.float64)
    if clean.ndim != 1 or clean.size == 0 or not np.any(clean):
        raise ValueError("clean source must be a nonempty 1-D signal with energy")
    rir = scenario.rir_taps if scenario.rir_taps is not None else np.ones(1)
    delayed = np.concatenate((np.zeros(scenario.delay), clean))
    wet = np.convolve(delayed, rir)
    out_len = wet.size
    direct = np.zeros(out_len)
    direct[: delayed.size] = scenario.gain * rir[0] * delayed
    far = scenario.gain * wet
    if math.isfinite(scenario.noise_snr_db):
        noise = gen_noise("white", out_len, scenario.seed)
        direct_energy = float(np.sum(direct * direct))
        noise_energy = float(np.sum(noise * noise))
        scale = math.sqrt(direct_energy / (noise_energy * 10.0 ** (scenario.noise_snr_db / 10.0)))
        far = far + scale * noise
    return clean.copy(), far, direct


def speech_like(duration_s: float, sample_rate: int, seed: int) -> np.ndarray:
    """Wideband, syllabically modulated test source (pink carrier)."""
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError("duration too short")
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    syllable_hz = rng.uniform(2.2, 3.4)
    carrier = gen_noise("pink", n, int(rng.integers(2**31)))
    t = np.arange(n) / sample_rate
    env = 0.15 + 0.85 * (0.5 - 0.5 * np.cos(2.0 * math.pi * syllable_hz * t + phase)) ** 2
    x = carrier * env
    return 0.5 * x / np.max(np.abs(x))


def simulate_corpus(out_dir, count: int, seed: int = 0, sample_rate: int = 16000,
                    duration_range: tuple[float, float] = (4.0, 8.0),
                    delay_range: tuple[int, int] = (0, 4000),
                    max_decay_ms: float = 50.0,
                    snr_range_db: tuple[float, float] = (0.0, 20.0)) -> tuple[Path, Path]:
    """Write a ready-to-run corpus: WAVs, segment manifest, and truth file.

    Returns ``(manifest_path, truth_path)``. The truth file is JSONL with
    the generator parameters and the realized direct-vs-residual SNR of
    every segment. Each file is written to ``<name>.partial`` and renamed,
    the manifest and truth file after every WAV; an earlier pair of them in
    ``out_dir`` is removed first, so an interrupted call leaves neither.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not sample_rate > 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    for name, (low, high), floor_ok, rule in (
            ("duration_range", duration_range, duration_range[0] > 0, "0 < low <= high"),
            ("delay_range", delay_range, delay_range[0] >= 0, "0 <= low <= high"),
            ("snr_range_db", snr_range_db, snr_range_db[0] > -math.inf, "low <= high")):
        if not (floor_ok and low <= high < math.inf):
            raise ValueError(f"{name} must be finite with {rule}, got {(low, high)}")
    if not 0 <= max_decay_ms < math.inf:
        raise ValueError(f"max_decay_ms must be >= 0 and finite, got {max_decay_ms}")
    _wav_header(3, 1, sample_rate, 32, 0)  # the rate fits the float32 mono files written below
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.jsonl"
    truth_path = out / "truth.jsonl"
    for path in (manifest_path, truth_path):  # an earlier corpus's would describe the new WAVs
        path.unlink(missing_ok=True)
    rng = np.random.default_rng(seed)
    manifest, truth = [], []
    for i in range(count):
        sid = f"s{i:03d}"
        duration = float(rng.uniform(*duration_range))
        delay = int(rng.integers(delay_range[0], delay_range[1] + 1))
        gain = float(rng.uniform(*GAIN_RANGE))
        snr_db = float(rng.uniform(*snr_range_db))
        anechoic = max_decay_ms <= 0 or bool(rng.random() < ANECHOIC_FRACTION)
        decay_ms = 0.0 if anechoic else float(
            rng.uniform(min(10.0, max_decay_ms), max_decay_ms)
        )
        source_seed = int(rng.integers(2**31))
        noise_seed = int(rng.integers(2**31))
        rir_seed = int(rng.integers(2**31))

        clean = speech_like(duration, sample_rate, source_seed)
        rir = None
        if decay_ms > 0:
            len_taps = min(int(4 * decay_ms / 1000.0 * sample_rate) + 1, 6400)
            rir = gen_rir(decay_ms, len_taps, rir_seed, sample_rate)
        scenario = SynthScenario(delay=delay, gain=gain, rir_taps=rir,
                                 noise_snr_db=snr_db, seed=noise_seed)
        close, far, direct = synth_pair(clean, scenario)

        close_path = out / f"{sid}_close.wav"
        far_path = out / f"{sid}_far.wav"
        direct_path = out / f"{sid}_direct.wav"
        for path, signal in ((close_path, close), (far_path, far), (direct_path, direct)):
            with _write_whole(path) as part:
                write_wav(part, AudioClip(signal, sample_rate), "float32")

        seg = SegmentRecord(sid, "spk0", 0.0, far.size / sample_rate,
                            str(close_path), str(far_path))
        manifest.append(seg.to_dict())
        truth.append({
            "session_id": sid,
            "delay": delay,
            "gain": gain,
            "decay_ms": decay_ms,
            "noise_snr_db": snr_db,
            "gt_snr_db": estimate_snr(direct, far),
            "duration_s": duration,
            "direct_path": str(direct_path),
        })
    _write_jsonl(manifest_path, manifest)
    _write_jsonl(truth_path, truth)
    return manifest_path, truth_path
