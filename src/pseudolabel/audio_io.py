"""WAV file I/O, diarization manifests, and segment cutting."""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

ENCODINGS = ("pcm16", "pcm24", "pcm32", "float32")

_PCM16_SCALE = 32768.0
_PCM24_SCALE = 8388608.0
_PCM32_SCALE = 2147483648.0


class WavFormatError(ValueError):
    """Unreadable or unsupported WAV content."""


class ManifestError(ValueError):
    """Invalid segment manifest; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class SegmentClampWarning(UserWarning):
    """A segment end overshot the file duration and was clamped."""


@dataclass
class AudioClip:
    """Multichannel float waveform, samples indexed [channel, sample]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got shape {arr.shape}")
        self.samples = arr
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.samples.shape[1] / self.sample_rate

    @property
    def channels(self) -> list[np.ndarray]:
        return [self.samples[c] for c in range(self.samples.shape[0])]


@dataclass
class SegmentRecord:
    """One diarized segment: who spoke when, and which files hold the audio."""

    session_id: str
    speaker_id: str
    start_s: float
    end_s: float
    close_talk_path: str
    farfield_path: str

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if not self.end_s > self.start_s:
            raise ValueError(f"end_s ({self.end_s}) must exceed start_s ({self.start_s})")
        if not self.close_talk_path or not self.farfield_path:
            raise ValueError("close_talk_path and farfield_path must be nonempty")

    @classmethod
    def from_dict(cls, obj: dict) -> "SegmentRecord":
        missing = [k for k in _SEGMENT_TYPES if k not in obj]
        if missing:
            raise ValueError(f"missing field(s): {', '.join(missing)}")
        return cls(**{k: t(obj[k]) for k, t in _SEGMENT_TYPES.items()})

    def to_dict(self) -> dict:
        return asdict(self)


# Field name -> type (``str`` or ``float``) in declaration order; ``from_dict``
# coerces each manifest value with it. Evaluated once, since evaluating the
# annotations costs some 50 times the coercion itself.
_SEGMENT_TYPES = get_type_hints(SegmentRecord)


def _iter_chunks(blob: bytes):
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        yield cid, pos + 8, size
        pos += 8 + size + (size & 1)  # chunks are word aligned


def _decode_pcm24(raw: bytes) -> np.ndarray:
    b = np.frombuffer(raw, dtype=np.uint8)
    b = b[: (b.size // 3) * 3].reshape(-1, 3).astype(np.int32)
    v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
    v = np.where(v & 0x800000, v - (1 << 24), v)
    return v / _PCM24_SCALE


def read_wav(path) -> AudioClip:
    """Read a PCM16/PCM24/PCM32/float32 WAV file into a float clip.

    Integer samples are normalized by the type's full-scale magnitude
    (32768, 2**23, 2**31), so a full-scale PCM16 file reads back as
    +-32767/32768.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    for cid, off, size in _iter_chunks(blob):
        if cid == b"fmt " and fmt is None:
            fmt = blob[off : off + size]
        elif cid == b"data" and data is None:
            data = blob[off : off + min(size, len(blob) - off)]
    if fmt is None or len(fmt) < 16:
        raise WavFormatError(f"{path}: missing or truncated fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    tag, n_ch, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: real tag leads the GUID
        if len(fmt) < 26:
            raise WavFormatError(f"{path}: truncated extensible fmt chunk")
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if n_ch < 1 or rate <= 0:
        raise WavFormatError(f"{path}: malformed fmt chunk")

    if tag == 1 and bits == 16:
        flat = np.frombuffer(data[: len(data) // 2 * 2], dtype="<i2") / _PCM16_SCALE
    elif tag == 1 and bits == 24:
        flat = _decode_pcm24(data)
    elif tag == 1 and bits == 32:
        flat = np.frombuffer(data[: len(data) // 4 * 4], dtype="<i4") / _PCM32_SCALE
    elif tag == 3 and bits == 32:
        flat = np.frombuffer(data[: len(data) // 4 * 4], dtype="<f4").astype(np.float64)
    elif tag == 3 and bits == 64:
        flat = np.frombuffer(data[: len(data) // 8 * 8], dtype="<f8").copy()
    else:
        raise WavFormatError(f"{path}: unsupported encoding (format tag {tag}, {bits}-bit)")

    flat = flat[: (flat.size // n_ch) * n_ch]
    samples = flat.reshape(-1, n_ch).T.copy()
    return AudioClip(samples, int(rate))


def _encode(samples: np.ndarray, encoding: str) -> tuple[bytes, int, int]:
    """Interleave and quantize; returns (payload, format_tag, bits)."""
    inter = samples.T.ravel()
    if encoding == "float32":
        return inter.astype("<f4").tobytes(), 3, 32
    if encoding == "pcm16":
        q = np.clip(np.round(inter * _PCM16_SCALE), -32768, 32767)
        return q.astype("<i2").tobytes(), 1, 16
    if encoding == "pcm24":
        q = np.clip(np.round(inter * _PCM24_SCALE), -8388608, 8388607).astype(np.int64)
        b = np.empty((q.size, 3), dtype=np.uint8)
        b[:, 0] = q & 0xFF
        b[:, 1] = (q >> 8) & 0xFF
        b[:, 2] = (q >> 16) & 0xFF
        return b.tobytes(), 1, 24
    if encoding == "pcm32":
        q = np.clip(np.round(inter * _PCM32_SCALE), -2147483648, 2147483647)
        return q.astype("<i4").tobytes(), 1, 32
    raise ValueError(f"unsupported encoding {encoding!r}; expected one of {ENCODINGS}")


def write_wav(path, clip: AudioClip, encoding: str = "float32") -> None:
    """Write a clip as a RIFF/WAVE file in the given encoding."""
    if clip.n_samples == 0:
        raise ValueError("refusing to write an empty clip")
    payload, tag, bits = _encode(clip.samples, encoding)
    n_ch = clip.n_channels
    block_align = n_ch * bits // 8
    byte_rate = clip.sample_rate * block_align
    fmt = struct.pack("<HHIIHH", tag, n_ch, clip.sample_rate, byte_rate, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def parse_segments(path) -> list[SegmentRecord]:
    """Parse a JSONL segment manifest, one record per line.

    Raises :class:`ManifestError` naming the first bad line.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {line_no}: invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(obj, dict):
                raise ManifestError(f"line {line_no}: expected a JSON object", line_no)
            try:
                records.append(SegmentRecord.from_dict(obj))
            except (TypeError, ValueError) as exc:
                raise ManifestError(f"line {line_no}: {exc}", line_no) from exc
    return records


def cut_segment(clip: AudioClip, start_s: float, end_s: float) -> AudioClip:
    """Sample-exact slice [round(start*rate), round(end*rate)).

    Ends past the clip are clamped (with a :class:`SegmentClampWarning`);
    a start at or past the clip end is an error.
    """
    if start_s < 0 or not end_s > start_s:
        raise ValueError(f"need 0 <= start_s < end_s, got [{start_s}, {end_s}]")
    rate = clip.sample_rate
    i0 = round(start_s * rate)
    if i0 >= clip.n_samples:
        raise ValueError(
            f"segment start {start_s}s is beyond the clip end ({clip.duration_s:.3f}s)"
        )
    i1 = round(end_s * rate)
    if i1 > clip.n_samples:
        warnings.warn(
            f"segment end {end_s}s clamped to clip end ({clip.duration_s:.3f}s)",
            SegmentClampWarning,
            stacklevel=2,
        )
        i1 = clip.n_samples
    return AudioClip(clip.samples[:, i0:i1].copy(), rate)
