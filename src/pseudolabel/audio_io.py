"""WAV file I/O, diarization manifests, and segment cutting."""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

ENCODINGS = ("pcm16", "pcm24", "pcm32", "float32")


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
        if not 0 <= self.start_s < self.end_s < math.inf:
            raise ValueError(f"need finite 0 <= start_s < end_s, got [{self.start_s}, {self.end_s}]")
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


# (format tag, bits) -> (sample dtype, full-scale divisor); read_wav widens PCM24 to int32.
_DECODERS = {(1, 16): ("<i2", 2.0**15), (1, 24): ("<i4", 2.0**31), (1, 32): ("<i4", 2.0**31),
             (3, 32): ("<f4", 1.0), (3, 64): ("<f8", 1.0)}


class _WavHeader(NamedTuple):
    rate: int
    n_channels: int
    width: int  # bytes per sample
    dtype: str
    scale: float
    data_offset: int
    n_frames: int  # whole frames in the data chunk's bytes present in the file


def _read_header(fh, path) -> _WavHeader:
    """Walk the RIFF chunk headers of an open file without reading ``data``."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    fmt, data, pos = None, None, 12
    while pos + 8 <= size and (fmt is None or data is None):
        fh.seek(pos)
        cid, n = struct.unpack("<4sI", fh.read(8))
        usable = min(n, size - pos - 8)  # a declared size may overrun the file
        if cid == b"fmt " and fmt is None:
            fmt = fh.read(usable)
        elif cid == b"data" and data is None:
            data = (pos + 8, usable)
        pos += 8 + n + (n & 1)  # chunks are word aligned
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
    if (tag, bits) not in _DECODERS:
        raise WavFormatError(f"{path}: unsupported encoding (format tag {tag}, {bits}-bit)")
    width = bits // 8
    return _WavHeader(rate, n_ch, width, *_DECODERS[tag, bits], data[0], data[1] // (width * n_ch))


def _sample_rate(path) -> int:
    """The sample rate in a WAV header; a bad header raises as :func:`read_wav` does."""
    with open(path, "rb") as fh:
        return _read_header(fh, path).rate


def _frame_range(n_frames: int, rate: int, start_s: float, end_s: float | None) -> tuple[int, int]:
    """The rule of :func:`cut_segment` on a clip of ``n_frames``; ``end_s=None``
    means the clip end, and with ``start_s=0`` the whole (maybe empty) clip."""
    if end_s is None and start_s == 0:
        return 0, n_frames
    if start_s < 0 or not (end_s is None or end_s > start_s):
        raise ValueError(f"need 0 <= start_s < end_s, got [{start_s}, {end_s}]")
    i0 = round(start_s * rate)
    if i0 >= n_frames:
        raise ValueError(f"segment start {start_s}s is beyond the clip end ({n_frames / rate:.3f}s)")
    i1 = n_frames if end_s is None else round(end_s * rate)
    if i1 > n_frames:
        warnings.warn(f"segment end {end_s}s clamped to clip end ({n_frames / rate:.3f}s)",
                      SegmentClampWarning, stacklevel=3)
        i1 = n_frames
    return i0, i1


def read_wav(path, start_s: float = 0.0, end_s: float | None = None) -> AudioClip:
    """Read a PCM16/PCM24/PCM32/float32/float64 WAV file into a float clip.

    Only the frames of [start_s, end_s) are read, under the rule of
    :func:`cut_segment`; by default the whole file. Integer samples are
    normalized by the type's full-scale magnitude (32768, 2**23, 2**31),
    so a full-scale PCM16 file reads back as +-32767/32768.
    """
    with open(path, "rb") as fh:
        h = _read_header(fh, path)
        i0, i1 = _frame_range(h.n_frames, h.rate, start_s, end_s)
        fh.seek(h.data_offset + i0 * h.width * h.n_channels)
        raw = fh.read((i1 - i0) * h.width * h.n_channels)
    if h.width == 3:  # widen each PCM24 sample into the top three bytes of an int32
        raw = np.pad(np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3), ((0, 0), (1, 0)))
    frames = np.frombuffer(raw, dtype=h.dtype).reshape(-1, h.n_channels).T
    return AudioClip(np.divide(frames, h.scale, dtype=np.float64, order="C"), h.rate)


def _encode(samples: np.ndarray, encoding: str) -> tuple[bytes, int, int]:
    """Interleave and quantize; returns (payload, format_tag, bits)."""
    if encoding not in ENCODINGS:
        raise ValueError(f"unsupported encoding {encoding!r}; expected one of {ENCODINGS}")
    inter = samples.T.ravel()
    if encoding == "float32":
        return inter.astype("<f4").tobytes(), 3, 32
    bits = int(encoding[3:])
    full = 2.0 ** (bits - 1)
    q = np.clip(np.round(inter * full), -full, full - 1).astype("<i4") << (32 - bits)
    return q.view(np.uint8).reshape(-1, 4)[:, 4 - bits // 8 :].tobytes(), 1, bits  # top bytes


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


def _read_jsonl(path, parse) -> list:
    """``parse`` of each JSON object line of ``path``; blank lines are skipped.

    Raises :class:`ManifestError` naming the first bad line.
    """
    rows = []
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
                rows.append(parse(obj))
            except (TypeError, ValueError) as exc:
                raise ManifestError(f"line {line_no}: {exc}", line_no) from exc
    return rows


def parse_segments(path) -> list[SegmentRecord]:
    """Parse a JSONL segment manifest, one record per line.

    Raises :class:`ManifestError` naming the first bad line.
    """
    return _read_jsonl(path, SegmentRecord.from_dict)


def cut_segment(clip: AudioClip, start_s: float, end_s: float) -> AudioClip:
    """Sample-exact slice [round(start*rate), round(end*rate)).

    Ends past the clip are clamped (with a :class:`SegmentClampWarning`);
    a start at or past the clip end is an error.
    """
    i0, i1 = _frame_range(clip.n_samples, clip.sample_rate, start_s, end_s)
    return AudioClip(clip.samples[:, i0:i1].copy(), clip.sample_rate)
