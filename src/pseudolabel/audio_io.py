"""WAV file I/O and diarization manifests; a segment is cut by a ranged read."""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

ENCODINGS = ("pcm16", "float32")


class WavFormatError(ValueError):
    """Unreadable or unsupported WAV content."""


class ManifestError(ValueError):
    """Invalid segment manifest; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


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
        _check_interval(self.start_s, self.end_s)
        if not self.close_talk_path or not self.farfield_path:
            raise ValueError("close_talk_path and farfield_path must be nonempty")

    @classmethod
    def from_dict(cls, obj: dict) -> "SegmentRecord":
        missing = [k for k in _SEGMENT_TYPES if k not in obj]
        if missing:
            raise ValueError(f"missing field(s): {', '.join(missing)}")
        for k in _SEGMENT_TYPES:  # the coercion below would turn null into "None", true into 1.0
            if obj[k] is None or isinstance(obj[k], (bool, list, dict)):
                raise ValueError(f"{k} must be a string or a number, got {json.dumps(obj[k])}")
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


def _check_interval(start_s: float, end_s: float | None) -> None:
    if not (0 <= start_s < math.inf and (end_s is None or start_s < end_s < math.inf)):
        raise ValueError(f"need finite 0 <= start_s < end_s, got [{start_s}, {end_s}]")


def _frame_range(n_frames: int, rate: int, start_s: float, end_s: float | None) -> tuple[int, int]:
    """Frames ``[round(start_s*rate), round(end_s*rate))`` of a clip of ``n_frames``, the
    end clamped to the clip end. A start at or past it raises ``... is beyond the clip end
    ...``, and an interval that fails the manifest's check raises that check's ``ValueError``.
    ``end_s=None`` means the clip end, and with ``start_s=0`` the whole (maybe empty) clip."""
    if end_s is None and start_s == 0:
        return 0, n_frames
    _check_interval(start_s, end_s)
    i0 = round(min(start_s * rate, n_frames))  # clamped first: a huge time overflows round
    if i0 >= n_frames:
        raise ValueError(f"segment start {start_s}s is beyond the clip end ({n_frames / rate:.3f}s)")
    return i0, n_frames if end_s is None else round(min(end_s * rate, n_frames))


def read_wav(path, start_s: float = 0.0, end_s: float | None = None) -> AudioClip:
    """Read a PCM16/PCM24/PCM32/float32/float64 WAV file into a float clip.

    Only frames ``[round(start_s*rate), round(end_s*rate))`` are read, by
    default the whole file. The end is clamped to the file's end. A start at
    or past it raises ``ValueError`` (``... is beyond the clip end ...``),
    and so does the manifest's interval check. Integer samples are
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
    with np.errstate(invalid="ignore"):  # a signalling NaN in a float file reads as a NaN
        return AudioClip(np.divide(frames, h.scale, dtype=np.float64, order="C"), h.rate)


# Frames encoded and written at a time, so a write's temporaries are a block's, not the clip's.
_WRITE_FRAMES = 2**18


def _encode(frames: np.ndarray, encoding: str) -> np.ndarray:
    """Interleave ``frames`` ([channel, sample]) and quantize them to ``encoding``;
    returns the samples as they lie in the file. A finite sample that float32 cannot
    hold raises ``ValueError``, where the cast would make it an infinity."""
    inter = frames.T.ravel()
    if encoding == "float32":
        try:
            with np.errstate(over="raise"):
                return inter.astype("<f4")
        except FloatingPointError:
            raise ValueError(f"cannot write a finite sample beyond float32's range "
                             f"(+-{np.finfo('<f4').max:.7g})") from None
    q = inter * 32768.0  # one float64 temporary, rounded and clipped in place
    return np.clip(np.round(q, out=q), -32768, 32767, out=q).astype("<i2")


def _wav_header(tag: int, n_ch: int, rate: int, bits: int, n_bytes: int) -> bytes:
    """The RIFF, ``fmt `` and ``data`` chunk headers before ``n_bytes`` of samples;
    ``n_bytes`` is even, so no pad byte follows them.

    Raises ``ValueError`` if a field does not fit its slot (the byte rate
    and the sizes are 32-bit, the channel count 16-bit).
    """
    block_align = n_ch * bits // 8
    try:
        return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + n_bytes, b"WAVE",
                           b"fmt ", 16, tag, n_ch, rate, rate * block_align, block_align, bits,
                           b"data", n_bytes)
    except struct.error:
        raise ValueError(f"out of range for a WAV header: {n_ch} channel(s) of {bits}-bit "
                         f"samples at {rate} Hz, {n_bytes} data bytes") from None


@contextmanager
def _write_whole(path) -> Iterator[Path]:
    """Yield ``<path>.partial`` to write, then rename it to ``path``: a file appears under
    its name whole or not at all. On any exception the partial file is unlinked."""
    path = Path(path)
    part = path.with_name(path.name + ".partial")
    try:
        yield part
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_wav(path, clip: AudioClip, encoding: str = "float32") -> None:
    """Write a clip as a RIFF/WAVE file in the given encoding.

    ``pcm16`` clips each sample to full scale and rejects a NaN before
    anything is written; ``float32`` writes NaN and inf as they are, and
    raises ``ValueError`` on a finite sample beyond its range. A rate,
    channel count or length that the header cannot hold raises
    ``ValueError``, also before anything is written. The samples are
    encoded and written :data:`_WRITE_FRAMES` frames at a time, to
    ``<path>.partial``, which is then renamed to ``path``; interrupted, the
    write removes the partial file and leaves ``path`` as it was.
    """
    if clip.n_samples == 0:
        raise ValueError("refusing to write an empty clip")
    if encoding not in ENCODINGS:
        raise ValueError(f"unsupported encoding {encoding!r}; expected one of {ENCODINGS}")
    # An integer has no NaN, and the cast would make one up; min finds a NaN without a temporary.
    if encoding == "pcm16" and np.isnan(clip.samples.min()):
        raise ValueError("cannot write a NaN sample as pcm16")
    tag, bits = (3, 32) if encoding == "float32" else (1, 16)
    n_bytes = clip.samples.size * bits // 8
    header = _wav_header(tag, clip.n_channels, clip.sample_rate, bits, n_bytes)
    with _write_whole(path) as part, open(part, "wb") as fh:
        fh.write(header)
        for i in range(0, clip.n_samples, _WRITE_FRAMES):
            fh.write(_encode(clip.samples[:, i : i + _WRITE_FRAMES], encoding))


def _write_jsonl(path, rows: Iterable[dict]) -> None:
    """One JSON line per row, in the parent directory it creates; ``path`` holds the whole
    file, or what it held before."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with _write_whole(path) as part, open(part, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _read_jsonl(path, parse) -> list:
    """``parse`` of each JSON object line of ``path``; blank lines are skipped.

    Raises :class:`ManifestError` naming the first bad line.
    """
    rows = []
    # A byte that is not UTF-8 decodes to a lone surrogate, which fails its line below;
    # a leading byte order mark is skipped.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                text.encode("utf-8")
                obj = json.loads(text)
            except UnicodeEncodeError as exc:
                raise ManifestError(f"line {line_no}: not UTF-8 text", line_no) from exc
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {line_no}: invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(obj, dict):
                raise ManifestError(f"line {line_no}: expected a JSON object", line_no)
            try:
                rows.append(parse(obj))
            except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge integer
                raise ManifestError(f"line {line_no}: {exc}", line_no) from exc
    return rows


def parse_segments(path) -> list[SegmentRecord]:
    """Parse a JSONL segment manifest, one record per line.

    Raises :class:`ManifestError` naming the first bad line.
    """
    return _read_jsonl(path, SegmentRecord.from_dict)
