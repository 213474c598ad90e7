"""Seeded fuzz of the three readers: WAV files, segment manifests and result
files.

Each input is read, or rejected with `WavFormatError`, `ManifestError` or a
`ValueError` that names the path. No other exception escapes, no warning of
any kind is emitted, and no input hangs. WAVs go through `read_pair`, which
reads both headers, checks the rates and rejects non-finite samples.
"""

from __future__ import annotations

import contextlib
import json
import math
import signal
import struct
import warnings

import numpy as np
import pytest

from pseudolabel import (AudioClip, ManifestError, PseudoLabelRecord, SegmentRecord,
                         WavFormatError, parse_segments, read_results, read_wav, write_results,
                         write_wav)
from pseudolabel.pipeline import read_pair
from rawwav import raw_wav_bytes

SEED = 11
PER_KIND = 50  # 4 WAV kinds and 2 text kinds: 300 inputs


def _wav_bases(rng, tmp_path) -> list[bytes]:
    """Valid WAVs in every encoding and layout the reader knows, 300 frames each."""
    bases = []
    for encoding, n_ch in (("pcm16", 1), ("pcm24", 2), ("pcm32", 1), ("float32", 2)):
        path = tmp_path / "base.wav"
        write_wav(path, AudioClip(rng.uniform(-0.9, 0.9, (n_ch, 300)), 16000), encoding)
        bases.append(path.read_bytes())
    samples = rng.uniform(-0.9, 0.9, 300)
    bases.append(raw_wav_bytes(samples.astype("<f8").tobytes(), 3, 1, 16000, 64))
    bases.append(raw_wav_bytes((samples * 2**15).astype("<i2").tobytes(), 1, 1, 16000, 16,
                               extensible=True))
    bases.append(raw_wav_bytes(samples.astype("<f4").tobytes(), 3, 1, 16000, 32,
                               pre_data=b"LIST" + struct.pack("<I", 4) + b"INFO"))
    return bases


def _mutate_wav(rng, blob: bytes, kind: str) -> bytes:
    out = bytearray(blob)
    fmt_at = 20  # every base has its fmt chunk body here
    if kind == "truncated":
        return bytes(out[: int(rng.integers(0, len(out)))])
    if kind == "bit_flipped":  # mostly in the headers, where a flip changes the most
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, 80 if rng.random() < 0.8 else len(out)))
            out[pos] ^= 1 << int(rng.integers(0, 8))
    elif kind == "retagged":
        tags = [0, 1, 2, 3, 6, 7, 0xFFFE, int(rng.integers(0, 2**16))]
        struct.pack_into("<H", out, fmt_at, tags[int(rng.integers(len(tags)))])
        if rng.random() < 0.5:
            widths = [0, 8, 12, 16, 24, 32, 64, int(rng.integers(0, 2**16))]
            struct.pack_into("<H", out, fmt_at + 14, widths[int(rng.integers(len(widths)))])
    elif kind == "overrun":  # a declared size past the file, and maybe a partial frame
        data_at = out.index(b"data") + 4
        sizes = [len(out), len(out) + 1, 2**32 - 1, int(rng.integers(0, 2**32))]
        struct.pack_into("<I", out, data_at, sizes[int(rng.integers(len(sizes)))])
        if rng.random() < 0.5:
            struct.pack_into("<I", out, 4, int(rng.integers(0, 2**32)))
        out += rng.integers(0, 256, int(rng.integers(0, 8)), dtype=np.uint8).tobytes()
    return bytes(out)


def _tear(rng, blob: bytes) -> bytes:
    """Cut the file short, or drop a run of bytes so that one line runs into another."""
    a = int(rng.integers(0, len(blob)))
    if rng.random() < 0.5:
        return blob[:a]
    return blob[:a] + blob[int(rng.integers(a, len(blob) + 1)):]


def _manifest_bytes() -> bytes:
    segments = [SegmentRecord("会议01", "Zoë Ågren", 1.25, 3.5, "音频/zoë_耳机.wav", "远场/会议室.wav"),
                SegmentRecord("mtg01", "spk2", 0.0, 12.0, "a.wav", "b.wav"),
                SegmentRecord("7", "2", 0.5, 0.75, "c.wav", "f.wav")]
    return "".join(json.dumps(seg.to_dict(), ensure_ascii=False) + "\n"
                   for seg in segments).encode("utf-8")


def _results_bytes(tmp_path) -> bytes:
    seg = SegmentRecord("mtg01", "Zoë", 1.25, 3.5, "audio/zoë.wav", "far.wav")
    records = [PseudoLabelRecord(seg, -160, 3.25, True, "ok", "out/x.wav"),
               PseudoLabelRecord(seg, None, math.inf, False, "error: boom"),
               PseudoLabelRecord(seg, 5, -math.inf)]
    write_results(records, tmp_path / "base.jsonl")
    return (tmp_path / "base.jsonl").read_bytes()


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail an input that runs longer than ``seconds`` (where SIGALRM exists)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def hung(*_):
        raise TimeoutError(f"an input ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(read, path) -> str:
    """``read(path)`` as "read" or the accepted error's kind; anything else fails."""
    with warnings.catch_warnings(record=True) as caught, _deadline(5.0):
        warnings.simplefilter("always")
        try:
            read(path)
            result = "read"
        except (WavFormatError, ManifestError) as exc:
            result = type(exc).__name__
        except ValueError as exc:
            assert str(path) in str(exc), f"{type(exc).__name__} without the path: {exc}"
            result = "ValueError"
    assert [str(w.message) for w in caught] == [], path.read_bytes()[:80]
    return result


# What each kind's seeded draw reaches: the reader tolerates a declared size
# past the file, and a re-tag to float64 meets NaNs that read_pair rejects.
_WAV_OUTCOMES = {"truncated": {"read", "WavFormatError"},
                 "bit_flipped": {"read", "WavFormatError"},
                 "retagged": {"read", "WavFormatError", "ValueError"},
                 "overrun": {"read"}}


@pytest.mark.parametrize("kind", list(_WAV_OUTCOMES))
def test_wav_inputs_are_read_or_rejected(tmp_path, kind):
    rng = np.random.default_rng([SEED, len(kind)])
    bases = _wav_bases(rng, tmp_path)
    outcomes = set()
    for i in range(PER_KIND):
        path = tmp_path / f"{kind}_{i}.wav"
        path.write_bytes(_mutate_wav(rng, bases[i % len(bases)], kind))
        outcomes.add(_outcome(lambda p: read_pair(p, p), path))
    assert outcomes == _WAV_OUTCOMES[kind]


@pytest.mark.parametrize("dtype,bits", [("<u4", 0x7F800001), ("<u8", 0x7FF0000000000001)],
                         ids=["float32", "float64"])
def test_a_signalling_nan_reads_as_nan_without_a_warning(tmp_path, dtype, bits):
    payload = np.array([0, bits, 0], dtype=dtype).tobytes()
    path = tmp_path / "snan.wav"
    path.write_bytes(raw_wav_bytes(payload, 3, 1, 16000, 8 * np.dtype(dtype).itemsize))
    assert _outcome(lambda p: read_pair(p, p), path) == "ValueError"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = read_wav(path).channels[0]
    assert samples[0] == samples[2] == 0.0 and np.isnan(samples[1])


@pytest.mark.parametrize("reader", [parse_segments, read_results], ids=["manifest", "results"])
def test_torn_lines_are_read_or_rejected(tmp_path, reader):
    rng = np.random.default_rng([SEED, 1 if reader is parse_segments else 2])
    blob = _manifest_bytes() if reader is parse_segments else _results_bytes(tmp_path)
    outcomes = set()
    for i in range(PER_KIND):
        path = tmp_path / f"torn_{i}.jsonl"
        path.write_bytes(_tear(rng, blob))
        outcomes.add(_outcome(reader, path))
    assert outcomes == {"read", "ManifestError"}, outcomes


@pytest.mark.parametrize("reader", [parse_segments, read_results], ids=["manifest", "results"])
@pytest.mark.parametrize("line,message", [
    (b'{"session_id": "Zo\xc3', "line 2: not UTF-8 text"),
    (b'{"session_id": "s", "speaker_id": "a", "start_s": 1' + b"0" * 400 + b', "end_s": 1, '
     b'"close_talk_path": "c", "farfield_path": "f"}', "line 2: int too large to convert to float"),
], ids=["split_character", "overlong_integer"])
def test_a_bad_line_is_a_manifest_error(tmp_path, reader, line, message):
    path = tmp_path / "m.jsonl"
    path.write_bytes(_manifest_bytes().splitlines(keepends=True)[0] + line + b"\n")
    with pytest.raises(ManifestError) as exc:
        reader(path)
    assert str(exc.value) == message and exc.value.line_no == 2

