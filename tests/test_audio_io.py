import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from pseudolabel.audio_io import (
    AudioClip,
    ManifestError,
    SegmentRecord,
    WavFormatError,
    _WRITE_FRAMES,
    _encode,
    _frame_range,
    parse_segments,
    read_wav,
    write_wav,
)
from rawwav import raw_wav_bytes


def with_fmt_size(blob: bytes, size: int) -> bytes:
    """A :func:`raw_wav_bytes` file with its ``fmt `` chunk cut to its first
    ``size`` bytes; the chunks after it are kept."""
    (n,) = struct.unpack_from("<I", blob, 16)
    body = blob[8:16] + struct.pack("<I", size) + blob[20 : 20 + size] + blob[20 + n :]
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestWavRoundTrip:
    def test_zeros_pcm16_one_second(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(path, AudioClip(np.zeros(16000), 16000), "pcm16")
        clip = read_wav(path)
        assert clip.sample_rate == 16000
        assert clip.n_channels == 1
        assert clip.n_samples == 16000
        assert np.all(clip.samples == 0.0)

    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 4000).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.wav"
        write_wav(path, AudioClip(x, 16000), "float32")
        np.testing.assert_array_equal(read_wav(path).channels[0], x)

    def test_pcm16_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 4000)
        path = tmp_path / "p16.wav"
        write_wav(path, AudioClip(x, 16000), "pcm16")
        back = read_wav(path).channels[0]
        assert np.max(np.abs(back - x)) <= 1.0 / 32768.0

    def test_multichannel_preserved(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 500)).astype(np.float32).astype(np.float64)
        path = tmp_path / "mc.wav"
        write_wav(path, AudioClip(x, 44100), "float32")
        clip = read_wav(path)
        assert clip.n_channels == 3
        np.testing.assert_array_equal(clip.samples, x)

    def test_empty_clip_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_wav(tmp_path / "e.wav", AudioClip(np.zeros((1, 0)), 16000))

    # read_wav reads PCM24 and PCM32; write_wav writes neither.
    def test_unknown_encoding(self, tmp_path):
        path = tmp_path / "x.wav"
        for encoding in ("mp3", "pcm24", "pcm32"):
            with pytest.raises(ValueError, match=f"^unsupported encoding '{encoding}'; expected "
                                                 r"one of \('pcm16', 'float32'\)$"):
                write_wav(path, AudioClip(np.zeros(10), 16000), encoding)
            assert not path.exists()

    @pytest.mark.parametrize("encoding", ["pcm16"])
    def test_nan_in_a_pcm_encoding_rejected_before_writing(self, tmp_path, encoding):
        x = np.array([0.5, np.nan, -0.5])
        path = tmp_path / "nan.wav"
        with pytest.raises(ValueError, match=f"^cannot write a NaN sample as {encoding}$"):
            write_wav(path, AudioClip(x, 16000), encoding)
        assert not path.exists()

    # The byte rate is 32-bit: 2**30 Hz of float32 mono is 2**32 bytes a second.
    def test_rate_past_the_header_rejected_before_writing(self, tmp_path):
        write_wav(tmp_path / "edge.wav", AudioClip(np.zeros(3), 2**30 - 1))
        assert read_wav(tmp_path / "edge.wav").sample_rate == 2**30 - 1
        path = tmp_path / "fast.wav"
        with pytest.raises(ValueError, match="^out of range for a WAV header: 1 channel"):
            write_wav(path, AudioClip(np.zeros(3), 2**30))
        assert not path.exists()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(tmp_path / "missing_dir" / "x.wav", AudioClip(np.zeros(10), 16000))

    def test_pcm16_write_peak_is_one_and_a_quarter_inputs(self, tmp_path):
        # A clip of one block: one float64 temporary, rounded and clipped in
        # place, then its int16 cast, a quarter of its size: tracemalloc's peak
        # reads 1.25x the float64 input.
        x = np.random.default_rng(4).uniform(-1.2, 1.2, _WRITE_FRAMES)
        tracemalloc.start()
        try:
            write_wav(tmp_path / "q.wav", AudioClip(x, 16000), "pcm16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes < peak < 1.3 * x.nbytes

    def test_long_pcm16_write_peak_is_one_block(self, tmp_path):
        x = np.random.default_rng(5).uniform(-1.2, 1.2, 60 * 16000)  # 3.7 blocks
        tracemalloc.start()
        try:
            write_wav(tmp_path / "long.wav", AudioClip(x, 16000), "pcm16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * _WRITE_FRAMES * x.itemsize < x.nbytes / 2

    # Two channels of 2.5 blocks, with infinities and full-scale samples at
    # the block edges: the file holds the bytes _encode makes of the whole clip.
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_block_writes_equal_the_whole_clip_encoded(self, tmp_path, encoding):
        x = np.random.default_rng(6).uniform(-1.3, 1.3, (2, 5 * _WRITE_FRAMES // 2 + 1))
        x[0, _WRITE_FRAMES - 1], x[1, _WRITE_FRAMES] = np.inf, -np.inf
        x[:, 2 * _WRITE_FRAMES] = [1.0, -1.0]
        path = tmp_path / "blocks.wav"
        write_wav(path, AudioClip(x, 16000), encoding)
        assert path.read_bytes()[44:] == _encode(x, encoding).tobytes()


class TestAudioClip:
    @pytest.mark.parametrize("samples, rate, message", [
        (np.zeros((1, 2, 3)), 16000, r"samples must be 1-D or 2-D, got shape \(1, 2, 3\)"),
        (np.zeros(4), 0, "sample_rate must be positive, got 0"),
        (np.zeros(4), -8000, "sample_rate must be positive, got -8000"),
    ])
    def test_rejects(self, samples, rate, message):
        with pytest.raises(ValueError, match=message):
            AudioClip(samples, rate)


class TestWavFixtures:
    def test_pcm16_full_scale_square_wave(self, tmp_path):
        # byte-level fixture: alternate +32767 / -32768
        samples = np.tile([32767, -32768], 100).astype("<i2")
        path = tmp_path / "sq.wav"
        path.write_bytes(raw_wav_bytes(samples.tobytes(), 1, 1, 16000, 16))
        back = read_wav(path).channels[0]
        np.testing.assert_array_equal(back[0::2], 32767 / 32768)
        np.testing.assert_array_equal(back[1::2], -1.0)

    def test_pcm24_byte_fixture(self, tmp_path):
        # +2^23-1 then -2^23 packed little-endian, 3 bytes each
        payload = bytes([0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x80])
        path = tmp_path / "p24.wav"
        path.write_bytes(raw_wav_bytes(payload, 1, 1, 16000, 24))
        back = read_wav(path).channels[0]
        np.testing.assert_allclose(back, [8388607 / 8388608, -1.0])

    def test_pcm32_byte_fixture(self, tmp_path):
        samples = np.array([2**31 - 1, -(2**31), 0, 2**30], dtype="<i4")
        path = tmp_path / "p32.wav"
        path.write_bytes(raw_wav_bytes(samples.tobytes(), 1, 1, 16000, 32))
        back = read_wav(path).channels[0]
        np.testing.assert_array_equal(back, [(2**31 - 1) / 2**31, -1.0, 0.0, 0.5])

    def test_extensible_fmt_chunk(self, tmp_path):
        samples = np.array([0, 16384], dtype="<i2")
        path = tmp_path / "ext.wav"
        path.write_bytes(raw_wav_bytes(samples.tobytes(), 1, 1, 16000, 16, extensible=True))
        back = read_wav(path).channels[0]
        np.testing.assert_allclose(back, [0.0, 0.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"NOT A WAVE FILE AT ALL")
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_unsupported_encoding_8bit(self, tmp_path):
        path = tmp_path / "u8.wav"
        path.write_bytes(raw_wav_bytes(bytes([0, 128, 255]), 1, 1, 8000, 8))
        with pytest.raises(WavFormatError, match="unsupported"):
            read_wav(path)

    @pytest.mark.parametrize("blob,message", [
        (with_fmt_size(raw_wav_bytes(b"\0\0", 1, 1, 16000, 16), 14),
         "missing or truncated fmt chunk"),
        (with_fmt_size(raw_wav_bytes(b"\0\0", 1, 1, 16000, 16, extensible=True), 24),
         "truncated extensible fmt chunk"),
        (raw_wav_bytes(b"", 1, 0, 16000, 16), "malformed fmt chunk"),
        (raw_wav_bytes(b"\0\0", 1, 1, 0, 16), "malformed fmt chunk"),
    ], ids=["truncated_fmt", "truncated_extensible_fmt", "zero_channels", "zero_rate"])
    def test_bad_fmt_chunk_names_the_file(self, tmp_path, blob, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(WavFormatError) as exc:
            read_wav(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_missing_data_chunk(self, tmp_path):
        blob = raw_wav_bytes(b"", 1, 1, 16000, 16)[:-8]  # without the empty data chunk
        path = tmp_path / "nd.wav"
        path.write_bytes(blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:])
        with pytest.raises(WavFormatError, match="data"):
            read_wav(path)


class TestParseSegments:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert parse_segments(path) == []

    def test_one_valid_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"session_id": "s1", "speaker_id": "a", "start_s": 0.5, "end_s": 2.0,
               "close_talk_path": "c.wav", "farfield_path": "f.wav"}
        path.write_text(json.dumps(row) + "\n")
        records = parse_segments(path)
        assert len(records) == 1
        assert records[0] == SegmentRecord(**row)

    def test_end_before_start_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"session_id": "s1", "speaker_id": "a", "start_s": 3.0, "end_s": 2.0,
               "close_talk_path": "c.wav", "farfield_path": "f.wav"}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ManifestError, match="line 1") as exc:
            parse_segments(path)
        assert exc.value.line_no == 1

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        good = {"session_id": "s", "speaker_id": "a", "start_s": 0, "end_s": 1,
                "close_talk_path": "c", "farfield_path": "f"}
        path.write_text(json.dumps(good) + "\n{oops\n")
        with pytest.raises(ManifestError, match="line 2"):
            parse_segments(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"session_id": "s"}\n')
        with pytest.raises(ManifestError, match="missing field"):
            parse_segments(path)

    def test_infinite_end_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        good = {"session_id": "s", "speaker_id": "a", "start_s": 0, "end_s": 1,
                "close_talk_path": "c", "farfield_path": "f"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {"end_s": math.inf}) + "\n")
        with pytest.raises(ManifestError, match="line 2.*finite") as exc:
            parse_segments(path)
        assert exc.value.line_no == 2

    # ``str()`` and ``float()`` would accept each of these: null as "None", true as 1.0.
    @pytest.mark.parametrize("field,value", [
        ("session_id", None), ("speaker_id", ["a"]), ("speaker_id", True),
        ("close_talk_path", None), ("farfield_path", {"path": "f.wav"}),
        ("start_s", False), ("end_s", True), ("end_s", None),
    ])
    def test_wrong_json_type_names_field_and_line(self, tmp_path, field, value):
        path = tmp_path / "m.jsonl"
        good = {"session_id": "s", "speaker_id": "a", "start_s": 0, "end_s": 1,
                "close_talk_path": "c", "farfield_path": "f"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {field: value}) + "\n")
        with pytest.raises(ManifestError) as exc:
            parse_segments(path)
        assert str(exc.value) == \
               f"line 2: {field} must be a string or a number, got {json.dumps(value)}"
        assert exc.value.line_no == 2

    def test_numeric_ids_and_string_times_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"session_id": 7, "speaker_id": 2, "start_s": "0.5", "end_s": "1.25",
               "close_talk_path": "c", "farfield_path": "f"}
        path.write_text(json.dumps(row) + "\n")
        assert parse_segments(path) == [SegmentRecord("7", "2", 0.5, 1.25, "c", "f")]

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"session_id": "s", "speaker_id": "a", "start_s": 0, "end_s": 1,
               "close_talk_path": "c", "farfield_path": "f"}
        path.write_text("\ufeff" + json.dumps(row) + "\n", encoding="utf-8")
        assert parse_segments(path) == [SegmentRecord("s", "a", 0.0, 1.0, "c", "f")]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"session_id": "s", "speaker_id": "a", "start_s": 0, "end_s": 1,
               "close_talk_path": "c", "farfield_path": "f"}
        path.write_text("\n" + json.dumps(row) + "\n\n")
        assert len(parse_segments(path)) == 1


class TestSegmentRecord:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SegmentRecord("s", "a", 2.0, 1.0, "c", "f")

    def test_empty_path(self):
        with pytest.raises(ValueError, match="nonempty"):
            SegmentRecord("s", "a", 0.0, 1.0, "", "f")

    @pytest.mark.parametrize("start,end", [(0.0, math.inf), (math.nan, 1.0), (0.0, math.nan),
                                           (-math.inf, 1.0), (math.inf, math.inf)])
    def test_non_finite_interval(self, start, end):
        with pytest.raises(ValueError, match="finite"):
            SegmentRecord("s", "a", start, end, "c", "f")


def _outcome(fn):
    """The clip or the raised error, and every warning, as comparable values;
    a clamp shows only in the clip's length, so the list should stay empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            clip = fn()
            result = ("ok", clip.samples.shape, clip.samples.tobytes(), clip.sample_rate)
        except ValueError as exc:
            result = ("error", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


# (format tag, bits, dtype) of every encoding read_wav decodes
_RAW_ENCODINGS = {"pcm16": (1, 16, "<i2"), "pcm24": (1, 24, None), "pcm32": (1, 32, "<i4"),
                  "float32": (3, 32, "<f4"), "float64": (3, 64, "<f8")}


def _payload(rng, encoding: str, n_samples: int) -> bytes:
    tag, bits, dtype = _RAW_ENCODINGS[encoding]
    if encoding == "pcm24":
        return rng.integers(0, 256, 3 * n_samples, dtype=np.uint8).tobytes()
    if tag == 1:
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, n_samples, endpoint=True).astype(dtype).tobytes()
    return rng.standard_normal(n_samples).astype(dtype).tobytes()


def _sliced(whole: AudioClip, start_s: float, end_s: float) -> AudioClip:
    """The whole-file read sliced by the rule of a ranged read."""
    i0, i1 = _frame_range(whole.n_samples, whole.sample_rate, start_s, end_s)
    return AudioClip(whole.samples[:, i0:i1], whole.sample_rate)


class TestRangedRead:
    """``read_wav(p, a, b)`` is the whole read ``read_wav(p)`` sliced, seek for seek."""

    @pytest.mark.parametrize("n_ch", [1, 2])
    @pytest.mark.parametrize("encoding", list(_RAW_ENCODINGS))
    @pytest.mark.parametrize("layout", ["plain", "extensible", "chunks_before_data", "overrun"])
    def test_equals_whole_read_then_cut(self, tmp_path, encoding, n_ch, layout):
        rng = np.random.default_rng([n_ch, len(encoding), len(layout)])
        rate, n_frames = 8000, 2411
        tag, bits, _ = _RAW_ENCODINGS[encoding]
        payload = _payload(rng, encoding, n_ch * n_frames)
        kwargs = {}
        if layout == "extensible":
            kwargs["extensible"] = True
        elif layout == "chunks_before_data":  # a LIST chunk, then an odd one plus its pad byte
            kwargs["pre_data"] = (b"LIST" + struct.pack("<I", 4) + b"INFO"
                                  + b"junk" + struct.pack("<I", 3) + b"abc\x00")
        elif layout == "overrun":  # declared size runs past the file; a partial frame trails
            payload += b"\x01"
            kwargs["data_size"] = len(payload) + 1000
        path = tmp_path / "x.wav"
        path.write_bytes(raw_wav_bytes(payload, tag, n_ch, rate, bits, **kwargs))
        whole = read_wav(path)
        assert whole.n_samples == n_frames and whole.n_channels == n_ch
        duration = n_frames / rate
        pairs = [(0.0, duration), (0.0, duration + 1.0), (duration - 1e-3, duration + 0.5),
                 (duration, duration + 1.0), (duration + 0.2, duration + 0.3), (0.1, 0.1)]
        for _ in range(40):
            a = float(rng.uniform(0.0, duration * 1.1))
            pairs.append((a, a + float(rng.uniform(1e-4, duration * 0.6))))
        outcomes = set()
        for a, b in pairs:
            ranged = _outcome(lambda: read_wav(path, a, b))
            assert ranged == _outcome(lambda: _sliced(whole, a, b)), (a, b)
            result, caught = ranged
            assert caught == [], (a, b)
            clamped = result[0] == "ok" and result[1][1] < round(b * rate) - round(a * rate)
            outcomes.add("clamped" if clamped else result[0])
        assert outcomes == {"ok", "clamped", "error"}
        # no end: from the start to the end of the file
        np.testing.assert_array_equal(read_wav(path, 0.1).samples, whole.samples[:, 800:])

    # The manifest's interval rule; a huge finite time clamps to the clip
    # before it is rounded, so it never overflows.
    @pytest.mark.parametrize("start, end, message", [
        (math.nan, 1.0, "need finite 0 <= start_s < end_s, got [nan, 1.0]"),
        (0.0, math.nan, "need finite 0 <= start_s < end_s, got [0.0, nan]"),
        (0.0, math.inf, "need finite 0 <= start_s < end_s, got [0.0, inf]"),
        (math.inf, math.inf, "need finite 0 <= start_s < end_s, got [inf, inf]"),
        (0.0, 1e305, None),
        (1e305, 1e306, "segment start 1e+305s is beyond the clip end (0.100s)"),
        (math.nan, None, "need finite 0 <= start_s < end_s, got [nan, None]"),
        (math.inf, None, "need finite 0 <= start_s < end_s, got [inf, None]"),
        (1e305, None, "segment start 1e+305s is beyond the clip end (0.100s)"),
    ], ids=["nan_start", "nan_end", "inf_end", "inf_start", "huge_end", "huge_start",
            "nan_start_no_end", "inf_start_no_end", "huge_start_no_end"])
    def test_non_finite_and_huge_times(self, tmp_path, start, end, message):
        path = tmp_path / "x.wav"
        write_wav(path, AudioClip(np.arange(800) / 800, 8000))
        whole = read_wav(path)
        ranged = _outcome(lambda: read_wav(path, start, end))
        if end is not None:
            assert ranged == _outcome(lambda: _sliced(whole, start, end))
        if message is None:
            assert ranged == _outcome(lambda: whole)
        else:
            assert ranged == (("error", ValueError, message), [])

    # The frame rule in figures, on a 10 s float32 file at 16 kHz.
    @pytest.fixture
    def ten_seconds(self, tmp_path):
        path = tmp_path / "ten.wav"
        write_wav(path, AudioClip(np.random.default_rng(7).standard_normal(160000), 16000))
        return path, read_wav(path)

    @pytest.mark.parametrize("start, end, i0, i1", [
        (0.0, 10.0, 0, 160000), (1.0, 2.0, 16000, 32000), (9.5, 11.0, 152000, 160000),
    ], ids=["whole_file", "middle_second", "end_clamped"])
    def test_frames_read(self, ten_seconds, start, end, i0, i1):
        path, whole = ten_seconds
        np.testing.assert_array_equal(read_wav(path, start, end).samples, whole.samples[:, i0:i1])

    # A start past the end raises in huge_start above and in the empty data chunk below.
    def test_empty_interval_raises_the_manifest_error(self, ten_seconds):
        with pytest.raises(ValueError) as caught:
            read_wav(ten_seconds[0], 2.0, 2.0)
        assert str(caught.value) == "need finite 0 <= start_s < end_s, got [2.0, 2.0]"

    def test_length_rule_random(self, ten_seconds):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = float(rng.uniform(0, 9))
            b = float(rng.uniform(a + 0.01, 10.0))
            assert read_wav(ten_seconds[0], a, b).n_samples == round(b * 16000) - round(a * 16000)

    def test_whole_read_of_an_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(raw_wav_bytes(b"", 1, 2, 16000, 16))
        assert read_wav(path).samples.shape == (2, 0)
        with pytest.raises(ValueError, match="beyond"):
            read_wav(path, 0.0, 1.0)

    def test_memory_is_bounded_by_the_range(self, tmp_path):
        path = tmp_path / "long.wav"
        rate = 16000
        write_wav(path, AudioClip(np.zeros(60 * rate), rate), "float32")

        def peak(*args):
            tracemalloc.start()
            try:
                read_wav(path, *args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, one_second = peak(), peak(30.0, 31.0)
        assert whole > 60 * rate * 4  # numpy reports its buffers to tracemalloc
        assert one_second < whole / 10
