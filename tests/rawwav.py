"""Hand-built RIFF/WAVE files, for the encodings, layouts and faults that
``write_wav`` does not write."""

from __future__ import annotations

import struct

# KSDATAFORMAT_SUBTYPE_* GUIDs after their leading format tag.
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def raw_wav_bytes(payload: bytes, fmt_tag: int, n_ch: int, rate: int, bits: int, *,
                  extensible: bool = False, pre_data: bytes = b"", data_size: int | None = None,
                  ) -> bytes:
    """A RIFF/WAVE file; ``pre_data`` goes between ``fmt `` and ``data``, and
    ``data_size`` overrides the declared ``data`` size."""
    block = n_ch * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else fmt_tag, n_ch, rate, rate * block,
                      block, bits)
    if extensible:  # cbSize, valid bits, channel mask, then the real tag leads the GUID
        fmt += struct.pack("<HHIH", 22, bits, 0, fmt_tag) + _GUID_TAIL
    size = len(payload) if data_size is None else data_size
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + pre_data
    body += b"data" + struct.pack("<I", size) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body
