import hashlib

import numpy as np
import pytest

import pb_corpus
from conftest import TINY_FILES, TINY_SESSION


def _digest(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", [TINY_FILES, TINY_SESSION], ids=["files", "session"])
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    out = tmp_path / "corpus"
    pb_corpus.generate("tiny", 5, out, workload)
    first = _digest(out)
    pb_corpus.generate("tiny", 5, out, workload)
    assert _digest(out) == first
    pb_corpus.generate("tiny", 6, out, workload)
    assert _digest(out) != first


def test_session_layout_points_segments_into_shared_pcm16_files(tmp_path):
    from pseudolabel import parse_segments, read_wav

    manifest_path, truth = pb_corpus.generate("tiny", 5, tmp_path, TINY_SESSION)
    segments = parse_segments(manifest_path)
    assert len(segments) == len(truth) == TINY_SESSION.segments
    assert len({s.farfield_path for s in segments}) == TINY_SESSION.speakers
    assert [s.start_s for s in segments] == sorted(s.start_s for s in segments)
    far = read_wav(segments[0].farfield_path)
    assert far.n_samples == TINY_SESSION.session_s * pb_corpus.SAMPLE_RATE
    assert (tmp_path / "spk0_far.wav").read_bytes()[34:36] == (16).to_bytes(2, "little")


def test_each_timed_batch_is_stratified():
    wl = pb_corpus.Workload("files", 12, (1.0, 2.0), (0.0, 20.0), workers=1, batch=4)
    draws = pb_corpus._draws(np.random.default_rng(5), wl)
    assert len(draws) == 12
    for start in range(0, 12, 4):
        block = draws[start:start + 4]
        assert sorted(int(d["snr_db"] // 5) for d in block) == [0, 1, 2, 3]
        assert sorted(int((d["duration_s"] - 1.0) // 0.25) for d in block) == [0, 1, 2, 3]
