import math

import numpy as np
import pytest

from pseudolabel.audio_io import AudioClip, SegmentRecord, write_wav
from pseudolabel import PseudoLabelRecord
from pseudolabel.pipeline import filter_pairs, read_pair
from pseudolabel import estimate_snr


def make_record(snr_db):
    seg = SegmentRecord("s", "a", 0.0, 1.0, "c.wav", "f.wav")
    return PseudoLabelRecord(segment=seg, offset_samples=0, snr_db=snr_db)


class TestEstimateSnr:
    def test_identical_signals_give_plus_inf(self):
        x = np.random.default_rng(0).standard_normal(1000)
        assert estimate_snr(x, x) == math.inf

    def test_zero_estimate_gives_minus_inf(self):
        y = np.random.default_rng(1).standard_normal(1000)
        assert estimate_snr(np.zeros(1000), y) == -math.inf

    def test_equal_energy_noise_zero_db(self):
        rng = np.random.default_rng(2)
        s3 = rng.standard_normal(4000)
        n = rng.standard_normal(4000)
        n *= np.sqrt(np.sum(s3**2) / np.sum(n**2))
        assert abs(estimate_snr(s3, s3 + n)) < 1e-9

    def test_ten_times_noise_minus_ten_db(self):
        rng = np.random.default_rng(3)
        s3 = rng.standard_normal(4000)
        n = rng.standard_normal(4000)
        n *= np.sqrt(10.0 * np.sum(s3**2) / np.sum(n**2))
        assert estimate_snr(s3, s3 + n) == pytest.approx(-10.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        s3 = rng.standard_normal(2000)
        y = s3 + 0.3 * rng.standard_normal(2000)
        base = estimate_snr(s3, y)
        for c in (0.001, 7.0, -2.5):
            assert estimate_snr(c * s3, c * y) == pytest.approx(base, abs=1e-9)

    def test_matches_direct_energy_ratio_exactly(self):
        # ground truth computed from the realized residual, same float path
        rng = np.random.default_rng(5)
        d = rng.standard_normal(3000)
        y = d + 0.4 * rng.standard_normal(3000)
        n_realized = y - d
        expected = 10 * math.log10(np.sum(d * d) / np.sum(n_realized * n_realized))
        assert estimate_snr(d, y) == expected

    def test_monotone_in_added_noise(self):
        rng = np.random.default_rng(6)
        s3 = rng.standard_normal(4000)
        medians = []
        for level in (0.1, 0.3, 1.0):
            draws = []
            for k in range(100):
                noise = level * np.random.default_rng(100 + k).standard_normal(4000)
                draws.append(estimate_snr(s3, s3 + noise))
            medians.append(float(np.median(draws)))
        assert medians[0] > medians[1] > medians[2]

    # What the snr command printed, as the README's one library call.
    def test_of_two_wavs_is_one_library_call(self, tmp_path):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(8000)
        n = rng.standard_normal(8000)
        n *= np.sqrt(np.sum(s**2) / np.sum(n**2))
        paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
        for path, x in zip(paths, (s, s + n)):
            write_wav(path, AudioClip(x, 16000), "float32")
        assert estimate_snr(*read_pair(*paths)[:2]) == pytest.approx(0.0, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            estimate_snr(np.ones(10), np.ones(11))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            estimate_snr(np.ones(10), np.zeros(10))

    # Checked on the two energies the estimate already sums, so a NaN is not
    # returned (and later written as a bare NaN that read_results rejects).
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1], ids=["estimate", "reference"])
    def test_non_finite_sample_rejected(self, side, bad):
        pair = [np.random.default_rng(seed).standard_normal(100) for seed in (5, 6)]
        pair[side][50] = bad
        with pytest.raises(ValueError, match="^signal energy is not finite"):
            estimate_snr(*pair)


class TestFilterPairs:
    def test_boundary_kept(self):
        kept, discarded = filter_pairs([make_record(-10.0)], threshold_db=-10.0)
        assert len(kept) == 1 and not discarded
        assert kept[0].kept

    def test_just_below_discarded(self):
        kept, discarded = filter_pairs([make_record(-10.1)])
        assert not kept and len(discarded) == 1
        assert not discarded[0].kept

    def test_empty_list(self):
        assert filter_pairs([]) == ([], [])

    def test_partition_preserves_order(self):
        snrs = [5.0, -20.0, -10.0, 0.0, -11.0, math.inf, -math.inf]
        records = [make_record(s) for s in snrs]
        kept, discarded = filter_pairs(records)
        assert [r.snr_db for r in kept] == [5.0, -10.0, 0.0, math.inf]
        assert [r.snr_db for r in discarded] == [-20.0, -11.0, -math.inf]

    def test_custom_threshold(self):
        kept, discarded = filter_pairs([make_record(3.0), make_record(-3.0)], threshold_db=0.0)
        assert len(kept) == 1 and len(discarded) == 1

    def test_unpopulated_snr_rejected(self):
        rec = make_record(0.0)
        rec.snr_db = None
        with pytest.raises(ValueError, match="no SNR"):
            filter_pairs([rec])
