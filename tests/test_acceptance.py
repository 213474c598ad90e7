"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pseudolabel import (
    MflfConfig,
    PipelineConfig,
    SegmentRecord,
    StftConfig,
    SynthScenario,
    apply_shift,
    estimate_snr,
    filter_pairs,
    gcc_phat,
    istft,
    level_align,
    mca_grad,
    mca_loss,
    parse_segments,
    read_wav,
    run_tls,
    simulate_corpus,
    speech_like,
    stft,
    synth_pair,
)
from pseudolabel.dsp import Spectrogram
from pseudolabel.level_align import apply_mflf, fcp_weights, solve_mflf, stack_frames
from pseudolabel import PseudoLabelRecord
from pseudolabel.pipeline import record_to_dict


@contextmanager
def report(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_stft_fidelity():
    with report("1 STFT round-trip fidelity"):
        configs = [
            StftConfig(n_fft=n_fft, hop=hop, window_kind=kind)
            for n_fft in (256, 512, 1024)
            for hop in (n_fft // 2, n_fft // 4)
            for kind in ("hann", "sqrt_hann")
        ]
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst = 0.0
        for i in range(100):
            cfg = configs[i % len(configs)]
            x = rng.standard_normal(int(rng.integers(2000, 20000)))
            err = float(np.max(np.abs(istft(stft(x, cfg), x.size) - x)))
            worst = max(worst, err)
            assert err < 1e-9, f"round-trip error {err:.2e} on {cfg}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
        print(f"  [100 signals x 12 configs: max abs error {worst:.2e}, {elapsed:.2f}s]")


def test_criterion_2_time_alignment_exact():
    with report("2 exact integer delay recovery"):
        rng = np.random.default_rng(1002)
        start = time.perf_counter()
        n, margin = 16000, 4200
        for k in range(200):
            d = int(rng.integers(-4000, 4001))
            snr_db = float(rng.uniform(0.0, 30.0))
            gain = float(rng.uniform(0.1, 1.0))
            src = rng.standard_normal(n + 2 * margin)
            s1 = src[margin : margin + n]
            target = gain * src[margin + d : margin + d + n]
            noise = rng.standard_normal(n)
            noise *= np.linalg.norm(target) / (np.linalg.norm(noise) * 10 ** (snr_db / 20))
            res = gcc_phat(s1, target + noise, max_lag=8000)
            assert res.offset_samples == d, (
                f"pair {k}: want {d}, got {res.offset_samples} at {snr_db:.1f} dB"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        print(f"  [200/200 exact, delays in [-4000, 4000], {elapsed:.1f}s]")


def test_criterion_3_level_alignment():
    with report("3 level alignment fidelity"):
        start = time.perf_counter()
        cfg = StftConfig()
        # (a) scalar attenuation through the full stage
        rng = np.random.default_rng(1003)
        s2 = rng.standard_normal(32000)
        y = 0.3 * s2
        s3 = level_align(s2, y, cfg, MflfConfig())
        rel = np.linalg.norm(s3 - y) / np.linalg.norm(y)
        assert rel < 1e-3, f"scalar case rel error {rel:.2e}"

        # (b) known-2-tap-filter recovery (loading disabled to isolate the solve)
        spec = Spectrogram(rng.standard_normal((200, cfg.n_bins))
                           + 1j * rng.standard_normal((200, cfg.n_bins)), cfg)
        h_true = rng.standard_normal((cfg.n_bins, 2)) + 1j * rng.standard_normal((cfg.n_bins, 2))
        stacked = stack_frames(spec, 2)
        Y = Spectrogram(np.einsum("fk,tfk->tf", h_true.conj(), stacked), cfg)
        fs = solve_mflf(stacked, Y, fcp_weights(Y, 1e-4), diag_load=0.0)
        rec_err = np.linalg.norm(fs.h - h_true) / np.linalg.norm(h_true)
        assert rec_err < 1e-6, f"tap recovery rel error {rec_err:.2e}"

        # (c) per-bin normal-equation residual after loading
        noisy = Spectrogram(spec.data + 0.5 * (rng.standard_normal(spec.data.shape)
                            + 1j * rng.standard_normal(spec.data.shape)), cfg)
        lam = fcp_weights(noisy, 1e-2)
        diag_load = 1e-6
        fs2 = solve_mflf(stacked, noisy, lam, diag_load)
        w = 1.0 / lam
        worst_resid = 0.0
        for f in range(cfg.n_bins):
            s = stacked[:, f, :]
            A = np.einsum("tk,tl,t->kl", s, s.conj(), w[:, f])
            b = np.einsum("tk,t,t->k", s, noisy.data[:, f].conj(), w[:, f])
            A = A + diag_load * np.trace(A).real / 2 * np.eye(2)
            resid = np.linalg.norm(A @ fs2.h[f] - b) / np.linalg.norm(b)
            worst_resid = max(worst_resid, resid)
        assert worst_resid <= 1e-8, f"normal-equation residual {worst_resid:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        print(f"  [scalar {rel:.1e}, recovery {rec_err:.1e}, residual {worst_resid:.1e}, "
              f"{elapsed:.1f}s]")


def test_criterion_4_snr_estimate():
    with report("4 SNR estimate fidelity"):
        # analytic constructions, exact to 1e-9 dB
        rng = np.random.default_rng(1004)
        s3 = rng.standard_normal(8000)
        n = rng.standard_normal(8000)
        n0 = n * math.sqrt(np.sum(s3**2) / np.sum(n**2))
        assert abs(estimate_snr(s3, s3 + n0) - 0.0) < 1e-9
        n10 = n * math.sqrt(10 * np.sum(s3**2) / np.sum(n**2))
        assert abs(estimate_snr(s3, s3 + n10) - (-10.0)) < 1e-9

        # pipeline estimate vs generator ground truth, anechoic scenarios
        cfg = StftConfig()
        worst = 0.0
        for snr_db in (-5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 15.0, 20.0):
            for seed in (0, 1):
                clean = speech_like(4.0, 16000, 2000 + seed)
                scenario = SynthScenario(delay=int(rng.integers(0, 2000)), gain=0.4,
                                         noise_snr_db=snr_db, seed=3000 + seed)
                _, far, direct = synth_pair(clean, scenario)
                gt = 10 * math.log10(np.sum(direct**2) / np.sum((far - direct) ** 2))
                s1 = clean
                res = gcc_phat(s1, far, max_lag=8000)
                shifted = apply_shift(s1, res.offset_samples, far.size)
                pseudo = level_align(shifted, far, cfg, MflfConfig())
                err = abs(estimate_snr(pseudo, far) - gt)
                worst = max(worst, err)
                assert err < 1.0, f"{err:.2f} dB error at noise_snr {snr_db}"
        print(f"  [analytic exact; pipeline estimate worst error {worst:.2f} dB over [-5, 20]]")


def test_criterion_5_filter_rule():
    with report("5 discard rule at -10 dB"):
        snrs = [-9.9, -10.0, -10.0000001, -10.1, 0.0, 25.0, -math.inf, math.inf]
        seg = SegmentRecord("s", "a", 0.0, 1.0, "c", "f")
        records = [PseudoLabelRecord(seg, 0, v, False) for v in snrs]
        kept, discarded = filter_pairs(records, threshold_db=-10.0)
        assert [r.snr_db for r in kept] == [-9.9, -10.0, 0.0, 25.0, math.inf]
        assert [r.snr_db for r in discarded] == [-10.0000001, -10.1, -math.inf]
        print("  [boundary kept, below discarded, exact partition]")


def test_criterion_6_mca_loss():
    with report("6 MCA loss and gradient"):
        start = time.perf_counter()
        # closed forms, exact to 1e-12
        A = np.ones((2, 2))
        r = mca_loss(A, A.copy(), alpha=2.0)
        assert abs(r.mse) <= 1e-12 and abs(r.cossim_loss) <= 1e-12 and abs(r.mca) <= 1e-12
        r = mca_loss(np.ones((2, 2)), np.full((2, 2), 2.0), alpha=5.0)
        assert abs(r.mse - 1.0) <= 1e-12 and abs(r.cossim_loss) <= 1e-12 and abs(r.mca - 1.0) <= 1e-12
        r = mca_loss(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]]), 0.5)
        assert abs(r.mse - 0.5) <= 1e-12 and abs(r.cossim_loss - 1.0) <= 1e-12 and abs(r.mca - 1.0) <= 1e-12

        # analytic gradient vs central differences on 50 random grids
        rng = np.random.default_rng(1006)
        step = 1e-6
        worst = 0.0
        for _ in range(50):
            A = rng.uniform(0.05, 1.0, (4, 4))
            B = rng.uniform(0.05, 1.0, (4, 4))
            analytic = mca_grad(A, B, alpha=1.0)
            numeric = np.zeros_like(B)
            for i in range(4):
                for j in range(4):
                    hi, lo = B.copy(), B.copy()
                    hi[i, j] += step / 2
                    lo[i, j] -= step / 2
                    numeric[i, j] = (mca_loss(A, hi, 1.0).mca - mca_loss(A, lo, 1.0).mca) / step
            rel = float((np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)).max())
            worst = max(worst, rel)
            assert rel < 1e-5, f"gradient rel error {rel:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        print(f"  [closed forms exact, gradient max rel error {worst:.1e}, {elapsed:.1f}s]")


def test_criterion_7_end_to_end_oracle(tmp_path):
    with report("7 end-to-end pipeline oracle"):
        start = time.perf_counter()
        manifest_path, truth_path = simulate_corpus(
            tmp_path / "corpus", count=50, seed=1007,
            duration_range=(4.0, 8.0), delay_range=(0, 4000),
            max_decay_ms=50.0, snr_range_db=(0.0, 20.0),
        )
        manifest = parse_segments(manifest_path)
        truth = [json.loads(line) for line in truth_path.read_text().splitlines()]
        records = run_tls(manifest, PipelineConfig(output_dir=str(tmp_path / "out")))
        ok = 0
        worst_corr, worst_err = 1.0, 0.0
        for rec, t in zip(records, truth):
            good = rec.status == "ok" and rec.offset_samples == -t["delay"] and rec.kept
            if good:
                direct = read_wav(t["direct_path"]).channels[0]
                pseudo = read_wav(rec.output_path).channels[0]
                corr = float(np.dot(pseudo, direct)
                             / (np.linalg.norm(pseudo) * np.linalg.norm(direct)))
                err = abs(rec.snr_db - t["gt_snr_db"])
                worst_corr = min(worst_corr, corr)
                worst_err = max(worst_err, err)
                good = corr > 0.99 and err <= 1.5
            ok += good
        elapsed = time.perf_counter() - start
        assert ok >= 0.95 * len(records), f"only {ok}/{len(records)} segments within tolerance"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(f"  [{ok}/50 segments pass; worst corr {worst_corr:.4f}, "
              f"worst SNR error {worst_err:.2f} dB, {elapsed:.1f}s]")


def test_criterion_8_pipeline_determinism(tmp_path):
    with report("8 worker-count determinism"):
        manifest_path, _ = simulate_corpus(tmp_path / "corpus", count=12, seed=1008,
                                           duration_range=(1.0, 2.0))
        manifest = parse_segments(manifest_path)
        out_dir = str(tmp_path / "out")
        serial = run_tls(manifest, PipelineConfig(worker_count=1, output_dir=out_dir))
        pooled = run_tls(manifest, PipelineConfig(worker_count=8, output_dir=out_dir))
        strip = lambda rec: {k: v for k, v in record_to_dict(rec).items() if k != "processed_at"}
        rows_serial = [strip(r) for r in serial]
        rows_pooled = [strip(r) for r in pooled]
        assert rows_serial == rows_pooled
        print("  [12-segment manifests identical for worker_count 1 and 8]")
