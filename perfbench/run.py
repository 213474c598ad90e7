#!/usr/bin/env python3
"""Benchmark of the pseudolabel batch pipeline.

    python3 perfbench/run.py --workload segment_files --seed 1 --seconds 10 --trace 0

Run from the repository root. Generates the workload's corpus from the
seed, runs it through the public ``parse_segments`` -> ``run_tls`` ->
``write_results`` path in fresh processes: once over the whole corpus,
whose rows are checked against ground truth and scored, then in timed
passes over the workload's batch for about ``--seconds`` seconds. Each
timed pass is followed by a short block of a fixed reference kernel
(``pb_ref.py``, in a fresh process) that the wall times are scaled by.
Every pass must give the same rows. The run prints the metrics named in
``BENCHMARK.json``: the end-to-end ones with ``--trace 0``, the
per-stage ones from serial traced passes with ``--trace 1``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A wrong output makes the run
exit with code 1 and report no metric.

Workloads, metrics and the layer each metric belongs to are described
in README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pb_corpus
import pb_gate
import pb_ref
import pb_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120  # one pass processes the corpus once: a few seconds
MIN_ROUNDS = 3
FAST_Q = 25  # percentile of pass walls and kernel calls that the time metrics use
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """A pass could not run; the run reports no metric."""


class Bench:
    """One workload corpus and the passes run over it.

    A pass is a fresh process that does what the ``run`` command does:
    it parses a manifest, calls ``run_tls`` once over it and
    ``write_results`` once. One pass covers the whole corpus; its rows
    are checked against the truth and scored. Timed passes cover the
    batch, the manifest's first rows. Every one of them, in any mode and
    at any worker count, must give those rows and the same kept WAVs.
    """

    def __init__(self, manifest_path: Path, truth: list[dict], work: Path, batch: int,
                 ref_decode_s: float):
        self.manifest_path = manifest_path
        self.manifest = pb_gate.load_rows(manifest_path)
        self.truth = truth
        self.work = work
        self.batch_path = work / "batch.jsonl"
        self.batch_path.write_text("".join(json.dumps(row) + "\n" for row in self.manifest[:batch]))
        self.segments = batch
        self.audio_s = sum(r["end_s"] - r["start_s"] for r in self.manifest[:batch])
        self.digest: str | None = None
        self.rows: list[dict] | None = None
        self.ref_decode_s = ref_decode_s
        self.ref_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def check_corpus(self, workers: int) -> None:
        """One untimed pass over the whole corpus, checked against the truth."""
        results = self._spawn("run", workers, self.manifest_path)[1]
        rows = self._count(results)
        pb_gate.check_rows(rows, self.manifest, self.truth)
        pb_gate.check_oracle(rows, self.truth)
        self.rows = rows

    def child(self, mode: str, workers: int) -> dict:
        """One pass over the batch, checked against the whole-corpus pass."""
        report, results = self._spawn(mode, workers, self.batch_path)
        rows = self._count(results)
        what = f"{mode} pass at {workers} worker(s)"
        if self.digest is None:
            if _strip(rows) != _strip(self.rows[:self.segments]):
                raise pb_gate.GateError(f"{what} gave other rows than the whole-corpus pass")
            self.digest = report["digest"]
        elif report["digest"] != self.digest:
            raise pb_gate.GateError(f"{what} gave other rows or kept WAVs than the first pass")
        ref = self._process([sys.executable, str(HERE / "pb_ref.py"),
                             str(pb_ref.SHARE * report["wall_s"]), str(self.ref_decode_s)],
                            "reference block")
        self.ref_s += json.loads(ref.strip().splitlines()[-1])
        return report

    def _count(self, results: Path) -> list[dict]:
        rows = pb_gate.load_rows(results)
        self.attempted += len(rows)
        self.failed += sum(row.get("status") != "ok" for row in rows)
        return rows

    def _spawn(self, mode: str, workers: int, manifest: Path) -> tuple[dict, Path]:
        out, results = self.work / "out", self.work / "results.jsonl"
        shutil.rmtree(out, ignore_errors=True)
        results.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "pb_child.py"), mode, str(workers), str(out),
               str(results), str(manifest)]
        t_spawn = time.monotonic()
        stdout = self._process(cmd, f"{mode} pass")
        report = json.loads(stdout.strip().splitlines()[-1])
        report.update(mode=mode, workers=workers, setup_s=report["t_call"] - t_spawn)
        return report, results

    @staticmethod
    def _process(cmd: list[str], what: str) -> str:
        """Run ``cmd`` to its end and return its standard output."""
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:  # a timeout or an interrupt: stop it and its pool
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{what} took over {CHILD_TIMEOUT_S} s") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}: {stderr.strip()[-2000:]}")
        return stdout

    def rounds(self, plan: list[tuple[str, int]], seconds: float) -> list[dict]:
        """Run ``plan`` round after round for about ``seconds``; return every pass.

        At least MIN_ROUNDS rounds run. No round starts that would, at the
        pace of the last one, end after ``seconds``.
        """
        passes = []
        t_start = t_round = time.monotonic()
        for n in itertools.count(1):
            passes += [self.child(mode, workers) for mode, workers in plan]
            now = time.monotonic()
            if n >= MIN_ROUNDS and now + (now - t_round) > t_start + seconds:
                return passes
            t_round = now

    def accuracy(self) -> dict[str, float]:
        return pb_gate.accuracy(self.rows, self.truth)

    def scale(self) -> float:
        """Factor that takes this run's wall times to the reference kernel's nominal speed."""
        return pb_ref.nominal_s(self.ref_decode_s) / _p(self.ref_s, FAST_Q)


def _strip(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "processed_at"} for row in rows]


def _median(values) -> float:
    return statistics.median(list(values))


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _fast(passes: list[dict], key: str) -> float:
    """The FAST_Q-th percentile of ``key`` over passes.

    The shared machine's speed swings by tens of percent from second to
    second, and a slow spell only ever adds time, so a low percentile is
    a steadier estimate of what one pass costs than the mean or the
    minimum. The reference kernel is taken at the same percentile.
    """
    return _p([p[key] for p in passes], FAST_Q)


def end_to_end(bench: Bench, workers: int, seconds: float) -> dict[str, float]:
    # Each timed pass is a fresh process, so each also gives a set-up sample.
    timed = bench.rounds([("run", workers)], seconds)
    if workers > 1:
        bench.child("trace", 1)  # rows must not depend on the worker count
    wall = _fast(timed, "wall_s")
    scaled = wall * bench.scale()
    setups = [p["setup_s"] for p in timed]
    print(f"{len(timed)} passes of {bench.segments} segments, wall s: "
          f"{[round(p['wall_s'], 3) for p in timed]}; set-up s (unscaled): "
          f"{[round(s, 3) for s in setups]}")
    print(f"wall {wall * 1e3 / bench.segments:.3f} ms/segment, {bench.audio_s / wall:.2f} audio s/s; "
          f"reference kernel p{FAST_Q} {_p(bench.ref_s, FAST_Q) * 1e3:.2f} ms over {len(bench.ref_s)} calls "
          f"(nominal {pb_ref.nominal_s(bench.ref_decode_s) * 1e3:.1f} ms), "
          f"scale {bench.scale():.4f}")
    metrics = {
        "scaled_audio_s_per_s": bench.audio_s / scaled,
        "scaled_ms_per_segment": scaled * 1e3 / bench.segments,
        "setup_s": _median(setups) * bench.scale(),
        "peak_rss_mb": max(max(p["rss_kb"], p["worker_rss_kb"]) for p in timed) / 1024.0,
    }
    metrics.update(bench.accuracy())
    return metrics


def per_layer(bench: Bench, workers: int, seconds: float) -> dict[str, float]:
    # Untraced and traced passes alternate, so drift hits both alike.
    plan = [("run", workers), ("trace", 1)] + ([("run", 1)] if workers > 1 else [])
    passes = bench.rounds(plan, seconds)
    pooled = [p for p in passes if p["mode"] == "run" and p["workers"] == workers]
    serial = [p for p in passes if p["mode"] == "run" and p["workers"] == 1]
    traced = [p for p in passes if p["mode"] == "trace"]
    per_seg = len(traced) * bench.segments

    metrics: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name in pb_trace.SPAN_NAMES:
        ms = [d for p in traced for d in p["trace"]["stages"].get(name, [])]
        calls[name] = len(ms)
        metrics[f"{name}.ms_per_segment"] = sum(ms) / per_seg
        metrics[f"{name}.ms_p50"] = _p(ms, 50)
        metrics[f"{name}.ms_p90"] = _p(ms, 90)
    counts: dict[str, int] = {}
    for p in traced:
        for key, value in p["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
    run_ms = sum(p["run_s"] for p in traced) * 1e3
    stage_ms = sum(p["trace"]["top_ms"] for p in traced)
    acc = bench.accuracy()
    metrics.update({
        "audio_io.read_wav.calls_per_segment": calls["audio_io.read_wav"] / per_seg,
        "audio_io.read_wav.mb_per_segment": counts.get("audio_io.read_wav.bytes", 0) / per_seg / 1e6,
        "audio_io.write_wav.calls_per_segment": calls["audio_io.write_wav"] / per_seg,
        "dsp.stft.calls_per_segment": calls["dsp.stft"] / per_seg,
        "level_align.flagged_bin_frac": (counts.get("level_align.flagged_bins", 0)
                                         / max(counts.get("level_align.bins", 0), 1)),
        "snr_filter.kept_frac": acc["kept_frac"],
        "snr_err_db_p90": acc["snr_err_db_p90"],
        "audio_io.parse_segments.ms": _median(p["parse_ms"] for p in passes),
        "pipeline.run_tls.ms_per_segment": run_ms / per_seg,
        "pipeline.run_tls.self_ms_per_segment": (run_ms - stage_ms) / per_seg,
        "pipeline.parallel_efficiency": (_p([p["trace"]["top_ms"] for p in traced], FAST_Q) * 1e-3
                                         / (workers * _fast(pooled, "run_s"))),
        "trace.overhead_frac": _fast(traced, "run_s") / _fast(serial, "run_s") - 1.0,
        "wall_ms_per_segment": _fast(pooled, "wall_s") * 1e3 / bench.segments,
        "ref.kernel_ms": _p(bench.ref_s, FAST_Q) * 1e3,
    })
    missing = sorted({name for p in traced for name in p["trace"]["missing"]})
    if missing:
        print(f"missing spans (stage names the program no longer defines): {missing}")
    print(f"traced run_tls {run_ms / per_seg:.3f} ms/segment = stage spans "
          f"{stage_ms / per_seg:.3f} + self {(run_ms - stage_ms) / per_seg:.3f}, "
          f"over {len(traced)} passes of {bench.segments} segments; calls per stage: {calls}")
    return metrics


def machine_facts() -> dict:
    import pseudolabel

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pseudolabel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "pseudolabel_version": pseudolabel.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "page_cache": "warm: the corpus is read right after it is written and caches "
                      "are not dropped, so reads come from memory",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pb_corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # clean up on TERM

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pseudolabel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"{ROOT} holds no pseudolabel sources (src/pseudolabel) or no BENCHMARK.json; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    wl = pb_corpus.WORKLOADS[args.workload]

    facts = machine_facts()
    print("facts: " + json.dumps(facts))
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = None
    try:
        t0 = time.monotonic()
        manifest_path, truth = pb_corpus.generate(args.workload, args.seed, work / "corpus")
        # The reference decodes what one segment reads whole: the session files.
        bench = Bench(manifest_path, truth, work, wl.batch_segments, wl.session_s)
        print(f"corpus: {len(bench.manifest)} segments, generated in {time.monotonic() - t0:.1f} s; "
              f"timed batch: {bench.segments} segments, {bench.audio_s:.1f} s of audio")
        bench.check_corpus(wl.workers)  # also the warm-up: byte-compiles the package
        measure = per_layer if args.trace else end_to_end
        values = measure(bench, wl.workers, args.seconds)
        unknown = [m["name"] for m in spec if m["name"] not in values]
        if unknown:
            raise BenchError(f"BENCHMARK.json names metrics this benchmark does not compute: {unknown}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    except (BenchError, pb_gate.GateError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        if bench is not None and bench.attempted:
            print(json.dumps({"correct": False, "attempted": bench.attempted,
                              "failed": bench.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
