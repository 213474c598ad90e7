"""One benchmark pass in a fresh process.

    python3 perfbench/pb_child.py MODE WORKERS OUT_DIR RESULTS MANIFEST

``run`` and ``trace`` do what the ``run`` command does: parse the
manifest, build the config, make one ``run_tls`` call over the whole
manifest, then one ``write_results`` call. ``trace`` does so under stage
spans.

Prints one JSON line: the monotonic time of the ``run_tls`` call, which
the parent subtracts from its spawn time to get set-up time; the ms spent
in ``parse_segments``; the wall seconds of ``run_tls`` plus
``write_results`` and of ``run_tls`` alone; a digest of the rows without
``processed_at`` and of the kept WAVs; the peak RSS of this process and
of its largest pool worker; and, when traced, the span summary.

Each pass is its own process, so nothing one pass loads or caches is
there for the next. This process never generates audio, so its peak RSS
is the program's.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(results: Path) -> str:
    """Hash of the rows, ``processed_at`` aside, and of every kept WAV."""
    h = hashlib.sha256()
    for line in results.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        row.pop("processed_at", None)
        h.update(json.dumps(row, sort_keys=True).encode())
        if row.get("output_path"):
            h.update(Path(row["output_path"]).read_bytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    mode, workers, out_dir, results, manifest = argv
    sys.path.insert(0, str(ROOT / "src"))
    from pseudolabel import PipelineConfig, parse_segments, run_tls, write_results

    t_parse = time.monotonic()
    segments = parse_segments(manifest)
    report = {"parse_ms": (time.monotonic() - t_parse) * 1e3}
    config = PipelineConfig(output_dir=out_dir, worker_count=int(workers))
    tracer = None
    if mode == "trace":
        from pb_trace import Tracer

        tracer = Tracer()
    with tracer.installed() if tracer else nullcontext():
        report["t_call"] = time.monotonic()
        t0 = time.perf_counter()
        records = run_tls(segments, config)
        t1 = time.perf_counter()
        write_results(records, results)
        t2 = time.perf_counter()
    report.update(
        wall_s=t2 - t0,
        run_s=t1 - t0,
        digest=_digest(Path(results)),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        worker_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer:
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
