import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pb_corpus  # noqa: E402

TINY_FILES = pb_corpus.Workload("files", 4, (0.5, 1.0), (0.0, 20.0), workers=1)
TINY_SESSION = pb_corpus.Workload("session", 4, (0.5, 1.0), (0.0, 20.0), workers=1,
                                  speakers=2, session_s=12.0)


@pytest.fixture
def tiny_run(tmp_path):
    """A four-segment files-layout corpus, processed once: (manifest rows, truth, rows)."""
    from pseudolabel import PipelineConfig, parse_segments, run_tls, write_results

    import pb_gate

    manifest_path, truth = pb_corpus.generate("tiny", 3, tmp_path / "corpus", TINY_FILES)
    records = run_tls(parse_segments(manifest_path),
                      PipelineConfig(output_dir=str(tmp_path / "out")))
    write_results(records, tmp_path / "results.jsonl")
    manifest = pb_gate.load_rows(manifest_path)
    return manifest, truth, pb_gate.load_rows(tmp_path / "results.jsonl")
