"""Rewrite the output-contract fixture from the code as it stands.

    python tests/data/contract/regenerate.py

Builds the corpus of ``tests/test_contract.py`` in a temporary directory,
runs it serially, overwrites ``rows.jsonl`` and ``kept_wavs.jsonl`` next
to this script, and prints every row that changed. Run it only to change
outputs on purpose, and list the changed rows with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[2] / "src"), str(HERE.parents[1])]

from test_contract import build_corpus, run_outputs  # noqa: E402


def main() -> int:
    old = {}
    for name in ("rows.jsonl", "kept_wavs.jsonl"):
        path = HERE / name
        old[name] = path.read_text().splitlines() if path.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rows, wavs, _ = run_outputs(root, build_corpus(root / "corpus"), workers=1)
    new = {"rows.jsonl": rows, "kept_wavs.jsonl": wavs}
    for name, items in new.items():
        lines = [json.dumps(item) for item in items]
        (HERE / name).write_text("".join(line + "\n" for line in lines))
        for i in range(max(len(lines), len(old[name]))):
            before = old[name][i] if i < len(old[name]) else None
            after = lines[i] if i < len(lines) else None
            if before != after:
                print(f"{name} line {i + 1}:\n  was {before}\n  now {after}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
