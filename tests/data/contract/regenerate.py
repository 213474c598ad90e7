"""Rewrite the output-contract fixture from the code as it stands.

    python tests/data/contract/regenerate.py

Builds the corpus of ``tests/test_contract.py`` in a temporary directory,
runs it serially, overwrites ``rows.jsonl`` and ``kept_wavs.jsonl`` next
to this script, and prints every row that changed. A committed float that
the contract still accepts for the new run keeps its value, so a numpy
that rounds differently changes no line. Run it only to change outputs on
purpose, and list the changed rows with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[2] / "src"), str(HERE.parents[1])]

from test_contract import _TOLERANCES, _close, _energy_close, build_corpus, run_outputs  # noqa: E402

# Each file's keys that may round differently, and the contract's rule for each.
RULES = {"rows.jsonl": {key: partial(_close, key) for key in _TOLERANCES},
         "kept_wavs.jsonl": {"energy": _energy_close}}


def keep_committed(item: dict, line: str | None, rules: dict) -> dict:
    """``item``, with the committed ``line``'s value of each key whose rule accepts the new one."""
    if line is None:
        return item
    old = json.loads(line)
    return item | {key: old[key] for key, close in rules.items()
                   if key in old and close(item[key], old[key])}


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
        committed = old[name] + [None] * len(items)
        lines = [json.dumps(keep_committed(item, line, RULES[name]))
                 for item, line in zip(items, committed)]
        (HERE / name).write_text("".join(line + "\n" for line in lines))
        for i in range(max(len(lines), len(old[name]))):
            before = old[name][i] if i < len(old[name]) else None
            after = lines[i] if i < len(lines) else None
            if before != after:
                print(f"{name} line {i + 1}:\n  was {before}\n  now {after}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
