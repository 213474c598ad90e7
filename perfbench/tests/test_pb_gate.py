import copy
import json
from pathlib import Path

import pytest

import pb_child
import pb_gate


def test_truth_check_passes_the_program_as_is(tiny_run):
    manifest, truth, rows = tiny_run
    pb_gate.check_rows(rows, manifest, truth)
    pb_gate.check_oracle(rows, truth)
    acc = pb_gate.accuracy(rows, truth)
    assert acc["offset_exact_frac"] == acc["keep_agree_frac"] == 1.0


def test_truth_check_fails_on_a_planted_wrong_offset(tiny_run):
    manifest, truth, rows = tiny_run
    bad = copy.deepcopy(rows)
    bad[1]["offset_samples"] += 1
    with pytest.raises(pb_gate.GateError, match="offset"):
        pb_gate.check_rows(bad, manifest, truth)
    assert pb_gate.accuracy(bad, truth)["offset_exact_frac"] == 0.75


def test_oracle_fails_when_snr_estimates_drift_from_truth(tiny_run):
    _, truth, rows = tiny_run
    bad = copy.deepcopy(rows)
    bad[0]["snr_db"] = truth[0]["gt_snr_db"] + 2.0
    with pytest.raises(pb_gate.GateError, match="within 1.5 dB"):
        pb_gate.check_oracle(bad, truth)


@pytest.mark.parametrize("field, value, message", [
    ("status", "error: boom", "failed"),
    ("kept", False, "kept="),
    ("session_id", "other", "manifest"),
])
def test_truth_check_fails_on_other_wrong_rows(tiny_run, field, value, message):
    manifest, truth, rows = tiny_run
    bad = copy.deepcopy(rows)
    bad[0][field] = value
    with pytest.raises(pb_gate.GateError, match=message):
        pb_gate.check_rows(bad, manifest, truth)


def test_digest_ignores_processed_at_and_sees_every_other_change(tiny_run, tmp_path):
    _, _, rows = tiny_run
    results = tmp_path / "again.jsonl"

    def digest(rows):
        results.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return pb_child._digest(results)

    reference = digest(rows)
    later = copy.deepcopy(rows)
    for row in later:
        row["processed_at"] = "later"
    assert digest(later) == reference
    later[2]["snr_db"] += 1e-9
    assert digest(later) != reference
    kept = next(row for row in rows if row["output_path"])
    Path(kept["output_path"]).write_bytes(b"RIFF")
    assert digest(rows) != reference
