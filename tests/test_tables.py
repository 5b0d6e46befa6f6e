import hashlib
import json
from pathlib import Path

import pytest

from zlat import verify
from zlat.classify import pair_by_ref
from zlat.tables import (
    TABLE_IDS,
    computed_table,
    diff_golden,
    emit_table,
    id_record,
    prettify_code,
    prettify_expr,
    t_pair_record,
)


def undocumented_discrepancies() -> list[dict]:
    """Every `diff_golden` report of every table id that no note documents."""
    return [d for tid in TABLE_IDS for d in diff_golden(tid) if not d["documented"]]


def test_all_ids_emit_all_formats():
    for tid in TABLE_IDS:
        for fmt in ("md", "csv", "json"):
            text = emit_table(tid, fmt)
            assert text.strip(), (tid, fmt)


def test_row_counts():
    assert len(computed_table("8A")["rows"]) == 6
    assert len(computed_table("8B")["rows"]) == 31
    assert len(computed_table("8C")["rows"]) == 31
    assert len(computed_table("1B")["rows"]) == 31
    assert len(computed_table("7A")["rows"]) == 35
    assert len(computed_table("7B")["rows"]) == 33  # includes the omitted row
    assert len(computed_table("2")["rows"]) == 8
    assert len(computed_table("4")["rows"]) == 20


def test_formats_carry_identical_row_multisets():
    for tid in ("8A", "1C", "4"):
        data = computed_table(tid)
        md = emit_table(tid, "md", ascii_mode=True).strip().splitlines()[2:]
        csv = emit_table(tid, "csv", ascii_mode=True).strip().splitlines()[1:]
        payload = json.loads(emit_table(tid, "json"))["rows"]
        assert len(md) == len(csv) == len(payload) == len(data["rows"])


def test_changing_computed_table_leaves_emit_table_alone():
    for tid in ("8A", "4"):
        emitted = {fmt: emit_table(tid, fmt) for fmt in ("md", "csv", "json")}
        data = computed_table(tid)
        data["headers"].append("extra")
        data["rows"][0][0] = "changed"
        data["rows"].append(["extra"])
        record = data["json"][0]
        next(v for v in record.values() if isinstance(v, (dict, list))).clear()
        record["added"] = 1
        assert {fmt: emit_table(tid, fmt) for fmt in ("md", "csv", "json")} == emitted
        assert computed_table(tid) != data


def test_t_pair_record_schema():
    rec = t_pair_record(pair_by_ref("8B:2"))
    assert set(rec) == {"tPlus", "tMinus", "reversible", "partnerIndex", "tableRef"}
    assert set(rec["tPlus"]) == {"expr", "r", "r2", "delta2", "p", "q"}
    assert isinstance(rec["partnerIndex"], int)
    irr = t_pair_record(pair_by_ref("8A:5"))
    assert irr["partnerIndex"] is None and irr["reversible"] is False


def test_id_record_schema():
    rec = id_record(pair_by_ref("8B:17"))
    assert set(rec) == {"code", "codeTree", "type", "o", "nuR", "chi", "handles", "tableRef"}
    assert rec["codeTree"]["kind"] == "nest3"
    assert rec["chi"] == 1 - 2 * rec["handles"]


def test_diffs_all_documented():
    assert undocumented_discrepancies() == []


def test_documented_diff_inventory():
    known = {(d["table"], d["row"]) for tid in TABLE_IDS for d in diff_golden(tid)}
    assert ("7B", None) in known  # the omitted census row
    assert ("8B", 13) in known and ("8B", 21) in known  # q-label misprints
    assert ("7A", 32) in known and ("7B", 1) in known and ("8C", 3) in known


def test_prettify():
    assert prettify_expr("<2>+3<-6>") == "⟨2⟩+3⟨-6⟩"
    assert prettify_code("1_-1<2_1>") == "1₋₁⟨2₁⟩"


def test_unknown_table():
    with pytest.raises(ValueError):
        computed_table("6A")
    with pytest.raises(ValueError):
        diff_golden("6A")


def test_outputs_match_recorded_digests():
    # the classification benchmark records the sha256 of every emitted table
    # and of every golden diff report; this file is read, never written
    path = Path(__file__).resolve().parents[1] / "perfbench" / "classification_golden.json"
    recorded = json.loads(path.read_text())["tables"]
    assert sorted(recorded) == sorted(TABLE_IDS)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    for tid in TABLE_IDS:
        for fmt in ("md", "csv", "json"):
            assert digest(emit_table(tid, fmt)) == recorded[tid][fmt], (tid, fmt)
        assert digest(json.dumps(diff_golden(tid), sort_keys=True)) == recorded[tid]["diff"], tid


@pytest.mark.parametrize("suite", ["stability", "ids"])
def test_verify_suites_green(suite):
    lines = []
    failures = verify.run_verify(suite, out=lines.append)
    assert failures == 0, lines
    assert any(line.startswith("PASS") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)
