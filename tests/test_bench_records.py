"""The committed benchmark records: every BENCH_<pr>.json claims a workload
and an end-to-end metric that BENCHMARK.json declares, against a full
parent commit id, with the ratio its medians give."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claim_is_declared_and_consistent(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in declared["workloads"]}
    assert claim["metric"] in {m["name"] for m in declared["end_to_end"]}
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"])
    assert claim["ratio"] == round(claim["change_median"] / claim["parent_median"], 3)
