"""The recorded benchmark files at the root of the repository: each
`BENCH_*.json` names a workload and a claimed metric that `BENCHMARK.json`
declares, had no failed market on either side, and gives both sides'
medians for every end-to-end metric."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
SIDES = ("parent", "change")

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert len(BENCH_FILES) >= 3


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_declared_metrics_and_both_sides(path):
    doc = json.loads(path.read_text())
    assert doc["workload"] in WORKLOADS
    workload, metric = doc["claim"].split()
    assert workload == doc["workload"] and metric in END_TO_END
    assert all(doc["failed"][side] == 0 for side in SIDES)
    assert set(doc["metrics"]) >= END_TO_END
    for name in END_TO_END:
        for side in SIDES:
            median = doc["metrics"][name][side]["median"]
            assert isinstance(median, (int, float)) and median >= 0, (name, side)
