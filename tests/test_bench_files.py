"""Every committed ``BENCH_*.json`` parses and reports, for each workload of
``BENCHMARK.json``, an untraced run naming every end-to-end metric and a
traced run, both ending correct."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_name_every_end_to_end_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {metric["name"] for metric in declared["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        for workload in declared["workloads"]:
            runs = record["runs"][workload["name"]]
            untraced, traced = runs["trace0"], runs["trace1"]
            missing = end_to_end - set(untraced["metrics"])
            assert not missing, (path.name, workload["name"], sorted(missing))
            assert untraced["correct"] is True and traced["correct"] is True, (path.name, workload["name"])
            assert traced["metrics"], (path.name, workload["name"])
