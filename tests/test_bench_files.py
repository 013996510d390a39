"""Every committed ``BENCH_*.json`` parses and speaks the benchmark's
vocabulary.

A ``BENCH_<n>.json`` at the root of the repository records the benchmark
runs behind a speed-up: for each workload it ran, the parent's and the
change's median and quartiles of each end-to-end metric.  Its
``workloads`` may name only workloads that ``BENCHMARK.json`` defines, each
workload's ``end_to_end`` only end-to-end metrics it defines, and a
``claim`` one of each, whose change median moved from the parent's in the
direction ``BENCHMARK.json`` calls better.  The files are read, never
written.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_names_only_benchmark_workloads_and_metrics(path):
    bench = json.loads(path.read_text())
    assert {"rational_backend", "rows_impl"} <= set(bench["identity"])
    assert bench["workloads"] and set(bench["workloads"]) <= WORKLOADS
    for name, workload in bench["workloads"].items():
        assert workload["end_to_end"] and workload["end_to_end"].keys() <= END_TO_END.keys(), name
        for metric, sides in workload["end_to_end"].items():
            for side in ("parent", "change"):
                q1, median, q3 = (sides[side][key] for key in ("q1", "median", "q3"))
                assert q1 <= median <= q3, (name, metric, side)
    claim = bench.get("claim")
    if claim is not None:
        assert claim["workload"] in bench["workloads"]
        assert claim["metric"] in bench["workloads"][claim["workload"]]["end_to_end"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_a_claim_agrees_with_its_own_medians(path):
    bench = json.loads(path.read_text())
    claim = bench.get("claim")
    if claim is not None:
        sides = bench["workloads"][claim["workload"]]["end_to_end"][claim["metric"]]
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        better = END_TO_END[claim["metric"]]["better"]
        assert better in ("lower", "higher")
        assert change < parent if better == "lower" else change > parent, (claim, parent, change)
