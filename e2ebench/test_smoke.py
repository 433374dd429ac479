"""Reduced-size smoke test of the benchmark.

Every workload runs at a small size with and without tracing, passes its
correctness checks, and emits exactly the metrics ``BENCHMARK.json`` names,
each with its unit. Run from the repository root:

    python -m pytest e2ebench -q
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Long enough for three scheduler periods; the chaos plan's blackouts
#: (at one and two thirds of the horizon) then fall between period ends.
SMALL = dict(duration_s=18.0, replicas=2)
QUALITY = ("latency_p50_ms", "latency_p98_ms", "slo_attainment",
           "ttft_p50_ms", "ttft_p98_ms", "tpot_p50_ms", "tpot_p98_ms",
           "failed_fraction")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric(name, trace):
    workload = replace(run.WORKLOADS[name], **SMALL)
    measured = run.measure(workload, seed=3, seconds=0.0, trace=trace)
    assert measured.failures == []
    summary = run.quality(measured)
    line = run.result_line(measured, trace, summary)
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] == sum(s.requests for s in measured.first) > 0
    expected = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert set(QUALITY) <= set(summary)
    assert summary["failed_fraction"]["value"] == 0.0
    generative = name.startswith("gen_")
    for key in QUALITY:
        value = summary[key]["value"]
        assert summary[key]["unit"]
        assert (value is None) == (key.startswith("t") and not generative)
    json.dumps(line)


def test_simulated_statistics_repeat_exactly():
    workload = replace(run.WORKLOADS["gen_disagg"], **SMALL)
    first = run.quality(run.measure(workload, 5, 0.0, trace=False))
    second = run.quality(run.measure(workload, 5, 0.0, trace=True))
    assert first == second
