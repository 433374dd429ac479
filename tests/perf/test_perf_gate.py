"""The perf harness's baseline gate names every gate it skips."""

from benchmarks.bench_perf_hotpaths import _GATED_METRICS, compare_to_baseline


def test_skipped_gates_are_printed(capsys):
    baseline = {
        "simulation": {"events_per_s": 100.0},
        "simulation_scale_spatial": {"execution": "pool",
                                     "events_per_s": 400.0},
        "dispatch": {"ns_per_request": 1000.0},
    }
    current = {
        "simulation": {"events_per_s": 50.0},
        "simulation_scale_spatial": {"execution": "sequential-inline",
                                     "events_per_s": 100.0},
        "solve": {"cold_ms": 1.0},
    }
    failures = compare_to_baseline(current, baseline, 0.25)
    assert len(failures) == 1
    assert failures[0].startswith("simulation.events_per_s: 50 vs baseline 100")
    skipped = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("skipped ")]
    assert ("skipped simulation_scale_spatial.events_per_s: execution "
            "sequential-inline differs from the baseline's pool") in skipped
    assert "skipped dispatch.ns_per_request: missing in the current run" \
        in skipped
    assert "skipped solve.cold_ms: missing in the baseline" in skipped
    assert ("skipped solve.cached_ms: missing in the current run and the "
            "baseline") in skipped
    # Every gated metric but the one compared is reported exactly once.
    assert len(skipped) == len(_GATED_METRICS) - 1
