"""Tests of the benchmark itself: tiny-horizon runs, tracer arithmetic, patch removal.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import copy
import json
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import Tracer, span_overhead_ns, summarize

TINY_HORIZON = 0.05   # s: five integration steps


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "HORIZON", TINY_HORIZON)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_run_at_tiny_horizon(tiny, workload):
    result, lines = run.run(workload, seed=5, seconds=0.0, trace=True)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["simulator.rhs_calls"] == 3 * 5
    if workload == "s5-observer-only":
        assert metrics["controller.head_calls"] == 0
        assert metrics["autodiff.duals_per_rhs"] == 0
        assert metrics["controller.share_of_rhs"] == 0
    else:
        # 3 heads per evaluation; 4 evaluations per step plus the final sample
        assert metrics["controller.head_calls"] == 3 * (4 * 5 + 1)
        assert metrics["autodiff.duals_per_rhs"] > 0
    io_metrics = [name for name in metrics if name.startswith("cli.")]
    if wl.WORKLOADS[workload].via_cli:
        assert all(metrics[name] > 0 for name in io_metrics)
        assert metrics["simulator.samples"] == 5 + 1
    else:
        assert all(metrics[name] == 0 for name in io_metrics)


def test_end_to_end_run_at_tiny_horizon(tiny):
    result, lines = run.run("s5-closed-loop", seed=5, seconds=0.0, trace=False)
    assert result["correct"], lines
    assert result["attempted"] == 1 + run.MIN_REPETITIONS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    # peak_rss_mb can read 0 here: earlier tests already raised this process's peak
    assert all(m["value"] > 0 for n, m in result["metrics"].items() if n != "peak_rss_mb")


def test_raising_run_fails_and_ends(tiny, monkeypatch):
    def broken(config):
        raise RuntimeError("integration fault")

    monkeypatch.setattr(wl.simulator, "run_scenario", broken)
    result, lines = run.run("s5-closed-loop", seed=5, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2   # warm-up and first timed
    assert any("integration fault" in line for line in lines)


@pytest.mark.parametrize("script", ["setup_probe.py", "heap_probe.py"])
def test_failing_probe_is_a_problem(script):
    with pytest.raises(RuntimeError, match="exited with code"):
        run.run_probe(script, "no-such-workload", 5)


def test_traced_record_equals_untraced(tiny):
    config = wl.build_config("s5-closed-loop", 5)
    digests = []
    for mode in (None, "span", "count"):
        with Tracer() as tracer:
            if mode is None:
                wl.time_runs(tracer)
            else:
                wl.instrument(tracer, mode)
            outcome = wl.run_once("s5-closed-loop", config, 5, Path("unused"), tracer)
        assert outcome.problems == []
        digests.append(outcome.digest)
    assert len(set(digests)) == 1


def test_self_time_on_synthetic_spans():
    # run [0, 100] contains rhs [10, 60] and monitor [70, 90];
    # rhs contains head [20, 30] and head [35, 50]
    spans = [("run", 0, 100, -1, 0), ("rhs", 10, 60, 0, 0), ("head", 20, 30, 1, 0),
             ("head", 35, 50, 1, 0), ("monitor", 70, 90, 0, 0)]
    by_name, by_edge = summarize(spans, 0)
    assert by_name["run"] == (1, 100, 100 - 50 - 20)
    assert by_name["rhs"] == (1, 50, 50 - 10 - 15)
    assert by_name["head"] == (2, 25, 25)
    assert by_edge[("rhs", "head")] == 25
    assert by_edge[("run", "monitor")] == 20
    assert by_edge[(None, "run")] == 100
    # 2 ns of wrapper time per nested span: run encloses 4 spans, rhs 2
    by_name, by_edge = summarize(spans, 2)
    assert by_name["run"] == (1, 100 - 8, (100 - 8) - (50 - 4) - 20)
    assert by_name["rhs"] == (1, 50 - 4, (50 - 4) - 10 - 15)
    assert by_name["head"] == (2, 25, 25)
    assert by_edge[("run", "rhs")] == 50 - 4


def test_span_overhead_is_small_and_positive():
    overhead = span_overhead_ns()
    assert 0 < overhead < 100_000


def test_spans_nest_and_count():
    tracer = Tracer(run_id=7)
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(inner(x)))
    counted = tracer.counter("leaf", lambda: None)
    span_counted = tracer.span("outer", lambda: counted())
    assert outer(1) == 3
    span_counted()
    counted()
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7), ("outer", -1, 7)]
    assert tracer.counts == {"outer": 2, "inner": 2, "leaf": 2, "leaf in outer": 1}


@pytest.mark.parametrize("mode", ["span", "count"])
def test_wrappers_are_removed(mode):
    owners = [(owner, attr) for owner, attr, _ in wl.BOUNDARIES]
    owners += [(wl.simulator, "rk4_step"), (wl.autodiff.Dual, "__init__")]
    before = [getattr(owner, attr) for owner, attr in owners]
    with Tracer() as tracer:
        wl.instrument(tracer, mode)
        during = [getattr(owner, attr) for owner, attr in owners]
    after = [getattr(owner, attr) for owner, attr in owners]
    assert all(a is b for a, b in zip(after, before))
    patched = sum(d is not b for d, b in zip(during, before))
    assert patched == len(owners) - (mode == "span")   # Dual is hooked only when counting


def test_snapshot_tolerance():
    expected = wl.load_expected()["s5-closed-loop"]
    rounded = copy.deepcopy(expected)
    rounded["final"]["x"][0] *= 1 + 1e-12
    assert wl.compare_snapshot(rounded, expected) == []
    moved = copy.deepcopy(expected)
    moved["final"]["x"][0] *= 1 + 1e-5
    assert len(wl.compare_snapshot(moved, expected)) == 1
    flipped = copy.deepcopy(expected)
    flipped["verdicts"]["R1"] = not flipped["verdicts"]["R1"]
    assert len(wl.compare_snapshot(flipped, expected)) == 1


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
