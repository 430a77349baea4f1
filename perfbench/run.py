"""platoonsim benchmark: one workload, end-to-end metrics or a per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload s5-closed-loop --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, measured untraced;
with ``--trace 1`` it adds traced repetitions and two counting passes and
reports the per-layer metrics.  Every metric is printed with its unit; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread, as the workloads are.  Set before numpy is first imported here
# or in a set-up probe: numpy's BLAS would otherwise start a thread per CPU at
# import, and on the benchmark machine that took about 70 ms and most of the
# spread of the set-up time, none of it platoonsim's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibration import calibrated  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15       # fresh interpreters timed per run, spread over it; setup_s is their median
MIN_REPETITIONS = 3     # so that every run can compare record digests
TRACED_REPETITIONS = 5  # per-layer metrics are medians over these
SUBPROCESS_TIMEOUT_S = 60

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "sim_s_per_s": "s/s",
    "peak_rss_mb": "MB",
    "peak_heap_mb": "MB",
}
PER_LAYER = {
    "simulator.rhs_calls": "count",
    "simulator.rhs_us": "us",
    "simulator.rhs_self_us": "us",
    "simulator.rk4_step_us": "us",
    "controller.head_calls": "count",
    "controller.head_us": "us",
    "controller.beta_us": "us",
    "controller.follower_calls": "count",
    "controller.follower_us": "us",
    "controller.share_of_rhs": "ratio",
    "autodiff.gradient_calls": "count",
    "autodiff.duals_per_rhs": "count",
    "reference.evaluate_calls": "count",
    "reference.evaluate_us": "us",
    "simulator.inject_disturbance_us": "us",
    "simulator.driver_self_s": "s",
    "simulator.samples": "count",
    "simulator.monitor_s": "s",
    "cli.write_timeseries_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "cli.read_timeseries_s": "s",
    "observer.synthesize_calls": "count",
    "observer.synthesize_s": "s",
    "simulator.validate_s": "s",
    "simulator.saturation_events": "count",
    "trace.overhead_ratio": "ratio",
}


def run_probe(script, workload, seed):
    """Fields printed by a probe script run in a fresh interpreter.

    Raises RuntimeError when the probe fails or does not end in time.
    """
    try:
        done = subprocess.run([sys.executable, str(HERE / script), workload, str(seed)],
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{script} did not end within {SUBPROCESS_TIMEOUT_S} s") from None
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{script} exited with code {done.returncode}: {last}")
    return done.stdout.split()


def measure_setup(workload, seed):
    """Normalised set-up time in a fresh interpreter (see setup_probe.py)."""
    seconds, speed = map(float, run_probe("setup_probe.py", workload, seed))
    return seconds / speed


def layer_metrics(wl, traced, span_overhead_ns, counted, outcome, speed, overhead):
    """Per-layer metrics of one traced repetition, with counts from a counting pass.

    Times are divided by the repetition's machine-speed factor ``speed``;
    ``span_overhead_ns`` is the wrapper time per nested span measured right
    after it; ``overhead`` is its normalised wall time over the untraced median.
    """
    from tracer import summarize

    by_name, by_edge = summarize(traced.spans, span_overhead_ns)
    zero = (0, 0, 0)
    ns = 1e-9 / speed        # seconds at full speed per measured nanosecond

    def calls(name):
        return by_name.get(name, zero)[0]

    def total_s(name):
        return by_name.get(name, zero)[1] * ns

    def mean_us(name):
        stat = by_name.get(name, zero)
        return stat[1] * ns * 1e6 / stat[0] if stat[0] else 0.0

    rhs, run = "simulator.rhs", wl.RUN_SPAN
    rhs_ns = by_name[rhs].total_ns
    control_ns = (by_edge[(rhs, "controller.head_control")]
                  + by_edge[(rhs, "controller.follower_control")])
    driver_ns = by_name[run].total_ns - sum(
        by_edge[(run, child)] for child in
        ("simulator.rk4_step", "simulator.monitor_requirements", "simulator.validate_config"))
    write_s = total_s("cli.write_timeseries")
    return {
        "simulator.rhs_calls": calls(rhs),
        "simulator.rhs_us": mean_us(rhs),
        "simulator.rhs_self_us": by_name[rhs].self_ns * ns * 1e6 / calls(rhs),
        "simulator.rk4_step_us": mean_us("simulator.rk4_step"),
        "controller.head_calls": calls("controller.head_control"),
        "controller.head_us": mean_us("controller.head_control"),
        "controller.beta_us": mean_us("controller.beta_functions"),
        "controller.follower_calls": calls("controller.follower_control"),
        "controller.follower_us": mean_us("controller.follower_control"),
        "controller.share_of_rhs": control_ns / rhs_ns,
        "autodiff.gradient_calls": calls("autodiff.gradient"),
        "autodiff.duals_per_rhs": (counted.counts["autodiff.Dual in simulator.rhs"]
                                   / counted.counts[rhs]),
        "reference.evaluate_calls": calls("reference.evaluate"),
        "reference.evaluate_us": mean_us("reference.evaluate"),
        "simulator.inject_disturbance_us": mean_us("simulator.inject_disturbance"),
        "simulator.driver_self_s": driver_ns * ns,
        "simulator.samples": outcome.samples,
        "simulator.monitor_s": by_edge[(run, "simulator.monitor_requirements")] * ns,
        "cli.write_timeseries_s": write_s,
        "cli.csv_bytes": outcome.csv_bytes,
        "cli.write_mb_per_s": outcome.csv_bytes * 1e-6 / write_s if write_s else 0.0,
        "cli.read_timeseries_s": total_s("cli.read_timeseries"),
        "observer.synthesize_calls": calls("observer.synthesize_gains"),
        "observer.synthesize_s": total_s("observer.synthesize_gains"),
        "simulator.validate_s": total_s("simulator.validate_config"),
        "simulator.saturation_events": outcome.saturation_events,
        "trace.overhead_ratio": overhead,
    }


def count_mismatches(reference, other, label):
    """Names whose counts differ between two passes over the same inputs."""
    return [f"{label}: {name} counted {reference.get(name, 0)} then {other.get(name, 0)}"
            for name in sorted(set(reference) | set(other))
            if reference.get(name, 0) != other.get(name, 0)]


def run(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, human-readable lines)."""
    import workloads as wl
    from tracer import Tracer, span_overhead_ns, write_spans

    # the interpreter, numpy and platoonsim; peak_rss_mb is the workload's rise above it
    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out_root = HERE / "out"
    config = wl.build_config(workload, seed)
    lines = []
    problems = []
    outcomes = []

    def attempt(tracer):
        """One checked repetition; None if it raised."""
        try:
            outcome = wl.run_once(workload, config, seed, out_root, tracer)
        except Exception as exc:  # a raising repetition is a failed one
            problems.append(f"repetition {len(outcomes) + 1} raised {exc!r}")
            outcome = None
        outcomes.append(outcome)
        return outcome

    def repetition(tracer):
        """One checked repetition and its speed factor; (None, speed) if it raised."""
        return calibrated(lambda: attempt(tracer))

    # warm-up: lazy imports, bytecode and caches, as every user's second run sees them
    with Tracer() as warm:
        wl.time_runs(warm)
        repetition(warm)

    # The set-up probes are spread over the timed window, between
    # repetitions, so that they meet the same machine states as the
    # repetitions do rather than those of a few seconds.
    setups = []
    probes = 0 if trace else SETUP_PROBES

    def probe():
        """One set-up probe; after a failed one no more are started."""
        nonlocal probes
        try:
            setups.append(measure_setup(workload, seed))
        except RuntimeError as exc:
            problems.append(str(exc))
            probes = len(setups)

    timed = []   # (outcome, speed factor)
    with Tracer() as timer:
        wl.time_runs(timer)
        start = time.perf_counter()
        while len(timed) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
            outcome, speed = repetition(timer)
            if outcome is None:
                break   # the run has failed; another attempt would only repeat the error
            timed.append((outcome, speed))
            if len(setups) < probes and (time.perf_counter() - start
                                         >= len(setups) * seconds / probes):
                probe()
    while len(setups) < probes:
        probe()
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline_kb) / 1024.0
    kind = "per_layer" if trace else "end_to_end"
    if not timed:
        problems.append("no repetition finished")
        return finish(outcomes, problems, {}, lines, kind), lines
    wall_s = statistics.median(o.wall_s / speed for o, speed in timed)
    metrics = {
        "wall_s": wall_s,
        "sim_s_per_s": config.duration / statistics.median(o.run_s / speed for o, speed in timed),
        "peak_rss_mb": peak_rss_mb,
    }
    if not trace:
        try:
            peak_bytes, = run_probe("heap_probe.py", workload, seed)
            metrics["peak_heap_mb"] = int(peak_bytes) / 2**20
        except RuntimeError as exc:
            problems.append(str(exc))
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    lines.append(f"{len(timed)} timed repetitions of {config.duration:g} s simulated; "
                 f"measured wall median {statistics.median(o.wall_s for o, _ in timed):.4f} s "
                 f"at speed factor median {statistics.median(v for _, v in timed):.3f}")
    lines.append(f"projected {wl.PAPER_HORIZON:g} s run at full speed: "
                 f"{wl.PAPER_HORIZON / metrics['sim_s_per_s']:.1f} s; "
                 f"peak resident memory {baseline_kb / 1024.0:.2f} MB after imports, "
                 f"{peak_rss_mb:.2f} MB more during the runs")

    if trace:
        traced = []      # (tracer, span overhead ns, outcome, speed factor), run ids 1..
        for run_id in range(1, TRACED_REPETITIONS + 1):
            with Tracer(run_id=run_id) as tracer:
                wl.instrument(tracer, "span")
                outcome, speed = repetition(tracer)
            traced.append((tracer, span_overhead_ns(), outcome, speed))
        passes = []
        for run_id in range(TRACED_REPETITIONS + 1, TRACED_REPETITIONS + 3):
            with Tracer(run_id=run_id) as counted:
                wl.instrument(counted, "count")
                repetition(counted)
            passes.append(counted)
        if None not in outcomes:
            problems += count_mismatches(passes[0].counts, passes[1].counts,
                                         "counting passes")
            for tracer, *_ in traced:
                problems += count_mismatches(
                    tracer.counts, {n: passes[0].counts[n] for n in tracer.counts},
                    f"traced pass {tracer.run_id} vs counting pass")
            per_rep = [layer_metrics(wl, tracer, span_ns, passes[0], outcome, speed,
                                     outcome.wall_s / speed / wall_s)
                       for tracer, span_ns, outcome, speed in traced]
            metrics = {name: statistics.median(m[name] for m in per_rep) for name in PER_LAYER}
            out_root.mkdir(parents=True, exist_ok=True)
            spans_path = out_root / f"spans-{workload}-seed{seed}.csv"
            write_spans([tracer.spans for tracer, *_ in traced], spans_path)
            lines.append(f"medians of {TRACED_REPETITIONS} traced repetitions; "
                         f"{sum(len(t.spans) for t, *_ in traced)} spans written to "
                         f"{spans_path.relative_to(ROOT)}; wrapper time per nested span "
                         f"{statistics.median(ns / speed for _, ns, _, speed in traced):.0f} ns "
                         "at full speed (measured, taken off every enclosing span)")
            lines.append("a faster layer saves at most its own share of simulator.rhs_us: "
                         "one thread, and each RK4 stage blocks the next")
    return finish(outcomes, problems, metrics, lines, kind), lines


def finish(outcomes, problems, metrics, lines, kind):
    """Cross-repetition checks and the result object."""
    done = [o for o in outcomes if o is not None]
    failed = sum(1 for o in outcomes if o is None or o.problems)
    for index, outcome in enumerate(outcomes, start=1):
        for problem in (outcome.problems if outcome is not None else []):
            problems.append(f"repetition {index}: {problem}")
    for attr in ("digest", "samples", "csv_bytes", "verdicts"):
        values = {json.dumps(getattr(o, attr), sort_keys=True) for o in done}
        if len(values) > 1:
            problems.append(f"repetitions disagree on {attr}: {sorted(values)}")
    units = END_TO_END if kind == "end_to_end" else PER_LAYER
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    lines.extend(f"{name:34s} {metrics[name]:>16.6f} {unit}"
                 for name, unit in units.items() if name in metrics)
    if done:
        lines.append(f"record digest {done[0].digest[:16]}, verdicts {done[0].verdicts}")
    lines.extend(f"CHECK FAILED: {p}" for p in problems)
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "platoonsim" / "__init__.py").is_file():
        print(f"error: no platoonsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
