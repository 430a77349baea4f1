"""The benchmark's workloads: inputs made from a seed, one repetition, output checks.

Every workload is the paper's ``paper-s5`` network (3 trains x 3 carriages,
h = 0.01 s) on a truncated horizon, because the cost per integration step
does not change over the horizon.  The program under test is the package in
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from platoonsim import (autodiff, cli, controller, observer, presets,  # noqa: E402
                        reference, simulator)

HORIZON = 2.0           # s of simulated time per repetition
PAPER_HORIZON = 2400.0  # s, the full paper-s5 run
DEFAULT_SEED = 1        # paper-s5's own disturbance seed; expected.json holds its outputs
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
# Final-row values may move by this much relative to max(|expected|, 1): a
# refactor's last-bit rounding stays far inside it, a changed trajectory does not.
EXPECTED_RTOL = 1e-7
FINAL_ROW_FIELDS = ("x", "v", "w", "u", "e_w", "f_eff_hat", "xtilde", "vtilde", "qtilde")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    noisy: bool       # the disturbance (and so the trajectory) depends on the seed
    via_cli: bool     # run through cli.main with CSV output and read-back


WORKLOADS = {w.name: w for w in (
    Workload("s5-closed-loop",
             "paper-s5 with the seeded disturbance and stride 100: the control "
             "layer does most of each evaluation and output almost nothing, so "
             "control-law and engine changes show here",
             noisy=True, via_cli=False),
    Workload("s5-observer-only",
             "the same inputs with control_law=zero: no control law runs, so an "
             "observer/fault/model/RK4 core change shows in full and a "
             "controller-only change predicts no change",
             noisy=True, via_cli=False),
    Workload("s5-record-io",
             "noise-free paper-s5 through platoon-sim run at stride 1 with the "
             "plant model, CSV read back and verdicts re-derived: output, "
             "monitoring, memory and plant-path changes show here",
             noisy=False, via_cli=True),
)}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _scaled_faults(config):
    """Carriages with paper-s5's fault windows scaled from 2400 s into HORIZON."""
    scale = HORIZON / PAPER_HORIZON

    def scaled(window):
        return (window[0] * scale, window[1] * scale)

    return tuple(
        dataclasses.replace(c, fault=dataclasses.replace(
            c.fault, window_const=scaled(c.fault.window_const),
            window_periodic=scaled(c.fault.window_periodic)))
        for c in config.carriages)


def build_config(name, seed):
    """The validated ScenarioConfig a workload runs for ``seed``, over HORIZON."""
    base = presets.paper_s5()
    if WORKLOADS[name].via_cli:
        # what `platoon-sim run --preset paper-s5 --no-noise --representation
        # both --duration <HORIZON> --seed <seed>` builds
        config = dataclasses.replace(
            base, duration=HORIZON, representation="both",
            noise=dataclasses.replace(base.noise, enabled=False, seed=seed))
    else:
        config = dataclasses.replace(
            base, duration=HORIZON, record_stride=100, representation="composite",
            noise=dataclasses.replace(base.noise, enabled=True, seed=seed),
            carriages=_scaled_faults(base),
            control_law="zero" if name == "s5-observer-only" else "designed")
    violations = simulator.validate_config(config)
    if violations:
        raise ValueError(f"{name} generated an infeasible scenario: {violations}")
    return config


def cli_argv(config, out_dir):
    """Arguments of the `platoon-sim run` call that builds ``config``."""
    return ["run", "--preset", "paper-s5", "--no-noise", "--representation", "both",
            "--duration", repr(config.duration), "--seed", str(config.noise.seed),
            "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Outcome:
    """What one repetition produced and how long it took."""

    wall_s: float
    run_s: float            # time inside run_scenario
    digest: str
    samples: int
    csv_bytes: int
    verdicts: dict
    saturation_events: int
    problems: list


def record_digest(record):
    """SHA-256 over the exact bits of the record's time column and fields."""
    digest = hashlib.sha256(np.ascontiguousarray(record.t).tobytes())
    for name in sorted(record.data):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(record.data[name]).tobytes())
    return digest.hexdigest()


def snapshot(record, verdicts):
    """Verdicts and final-row values, the form expected.json stores."""
    return {
        "verdicts": {k: bool(v) for k, v in sorted(verdicts.items())},
        "t_end": float(record.t[-1]),
        "final": {f: [float(x) for x in record.data[f][-1]] for f in FINAL_ROW_FIELDS},
    }


def compare_snapshot(actual, expected):
    """Differences between two snapshots beyond EXPECTED_RTOL (empty list when they match)."""
    problems = []
    if actual["verdicts"] != expected["verdicts"]:
        problems.append(f"verdicts {actual['verdicts']} != expected {expected['verdicts']}")
    pairs = [("t_end", actual["t_end"], expected["t_end"])]
    for field, values in expected["final"].items():
        got = actual["final"][field]
        if len(got) != len(values):
            problems.append(f"final {field} has {len(got)} values, expected {len(values)}")
            continue
        pairs.extend((f"final {field}[{k}]", a, e) for k, (a, e) in enumerate(zip(got, values)))
    for label, a, e in pairs:
        if not abs(a - e) <= EXPECTED_RTOL * max(abs(e), 1.0):
            problems.append(f"{label} = {a!r}, expected {e!r}")
    return problems


@functools.lru_cache(maxsize=None)
def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def _record_problems(record):
    bad = [name for name, values in record.data.items() if not np.isfinite(values).all()]
    if not np.isfinite(record.t).all():
        bad.append("t")
    return [f"non-finite values in {name}" for name in bad]


def run_library(config):
    """One `run_scenario` call; the timed section is the call itself.

    Returns (wall_s, record, verdicts, saturation events, problems, csv_bytes),
    like :func:`run_cli`.
    """
    start = time.perf_counter()
    record, report = simulator.run_scenario(config)
    wall = time.perf_counter() - start
    return wall, record, report.verdicts, len(report.saturation_events), [], 0


def run_cli(config, out_root):
    """`platoon-sim run` into a temporary directory, CSV read-back and re-derived verdicts."""
    problems = []
    out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        out = Path(tmp)
        printed = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = cli.main(cli_argv(config, out))
        csv_path = out / "paper-s5_timeseries.csv"
        summary = json.loads((out / "paper-s5_summary.json").read_text())
        record = cli.read_timeseries(csv_path)
        rederived = simulator.monitor_requirements(
            record, config.constraints, config.head_gains.ell1,
            config.coupler.spacing, config.monitor)
        wall = time.perf_counter() - start
        csv_bytes = csv_path.stat().st_size
    written = summary["verdicts"]
    if code != (cli.EXIT_PASS if written["all"] else cli.EXIT_VERDICT):
        problems.append(f"exit code {code} does not match verdicts {written}")
    if any(rederived.verdicts[k] != written[k] for k in rederived.verdicts):
        problems.append(f"verdicts from CSV {rederived.verdicts} != summary {written}")
    if summary["config_hash"] != cli.config_hash(config):
        problems.append("the CLI ran another configuration than the generated one")
    if not printed.getvalue().startswith("paper-s5: R1="):
        problems.append(f"unexpected CLI output {printed.getvalue()!r}")
    return wall, record, rederived.verdicts, len(summary["saturation_events"]), problems, csv_bytes


def run_once(name, config, seed, out_root, tracer):
    """One repetition of workload ``name``, with its per-repetition checks.

    ``tracer`` must have `run_scenario` patched as a span (see
    :func:`time_runs` and :func:`instrument`); that span gives the time
    inside `run_scenario`.
    """
    workload = WORKLOADS[name]
    first_span = len(tracer.spans)
    wall, record, verdicts, saturations, problems, csv_bytes = (
        run_cli(config, out_root) if workload.via_cli else run_library(config))
    _, start_ns, end_ns, _, _ = next(s for s in tracer.spans[first_span:] if s[0] == RUN_SPAN)
    problems += _record_problems(record)
    expected = load_expected()[name]
    # expected.json holds the default seed's outputs at the default horizon;
    # a noise-free workload has the same inputs for every seed
    if (seed == DEFAULT_SEED or not workload.noisy) and config.duration == expected["t_end"]:
        problems += compare_snapshot(snapshot(record, verdicts), expected)
    return Outcome(wall_s=wall, run_s=(end_ns - start_ns) * 1e-9,
                   digest=record_digest(record), samples=len(record.t),
                   csv_bytes=csv_bytes, verdicts=dict(verdicts),
                   saturation_events=saturations, problems=problems)


# ---------------------------------------------------------------------------
# layer boundaries
# ---------------------------------------------------------------------------

RUN_SPAN = "simulator.run_scenario"

# (owner, attribute the package calls through, span name)
BOUNDARIES = (
    (cli, "main", "cli.main"),
    (cli, "run_scenario", "simulator.run_scenario"),
    (simulator, "run_scenario", "simulator.run_scenario"),
    (cli, "validate_config", "simulator.validate_config"),
    (simulator, "validate_config", "simulator.validate_config"),
    (observer, "synthesize_gains", "observer.synthesize_gains"),
    (simulator, "inject_disturbance", "simulator.inject_disturbance"),
    (simulator, "monitor_requirements", "simulator.monitor_requirements"),
    (reference.ReferenceProfile, "evaluate", "reference.evaluate"),
    (controller, "head_control", "controller.head_control"),
    (controller, "beta_functions", "controller.beta_functions"),
    (controller, "gradient", "autodiff.gradient"),
    (controller, "follower_control", "controller.follower_control"),
    (cli, "write_timeseries", "cli.write_timeseries"),
    (cli, "read_timeseries", "cli.read_timeseries"),
)


def time_runs(tracer):
    """Patch only `run_scenario`: one span per repetition, for the untraced runs."""
    for owner, attr, name in BOUNDARIES:
        if name == RUN_SPAN:
            tracer.patch(owner, attr, functools.partial(tracer.span, name))


def instrument(tracer, mode):
    """Patch every layer boundary.

    ``mode="span"`` times each call.  ``mode="count"`` only counts calls,
    including every `autodiff.Dual` construction; `run_scenario` and the RK4
    right-hand side stay spans there, so that counts can be attributed to
    them.
    """
    wrap = tracer.span if mode == "span" else tracer.counter
    for owner, attr, name in BOUNDARIES:
        tracer.patch(owner, attr, functools.partial(
            tracer.span if name == RUN_SPAN else wrap, name))

    def rk4(original):
        step = wrap("simulator.rk4_step", original)

        def rk4_step(rhs, *args, **kwargs):
            return step(tracer.span("simulator.rhs", rhs), *args, **kwargs)
        return rk4_step

    tracer.patch(simulator, "rk4_step", rk4)
    if mode == "count":
        tracer.patch(autodiff.Dual, "__init__",
                     functools.partial(tracer.counter, "autodiff.Dual"))
