"""Command-line harness: scenario loading, validation, batch runs, file output.

Commands
--------
``run``      execute one or more scenarios, write per-run CSV time series and
             JSON summaries plus a batch ``index.json``; exit 0 only if every
             run's verdicts pass (or ``--no-verdict`` is given).  The
             command-line overrides apply before the feasibility check.
``validate`` load and feasibility-check scenarios without running them.

The file format and the feasibility gate are :mod:`platoonsim.simulator`'s.

Exit codes: 0 pass, 1 verdict failure, 2 configuration error (a failed gain
placement included), 3 runtime or integration fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import (BarrierDomainError, ConfigurationError, IntegrationFault,
                     PlacementError, TimeseriesFormatError)
from .presets import PRESETS, get_preset
from .simulator import (SimulationRecord, column_names, config_from_dict, config_to_dict,
                        require_feasible, run_scenario)
from .simulator import (_FORMAT, _Fields, _decode, _encode,  # noqa: F401  (re-exported)
                        validate_config)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def config_hash(config):
    """Stable hash of the canonical JSON form."""
    payload = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def load_config(path):
    """Parse, build and fully validate a scenario configuration file.

    Raises :class:`ConfigurationError` carrying every violated feasibility
    inequality, or a parse error with position information.
    """
    return require_feasible(_read_config(path), str(path))


def _read_config(path):
    """Parse and build a scenario configuration file, without the feasibility check."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_timeseries(record, path):
    """CSV with one header row; 17 significant digits for exact round-trips.

    The record's table is written as it stands, without a copy.
    """
    header = ",".join(record.column_names())
    np.savetxt(path, record.table, fmt="%.17g", delimiter=",",
               header=header, comments="")


def read_timeseries(path):
    """Rebuild a :class:`SimulationRecord` from a written CSV.

    Every column written by :func:`write_timeseries` is read back, the
    plant columns of a ``--representation both`` run included, into one
    table that the record wraps.  The file holds only the sampled rows, so
    the record's ``step`` is the spacing of the first two samples and its
    ``stride`` is 1.  Raises :class:`TimeseriesFormatError` when the header
    is not a record's column layout or the rows do not fit it.
    """
    with open(path, "rb") as fh:
        names = fh.readline().decode(errors="replace").strip().split(",")
        n_rows = sum(1 for line in fh if line.strip())
    if names == [""]:
        raise TimeseriesFormatError(f"{path}: empty file, no header row")
    labels = []
    for name in names:
        i, _, j = name.removeprefix("x_m_").partition("_")
        if name.startswith("x_m_") and i.isdigit() and j.isdigit():
            labels.append((int(i), int(j)))
    n_trains = sum(name.startswith("eps_m_") for name in names)
    plant = any(name.startswith("plant_x_") for name in names)
    expected = column_names(labels, n_trains, plant)
    if names != expected:
        k = next((k for k, (a, b) in enumerate(zip(names, expected)) if a != b),
                 min(len(names), len(expected)))
        got = repr(names[k]) if k < len(names) else "missing"
        want = repr(expected[k]) if k < len(expected) else "the end of the header"
        raise TimeseriesFormatError(f"{path}: header column {k + 1} is {got}, expected {want}")
    if not labels:
        raise TimeseriesFormatError(f"{path}: header names no carriage columns")
    if not n_rows:
        raise TimeseriesFormatError(f"{path}: header row only, no samples")
    try:
        # given max_rows, loadtxt warns about the blank lines it skips
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", skiprows=1, max_rows=n_rows, ndmin=2)
    except ValueError as exc:
        raise TimeseriesFormatError(f"{path}: rows do not fit the header: {exc}") from None
    if table.shape[1] != len(names):
        raise TimeseriesFormatError(
            f"{path}: rows hold {table.shape[1]} values, the header names {len(names)}")
    t = table[:, 0]
    step = float(t[1] - t[0]) if len(t) > 1 else 0.0
    return SimulationRecord(table, tuple(labels), n_trains, step, 1, plant)


def _update_index(out_dir, entry):
    """Add ``entry`` to ``out_dir/index.json``, replacing a run of the same name.

    An index that is not ``{"runs": [objects]}`` is started anew.
    """
    index_path = out_dir / "index.json"
    try:
        index = json.loads(index_path.read_text())
    except (FileNotFoundError, ValueError):     # none yet, not UTF-8, or not JSON
        index = {}
    runs = index.get("runs", []) if isinstance(index, dict) else None
    if not (isinstance(runs, list) and all(isinstance(r, dict) for r in runs)):
        index, runs = {}, []
    index["runs"] = [r for r in runs if r.get("name") != entry["name"]] + [entry]
    index_path.write_text(json.dumps(index, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _gather_configs(args, overrides=False):
    """``(name, config)`` per scenario, each checked for feasibility once.

    With ``overrides`` the run command's options apply before the check.
    """
    jobs = [(Path(path).stem, path, _read_config(path)) for path in args.config or []]
    jobs += [(name, f"preset {name}", get_preset(name)) for name in args.preset or []]
    if not jobs:
        raise ConfigurationError("no scenario given; use --config PATH or --preset NAME")
    seen = {}
    named = []
    for name, source, config in jobs:
        if overrides:
            config = _apply_overrides(config, args)
        seen[name] = seen.get(name, 0) + 1
        named.append((name if seen[name] == 1 else f"{name}-{seen[name]}",
                      require_feasible(config, source)))
    return named


def _apply_overrides(config, args):
    changes = {}
    noise = config.noise
    if args.seed is not None:
        noise = dataclasses.replace(noise, seed=args.seed)
    if args.no_noise:
        noise = dataclasses.replace(noise, enabled=False)
    if noise is not config.noise:
        changes["noise"] = noise
    if args.step is not None:
        changes["step"] = args.step
    if args.duration is not None:
        changes["duration"] = args.duration
    if args.representation is not None:
        changes["representation"] = args.representation
    if args.decimate is not None:
        changes["record_stride"] = args.decimate
    if args.abort_on_violation:
        changes["abort_on_violation"] = True
    return dataclasses.replace(config, **changes) if changes else config


def cmd_run(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name, config in _gather_configs(args, overrides=True):
        record, report = run_scenario(config)
        report.config_hash = config_hash(config)
        ts_path = out_dir / f"{name}_timeseries.csv"
        summary_path = out_dir / f"{name}_summary.json"
        write_timeseries(record, ts_path)
        summary = report.to_dict()
        summary.update({
            "name": name,
            "step_s": config.step,
            "duration_s": config.duration,
            "representation": config.representation,
            "noise_enabled": config.noise.enabled,
        })
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
        _update_index(out_dir, {
            "name": name,
            "timeseries": ts_path.name,
            "summary": summary_path.name,
            "all_pass": report.all_pass,
            "config_hash": report.config_hash,
            "seed": config.noise.seed if config.noise.enabled else None,
        })
        verdicts = report.verdicts
        print(f"{name}: R1={'pass' if verdicts['R1'] else 'FAIL'} "
              f"R2={'pass' if verdicts['R2'] else 'FAIL'} "
              f"R3={'pass' if verdicts['R3'] else 'FAIL'} -> {ts_path}")
        all_pass = all_pass and report.all_pass
    if args.no_verdict:
        return EXIT_PASS
    return EXIT_PASS if all_pass else EXIT_VERDICT


def cmd_validate(args):
    for name, config in _gather_configs(args):
        print(f"{name}: ok ({config.topology.train_count} trains, "
              f"{config.topology.total_carriages} carriages)")
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="platoon-sim",
        description="Deterministic fault-tolerant train-platoon simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sources(p):
        p.add_argument("--config", action="append", metavar="PATH",
                       help="scenario configuration file (repeatable)")
        p.add_argument("--preset", action="append", metavar="NAME",
                       help=f"built-in scenario, one of {sorted(PRESETS)} (repeatable)")

    run_p = sub.add_parser("run", help="execute scenarios and write outputs")
    add_sources(run_p)
    run_p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="disturbance seed override")
    run_p.add_argument("--step", type=float, default=None, help="integration step (s)")
    run_p.add_argument("--duration", type=float, default=None, help="horizon (s)")
    run_p.add_argument("--no-noise", action="store_true", help="disable the disturbance")
    run_p.add_argument("--representation", choices=["composite", "plant", "both"],
                       default=None)
    run_p.add_argument("--abort-on-violation", action="store_true",
                       help="stop integrating when a constraint is violated")
    run_p.add_argument("--decimate", type=int, default=None, metavar="N",
                       help="record every N-th step")
    run_p.add_argument("--no-verdict", action="store_true",
                       help="exit 0 regardless of requirement verdicts")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check scenario feasibility")
    add_sources(val_p)
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, PlacementError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationFault, BarrierDomainError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
