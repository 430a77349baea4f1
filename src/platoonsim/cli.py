"""Command-line harness: scenario loading, validation, batch runs, file output.

Commands
--------
``run``      execute one or more scenarios, write per-run CSV time series and
             JSON summaries plus a batch ``index.json``; exit 0 only if every
             run's verdicts pass (or ``--no-verdict`` is given).
``validate`` load and feasibility-check scenarios without running them.

Exit codes: 0 pass, 1 verdict failure, 2 configuration error, 3 runtime or
integration fault.
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

from .controller import ConstraintSpec, FollowerGains, HeadGains
from .errors import (BarrierDomainError, ConfigurationError, IntegrationFault,
                     TimeseriesFormatError)
from .faults import FaultModel
from .model import (CarriageParams, ConsistTopology, CouplerParams,
                    DavisCoefficients)
from .presets import PRESETS, get_preset
from .reference import ReferencePhase, ReferenceProfile
from .simulator import (MonitorSpec, NoiseSpec, ScenarioConfig, SimulationRecord,
                        column_names, run_scenario, validate_config)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# config (de)serialization: JSON object model with units in the field names
# ---------------------------------------------------------------------------

def config_to_dict(config):
    """Plain-JSON form of a scenario configuration."""
    return {
        "topology": {"carriages_per_train": list(config.topology.carriages_per_train)},
        "davis": {
            "c0_N_per_kg": config.davis.c0,
            "c1_Ns_per_m_kg": config.davis.c1,
            "c2_Ns2_per_m2_kg": config.davis.c2,
        },
        "coupler": {
            "stiffness_N_per_m": config.coupler.stiffness,
            "damping_Ns_per_m": config.coupler.damping,
            "spacing_m": config.coupler.spacing,
        },
        "carriages": [
            {
                "mass_kg": c.mass,
                "actuator_rate_1_per_s": c.actuator_rate,
                "fault": {
                    "omega_rad_per_s": c.fault.omega,
                    "upsilon_Nps_per_unit": c.fault.upsilon,
                    "nu_s_per_rad": c.fault.nu,
                    "constant_amp": c.fault.constant_amp,
                    "periodic_amp": c.fault.periodic_amp,
                    "phase_rad": c.fault.phase,
                    "window_const_s": list(c.fault.window_const),
                    "window_periodic_s": list(c.fault.window_periodic),
                },
            }
            for c in config.carriages
        ],
        "constraints": {
            "gamma1_m": config.constraints.gamma1,
            "gamma2_m": config.constraints.gamma2,
            "service_distance_m": config.constraints.d_s,
            "sigma1_mps": config.constraints.sigma1,
            "sigma2_mps": config.constraints.sigma2,
        },
        "follower_gains": {"l1": config.follower_gains.l1,
                           "l2": config.follower_gains.l2,
                           "l3": config.follower_gains.l3},
        "head_gains": {"ell1": config.head_gains.ell1, "ell2": config.head_gains.ell2,
                       "ell3": config.head_gains.ell3, "ell4": config.head_gains.ell4},
        "observer": {
            "k1": config.observer_k1,
            "eigenvalues": list(config.observer_eigenvalues),
            "gain_override": (list(config.observer_gain_override)
                              if config.observer_gain_override is not None else None),
        },
        "reference": {
            "x0_m": config.profile.x0,
            "v0_mps": config.profile.v0,
            "w0_mps2": config.profile.w0,
            "v_max_mps": config.profile.v_max,
            "phases": [{"duration_s": p.duration, "jerk_mps3": p.jerk}
                       for p in config.profile.phases],
        },
        "initial_states": [{"x_m": x, "v_mps": v, "w_mps2": w}
                           for (x, v, w) in config.initial],
        "observer_initial": (
            None if config.observer_initial is None else
            [{"x_hat_m": s[0], "v_hat_mps": s[1], "w_hat_mps2": s[2],
              "f_hat": list(s[3:6])} for s in config.observer_initial]),
        "integration": {"step_s": config.step, "duration_s": config.duration,
                        "record_stride": config.record_stride},
        "noise": {"enabled": config.noise.enabled, "variance": config.noise.variance,
                  "seed": config.noise.seed},
        "representation": config.representation,
        "monitor": {
            "tail_window_s": config.monitor.tail_window,
            "tol_xtilde_mean_m": config.monitor.tol_xtilde_mean,
            "tol_vtilde_mean_mps": config.monitor.tol_vtilde_mean,
            "tol_gap_mean_m": config.monitor.tol_gap_mean,
            "tol_vgap_mean_mps": config.monitor.tol_vgap_mean,
        },
        "abort_on_violation": config.abort_on_violation,
        "control_law": config.control_law,
    }


def _require(mapping, key, context):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ConfigurationError(f"missing or malformed field {context}.{key}") from None


def config_from_dict(doc):
    """Inverse of :func:`config_to_dict`, with field-level error reporting."""
    try:
        topo = ConsistTopology(tuple(_require(doc["topology"], "carriages_per_train",
                                              "topology")))
        dv = doc["davis"]
        davis = DavisCoefficients(c0=_require(dv, "c0_N_per_kg", "davis"),
                                  c1=_require(dv, "c1_Ns_per_m_kg", "davis"),
                                  c2=_require(dv, "c2_Ns2_per_m2_kg", "davis"))
        cp = doc["coupler"]
        coupler = CouplerParams(stiffness=_require(cp, "stiffness_N_per_m", "coupler"),
                                damping=_require(cp, "damping_Ns_per_m", "coupler"),
                                spacing=_require(cp, "spacing_m", "coupler"))
        carriages = []
        for idx, c in enumerate(doc["carriages"]):
            f = _require(c, "fault", f"carriages[{idx}]")
            fault = FaultModel(
                omega=_require(f, "omega_rad_per_s", "fault"),
                upsilon=_require(f, "upsilon_Nps_per_unit", "fault"),
                nu=_require(f, "nu_s_per_rad", "fault"),
                constant_amp=_require(f, "constant_amp", "fault"),
                periodic_amp=_require(f, "periodic_amp", "fault"),
                phase=_require(f, "phase_rad", "fault"),
                window_const=tuple(_require(f, "window_const_s", "fault")),
                window_periodic=tuple(_require(f, "window_periodic_s", "fault")))
            carriages.append(CarriageParams(
                mass=_require(c, "mass_kg", f"carriages[{idx}]"),
                actuator_rate=_require(c, "actuator_rate_1_per_s", f"carriages[{idx}]"),
                fault=fault))
        cs = doc["constraints"]
        constraints = ConstraintSpec(
            gamma1=_require(cs, "gamma1_m", "constraints"),
            gamma2=_require(cs, "gamma2_m", "constraints"),
            d_s=_require(cs, "service_distance_m", "constraints"),
            sigma1=_require(cs, "sigma1_mps", "constraints"),
            sigma2=_require(cs, "sigma2_mps", "constraints"))
        fg = doc["follower_gains"]
        hg = doc["head_gains"]
        ob = doc["observer"]
        rf = doc["reference"]
        profile = ReferenceProfile(
            x0=_require(rf, "x0_m", "reference"),
            v0=_require(rf, "v0_mps", "reference"),
            w0=_require(rf, "w0_mps2", "reference"),
            phases=tuple(ReferencePhase(duration=p["duration_s"], jerk=p["jerk_mps3"])
                         for p in _require(rf, "phases", "reference")),
            v_max=_require(rf, "v_max_mps", "reference"))
        initial = tuple((s["x_m"], s["v_mps"], s["w_mps2"])
                        for s in doc["initial_states"])
        obs_init = doc.get("observer_initial")
        if obs_init is not None:
            obs_init = tuple(
                (s["x_hat_m"], s["v_hat_mps"], s["w_hat_mps2"], *s["f_hat"])
                for s in obs_init)
        it = doc["integration"]
        ns = doc["noise"]
        mn = doc["monitor"]
        gain_override = ob.get("gain_override")
        return ScenarioConfig(
            topology=topo, davis=davis, coupler=coupler, carriages=tuple(carriages),
            constraints=constraints,
            follower_gains=FollowerGains(l1=fg["l1"], l2=fg["l2"], l3=fg["l3"]),
            head_gains=HeadGains(ell1=hg["ell1"], ell2=hg["ell2"],
                                 ell3=hg["ell3"], ell4=hg["ell4"]),
            profile=profile, initial=initial, observer_initial=obs_init,
            observer_k1=_require(ob, "k1", "observer"),
            observer_eigenvalues=tuple(_require(ob, "eigenvalues", "observer")),
            observer_gain_override=(tuple(gain_override)
                                    if gain_override is not None else None),
            step=_require(it, "step_s", "integration"),
            duration=_require(it, "duration_s", "integration"),
            record_stride=int(it.get("record_stride", 1)),
            noise=NoiseSpec(enabled=bool(ns["enabled"]), variance=ns["variance"],
                            seed=int(ns["seed"])),
            representation=doc.get("representation", "composite"),
            monitor=MonitorSpec(
                tail_window=mn["tail_window_s"],
                tol_xtilde_mean=mn["tol_xtilde_mean_m"],
                tol_vtilde_mean=mn["tol_vtilde_mean_mps"],
                tol_gap_mean=mn["tol_gap_mean_m"],
                tol_vgap_mean=mn["tol_vgap_mean_mps"]),
            abort_on_violation=bool(doc.get("abort_on_violation", False)),
            control_law=doc.get("control_law", "designed"),
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from exc


def config_hash(config):
    """Stable hash of the canonical JSON form."""
    payload = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def load_config(path):
    """Parse, build and fully validate a scenario configuration file.

    Raises :class:`ConfigurationError` carrying every violated feasibility
    inequality, or a parse error with position information.
    """
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
    config = config_from_dict(doc)
    violations = validate_config(config)
    if violations:
        raise ConfigurationError(
            f"{path} is infeasible:\n" + "\n".join(str(v) for v in violations),
            violations=violations)
    return config


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
    index_path = out_dir / "index.json"
    index = {"runs": []}
    if index_path.exists():
        try:
            index = json.loads(index_path.read_text())
        except json.JSONDecodeError:
            index = {"runs": []}
    index["runs"] = [r for r in index.get("runs", []) if r.get("name") != entry["name"]]
    index["runs"].append(entry)
    index_path.write_text(json.dumps(index, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _gather_configs(args):
    jobs = []
    for path in args.config or []:
        jobs.append((Path(path).stem, load_config(path)))
    for name in args.preset or []:
        config = get_preset(name)
        violations = validate_config(config)
        if violations:
            raise ConfigurationError(
                f"preset {name} is infeasible:\n" + "\n".join(str(v) for v in violations),
                violations=violations)
        jobs.append((name, config))
    if not jobs:
        raise ConfigurationError("no scenario given; use --config PATH or --preset NAME")
    seen = {}
    named = []
    for name, config in jobs:
        seen[name] = seen.get(name, 0) + 1
        named.append((name if seen[name] == 1 else f"{name}-{seen[name]}", config))
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
    jobs = [(name, _apply_overrides(config, args)) for name, config in _gather_configs(args)]
    for _, config in jobs:
        violations = validate_config(config)
        if violations:
            raise ConfigurationError(
                "overrides made the scenario infeasible:\n"
                + "\n".join(str(v) for v in violations), violations=violations)
    all_pass = True
    for name, config in jobs:
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
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationFault, BarrierDomainError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
