"""Command-line harness: scenario loading, validation, batch runs, file output.

Commands
--------
``run``      execute one or more scenarios, write per-run CSV time series and
             JSON summaries plus a batch ``index.json``; exit 0 only if every
             run's verdicts pass (or ``--no-verdict`` is given).  The
             command-line overrides apply before the feasibility check.
``validate`` load and feasibility-check scenarios without running them.

Exit codes: 0 pass, 1 verdict failure, 2 configuration error, 3 runtime or
integration fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .controller import ConstraintSpec, FollowerGains, HeadGains
from .errors import (BarrierDomainError, ConfigurationError, IntegrationFault,
                     PlacementError, TimeseriesFormatError)
from .faults import FaultModel
from .model import (CarriageParams, ConsistTopology, CouplerParams,
                    DavisCoefficients)
from .presets import PRESETS, get_preset
from .reference import ReferencePhase, ReferenceProfile
from .simulator import (MonitorSpec, NoiseSpec, ScenarioConfig, SimulationRecord,
                        column_names, require_feasible, run_scenario)
from .simulator import validate_config  # noqa: F401  (part of this module's interface)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# config (de)serialization: JSON object model with units in the field names
# ---------------------------------------------------------------------------

_REQUIRED = object()
_N, _I, _B, _S = "number", "integer", "boolean", "string"
# scalar kinds: the Python types that json parses a value of the kind into, and its name
_KINDS = {_N: ((int, float), "a finite number"), _I: ((int,), "an integer"),
          _B: ((bool,), "true or false"), _S: ((str,), "a string")}

# The scenario file format: per record type, each field's (JSON key,
# attribute, kind[, default]).  A kind is a scalar kind, a record type of
# this table (a JSON object) or [kind] (a JSON array of it, a tuple in the
# record).  A dotted key puts the field into a JSON object of its own.  A
# field with a default may be left out, and one whose default is None may be
# null.  "state" and "estimate" are tuple rows: their attributes are
# positions, and an array field fills the rest of the row.
_FORMAT = {
    ConsistTopology: (("carriages_per_train", "carriages_per_train", [_I]),),
    DavisCoefficients: (("c0_N_per_kg", "c0", _N), ("c1_Ns_per_m_kg", "c1", _N),
                        ("c2_Ns2_per_m2_kg", "c2", _N)),
    CouplerParams: (("stiffness_N_per_m", "stiffness", _N),
                    ("damping_Ns_per_m", "damping", _N), ("spacing_m", "spacing", _N)),
    FaultModel: (("omega_rad_per_s", "omega", _N), ("upsilon_Nps_per_unit", "upsilon", _N),
                 ("nu_s_per_rad", "nu", _N), ("constant_amp", "constant_amp", _N),
                 ("periodic_amp", "periodic_amp", _N), ("phase_rad", "phase", _N),
                 ("window_const_s", "window_const", [_N]),
                 ("window_periodic_s", "window_periodic", [_N])),
    CarriageParams: (("mass_kg", "mass", _N), ("actuator_rate_1_per_s", "actuator_rate", _N),
                     ("fault", "fault", FaultModel)),
    ConstraintSpec: (("gamma1_m", "gamma1", _N), ("gamma2_m", "gamma2", _N),
                     ("service_distance_m", "d_s", _N), ("sigma1_mps", "sigma1", _N),
                     ("sigma2_mps", "sigma2", _N)),
    FollowerGains: (("l1", "l1", _N), ("l2", "l2", _N), ("l3", "l3", _N)),
    HeadGains: (("ell1", "ell1", _N), ("ell2", "ell2", _N), ("ell3", "ell3", _N),
                ("ell4", "ell4", _N)),
    ReferencePhase: (("duration_s", "duration", _N), ("jerk_mps3", "jerk", _N)),
    ReferenceProfile: (("x0_m", "x0", _N), ("v0_mps", "v0", _N), ("w0_mps2", "w0", _N),
                       ("v_max_mps", "v_max", _N), ("phases", "phases", [ReferencePhase])),
    "state": (("x_m", 0, _N), ("v_mps", 1, _N), ("w_mps2", 2, _N)),
    "estimate": (("x_hat_m", 0, _N), ("v_hat_mps", 1, _N), ("w_hat_mps2", 2, _N),
                 ("f_hat", slice(3, None), [_N])),
    NoiseSpec: (("enabled", "enabled", _B), ("variance", "variance", _N), ("seed", "seed", _I)),
    MonitorSpec: (("tail_window_s", "tail_window", _N),
                  ("tol_xtilde_mean_m", "tol_xtilde_mean", _N),
                  ("tol_vtilde_mean_mps", "tol_vtilde_mean", _N),
                  ("tol_gap_mean_m", "tol_gap_mean", _N),
                  ("tol_vgap_mean_mps", "tol_vgap_mean", _N)),
    ScenarioConfig: (
        ("topology", "topology", ConsistTopology), ("davis", "davis", DavisCoefficients),
        ("coupler", "coupler", CouplerParams), ("carriages", "carriages", [CarriageParams]),
        ("constraints", "constraints", ConstraintSpec),
        ("follower_gains", "follower_gains", FollowerGains),
        ("head_gains", "head_gains", HeadGains),
        ("observer.k1", "observer_k1", _N),
        ("observer.eigenvalues", "observer_eigenvalues", [_N]),
        ("observer.gain_override", "observer_gain_override", [_N], None),
        ("reference", "profile", ReferenceProfile),
        ("initial_states", "initial", ["state"]),
        ("observer_initial", "observer_initial", ["estimate"], None),
        ("integration.step_s", "step", _N), ("integration.duration_s", "duration", _N),
        ("integration.record_stride", "record_stride", _I, 1),
        ("noise", "noise", NoiseSpec), ("representation", "representation", _S, "composite"),
        ("monitor", "monitor", MonitorSpec),
        ("abort_on_violation", "abort_on_violation", _B, False),
        ("control_law", "control_law", _S, "designed")),
}


def _encode(value, kind):
    """Plain-JSON form of ``value``, a field of ``kind``."""
    if isinstance(kind, list):
        return None if value is None else [_encode(v, kind[0]) for v in value]
    if kind not in _FORMAT:
        return value
    doc = {}
    for key, attr, sub, *_ in _FORMAT[kind]:
        group, _, key = key.rpartition(".")
        field = value[attr] if isinstance(kind, str) else getattr(value, attr)
        (doc.setdefault(group, {}) if group else doc)[key] = _encode(field, sub)
    return doc


class _Fields:
    """One JSON object of a scenario file, read one field at a time.

    ``get`` names the field's path (``carriages[2].fault.phase_rad``) in
    every error it raises, checks the JSON type, and marks the key as read;
    ``unknown`` lists the keys that no read asked for.  Numbers are passed
    through as parsed, so a loaded file has the hash of the file's values.
    """

    def __init__(self, doc, path):
        if type(doc) is not dict:
            raise ConfigurationError(f"{path or 'configuration'} must be a JSON object")
        self.doc, self.path, self.read, self.groups = doc, path, set(), {}

    def get(self, key, kind, default=_REQUIRED):
        """Field ``key`` as ``kind`` (a kind of ``_FORMAT``, or "object" for its raw fields).

        A missing field takes ``default``; without one it is an error.
        """
        if key in self.groups:
            return self.groups[key]
        self.read.add(key)
        path = f"{self.path}.{key}" if self.path else key
        if key not in self.doc:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing field {path}")
            return default
        value = self.doc[key]
        if value is None and default is None:
            return None
        value = self._check(value, kind, path)
        if kind == "object":
            self.groups[key] = value
        return value

    def _check(self, value, kind, path):
        if isinstance(kind, list):
            if type(value) is not list:
                raise ConfigurationError(f"field {path} must be an array, got {value!r}")
            return tuple(self._check(v, kind[0], f"{path}[{k}]") for k, v in enumerate(value))
        if kind == "object":
            return _Fields(value, path)
        if kind in _FORMAT:
            return _decode(_Fields(value, path), kind)
        if kind == _I and type(value) is float and value.is_integer():
            value = int(value)
        types, name = _KINDS[kind]
        # json parses NaN and Infinity as floats
        if type(value) not in types or (kind == _N and not -math.inf < value < math.inf):
            raise ConfigurationError(f"field {path} must be {name}, got {value!r}")
        return value

    def unknown(self):
        """Paths of the keys, here and in the groups read, that no read asked for."""
        prefix = f"{self.path}." if self.path else ""
        return ([prefix + key for key in self.doc if key not in self.read]
                + [name for group in self.groups.values() for name in group.unknown()])


def _decode(fields, kind):
    """The ``kind`` record (or row) that the JSON object ``fields`` holds."""
    values = []
    for key, attr, sub, *default in _FORMAT[kind]:
        group, _, key = key.rpartition(".")
        owner = fields.get(group, "object") if group else fields
        values.append((attr, owner.get(key, sub, *default)))
    unknown = fields.unknown()
    if unknown:
        raise ConfigurationError("unknown field " + ", ".join(unknown))
    if isinstance(kind, str):
        return tuple(x for attr, v in values
                     for x in (v if isinstance(attr, slice) else (v,)))
    try:
        return kind(**dict(values))
    except (TypeError, ValueError) as exc:    # ConfigurationError included
        raise ConfigurationError(f"{fields.path or 'configuration'}: {exc}") from exc


def config_to_dict(config):
    """Plain-JSON form of a scenario configuration (the format is ``_FORMAT``)."""
    return _encode(config, ScenarioConfig)


def config_from_dict(doc):
    """Inverse of :func:`config_to_dict`, with field-level error reporting.

    Every field is read by its path: numbers must be JSON numbers, integer
    fields integral, flags JSON booleans, and a key that names no field is
    an error.
    """
    return _decode(_Fields(doc, ""), ScenarioConfig)


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
