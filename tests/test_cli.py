"""CLI, configuration file and output-format tests."""

import contextlib
import dataclasses
import functools
import io
import json
import math
import operator
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import short_scenario
from platoonsim import cli, simulator
from platoonsim.cli import (config_from_dict, config_hash, config_to_dict,
                            load_config, main, read_timeseries,
                            write_timeseries)
from platoonsim.controller import FollowerGains, HeadGains
from platoonsim.errors import (BarrierDomainError, ConfigurationError, IntegrationFault,
                               TimeseriesFormatError)
from platoonsim.presets import paper_s5
from platoonsim.simulator import (CONTROL_LAWS, REPRESENTATIONS, SimulationRecord,
                                  monitor_requirements, run_scenario, validate_config)

CARRIAGE_FIELDS = ("x", "v", "w", "tau", "u", "f_eff", "f_eff_hat", "e_x", "e_v", "e_w")
PAIR_FIELDS = ("eps", "xtilde", "vtilde", "qtilde")
PLANT_FIELDS = ("plant_x", "plant_v", "plant_tau")
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    """Records of random shape and finite values, with or without plant columns."""
    trains = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    labels = tuple((i, j) for i, m in enumerate(trains, start=1) for j in range(1, m + 1))
    n = draw(st.integers(1, 5))
    plant = draw(st.booleans())
    record = SimulationRecord.allocate(n, labels, len(trains), step=draw(FINITE),
                                       stride=draw(st.integers(1, 100)), plant=plant)
    for f in CARRIAGE_FIELDS + (PLANT_FIELDS if plant else ()):
        record.data[f][:] = draw(arrays(np.float64, (n, len(labels)), elements=FINITE))
    for f in PAIR_FIELDS:
        record.data[f][:] = draw(arrays(np.float64, (n, len(trains)), elements=FINITE))
    record.t[:] = draw(arrays(np.float64, n, elements=FINITE))
    return record


@st.composite
def perturbed_configs(draw):
    """``paper_s5`` with random gains, fault windows, stride, noise seed and representation."""
    base = paper_s5()
    window = st.tuples(FINITE, FINITE).map(lambda w: tuple(sorted(w)))
    carriages = tuple(
        dataclasses.replace(c, fault=dataclasses.replace(
            c.fault, window_const=draw(window), window_periodic=draw(window)))
        for c in base.carriages)
    return dataclasses.replace(
        base, carriages=carriages,
        follower_gains=FollowerGains(*draw(st.tuples(FINITE, FINITE, FINITE))),
        head_gains=HeadGains(*draw(st.tuples(FINITE, FINITE, FINITE, FINITE))),
        record_stride=draw(st.integers(1, 10 ** 6)),
        noise=dataclasses.replace(base.noise, seed=draw(st.integers(0, 2 ** 63 - 1))),
        representation=draw(st.sampled_from(REPRESENTATIONS)),
        control_law=draw(st.sampled_from(CONTROL_LAWS)))


class TestConfigRoundTrip:
    def test_dict_round_trip_is_exact(self):
        config = paper_s5()
        assert config_from_dict(config_to_dict(config)) == config

    @settings(max_examples=100, deadline=None)
    @given(config=perturbed_configs())
    def test_perturbed_round_trip_is_exact(self, config):
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config

    def test_file_round_trip(self, tmp_path):
        config = paper_s5()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert load_config(path) == config

    def test_hash_is_stable_and_sensitive(self):
        config = paper_s5()
        assert config_hash(config) == config_hash(paper_s5())
        other = dataclasses.replace(config, step=0.02)
        assert config_hash(other) != config_hash(config)

    def test_preset_hash_is_pinned(self):
        # summary and index files carry this hash; the file format must keep it
        assert config_hash(paper_s5()) == (
            "66909994207cf0d5af45d73d239d4326ea1d7623e9b5deff346ed69864af0cdb")


class TestPresetContent:
    def test_benchmark_preset_values(self):
        config = paper_s5()
        assert config.topology.carriages_per_train == (3, 3, 3)
        assert all(c.mass == 8.0e4 and c.actuator_rate == 50.0
                   for c in config.carriages)
        assert (config.davis.c0, config.davis.c1, config.davis.c2) == (
            0.01176, 0.00077616, 1.6e-5)
        assert config.coupler.stiffness == 1.6e5
        assert config.coupler.damping == 600.0
        assert config.coupler.spacing == 26.0
        assert (config.constraints.gamma1, config.constraints.gamma2,
                config.constraints.d_s) == (9000.0, 4702.0, 7053.0)
        assert config.constraints.sigma1 == config.constraints.sigma2 == 50.0
        expected_const = [(400, 1400), (600, 1500), (800, 1600), (1000, 1700),
                          (1200, 1800), (1400, 1900), (1600, 2000),
                          (1800, 2100), (2000, 2200)]
        expected_periodic = [(500, 2300), (700, 2300), (900, 2300), (1100, 2300),
                             (1300, 2300), (1500, 2300), (1700, 2300),
                             (1900, 2300), (2100, 2300)]
        for g, ((i, j), carriage) in enumerate(
                zip(config.topology.carriage_ids(), config.carriages)):
            fault = carriage.fault
            assert fault.window_const == expected_const[g]
            assert fault.window_periodic == expected_periodic[g]
            assert fault.phase == 6 * (i - 1) + 2 * j
            assert (fault.omega, fault.upsilon, fault.nu) == (1.0, 2e5, 2e5)
            assert fault.constant_amp == fault.periodic_amp == 1.0
        assert (config.follower_gains.l1, config.follower_gains.l2,
                config.follower_gains.l3) == (0.1, 0.1, 0.1)
        assert (config.head_gains.ell1, config.head_gains.ell2,
                config.head_gains.ell3, config.head_gains.ell4) == (
            0.01, 2.1, 4.3, 1.0)
        assert config.observer_eigenvalues == (-3.0,) * 5
        assert config.observer_k1 == 3.0
        assert config.step == 0.01 and config.duration == 2400.0
        assert config.noise.variance == 0.5
        assert config.profile.x0 == 13062.0 + 7053.0
        assert config.profile.v0 == 20.0
        assert tuple(s[0] for s in config.initial) == (
            13062.0, 13036.0, 13010.0, 5157.0, 5131.0, 5105.0, 52.0, 26.0, 0.0)
        assert tuple(s[1] for s in config.initial) == (
            20.5, 20.2, 20.3, 19.8, 19.9, 20.5, 19.7, 20.5, 20.2)
        assert all(s[2] == 0.0 for s in config.initial)


class TestLoadConfig:
    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"topology": [,]}')
        with pytest.raises(ConfigurationError, match="line 1"):
            load_config(path)

    def test_missing_field_named(self, tmp_path):
        doc = config_to_dict(paper_s5())
        del doc["coupler"]["spacing_m"]
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="coupler.spacing_m"):
            load_config(path)

    def test_infeasible_gain_listed_by_name(self, tmp_path):
        doc = config_to_dict(paper_s5())
        doc["head_gains"]["ell2"] = 1.0
        path = tmp_path / "badgain.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError) as info:
            load_config(path)
        assert any(v.name == "ell2 > 2" for v in info.value.violations)

    def test_initial_feasibility_depends_on_braking_distances(self, tmp_path):
        # pushing the service distance to 10 km while shrinking the margin
        # below the second pair's 2147 m deficit must reject the start state
        doc = config_to_dict(paper_s5())
        doc["constraints"]["service_distance_m"] = 10000.0
        doc["constraints"]["gamma1_m"] = 12000.0
        doc["constraints"]["gamma2_m"] = 8000.0
        doc["reference"]["x0_m"] = 13062.0 + 10000.0
        path = tmp_path / "fardistance.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError) as info:
            load_config(path)
        assert any(v.name.startswith("xtilde_2(0)") for v in info.value.violations)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.json")


def preset_doc_with(keys, value=None, delete=False):
    """``paper_s5``'s file form with the field at ``keys`` set to ``value`` or deleted."""
    doc = config_to_dict(paper_s5())
    owner = functools.reduce(operator.getitem, keys[:-1], doc)
    if delete:
        del owner[keys[-1]]
    else:
        owner[keys[-1]] = value
    return doc


class TestStrictFields:
    """Every field is read by its path; its JSON type is checked and unknown keys are errors."""

    @pytest.mark.parametrize("keys, value, name", [
        (("noise", "enabled"), "false", "noise.enabled"),
        (("abort_on_violation",), "false", "abort_on_violation"),
        (("integration", "record_stride"), 2.5, "integration.record_stride"),
        (("noise", "seed"), 1.7, "noise.seed"),
        (("carriages", 0, "mass_kg"), True, "carriages[0].mass_kg"),
        (("carriages",), {}, "carriages"),
        (("integration", "step_s"), float("nan"), "integration.step_s"),
    ], ids=["string-flag", "string-abort", "fractional-stride", "fractional-seed",
            "boolean-number", "object-for-array", "not-a-number"])
    def test_wrong_type_is_named(self, keys, value, name):
        with pytest.raises(ConfigurationError, match=re.escape(f"field {name} must be")):
            config_from_dict(preset_doc_with(keys, value))

    @pytest.mark.parametrize("keys, name", [
        (("follower_gains", "l1"), "follower_gains.l1"),
        (("noise", "seed"), "noise.seed"),
        (("monitor", "tail_window_s"), "monitor.tail_window_s"),
        (("reference", "phases", 0, "duration_s"), "reference.phases[0].duration_s"),
    ], ids=["gain", "seed", "tail-window", "phase-duration"])
    def test_missing_field_is_named(self, keys, name):
        with pytest.raises(ConfigurationError, match=re.escape(f"missing field {name}")):
            config_from_dict(preset_doc_with(keys, delete=True))

    @pytest.mark.parametrize("keys, name", [
        (("abort_on_violaton",), "abort_on_violaton"),
        (("integration", "record_strid"), "integration.record_strid"),
    ], ids=["top-level", "nested"])
    def test_unknown_field_is_named(self, keys, name):
        with pytest.raises(ConfigurationError, match=re.escape(f"unknown field {name}")):
            config_from_dict(preset_doc_with(keys, True))

    @pytest.mark.parametrize("keys, value, message", [
        (("carriages", 0, "mass_kg"), -1.0, "field carriages[0].mass_kg must be a number > 0"),
        (("carriages", 0, "fault", "window_const_s"), [1.0, 2.0, 3.0], "carriages[0].fault: "),
    ], ids=["out-of-range", "wrong-length"])
    def test_record_error_names_its_object(self, keys, value, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(preset_doc_with(keys, value))

    def test_integral_float_is_an_integer(self):
        config = config_from_dict(preset_doc_with(("integration", "record_stride"), 3.0))
        assert config.record_stride == 3 and type(config.record_stride) is int


class TestRunCommand:
    def run_args(self, tmp_path, *extra):
        return ["run", "--preset", "paper-s5", "--out", str(tmp_path),
                "--duration", "5", "--decimate", "10", *extra]

    def test_smoke_run_writes_bundle(self, tmp_path):
        code = main(self.run_args(tmp_path, "--seed", "7", "--no-verdict"))
        assert code == 0
        assert (tmp_path / "paper-s5_timeseries.csv").exists()
        assert (tmp_path / "paper-s5_summary.json").exists()
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["runs"][0]["name"] == "paper-s5"
        summary = json.loads((tmp_path / "paper-s5_summary.json").read_text())
        assert summary["seed"] == 7
        assert len(summary["config_hash"]) == 64

    def test_verdict_failure_sets_exit_code(self, tmp_path):
        # 5 s is far too short for convergence, so verdicts fail -> exit 1
        code = main(self.run_args(tmp_path, "--no-noise"))
        assert code == 1

    def test_unknown_preset_is_config_error(self, tmp_path):
        code = main(["run", "--preset", "nope", "--out", str(tmp_path)])
        assert code == 2

    def test_infeasible_config_exit_code(self, tmp_path):
        doc = config_to_dict(paper_s5())
        doc["head_gains"]["ell2"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_overrides_apply_before_the_feasibility_check(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(preset_doc_with(("integration", "duration_s"), 5000.0)))
        assert main(["validate", "--config", str(path)]) == 2
        assert main(self.run_args(tmp_path, "--config", str(path), "--no-verdict")) == 0
        assert main(["run", "--preset", "paper-s5", "--out", str(tmp_path),
                     "--duration", "5000"]) == 2
        assert "preset paper-s5 is infeasible" in capsys.readouterr().err

    def test_each_job_is_checked_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config)
            return original(config)

        original = simulator.validate_config
        monkeypatch.setattr(simulator, "validate_config", counted)
        monkeypatch.setattr(cli, "validate_config", counted)
        assert main(self.run_args(tmp_path, "--no-verdict")) == 0
        assert len(calls) == 2      # the run command's check and run_scenario's own

    def test_unstable_step_is_runtime_fault(self, tmp_path):
        import warnings

        # one-second steps against a 50 1/s coefficient blow up immediately
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--preset", "paper-s5", "--out", str(tmp_path),
                         "--duration", "30", "--step", "1.0", "--no-noise"])
        assert code == 3

    def test_batch_runs_share_index(self, tmp_path):
        doc = config_to_dict(short_scenario(paper_s5(), 2.0))
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path), "--preset", "paper-s5",
                     "--out", str(tmp_path), "--duration", "2",
                     "--decimate", "20", "--no-verdict"])
        assert code == 0
        index = json.loads((tmp_path / "index.json").read_text())
        assert {r["name"] for r in index["runs"]} == {"tiny", "paper-s5"}

    @pytest.mark.parametrize("data", [b"[1, 2]", b'{"runs": [1]}', b'{"runs": {"name": "x"}}',
                                      b'"runs"', b"{not json", b"\xff\xfe"],
                             ids=["list", "runs-of-numbers", "runs-not-a-list", "string",
                                  "unparsable", "not-utf-8"])
    def test_malformed_index_is_started_anew(self, tmp_path, data):
        (tmp_path / "index.json").write_bytes(data)
        assert main(self.run_args(tmp_path, "--no-verdict")) == 0
        index = json.loads((tmp_path / "index.json").read_text())
        assert [r["name"] for r in index["runs"]] == ["paper-s5"]

    def test_index_keeps_other_runs_and_replaces_its_own(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps(
            {"runs": [{"name": "other"}, {"name": "paper-s5", "stale": True}]}))
        assert main(self.run_args(tmp_path, "--no-verdict")) == 0
        runs = json.loads((tmp_path / "index.json").read_text())["runs"]
        assert [r["name"] for r in runs] == ["other", "paper-s5"]
        assert "stale" not in runs[1]


class TestObserverSettings:
    """Observer settings that gain placement rejects are configuration errors, exit 2."""

    @pytest.mark.parametrize("key, value, violation", [
        ("eigenvalues", [1.0, -3.0, -3.0, -3.0, -3.0],
         "desired eigenvalues must have negative real parts [observer of carriage 1_1]"),
        ("eigenvalues", [-3.0, -3.0, -3.0], "need 5 desired eigenvalues, got 3"),
        ("gain_override", [4.0, 5.0, -6.0], "stacked gain must have 5 entries"),
        ("k1", 0.0, "field observer.k1 must be a number > 0"),
    ], ids=["unstable-eigenvalue", "eigenvalue-count", "override-length", "k1"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_named_violation(self, tmp_path, capsys, command, key, value, violation):
        doc = preset_doc_with(("observer", key), value)
        doc["integration"]["duration_s"] = 1.0
        path = tmp_path / "observer.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert main([command, "--config", str(path), *out]) == 2
        assert violation in capsys.readouterr().err
        assert not (tmp_path / "observer_timeseries.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_placement_failure_is_a_configuration_error(self, tmp_path, capsys, command):
        # no fault force reaches the first carriage: its observer pair is
        # unobservable, which the feasibility check's own placement names
        doc = preset_doc_with(("carriages", 0, "fault", "upsilon_Nps_per_unit"), 0.0)
        doc["carriages"][0]["fault"]["nu_s_per_rad"] = 0.0
        doc["integration"]["duration_s"] = 1.0
        path = tmp_path / "unobservable.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert main([command, "--config", str(path), *out]) == 2
        err = capsys.readouterr().err
        assert ("violated: augmented pair is unobservable; cannot place eigenvalues "
                "[observer of carriage 1_1]") in err
        assert not (tmp_path / "unobservable_timeseries.csv").exists()


class TestMonitorSettings:
    """Monitor settings that no verdict can be judged with are configuration errors, exit 2."""

    @pytest.mark.parametrize("key, value, violation", [
        ("tail_window_s", -5.0, "field monitor.tail_window_s must be a number >= 0"),
        ("tol_xtilde_mean_m", -1.0, "field monitor.tol_xtilde_mean_m must be a number > 0"),
        ("tol_vgap_mean_mps", 0.0, "field monitor.tol_vgap_mean_mps must be a number > 0"),
    ], ids=["tail-window", "tol-xtilde", "tol-vgap"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_named_violation(self, tmp_path, capsys, command, key, value, violation):
        doc = preset_doc_with(("monitor", key), value)
        doc["integration"]["duration_s"] = 0.05
        path = tmp_path / "monitor.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert main([command, "--config", str(path), *out]) == 2
        assert violation in capsys.readouterr().err
        assert not (tmp_path / "monitor_timeseries.csv").exists()


class TestRecordMemory:
    """A record's samples are held once: written without a copy, read into one table."""

    @pytest.fixture(scope="class")
    def record(self):
        config = short_scenario(paper_s5(), 20.0, record_stride=1, representation="both")
        return run_scenario(config)[0]

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            out = call(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def views_of_one_table(record):
        return [np.shares_memory(values, record.table)
                for values in (record.t, *record.data.values())]

    def test_run_fills_one_table(self, record):
        assert record.table.shape == (2001, len(record.column_names()))
        assert all(self.views_of_one_table(record))

    def test_write_and_read_peaks(self, record, tmp_path):
        path = tmp_path / "ts.csv"
        _, write_peak = self.traced_peak(write_timeseries, record, path)
        loaded, read_peak = self.traced_peak(read_timeseries, path)
        assert write_peak < 0.25 * record.table.nbytes
        assert read_peak < 1.25 * record.table.nbytes
        assert all(self.views_of_one_table(loaded))
        assert np.array_equal(loaded.table, record.table)


class TestMalformedTimeseries:
    """A CSV that is not a record's layout raises a named error at its first mismatch."""

    @pytest.fixture
    def written(self, tmp_path):
        record = SimulationRecord.allocate(3, ((1, 1), (1, 2), (2, 1)), 2, step=0.5,
                                           stride=1)
        record.table[:] = np.arange(record.table.size).reshape(record.table.shape)
        path = tmp_path / "ts.csv"
        write_timeseries(record, path)
        return path

    @staticmethod
    def rewrite(path, edit):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))

    @staticmethod
    def read_error(path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TimeseriesFormatError) as info:
                read_timeseries(path)
        assert isinstance(info.value, ValueError)
        assert str(path) in str(info.value)
        return str(info.value)

    def test_missing_column(self, written):
        def drop_v(lines):
            k = lines[0].split(",").index("v_mps_1_1")
            return [",".join(cell for c, cell in enumerate(line.rstrip("\n").split(","))
                             if c != k) + "\n" for line in lines]
        self.rewrite(written, drop_v)
        assert "column 3 is 'w_mps2_1_1', expected 'v_mps_1_1'" in self.read_error(written)

    def test_reordered_column(self, written):
        self.rewrite(written, lambda lines: [
            lines[0].replace("x_m_1_2,v_mps_1_2", "v_mps_1_2,x_m_1_2"), *lines[1:]])
        assert "column 12 is 'v_mps_1_2', expected 'x_m_1_2'" in self.read_error(written)

    def test_ragged_row(self, written):
        self.rewrite(written, lambda lines: [
            *lines[:2], lines[2].rsplit(",", 1)[0] + "\n", *lines[3:]])
        assert "number of columns changed from 39 to 38 at row 2" in self.read_error(written)

    def test_empty_file(self, written):
        written.write_text("")
        assert "empty file" in self.read_error(written)

    def test_header_only_file(self, written):
        self.rewrite(written, lambda lines: lines[:1])
        assert "no samples" in self.read_error(written)


class TestValidateCommand:
    def test_preset_validates(self, capsys):
        assert main(["validate", "--preset", "paper-s5"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_config_exit_2(self, tmp_path, capsys):
        doc = config_to_dict(paper_s5())
        doc["head_gains"]["ell2"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 2
        assert "ell2 > 2" in capsys.readouterr().err

    def test_huge_carriage_count_names_its_fields(self, tmp_path, capsys):
        # 1e300 reads as a 301-digit integer, inside the count's domain; the
        # structural check names the fields and prints no such number
        doc = preset_doc_with(("topology", "carriages_per_train", 0), 1e300)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("configuration error: carriages has 9 entries, one per carriage, but "
                "topology.carriages_per_train counts about 10^300 carriages") in err
        assert not re.search(r"\d{16}", err)

    @pytest.mark.parametrize("changes, message", [
        ({"initial": paper_s5().initial[:8]},
         "initial_states has 8 entries, one per carriage, but topology.carriages_per_train "
         "counts 9 carriages"),
        ({"initial": paper_s5().initial[:3] + ((1.0, 2.0),) + paper_s5().initial[4:]},
         "initial_states[3] needs 3 values (x, v, w)"),
        ({"observer_initial": ((0.0,) * 6,) * 10}, "observer_initial has 10 entries"),
        ({"observer_initial": ((0.0,) * 6,) * 8 + ((0.0,) * 7,)},
         "observer_initial[8] needs 6 values (xh, vh, wh, f1, f2, f3)"),
    ], ids=["initial-count", "initial-row", "observer-count", "observer-row"])
    def test_structural_errors_name_their_fields(self, changes, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            validate_config(dataclasses.replace(paper_s5(), **changes))


class TestTimeseriesFile:
    def test_verdicts_rederivable_from_csv(self, tmp_path):
        config = short_scenario(paper_s5(), 10.0, noise=True, record_stride=5)
        record, report = run_scenario(config)
        path = tmp_path / "ts.csv"
        write_timeseries(record, path)
        loaded = read_timeseries(path)
        rederived = monitor_requirements(
            loaded, config.constraints, config.head_gains.ell1,
            config.coupler.spacing, config.monitor)
        assert rederived.verdicts == report.verdicts
        for name in record.data:
            assert np.array_equal(loaded.data[name], record.data[name]), name

    @settings(max_examples=60, deadline=None)
    @given(record=records())
    def test_write_read_round_trip_is_bitwise(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ts.csv"
            write_timeseries(record, path)
            loaded = read_timeseries(path)

        def same_bits(a, b):
            return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

        assert loaded.carriage_labels == record.carriage_labels
        assert same_bits(loaded.t, record.t)
        assert sorted(loaded.data) == sorted(record.data)
        for name, values in record.data.items():
            assert same_bits(loaded.data[name], values), name
        # the file holds only the samples: their spacing is the step, one per row
        assert loaded.stride == 1
        assert loaded.step == (float(record.t[1] - record.t[0]) if len(record.t) > 1 else 0.0)

    def test_plant_columns_read_back(self, tmp_path):
        config = short_scenario(paper_s5(), 1.0, record_stride=20, representation="both")
        record, _ = run_scenario(config)
        path = tmp_path / "ts.csv"
        write_timeseries(record, path)
        loaded = read_timeseries(path)
        for name in PLANT_FIELDS:
            assert np.array_equal(loaded.data[name], record.data[name]), name

    def test_labels_from_an_iterator_name_the_same_columns(self):
        topology = paper_s5().topology
        width = len(simulator.column_names(tuple(topology.carriage_ids()), 3))
        table = np.arange(float(width))[None, :]
        from_iterator = SimulationRecord(table, topology.carriage_ids(), 3, 0.01, 1)
        from_tuple = SimulationRecord(table, tuple(topology.carriage_ids()), 3, 0.01, 1)
        assert from_iterator.carriage_labels == from_tuple.carriage_labels
        for name, values in from_tuple.data.items():
            assert np.array_equal(from_iterator.data[name], values), name

    def test_column_order_is_fixed(self):
        config = short_scenario(paper_s5(), 1.0, record_stride=50)
        record, _ = run_scenario(config)
        names = record.column_names()
        assert names[0] == "t_s"
        assert names[1:11] == [
            "x_m_1_1", "v_mps_1_1", "w_mps2_1_1", "tau_N_1_1", "u_mps3_1_1",
            "f_eff_Nps_1_1", "f_eff_hat_Nps_1_1", "e_x_m_1_1", "e_v_mps_1_1",
            "e_w_mps2_1_1"]
        assert names[-4:] == ["eps_m_3", "xtilde_m_3", "vtilde_mps_3",
                              "qtilde_mps_3"]


# ---------------------------------------------------------------------------
# every input gets a named outcome
# ---------------------------------------------------------------------------

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300)


def numeric_paths(value, kind):
    """``(path, kind)`` of every numeric field of ``value``, a ``kind`` of the format table.

    A path holds the table's keys and list positions; a list is represented
    by its first and last entries.
    """
    for key, attr, sub, *_ in simulator._FORMAT[kind]:
        field = value[attr] if isinstance(kind, str) else getattr(value, attr)
        if isinstance(sub, list):
            entries = [] if field is None else [((k,), field[k])
                                                for k in sorted({0, len(field) - 1})]
            sub = sub[0]
        else:
            entries = [((), field)]
        for at, item in entries:
            if sub in simulator._FORMAT:
                yield from (((key, *at, *rest), leaf) for rest, leaf in numeric_paths(item, sub))
            elif sub not in (simulator._B, simulator._S):
                yield (key, *at), sub


def replace_at(value, kind, path, new):
    """``value``, a ``kind`` of the format table, with the field at ``path`` set to ``new``."""
    key, *rest = path
    attr, sub = next(entry[1:3] for entry in simulator._FORMAT[kind] if entry[0] == key)
    field = value[attr] if isinstance(kind, str) else getattr(value, attr)
    if isinstance(sub, list):
        k, *rest = rest
        items = list(field)
        items[k] = replace_at(items[k], sub[0], rest, new) if rest else new
        field = tuple(items)
    else:
        field = replace_at(field, sub, rest, new) if rest else new
    if isinstance(kind, str):
        row = list(value)
        row[attr] = field
        return tuple(row)
    return dataclasses.replace(value, **{attr: field})


def path_name(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def doc_with(doc, path, value):
    keys = [k for p in path for k in (p.split(".") if isinstance(p, str) else [p])]
    functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
    return doc


# paper-s5 over 0.05 s, with its default observer start written out, and a
# copy whose gain override is the placed gains
BASE = dataclasses.replace(
    paper_s5(), duration=0.05,
    observer_initial=tuple((x, v, 0.0, 0.0, 0.0, 0.0) for x, v, _ in paper_s5().initial))
OVERRIDDEN = dataclasses.replace(
    BASE, observer_gain_override=simulator.observer_gains(BASE)[0][1].k)
PATHS = dict(numeric_paths(OVERRIDDEN, simulator.ScenarioConfig))


class TestEveryInputNamed:
    """One numeric field of paper-s5 at a time set to an extreme value ends in a named outcome.

    A verdict, a configuration error naming the field when the value is
    outside the field's domain, or an integration or barrier-domain fault; no
    other exception and no RuntimeWarning (the suite raises those).  The
    library and the command line agree, with the documented exit codes.
    """

    @settings(max_examples=len(PATHS) * len(EXTREMES), deadline=None, database=None)
    @given(path=st.sampled_from(sorted(PATHS, key=path_name)), value=st.sampled_from(EXTREMES))
    @example(path=("observer.k1",), value=math.inf)
    @example(path=("davis", "c2_Ns2_per_m2_kg"), value=math.inf)
    @example(path=("carriages", 0, "fault", "omega_rad_per_s"), value=math.nan)
    @example(path=("monitor", "tail_window_s"), value=math.nan)
    @example(path=("coupler", "stiffness_N_per_m"), value=math.nan)
    @example(path=("carriages", 0, "fault", "upsilon_Nps_per_unit"), value=1e300)
    @example(path=("carriages", 0, "mass_kg"), value=1e-300)
    def test_named_outcome(self, path, value):
        base = OVERRIDDEN if path[0] == "observer.gain_override" else BASE
        name, kinds = path_name(path), simulator._KINDS[PATHS[path]]
        try:
            config = replace_at(base, simulator.ScenarioConfig, path, value)
        except ConfigurationError:
            config = None        # a relation between fields that the record checks
        if config is not None:
            violations = validate_config(config)
            if not kinds[1](value):
                assert name in [v.name for v in violations]
            try:
                run_scenario(config)
            except ConfigurationError:
                assert violations
            except (IntegrationFault, BarrierDomainError):
                assert not violations
            else:
                assert not violations

        # a file holds what json parses: an integral number is an integer
        if kinds[0] == (int,) and math.isfinite(value) and value.is_integer():
            value = int(value)
        with tempfile.TemporaryDirectory() as tmp:
            path_json = Path(tmp) / "case.json"
            path_json.write_text(json.dumps(doc_with(config_to_dict(base), path, value)))
            codes, errors = [], []
            for command in (["validate"], ["run", "--out", tmp]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    codes.append(main([*command, "--config", str(path_json)]))
                errors.append(err.getvalue())
        assert codes in ([0, 0], [0, 1], [0, 3], [2, 2]), errors
        assert errors[0] == errors[1] if codes[0] == 2 else errors[0] == ""
        if not kinds[1](value):
            assert f"configuration error: field {name} must be " in errors[0]
