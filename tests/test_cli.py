"""End-to-end command-line behavior through in-process main() calls."""

import json
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import rdmprop.cli
import rdmprop.propagate
from rdmprop.bath import spectral_function_ule
from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.channels import cluster
from rdmprop.cli import main
from rdmprop.representability import unitality_residual
from rdmprop.scenario import Scenario, save_scenario

from oracle import cluster_center


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# format: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def ladder_args(*extra):
    return ["--benchmark", "three-level", "--kind", "ule",
            "--temperature", "50", "--t-end", "400", "--samples", "5",
            *extra]


def test_run_writes_trajectory_and_metadata(tmp_path, capsys):
    code = main(["run", *ladder_args("--output-dir", str(tmp_path))])
    assert code == 0
    fmt, header, rows = read_csv(tmp_path / "three-level-ladder.csv")
    assert fmt == "# format: trajectory-csv v1"
    assert header == ["time", "pop_0", "pop_1", "pop_2", "min_eigenvalue",
                      "trace"]
    assert len(rows) == 5
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 400.0
    for row in rows:
        assert float(row[-1]) == pytest.approx(1.0, abs=1e-8)

    meta = json.loads((tmp_path / "three-level-ladder.json").read_text())
    assert meta["kind"] == "ule"
    assert meta["samples"] == 5
    assert meta["audit"]["violation"] is False
    assert meta["unitality_residual"] > 1e-4
    assert meta["scenario"]["generator"]["kind"] == "ule"
    out = capsys.readouterr().out
    assert "final populations" in out


@pytest.mark.parametrize("blocked", [False, True])
def test_run_builds_one_generator_and_reports_its_residual(
        tmp_path, monkeypatch, blocked):
    # the one assembly, which the audit's residual goes through too
    calls = []
    original = rdmprop.propagate.build_packed_generator

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rdmprop.propagate, "build_packed_generator", counted)
    extra = ("--blocked",) if blocked else ()
    code = main(["run", *ladder_args(*extra, "--output-dir", str(tmp_path))])
    assert code == 0
    assert len(calls) == 1

    meta = json.loads((tmp_path / "three-level-ladder.json").read_text())
    setup = builtin_three_level(kind="ule", temperature=50.0,
                                pauli_blocked=blocked).build()
    expected = unitality_residual(setup.hamiltonian, setup.spec)
    # the audit evaluates the very function the run integrated
    assert meta["unitality_residual"] == expected
    if blocked:
        assert expected < 1e-12
    else:
        assert expected > 1e-4


def test_run_sweep_and_bench_never_form_the_state_stack(tmp_path,
                                                        monkeypatch):
    class StackFormed(Exception):
        pass

    def refuse(self):
        raise StackFormed

    monkeypatch.setattr(rdmprop.propagate.Trajectory, "states",
                        property(refuse))
    out = str(tmp_path)
    assert main(["run", *ladder_args("--copropagate-hole",
                                     "--output-dir", out)]) == 0
    assert main(["sweep", *ladder_args(), "--param", "bath.lambda",
                 "--values", "0.005,0.01", "--jobs", "1",
                 "--output-dir", out]) == 0
    assert main(["bench", "three-level", "--me", "ule", "--t-end", "400",
                 "--samples", "5", "--output-dir", out]) == 0


def test_run_is_deterministic(tmp_path):
    main(["run", *ladder_args("--output-dir", str(tmp_path),
                              "--prefix", "a")])
    main(["run", *ladder_args("--output-dir", str(tmp_path),
                              "--prefix", "b")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_copropagates_hole(tmp_path):
    code = main(["run", *ladder_args("--copropagate-hole",
                                     "--output-dir", str(tmp_path),
                                     "--prefix", "holes")])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "holes.csv")
    assert header[-1] == "hole_defect"
    _, hole_header, hole_rows = read_csv(tmp_path / "holes.hole.csv")
    assert hole_header[:4] == ["time", "pop_0", "pop_1", "pop_2"]
    assert len(hole_rows) == 5
    meta = json.loads((tmp_path / "holes.json").read_text())
    # the linear generator is not unital, so the pictures have already
    # drifted apart noticeably by the end of this short window
    assert 0.01 < meta["max_hole_defect"] < 2.0
    assert float(rows[-1][-1]) == pytest.approx(meta["max_hole_defect"],
                                                rel=1e-6)


def test_run_reports_violations_but_exits_zero(tmp_path, capsys):
    code = main(["run", "--benchmark", "benzene", "--kind", "ule",
                 "--t-end", "16000", "--samples", "9",
                 "--output-dir", str(tmp_path), "--prefix", "over"])
    assert code == 0
    meta = json.loads((tmp_path / "over.json").read_text())
    assert meta["audit"]["violation"] is True
    assert meta["audit"]["max_eigenvalue"] > 2.0
    assert "representability violated" in capsys.readouterr().out


def test_run_rme_kind_override(tmp_path):
    code = main(["run", "--benchmark", "three-level", "--kind", "rme",
                 "--temperature", "50", "--t-end", "400", "--samples", "3",
                 "--output-dir", str(tmp_path), "--prefix", "red"])
    assert code == 0
    meta = json.loads((tmp_path / "red.json").read_text())
    assert meta["kind"] == "rme"


# an example for each option of the override table: its arguments and the
# value the scenario echo then holds at the option's key
OVERRIDE_EXAMPLES = {
    "kind": (["--kind", "rme"], "rme"),
    "blocked": (["--blocked"], True),
    "lamb_shift": (["--lamb-shift"], True),
    "threshold": (["--threshold", "0.25"], 0.25),
    "temperature": (["--temperature", "120"], 120.0),
    "t_end": (["--t-end", "300"], 300.0),
    "samples": (["--samples", "7"], 7),
    "copropagate_hole": (["--copropagate-hole"], True),
}


@pytest.mark.parametrize("dest, key", rdmprop.cli.OVERRIDES.items(),
                         ids=list(rdmprop.cli.OVERRIDES))
def test_each_override_sets_its_scenario_key(tmp_path, dest, key):
    argv, value = OVERRIDE_EXAMPLES[dest]
    code = main(["run", "--benchmark", "three-level", "--t-end", "400",
                 "--samples", "5", *argv, "--output-dir", str(tmp_path),
                 "--prefix", "override"])
    assert code == 0
    echo = json.loads((tmp_path / "override.json").read_text())["scenario"]
    *sections, last = key.split(".")
    for section in sections:
        echo = echo[section]
    assert echo[last] == value


def test_an_override_into_a_non_object_section_exits_two(tmp_path, capsys):
    d = builtin_three_level().to_dict()
    d["schedule"] = 5
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(d))
    code = main(["run", "--scenario", str(path), "--t-end", "400",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario.schedule: expected an object"]
    assert [p.name for p in tmp_path.iterdir()] == ["flat.json"]


def test_run_requires_a_source(tmp_path, capsys):
    code = main(["run", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "either --scenario or --benchmark" in capsys.readouterr().err


def test_run_rejects_missing_scenario_file(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.json")])
    assert code == 2
    assert "absent.json" in capsys.readouterr().err


def test_run_rejects_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}\n')
    code = main(["run", "--scenario", str(bad)])
    assert code == 2
    assert "missing required key" in capsys.readouterr().err


def test_run_surfaces_unphysical_states_as_runtime_failures(tmp_path,
                                                            capsys):
    scenario = Scenario.from_dict({
        "name": "overfull",
        "chi": 1.0,
        "hamiltonian": {"energies": [-0.5, 0.0, 0.5]},
        "coupling_operators": [
            {"label": "ladder",
             "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0]]}],
        "initial_state": {"occupations": [1.5, 0.0, 0.0]},
        "bath": {"lambda": 0.01, "temperature": 50.0},
        "generator": {"kind": "ule"},
        "schedule": {"t_end": 100.0, "samples": 3},
    })
    path = tmp_path / "overfull.json"
    save_scenario(scenario, path)
    code = main(["run", "--scenario", str(path),
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert "violate" in capsys.readouterr().err


def _write_scenario(tmp_path, coupling, schedule, energies=(-0.5, 0.5)):
    scenario = Scenario.from_dict({
        "name": "numerical",
        "chi": 1.0,
        "hamiltonian": {"energies": list(energies)},
        "coupling_operators": [{"label": "c", "matrix": coupling}],
        "initial_state": {"occupations": [0.0, 1.0]},
        "bath": {"lambda": 0.01, "temperature": 50.0},
        "generator": {"kind": "ule"},
        "schedule": schedule,
    })
    path = tmp_path / "numerical.json"
    save_scenario(scenario, path)
    return str(path)


def test_run_without_a_decaying_channel_exits_one(tmp_path, capsys):
    path = _write_scenario(tmp_path, [[0.0, 0.0], [0.0, 0.0]],
                           {"samples": 3})
    code = main(["run", "--scenario", path, "--output-dir", str(tmp_path)])
    assert code == 1
    assert "no decaying channel" in capsys.readouterr().err


def test_run_with_non_finite_rates_exits_one(tmp_path, capsys):
    # the Bohr frequency 2e308 overflows, and the rate at it is NaN
    with np.errstate(all="ignore"):
        path = _write_scenario(tmp_path, [[1.0, 1.0], [1.0, 0.0]],
                               {"t_end": 10.0, "samples": 3},
                               energies=(-1e308, 1e308))
        code = main(["run", "--scenario", path,
                     "--output-dir", str(tmp_path)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, field", [
    ("--temperature", "nan", "temperature"),
    ("--temperature", "inf", "temperature"),
    ("--temperature", "-1", "temperature"),
    ("--t-end", "inf", "t_end"),
    ("--t-end", "nan", "t_end"),
])
def test_run_rejects_a_non_finite_option(tmp_path, capsys, option, value,
                                         field):
    code = main(["run", *ladder_args(option, value,
                                     "--output-dir", str(tmp_path))])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_rejects_a_nan_clustering_threshold(tmp_path, capsys):
    code = main(["run", *ladder_args("--kind", "ume", "--threshold", "nan",
                                     "--output-dir", str(tmp_path))])
    assert code == 2
    assert "clustering threshold" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "rtol", float("nan")),
    ("schedule", "atol", float("inf")),
    ("bath", "lambda", float("nan")),
    ("bath", "pv_cutoff", float("inf")),
])
def test_scenario_with_a_non_finite_field_exits_two(tmp_path, capsys,
                                                   section, key, value):
    bath = {"lambda": 0.01, "temperature": 50.0}
    schedule = {"t_end": 100.0, "samples": 5}
    {"bath": bath, "schedule": schedule}[section][key] = value
    path = _two_level_file(tmp_path, bath, schedule)
    code = main(["run", "--scenario", path, "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"scenario.{section}" in err
    assert {"lambda": "lam"}.get(key, key) in err


def test_scenario_with_rtol_below_the_solver_floor_exits_two(tmp_path,
                                                             capsys):
    schedule = {"t_end": 100.0, "samples": 5, "rtol": 1e-20}
    path = _two_level_file(tmp_path, {"lambda": 0.01, "temperature": 50.0},
                           schedule)
    code = main(["run", "--scenario", path, "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario.schedule" in err and "rtol" in err


def _two_level_file(tmp_path, bath, schedule):
    path = tmp_path / "two-level.json"
    path.write_text(json.dumps({
        "name": "two-level",
        "chi": 1.0,
        "hamiltonian": {"energies": [-0.25, 0.25]},
        "coupling_operators": [{"label": "x",
                                "matrix": [[0.0, 1.0], [1.0, 0.0]]}],
        "initial_state": {"occupations": [0.0, 1.0]},
        "bath": bath,
        "generator": {"kind": "ule"},
        "schedule": schedule,
    }))
    return str(path)


def test_run_with_a_huge_bath_width_exits_zero(tmp_path):
    # lam^2 overflows a float at this width
    path = _two_level_file(tmp_path, {"lambda": 1e200, "temperature": 300.0},
                           {"t_end": 100.0, "samples": 5})
    proc = subprocess.run(
        [sys.executable, "-m", "rdmprop.cli", "run", "--scenario", path,
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "two-level.csv").exists()


def _huge_width_command(tmp_path, command):
    if command[0] == "run":
        path = _two_level_file(tmp_path,
                               {"lambda": 1e200, "temperature": 300.0},
                               {"t_end": 100.0, "samples": 5})
        command = [*command, "--scenario", path]
    return subprocess.run(
        [sys.executable, "-m", "rdmprop.cli", *command,
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True)


@pytest.mark.parametrize("command", [
    ["run", "--kind", "rme"],
    ["run", "--kind", "ume", "--threshold", "0", "--lamb-shift"],
    ["spectra", "--lambda", "1e200", "--temperature", "300"],
], ids=["rme", "ume-lamb", "spectra"])
def test_xi_at_a_huge_bath_width_exits_zero(tmp_path, command):
    # lam^2 overflows at this width, but xi, about -pi lam / 2, does not
    proc = _huge_width_command(tmp_path, command)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    csvs = list(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    rows = csvs[0].read_text().splitlines()[2:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert values.size and np.isfinite(values).all()


def test_s_hat_at_a_huge_bath_width_exits_zero(tmp_path):
    # each spectral function of the S_hat integrand is of order lam, and
    # their product overflows at this width, but not the product of their
    # square roots
    proc = _huge_width_command(tmp_path, ["run", "--kind", "ule",
                                          "--lamb-shift"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    csvs = list(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    rows = csvs[0].read_text().splitlines()[2:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert values.size and np.isfinite(values).all()


def test_spectra_at_the_largest_bath_widths_exits_one(tmp_path, capsys):
    # the Drude-Lorentz scale stays finite, so the overflow surfaces as a
    # non-finite principal-value integral, with no warning ahead of the
    # error line
    code = main(["spectra", "--lambda", "1.7e308", "--temperature", "300",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: xi(-1) is not finite")
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert not list(tmp_path.iterdir())


def test_run_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    # a sample count numpy accepts but memory cannot hold fails where the
    # run allocates its sample grid; the stand-in raises and allocates
    # nothing
    def propagate_state(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(rdmprop.propagate, "propagate_state",
                        propagate_state)
    code = main(["run", "--benchmark", "three-level", "--samples",
                 "1000000000000", "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for " \
        "an array\n"
    assert not list(tmp_path.iterdir())


def test_run_with_an_unknown_schedule_method_exits_two(tmp_path, capsys):
    # the generator picks the route, so a scenario names no method
    for method in ("DOP853", "RK45"):
        path = _two_level_file(tmp_path,
                               {"lambda": 0.01, "temperature": 50.0},
                               {"method": method})
        code = main(["run", "--scenario", path, "--output-dir",
                     str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario.schedule: unknown keys ['method']" in err


@pytest.mark.parametrize("command, option", [
    (["spectra", "--lambda", "0.01"], ["--kind", "rme"]),
    (["spectra", "--lambda", "0.01"], ["--blocked"]),
    (["spectra", "--lambda", "0.01"], ["--lamb-shift"]),
    (["spectra", "--lambda", "0.01"], ["--threshold", "0.1"]),
    (["spectra", "--lambda", "0.01"], ["--t-end", "5"]),
    (["spectra", "--lambda", "0.01"], ["--samples", "3"]),
    (["spectra", "--lambda", "0.01"], ["--copropagate-hole"]),
    (["audit", "--benchmark", "three-level"], ["--t-end", "5"]),
    (["audit", "--benchmark", "three-level"], ["--samples", "3"]),
    (["audit", "--benchmark", "three-level"], ["--copropagate-hole"]),
], ids=lambda argv: argv[0])
def test_commands_reject_options_they_do_not_read(tmp_path, capsys, command,
                                                  option):
    assert main([*command, *option, "--output-dir", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {' '.join(option)}" \
        in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", [["--benchmark", "benzene"],
                                    ["--scenario", "any.json"]])
def test_spectra_lambda_excludes_a_scenario_bath(tmp_path, capsys, source):
    code = main(["spectra", *source, "--lambda", "0.5", "--output-dir",
                 str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and source[0] in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("section, key, value", [
    ("generator", "pauli_blocked", "false"),
    ("generator", "lamb_shift", "no"),
    ("schedule", "samples", 5.9),
    ("bath", "pv_points", 2048.7),
    ("bath", "lambda", True),
    ("generator", "clustering_threshold", [1]),
    ("hamiltonian", "degeneracy_tol", "x"),
])
def test_scenario_with_a_mistyped_field_exits_two(tmp_path, capsys,
                                                  section, key, value):
    # fields are checked, not coerced: each exits 2 and names the field
    d = builtin_three_level(kind="ule", temperature=50.0, t_end=400.0,
                            samples=5).to_dict()
    d[section][key] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(d))
    code = main(["run", "--scenario", str(path), "--output-dir",
                 str(tmp_path)])
    assert code == 2
    assert f"scenario.{section}.{key}" in capsys.readouterr().err


def test_bad_option_value_exits_two(capsys):
    assert main(["run", *ladder_args(), "--samples", "many"]) == 2
    assert "invalid int value" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    assert main(["polish"]) == 2
    assert main(["--help"]) == 0


def test_audit_writes_channels_and_report(tmp_path, capsys):
    code = main(["audit", "--benchmark", "three-level", "--kind", "ule",
                 "--temperature", "50", "--output-dir", str(tmp_path),
                 "--prefix", "ladder"])
    assert code == 0
    fmt, header, rows = read_csv(tmp_path / "ladder.channels.csv")
    assert fmt == "# format: channels-csv v1"
    assert header == ["coupling", "frequency", "op_max_norm",
                      "diagonal_rate"]
    freqs = sorted(float(r[1]) for r in rows)
    npt.assert_allclose(freqs, [-0.5, 0.5], atol=0.0)
    assert all(r[0] == "ladder" for r in rows)

    report = json.loads((tmp_path / "ladder.audit.json").read_text())
    assert report["unitality_residual"] > 1e-4
    assert report["constraint"]["satisfied"] is False
    assert len(report["constraint"]["per_channel"]) == 1
    assert report["constraint"]["per_channel"][0]["frequency"] == 0.5
    assert "filled-state residual" in capsys.readouterr().out


def test_temperature_override_keeps_the_quadrature_settings(tmp_path):
    path = _two_level_file(tmp_path, {"lambda": 0.01, "temperature": 50.0,
                                      "pv_cutoff": 5.0, "pv_points": 4096},
                           {"t_end": 10.0, "samples": 3})
    code = main(["audit", "--scenario", str(path), "--temperature", "300",
                 "--output-dir", str(tmp_path), "--prefix", "warm"])
    assert code == 0
    report = json.loads((tmp_path / "warm.audit.json").read_text())
    assert report["scenario"]["bath"] == {"lambda": 0.01, "temperature": 300.0,
                                          "pv_cutoff": 5.0, "pv_points": 4096}


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
def test_lamb_shift_audit_reports_no_hermiticity_defect(tmp_path, capsys,
                                                        kind):
    # the Lamb shift is Hermitian by construction: lamb_shift_hamiltonian
    # raises above 1e-10 and hermitizes, so a defect field would read 0.0
    code = main(["audit", "--benchmark", "benzene", "--kind", kind,
                 "--lamb-shift", "--output-dir", str(tmp_path),
                 "--prefix", "lamb"])
    assert code == 0
    report = json.loads((tmp_path / "lamb.audit.json").read_text())
    assert report["scenario"]["generator"]["lamb_shift"] is True
    assert "lamb_hermiticity_defect" not in report
    assert "hermiticity" not in capsys.readouterr().out


@pytest.mark.parametrize("builtin,kind,extra", [
    ("three-level", "rme", ["--temperature", "50"]),
    ("three-level", "ume", ["--temperature", "50"]),
    ("three-level", "ule", ["--temperature", "50"]),
    ("benzene", "ume", ["--threshold", "0.091"]),
])
def test_channels_csv_diagonal_rate_is_the_bath_decay_rate(
        tmp_path, builtin, kind, extra):
    # 2 pi Gamma_hat at the channel frequency (rme, ule) or at the center of
    # its cluster (ume; without --threshold, the secular threshold 0)
    code = main(["audit", "--benchmark", builtin, "--kind", kind, *extra,
                 "--output-dir", str(tmp_path), "--prefix", "pin"])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "pin.channels.csv")
    report = json.loads((tmp_path / "pin.audit.json").read_text())
    bath = Scenario.from_dict(report["scenario"]).bath
    freqs = sorted({float(r[1]) for r in rows})
    threshold = float(extra[1]) if extra[0] == "--threshold" else 0.0
    clusters = cluster(freqs, threshold)
    for r in rows:
        w = float(r[1])
        at = cluster_center(clusters, w) if kind == "ume" else w
        expected = 2.0 * np.pi * spectral_function_ule(at, bath)
        assert float(r[3]) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("blocked", [False, True])
def test_audit_builds_one_generator(tmp_path, monkeypatch, blocked):
    calls = []
    original = rdmprop.propagate.build_packed_generator

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rdmprop.propagate, "build_packed_generator", counted)
    extra = ["--blocked"] if blocked else []
    code = main(["audit", "--benchmark", "benzene", "--kind", "rme", *extra,
                 "--output-dir", str(tmp_path), "--prefix", "once"])
    assert code == 0
    assert len(calls) == 1
    report = json.loads((tmp_path / "once.audit.json").read_text())
    setup = builtin_benzene(kind="rme", pauli_blocked=blocked).build()
    expected = unitality_residual(setup.hamiltonian, setup.spec)
    assert report["unitality_residual"] == expected
    assert ("constraint" in report) is not blocked


def test_audit_blocked_has_no_constraint_block(tmp_path):
    code = main(["audit", "--benchmark", "benzene", "--kind", "ule",
                 "--blocked", "--output-dir", str(tmp_path),
                 "--prefix", "blocked"])
    assert code == 0
    report = json.loads((tmp_path / "blocked.audit.json").read_text())
    assert "constraint" not in report
    assert report["unitality_residual"] < 1e-12
    assert report["scenario"]["generator"]["pauli_blocked"] is True


def test_spectra_from_bath_parameters(tmp_path):
    code = main(["spectra", "--lambda", "0.01", "--temperature", "50",
                 "--omega-min", "-0.6", "--omega-max", "0.6",
                 "--points", "7", "--output-dir", str(tmp_path)])
    assert code == 0
    fmt, header, rows = read_csv(tmp_path / "spectra.csv")
    assert fmt == "# format: spectra-csv v1"
    assert header == ["omega", "gamma_hat", "decay_rate", "lamb_xi"]
    assert len(rows) == 7
    omegas = [float(r[0]) for r in rows]
    npt.assert_allclose(omegas, np.linspace(-0.6, 0.6, 7), atol=1e-15)
    for r in rows:
        assert float(r[2]) == pytest.approx(np.pi * float(r[1]), rel=1e-12)


def test_spectra_from_benchmark_bath(tmp_path):
    code = main(["spectra", "--benchmark", "three-level",
                 "--points", "3", "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "three-level-ladder.spectra.csv").exists()


def test_spectra_requires_bath_information(capsys):
    assert main(["spectra", "--points", "3"]) == 2
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_spectra_rejects_fewer_than_one_point(tmp_path, capsys, points):
    # the option is named, not left to an empty table or numpy's error
    code = main(["spectra", "--lambda", "0.01", "--temperature", "300",
                 "--points", points, "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --points must be at least 1, got {points}"]
    assert not list(tmp_path.iterdir())


def test_bench_single_benchmark(tmp_path, capsys):
    code = main(["bench", "three-level", "--me", "ule", "--t-end", "400",
                 "--samples", "5", "--output-dir", str(tmp_path)])
    assert code == 0
    fmt, header, rows = read_csv(tmp_path / "bench.csv")
    assert fmt == "# format: sweep-csv v1"
    assert header == ["benchmark", "kind", "blocked", "t_end",
                      "wall_time_s", "rhs_evaluations"]
    assert len(rows) == 1
    assert rows[0][0] == "three-level"
    assert rows[0][1] == "ule"
    assert rows[0][2] == "0"
    assert "nfev" in capsys.readouterr().out


def test_bench_ume_defaults_to_the_secular_threshold(tmp_path, capsys):
    code = main(["bench", "three-level", "--me", "ume", "--t-end", "400",
                 "--samples", "5", "--output-dir", str(tmp_path)])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "bench.csv")
    assert [r[:3] for r in rows] == [["three-level", "ume", "0"]]
    # without --threshold, bench runs the secular generator (threshold 0)
    bench_out = capsys.readouterr().out
    assert main(["run", "--benchmark", "three-level", "--kind", "ume",
                 "--threshold", "0", "--t-end", "400", "--samples", "5",
                 "--output-dir", str(tmp_path)]) == 0
    final = bench_out.splitlines()[1].split("final populations ")[1]
    assert final in capsys.readouterr().out


def test_bench_all_benchmarks_blocked(tmp_path):
    code = main(["bench", "--me", "ule", "--blocked", "--t-end", "400",
                 "--samples", "3", "--output-dir", str(tmp_path)])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "bench.csv")
    assert [r[0] for r in rows] == ["benzene", "three-level"]
    assert all(r[2] == "1" for r in rows)


def test_sweep_over_temperature(tmp_path):
    code = main(["sweep", *ladder_args(),
                 "--param", "bath.lambda", "--values", "0.005,0.01",
                 "--jobs", "1", "--output-dir", str(tmp_path)])
    assert code == 0
    fmt, header, rows = read_csv(tmp_path / "three-level-ladder.sweep.csv")
    assert fmt == "# format: sweep-csv v1"
    assert header == ["index", "value", "t_end", "min_eigenvalue",
                      "max_eigenvalue", "violation",
                      "final_pop_0", "final_pop_1", "final_pop_2"]
    assert [r[0] for r in rows] == ["0", "1"]
    assert [float(r[1]) for r in rows] == [0.005, 0.01]
    assert (tmp_path / "three-level-ladder.sweep.0000.csv").exists()
    assert (tmp_path / "three-level-ladder.sweep.0001.csv").exists()
    # weaker coupling relaxes less within the fixed window
    assert float(rows[0][6]) < float(rows[1][6])


def test_sweep_parallel_workers_match_serial(tmp_path):
    main(["sweep", *ladder_args(), "--param", "bath.temperature",
          "--values", "50,300", "--jobs", "1",
          "--output-dir", str(tmp_path / "serial")])
    main(["sweep", *ladder_args(), "--param", "bath.temperature",
          "--values", "50,300", "--jobs", "2",
          "--output-dir", str(tmp_path / "par")])
    a = (tmp_path / "serial" / "three-level-ladder.sweep.csv").read_bytes()
    b = (tmp_path / "par" / "three-level-ladder.sweep.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("jobs, points, cpus, workers", [
    (64, 2, 8, 2), (3, 4, 8, 3), (64, 4, 2, 2), (4, 3, None, None),
    (1, 3, 8, None), (2, 1, 8, None)])
def test_sweep_pool_is_bounded_by_grid_and_cpus(tmp_path, monkeypatch, jobs,
                                                points, cpus, workers):
    # a recording stand-in for the pool: no process starts, the points run
    # in this process, and the pool size is kept (None: no pool)
    created = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(rdmprop.cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(rdmprop.cli.os, "cpu_count", lambda: cpus)
    values = ",".join(str(50 + 50 * k) for k in range(points))
    code = main(["sweep", *ladder_args(), "--param", "bath.temperature",
                 "--values", values, "--jobs", str(jobs),
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert created == ([] if workers is None else [workers])
    _, _, rows = read_csv(tmp_path / "three-level-ladder.sweep.csv")
    assert [r[0] for r in rows] == [str(k) for k in range(points)]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, monkeypatch, capsys,
                                          jobs):
    monkeypatch.setattr(rdmprop.cli, "ProcessPoolExecutor", None)
    code = main(["sweep", *ladder_args(), "--param", "bath.temperature",
                 "--values", "50,300", "--jobs", jobs,
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_linspace_grid(tmp_path):
    code = main(["sweep", *ladder_args(), "--param", "bath.temperature",
                 "--linspace", "50:300:3", "--jobs", "1",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "three-level-ladder.sweep.csv")
    assert [float(r[1]) for r in rows] == [50.0, 175.0, 300.0]


def test_sweep_rejects_malformed_linspace(capsys):
    code = main(["sweep", *ladder_args(), "--param", "bath.temperature",
                 "--linspace", "50:300", "--jobs", "1"])
    assert code == 2
    assert "START:STOP:COUNT" in capsys.readouterr().err


def test_sweep_rejects_an_empty_grid(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rdmprop.cli", "sweep", "--benchmark",
         "three-level", "--param", "bath.temperature", "--linspace",
         "100:300:0", "--output-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: the sweep grid is empty"]


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("RDMPROP_OUTPUT_DIR", str(tmp_path / "envout"))
    code = main(["run", *ladder_args("--prefix", "envrun")])
    assert code == 0
    assert (tmp_path / "envout" / "envrun.csv").exists()


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rdmprop.cli", "spectra", "--lambda", "0.01",
         "--temperature", "300", "--points", "3",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "spectra.csv").exists()
