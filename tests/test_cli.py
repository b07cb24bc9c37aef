"""End-to-end command-line behavior through in-process main() calls."""

import json
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import rdmprop.propagate
import rdmprop.representability
from rdmprop.bath import spectral_function_ule
from rdmprop.benchmarks import builtin_three_level
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
    # every route to a generator, the audit's included
    calls = []
    for module, name in ((rdmprop.propagate, "build_packed_generator"),
                         (rdmprop.propagate, "build_blocked_rhs"),
                         (rdmprop.propagate, "liouvillian_action"),
                         (rdmprop.representability, "liouvillian_action")):
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    extra = ("--blocked",) if blocked else ()
    code = main(["run", *ladder_args(*extra, "--output-dir", str(tmp_path))])
    assert code == 0
    assert calls == (["build_blocked_rhs"] if blocked else
                     ["build_packed_generator", "liouvillian_action"])

    meta = json.loads((tmp_path / "three-level-ladder.json").read_text())
    setup = builtin_three_level(kind="ule", temperature=50.0,
                                pauli_blocked=blocked).build()
    expected = unitality_residual(setup.hamiltonian, setup.spec)
    if blocked:
        # the audit evaluates the very function the run integrated
        assert meta["unitality_residual"] == expected < 1e-12
    else:
        assert meta["unitality_residual"] == pytest.approx(expected,
                                                           rel=1e-12)
        assert expected > 1e-4


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
    schedule = {"t_end": 100.0, "samples": 5, "method": "DOP853"}
    {"bath": bath, "schedule": schedule}[section][key] = value
    path = _two_level_file(tmp_path, bath, schedule)
    code = main(["run", "--scenario", path, "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"scenario.{section}" in err
    assert {"lambda": "lam"}.get(key, key) in err


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


@pytest.mark.parametrize("command", [
    ["run", "--kind", "rme"],
    ["run", "--kind", "ume", "--threshold", "0", "--lamb-shift"],
    ["run", "--kind", "ule", "--lamb-shift"],
    ["spectra", "--lambda", "1e200", "--temperature", "300"],
])
def test_non_finite_quadrature_at_a_huge_bath_width_exits_one(tmp_path,
                                                              command):
    # xi and S_hat overflow to -inf at this width; no CSV may carry them
    if command[0] == "run":
        path = _two_level_file(tmp_path,
                               {"lambda": 1e200, "temperature": 300.0},
                               {"t_end": 100.0, "samples": 5})
        command = [*command, "--scenario", path]
    proc = subprocess.run(
        [sys.executable, "-m", "rdmprop.cli", *command,
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_spectra_at_the_largest_bath_widths_exits_one(tmp_path, capsys):
    # the Drude-Lorentz scale stays finite, so the overflow surfaces as a
    # non-finite principal-value integral (the quadrature warns first)
    code = main(["spectra", "--lambda", "1.7e308", "--temperature", "300",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert "error: xi(-1) is not finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_with_an_unknown_schedule_method_exits_two(tmp_path, capsys):
    path = _two_level_file(tmp_path, {"lambda": 0.01, "temperature": 50.0},
                           {"method": "DOP835"})
    code = main(["run", "--scenario", path, "--output-dir", str(tmp_path)])
    assert code == 2
    assert "DOP835" in capsys.readouterr().err


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
