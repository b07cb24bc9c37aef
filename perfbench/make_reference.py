"""Write reference.json: expected outputs of every case with fixed inputs.

    python3 perfbench/make_reference.py

Runs each builtin case and the spectra case once through the CLI and stores
the final populations (and every tenth row of the spectra table). Linear
cases are cross-checked against dense matrix exponentials first, and the
spectra rows against check.py's own bath functions. Seeded cases get their
references per run from check.py's route; that route is cross-checked here
against the program for CROSS_CHECK_SEEDS, and the deviations are stored.
A seeded case on which both the program and the route fail is stored with
both errors (blocked rme diverges on some random systems).
A cross-check that disagrees by more than check.population_tolerance
(SPECTRA_RTOL for the spectra) stops the script. Run it only to re-baseline after a change
that is meant to change answers.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import ROOT, WORK, environment
import workloads
from worker import import_program, run_case

SPECTRA_STRIDE = 10
SPECTRA_BATH = {"lambda": 0.01, "temperature": 300.0}
CROSS_CHECK_SEEDS = (1, 2, 3)


def expm_final_populations(scenario) -> np.ndarray:
    """Final eigenbasis populations by the program's matrix exponential."""
    from rdmprop.propagate import expm_propagate
    setup = scenario.build()
    h = setup.hamiltonian
    states = expm_propagate(h, setup.spec, setup.rho0,
                            np.array([0.0, scenario.schedule.t_end]))
    return np.real(np.diag(h.to_eigenbasis(states[-1])))


def builtin_scenario(case):
    from rdmprop.benchmarks import BENCHMARKS
    return BENCHMARKS[case.source](
        kind=case.kind, pauli_blocked=case.blocked,
        lamb_shift=case.lamb_shift, t_end=case.t_end, samples=case.samples,
        copropagate_hole=case.copropagate_hole)


def cross_check(what: str, deviation: float, tol: float) -> float:
    if not deviation <= tol:
        raise SystemExit(f"{what}: routes differ by {deviation:.3e}")
    return deviation


def spectra_entry(check, rows: np.ndarray) -> dict:
    """Stored spectra rows, cross-checked column by column."""
    bath = check.bath_of({"bath": SPECTRA_BATH})
    for omega, gamma_hat, decay, xi in rows:
        expected = bath.gamma_hat(omega)
        got = np.array([gamma_hat, decay, xi])
        want = np.array([expected, np.pi * expected, bath.xi(omega)])
        scale = np.maximum(np.abs(want), check.SPECTRA_ATOL / check.SPECTRA_RTOL)
        dev = float(np.max(np.abs(got - want) / scale))
        cross_check(f"spectra at omega = {omega}", dev, check.SPECTRA_RTOL)
    return {"stride": SPECTRA_STRIDE, "rows": rows.tolist()}


def fixed_references(cli, check, out) -> dict:
    stored = {}
    for workload in workloads.WORKLOADS:
        entries = {}
        for case in workloads.cases_for(workload):
            if case.seeded:
                continue
            code, _, _, err = run_case(cli, case.argv(out, out))
            if code != 0:
                raise SystemExit(f"{workload}/{case.name} failed: {err}")
            if case.source is None:
                _, data = check.read_csv(out / f"{case.name}.csv")
                entries[case.name] = spectra_entry(
                    check, data[::SPECTRA_STRIDE])
                continue
            pops = check.final_populations(out / f"{case.name}.csv")
            entry = {"final_populations": pops.tolist()}
            if not case.blocked:
                expm = expm_final_populations(builtin_scenario(case))
                entry["expm_deviation"] = cross_check(
                    f"{workload}/{case.name} (expm)",
                    float(np.max(np.abs(expm - pops))), check.POP_ATOL)
            entries[case.name] = entry
            print(f"{workload:16s} {case.name:24s} {pops.round(6)}")
        stored[workload] = entries
    return stored


def seeded_cross_checks(cli, check, out) -> dict:
    """Deviation of check.py's route from the program, per seed and case."""
    from rdmprop.generators import MEKind
    from rdmprop.scenario import load_scenario
    result = {}
    for seed in CROSS_CHECK_SEEDS:
        inputs = out / f"seed{seed}"
        entries = {}
        for workload in workloads.WORKLOADS:
            cases = [c for c in workloads.cases_for(workload) if c.seeded]
            workloads.write_inputs(workload, seed, inputs)
            refs = check.seeded_references(cases, inputs)
            for case in cases:
                code, _, _, err = run_case(cli, case.argv(inputs, inputs))
                if (code != 0) != ("error" in refs[case.name]):
                    raise SystemExit(f"seed {seed} {case.name}: exit code "
                                     f"{code}, reference {refs[case.name]}")
                if code != 0:
                    entries[case.name] = {
                        "program_error": err.strip().splitlines()[-1],
                        "route_error": refs[case.name]["error"]}
                    print(f"seed {seed:3d} {case.name:24s} "
                          f"{entries[case.name]}")
                    continue
                pops = check.final_populations(inputs / f"{case.name}.csv")
                ref = np.array(refs[case.name]["final_populations"])
                entry = {"route_deviation": cross_check(
                    f"seed {seed} {case.name}",
                    float(np.max(np.abs(ref - pops))),
                    check.population_tolerance(case))}
                if not case.blocked:
                    scenario = load_scenario(inputs / f"{case.source}.json")
                    scenario.kind = MEKind(case.kind)
                    scenario.pauli_blocked = False
                    scenario.lamb_shift = case.lamb_shift
                    scenario.clustering_threshold = 0.0
                    expm = expm_final_populations(scenario)
                    entry["expm_deviation"] = cross_check(
                        f"seed {seed} {case.name} (expm)",
                        float(np.max(np.abs(ref - expm))),
                        check.population_tolerance(case))
                entries[case.name] = entry
                print(f"seed {seed:3d} {case.name:24s} {entry}")
        result[str(seed)] = entries
    return result


def main() -> int:
    cli = import_program()
    import check

    out = WORK / "reference"
    shutil.rmtree(out, ignore_errors=True)
    stored = fixed_references(cli, check, out)
    seeded = seeded_cross_checks(cli, check, out)
    env = environment()
    reference = {"generated_at": {k: env[k] for k in
                                  ("git_commit", "src_sha256", "python",
                                   "numpy", "scipy")},
                 "workloads": stored,
                 "seeded_cross_check": seeded}
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
