"""Filled-state residual audits and two-picture co-propagation."""

import numpy as np
import numpy.testing as npt
import pytest

from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.core import DimensionError, OneRdm, max_norm
from rdmprop.output import TRAJECTORY_FORMAT, write_trajectory_csv
from rdmprop.propagate import Schedule, integrate, propagate_state
from rdmprop.scenario import Scenario
from rdmprop.representability import (
    audit_trajectory,
    constraint_residual,
    copropagate_hole,
    unitality_residual,
)

from oracle import channel_operator, union_values


@pytest.fixture(scope="module")
def three_ule():
    return builtin_three_level(kind="ule", temperature=50.0).build()


@pytest.fixture(scope="module")
def benzene_rme():
    return builtin_benzene(kind="rme").build()


def test_three_level_residual_shape_and_norm(three_ule):
    report = constraint_residual(three_ule.hamiltonian, three_ule.spec)
    spec = three_ule.spec
    diagonal = union_values(spec, spec.decay_rate_arrays())
    down = diagonal[0.5]
    up = diagonal[-0.5]
    c = (down - up).real
    npt.assert_allclose(report.residual_matrix, c * np.diag([1.0, 0.0, -1.0]),
                        atol=1e-15)
    assert report.residual_norm == pytest.approx(abs(c), rel=1e-12)
    assert not report.satisfied
    assert len(report.per_channel) == 1
    entry = report.per_channel[0]
    assert entry.frequency == pytest.approx(0.5, abs=0.0)
    assert entry.rate_asymmetry == pytest.approx(c, rel=1e-12)
    assert entry.contribution_norm == pytest.approx(abs(c), rel=1e-12)


def test_benzene_residual_decomposes_per_channel(benzene_rme):
    report = constraint_residual(benzene_rme.hamiltonian, benzene_rme.spec)
    freqs = [e.frequency for e in report.per_channel]
    npt.assert_allclose(freqs, [0.169, 0.26, 0.491], atol=1e-12)
    # per-bond channels carry a single gap each, so cross-frequency
    # contributions vanish and the pair decomposition is the full residual
    rebuilt = np.zeros((6, 6), dtype=complex)
    for entry in report.per_channel:
        w = entry.frequency
        comm = np.zeros((6, 6), dtype=complex)
        for ch in benzene_rme.spec.channel_sets:
            if w in ch.frequencies:
                aw = channel_operator(ch, w)
                comm += aw @ aw.conj().T - aw.conj().T @ aw
        rebuilt += entry.rate_asymmetry * comm
    assert max_norm(report.residual_matrix - rebuilt) < 1e-15
    assert report.pair_sum_norm == pytest.approx(report.residual_norm,
                                                 rel=1e-12)
    assert not report.satisfied


def test_symmetrized_rates_restore_unitality(three_ule, benzene_rme):
    for setup in (three_ule, benzene_rme):
        sym = setup.spec.symmetrized()
        report = constraint_residual(setup.hamiltonian, sym)
        assert report.residual_norm < 1e-12
        assert report.satisfied


def test_constraint_residual_rejects_blocked_specs():
    setup = builtin_three_level(kind="ule", pauli_blocked=True,
                                temperature=50.0).build()
    with pytest.raises(ValueError):
        constraint_residual(setup.hamiltonian, setup.spec)
    assert unitality_residual(setup.hamiltonian, setup.spec) < 1e-12


def test_unitality_residual_scales_with_chi(three_ule, benzene_rme):
    for setup in (three_ule, benzene_rme):
        report = constraint_residual(setup.hamiltonian, setup.spec)
        value = unitality_residual(setup.hamiltonian, setup.spec)
        assert value == pytest.approx(setup.spec.chi * report.residual_norm,
                                      rel=1e-12)


def test_copropagation_tracks_complement(three_ule):
    schedule = Schedule(t_end=16000.0, samples=9)
    rho0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q0 = OneRdm(rho0, 1.0).complement()
    hole = copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                            schedule=schedule)
    assert hole.metadata["picture"] == "hole"
    assert hole.metadata["kind"] == "ule"
    assert hole.defect is not None
    assert hole.defect[0] < 1e-12
    # the linear generator is not unital, so the pictures drift apart
    assert hole.defect[-1] > 0.05
    for state in hole.states:
        assert max_norm(state - state.conj().T) < 1e-12


def test_copropagation_accepts_matrix_and_onerdm(three_ule):
    schedule = Schedule(t_end=100.0, samples=5)
    q0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    a = copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                         schedule=schedule)
    b = copropagate_hole(OneRdm(q0, 1.0), three_ule.hamiltonian,
                         three_ule.spec, schedule=schedule)
    npt.assert_allclose(a.states, b.states, atol=0.0)
    npt.assert_allclose(a.defect, b.defect, atol=0.0)


def test_copropagation_uses_supplied_particle_trajectory(three_ule):
    schedule = Schedule(t_end=100.0, samples=5)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    particle = propagate_state(three_ule.hamiltonian, three_ule.spec, rho0,
                               schedule)
    q0 = np.eye(3) - rho0
    hole = copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                            schedule=schedule, particle_trajectory=particle)
    npt.assert_allclose(hole.times, particle.times, atol=0.0)
    assert hole.defect[0] < 1e-12


def test_copropagation_rejects_mismatched_shapes(three_ule):
    with pytest.raises(DimensionError):
        copropagate_hole(np.eye(4), three_ule.hamiltonian, three_ule.spec)


def test_blocked_copropagation_keeps_pictures_complementary():
    scenario = builtin_three_level(kind="ule", pauli_blocked=True,
                                   temperature=50.0)
    setup = scenario.build()
    schedule = Schedule(t_end=16000.0, samples=9, rtol=1e-11, atol=1e-13)
    q0 = setup.rho0.complement()
    hole = copropagate_hole(q0, setup.hamiltonian, setup.spec,
                            schedule=schedule)
    assert float(np.max(hole.defect)) < 1e-6


def test_audit_flags_unblocked_overfilling(benzene_unblocked_trajectories):
    traj = benzene_unblocked_trajectories["ule"]
    report = audit_trajectory(traj)
    assert report.violation
    assert report.first_violation_time is not None
    assert report.max_eigenvalue > 2.0 + report.tol
    assert report.max_trace_drift < 1e-8
    assert report.max_hermiticity_defect < 1e-10


def test_audit_passes_blocked_run():
    scenario = builtin_benzene(kind="ule", pauli_blocked=True,
                               t_end=16000.0, samples=17)
    traj = integrate(scenario)
    report = audit_trajectory(traj)
    assert not report.violation
    assert report.first_violation_time is None
    assert report.min_eigenvalue > -report.tol
    assert report.max_eigenvalue < 2.0 + report.tol


def test_audit_reports_spectrum_extrema():
    times = np.array([0.0, 1.0])
    good = np.diag([0.5, 0.5]).astype(complex)
    bad = np.diag([1.2, -0.1]).astype(complex)
    from rdmprop.propagate import Trajectory

    traj = Trajectory(times=times, states=np.array([good, bad]),
                      populations=np.real(np.array([np.diag(good),
                                                    np.diag(bad)])),
                      chi=1.0)
    report = audit_trajectory(traj, tol=1e-6)
    assert report.violation
    assert report.first_violation_time == 1.0
    assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
    assert report.max_eigenvalue == pytest.approx(1.2, abs=1e-12)


def _audit_per_sample(traj, tol=1e-6):
    """Reference audit: one eigvalsh per stored state, scanned in order."""
    lo, hi = np.inf, -np.inf
    pop_lo, pop_hi = np.inf, -np.inf
    first_violation = None
    trace0 = np.real(np.trace(traj.states[0]))
    max_drift = max_herm = 0.0
    for k, state in enumerate(traj.states):
        max_herm = max(max_herm, max_norm(state - state.conj().T))
        eigs = np.linalg.eigvalsh(0.5 * (state + state.conj().T))
        lo, hi = min(lo, eigs[0]), max(hi, eigs[-1])
        pop_lo = min(pop_lo, traj.populations[k].min())
        pop_hi = max(pop_hi, traj.populations[k].max())
        max_drift = max(max_drift, abs(np.real(np.trace(state)) - trace0))
        if first_violation is None and (eigs[0] < -tol
                                        or eigs[-1] > traj.chi + tol):
            first_violation = float(traj.times[k])
    return {"min_eigenvalue": float(lo), "max_eigenvalue": float(hi),
            "min_population": float(pop_lo), "max_population": float(pop_hi),
            "max_trace_drift": float(max_drift),
            "max_hermiticity_defect": float(max_herm),
            "first_violation_time": first_violation,
            "violation": first_violation is not None}


def _csv_per_row(traj):
    """Reference trajectory CSV text: one eigvalsh and one trace per row."""
    d = traj.dim
    header = ["time"] + [f"pop_{k}" for k in range(d)] + ["min_eigenvalue",
                                                          "trace"]
    if traj.defect is not None:
        header.append("hole_defect")
    lines = [f"# format: {TRAJECTORY_FORMAT}", ",".join(header)]
    for k in range(len(traj)):
        state = traj.states[k]
        eigs = np.linalg.eigvalsh(0.5 * (state + state.conj().T))
        row = [traj.times[k], *traj.populations[k], eigs[0],
               np.real(np.trace(state))]
        if traj.defect is not None:
            row.append(traj.defect[k])
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def test_audit_equals_per_sample_scan(benzene_unblocked_trajectories):
    traj = benzene_unblocked_trajectories["ule"]
    report = audit_trajectory(traj)
    expected = _audit_per_sample(traj)
    assert expected["violation"]
    assert {key: getattr(report, key) for key in expected} == expected


def test_trajectory_csv_equals_per_row_writer(tmp_path):
    # a Hamiltonian given as a matrix has non-identity eigenvectors
    scenario = Scenario.from_dict({
        "name": "chain",
        "chi": 1.0,
        "hamiltonian": {"matrix": [[-0.3, 0.1, 0.0], [0.1, 0.0, 0.08],
                                   [0.0, 0.08, 0.3]]},
        "coupling_operators": [{"label": "x", "matrix": [
            [1.0, 0.3, 0.1], [0.3, -0.5, 0.2], [0.1, 0.2, 0.4]]}],
        "initial_state": {"occupations": [0.0, 1.0, 1.0]},
        "bath": {"lambda": 0.01, "temperature": 300.0},
        "generator": {"kind": "rme"},
        "schedule": {"t_end": 2000.0, "samples": 41},
        "copropagate_hole": True,
    })
    traj = integrate(scenario)
    assert traj.defect is not None and traj.hole.defect is not None
    for name, t in (("particle", traj), ("hole", traj.hole)):
        path = write_trajectory_csv(t, tmp_path / f"{name}.csv")
        assert path.read_text() == _csv_per_row(t)


# perfbench's random_system(4, 1): seeded non-degenerate levels and one
# random real-symmetric coupling, upper half of the levels filled.
RANDOM_D4 = {
    "name": "random-d4",
    "chi": 1.0,
    "hamiltonian": {"energies": [-0.2009130603459952, -0.05790567544372138,
                                 -0.013926948876686107,
                                 -0.000172829608325209]},
    "coupling_operators": [{"label": "random", "matrix": [
        [-0.29540155725483636, 0.1828385975698063, -0.13101760329626377,
         0.05929419389868128],
        [0.1828385975698063, 0.9782889025805155, 0.05505866923289507,
         -0.2364704816803532],
        [-0.13101760329626377, 0.05505866923289507, -1.4147806669991245,
         -1.1089866336442578],
        [0.05929419389868128, -0.2364704816803532, -1.1089866336442578,
         0.3143086309437129]]}],
    "initial_state": {"occupations": [0.0, 0.0, 1.0, 1.0]},
    "bath": {"lambda": 0.01, "temperature": 300.0},
    "schedule": {"t_end": 200.0, "samples": 50},
}


def _blocked_random_d4_audit(kind):
    d = dict(RANDOM_D4, generator={"kind": kind, "pauli_blocked": True,
                                   "clustering_threshold": 0.0})
    return audit_trajectory(integrate(Scenario.from_dict(d)))


def test_blocked_ume_keeps_populations_and_occupations_in_bounds():
    report = _blocked_random_d4_audit("ume")
    assert not report.violation
    assert -report.tol <= report.min_population
    assert report.max_population <= 1.0 + report.tol
    assert -report.tol <= report.min_eigenvalue
    assert report.max_eigenvalue <= 1.0 + report.tol


def test_blocked_ule_keeps_populations_but_not_occupations_in_bounds():
    # the mask reads the eigenbasis diagonal while non-secular terms build
    # coherences, so natural occupations can pass chi
    report = _blocked_random_d4_audit("ule")
    assert -report.tol <= report.min_population
    assert report.max_population <= 1.0 + report.tol
    assert report.violation
    assert report.max_eigenvalue == pytest.approx(1.0649, abs=1e-3)


def test_blocked_rme_pushes_populations_and_occupations_past_chi():
    report = _blocked_random_d4_audit("rme")
    assert report.violation
    assert report.max_population == pytest.approx(1.02499, abs=1e-4)
    assert report.max_eigenvalue == pytest.approx(1.3531, abs=1e-3)
