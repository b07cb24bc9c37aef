"""Filled-state residual audits and two-picture co-propagation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import rdmprop.output
from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.core import DimensionError, OneRdm, max_norm
from rdmprop.output import TRAJECTORY_FORMAT, write_trajectory_csv
from rdmprop.generators import particle_hole_transform
from rdmprop.propagate import Schedule, integrate, propagate_state, \
    unpack_hermitian
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


def copropagate(q0, setup, schedule):
    """Hole co-propagation against the particle propagated from
    chi*1 - q0 on ``schedule``."""
    h, spec = setup.hamiltonian, setup.spec
    rho0 = spec.chi * np.eye(spec.dim) - getattr(q0, "data", q0)
    particle = propagate_state(h, spec, rho0, schedule)
    return copropagate_hole(q0, h, spec, schedule, particle)


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
    hole = copropagate(q0, three_ule, schedule)
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
    a = copropagate(q0, three_ule, schedule)
    b = copropagate(OneRdm(q0, 1.0), three_ule, schedule)
    npt.assert_allclose(a.states, b.states, atol=0.0)
    npt.assert_allclose(a.defect, b.defect, atol=0.0)


def test_copropagation_uses_supplied_particle_trajectory(three_ule):
    schedule = Schedule(t_end=100.0, samples=5)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    particle = propagate_state(three_ule.hamiltonian, three_ule.spec, rho0,
                               schedule)
    q0 = np.eye(3) - rho0
    hole = copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                            schedule, particle)
    npt.assert_allclose(hole.times, particle.times, atol=0.0)
    assert hole.defect[0] < 1e-12
    # the hole ends where the particle does, not at the schedule's default
    unpinned = copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                                replace(schedule, t_end=None), particle)
    assert np.array_equal(unpinned.times, particle.times)
    # the particle must be sampled on the schedule the hole steps on
    with pytest.raises(ValueError, match="grid"):
        copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                         replace(schedule, samples=4), particle)
    # the defect is formed in the particle eigenbasis, so it must match
    particle.basis = particle.basis[:, ::-1]
    with pytest.raises(ValueError, match="eigenbasis"):
        copropagate_hole(q0, three_ule.hamiltonian, three_ule.spec,
                         schedule, particle)


@pytest.mark.parametrize("t_end", [None, 700.0])
def test_hole_is_sampled_on_the_particle_grid(t_end):
    traj = integrate(builtin_three_level(kind="ule", temperature=50.0,
                                         t_end=t_end, samples=33,
                                         copropagate_hole=True))
    assert np.array_equal(traj.hole.times, traj.times)
    assert traj.hole.metadata["t_end"] == traj.metadata["t_end"]


def test_copropagation_rejects_mismatched_shapes(three_ule):
    with pytest.raises(DimensionError):
        copropagate_hole(np.eye(4), three_ule.hamiltonian, three_ule.spec,
                         Schedule(), None)


def test_blocked_copropagation_keeps_pictures_complementary():
    scenario = builtin_three_level(kind="ule", pauli_blocked=True,
                                   temperature=50.0)
    setup = scenario.build()
    schedule = Schedule(t_end=16000.0, samples=9, rtol=1e-11, atol=1e-13)
    q0 = setup.rho0.complement()
    hole = copropagate(q0, setup, schedule)
    assert float(np.max(hole.defect)) < 1e-6


@pytest.mark.xfail(strict=True, reason="blocked rme breaks the complement "
                   "at every tolerance; whether through the paper's "
                   "positivity issues or a fault of the blocked rme "
                   "generator is open (ROADMAP items 11 and 6)")
def test_blocked_rme_keeps_pictures_complementary():
    # the defect reads 1.57e-3 at the defaults
    setup = builtin_three_level(kind="rme", pauli_blocked=True).build()
    schedule = Schedule(t_end=2000.0, samples=50)
    hole = copropagate(setup.rho0.complement(), setup, schedule)
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
    from rdmprop.propagate import Trajectory, pack_hermitian

    traj = Trajectory(times=times, packed=pack_hermitian(np.array([good,
                                                                  bad])),
                      basis=np.eye(2, dtype=complex), chi=1.0)
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
    """Reference trajectory CSV text: one eigvalsh and one trace per row,
    of the unpacked eigenbasis sample (both are unitarily invariant)."""
    d = traj.dim
    header = ["time"] + [f"pop_{k}" for k in range(d)] + ["min_eigenvalue",
                                                          "trace"]
    if traj.defect is not None:
        header.append("hole_defect")
    lines = [f"# format: {TRAJECTORY_FORMAT}", ",".join(header)]
    for k in range(len(traj)):
        state = unpack_hermitian(traj.packed[k], d)
        row = [traj.times[k], *traj.populations[k],
               np.linalg.eigvalsh(state)[0], np.real(np.trace(state))]
        if traj.defect is not None:
            row.append(traj.defect[k])
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def test_identity_basis_reductions_equal_original_basis_ones(
        benzene_unblocked_trajectories, benzene_blocked_trajectories):
    # with identity eigenvectors the eigenbasis reductions are the
    # original-basis ones bit for bit, so the CSV columns are unchanged
    for group in (benzene_unblocked_trajectories,
                  benzene_blocked_trajectories):
        for kind, traj in group.items():
            assert np.array_equal(traj.basis, np.eye(6)), kind
            npt.assert_array_equal(traj.occupations,
                                   np.linalg.eigvalsh(traj.states))
            npt.assert_array_equal(traj.traces, np.real(
                np.trace(traj.states, axis1=-2, axis2=-1)))


def test_audit_equals_per_sample_scan(benzene_unblocked_trajectories):
    traj = benzene_unblocked_trajectories["ule"]
    report = audit_trajectory(traj)
    expected = _audit_per_sample(traj)
    assert expected["violation"]
    assert {key: getattr(report, key) for key in expected} == expected


def test_trajectory_csv_equals_per_row_writer(tmp_path, monkeypatch):
    # a Hamiltonian given as a matrix has non-identity eigenvectors; 16-row
    # blocks split the 41 samples into three, the last one short
    monkeypatch.setattr(rdmprop.output, "BLOCK_SAMPLES", 16)
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
    # particle and hole files in one pass, as `rdmprop run` writes them
    path = write_trajectory_csv(traj, tmp_path / "particle.csv",
                                tmp_path / "hole.csv")
    assert path == tmp_path / "particle.csv"
    for name, t in (("particle", traj), ("hole", traj.hole)):
        assert (tmp_path / f"{name}.csv").read_text() == _csv_per_row(t)
    with pytest.raises(ValueError, match="no co-propagated hole"):
        write_trajectory_csv(traj.hole, tmp_path / "a.csv", tmp_path / "b.csv")


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


def test_blocked_run_records_its_clamps():
    # every level is its own subspace, so the vacancies are 1 - n_i
    d = dict(RANDOM_D4, generator={"kind": "rme", "pauli_blocked": True})
    traj = integrate(Scenario.from_dict(d))
    blocking = traj.metadata["blocking"]
    vacancy = 1.0 - traj.populations
    assert blocking["min_vacancy"] == pytest.approx(-0.02499, abs=1e-4)
    assert abs(blocking["min_vacancy"] - vacancy.min()) <= 1e-15
    clamped = int((vacancy < 0.0).any(axis=1).sum())
    assert blocking["clamped_samples"] == clamped == 26
    # with no degenerate subspace every vacancy is 1 - n_i, so the largest
    # population mirrors the smallest vacancy and overfilled samples clamp
    assert blocking["max_population"] == 1.0 - blocking["min_vacancy"]
    overfilled = int((traj.populations > 1.0 + 1e-6).any(axis=1).sum())
    assert blocking["overfilled_samples"] == overfilled <= clamped
    linear = integrate(Scenario.from_dict(dict(RANDOM_D4,
                                               generator={"kind": "rme"})))
    assert "blocking" not in linear.metadata


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
def test_blocked_benzene_records_no_overfill(benzene_blocked_trajectories,
                                             kind):
    traj = benzene_blocked_trajectories[kind]
    blocking = traj.metadata["blocking"]
    assert blocking["max_population"] == traj.populations.max()
    assert blocking["max_population"] <= traj.chi + 1e-6
    assert blocking["overfilled_samples"] == 0


def _rotated_random_d4(kind, blocked):
    """RANDOM_D4 in a random unitary basis, given as matrices, so the
    eigenvectors are far from the identity; 2,500 samples span several
    blocks of the trajectory pass."""
    z = np.random.default_rng(5).standard_normal((4, 4, 2)) @ [1.0, 1j]
    u = np.linalg.qr(z)[0]
    energies = RANDOM_D4["hamiltonian"]["energies"]
    coupling = np.array(RANDOM_D4["coupling_operators"][0]["matrix"])

    def entries(m):
        return [[[z.real, z.imag] for z in row] for row in m.tolist()]

    return Scenario.from_dict(dict(
        RANDOM_D4, name="rotated-d4",
        hamiltonian={"matrix": entries(u @ np.diag(energies) @ u.conj().T)},
        coupling_operators=[{"label": "random",
                             "matrix": entries(u @ coupling @ u.conj().T)}],
        generator={"kind": kind, "pauli_blocked": blocked,
                   "clustering_threshold": 0.0},
        schedule={"t_end": 200.0, "samples": 2500},
        copropagate_hole=True))


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("kind", ["rme", "ule", "ume"])
def test_packed_trajectory_matches_eager_stacks(tmp_path, kind, blocked):
    scenario = _rotated_random_d4(kind, blocked)
    setup = scenario.build()
    h = setup.hamiltonian
    assert max_norm(h.eigenvectors - np.eye(4)) > 0.1
    traj = integrate(scenario)
    hole = traj.hole

    # the parent's eager route: every stack formed in full
    states = h.from_eigenbasis(unpack_hermitian(traj.packed, 4))
    h_hole, spec_hole = particle_hole_transform(h, setup.spec)
    raw = propagate_state(h_hole, spec_hole,
                          h.to_eigenbasis(setup.rho0.complement().data).T,
                          replace(setup.schedule, t_end=traj.times[-1]))
    q_eig = np.transpose(h_hole.from_eigenbasis(
        unpack_hermitian(raw.packed, 4)), (0, 2, 1))
    q_states = h.from_eigenbasis(q_eig)
    defect = np.abs(q_states - (setup.spec.chi * np.eye(4) - states)).max(
        axis=(-2, -1))

    def herm_eigvalsh(m):
        return np.linalg.eigvalsh(0.5 * (m + np.conj(np.swapaxes(m, 1, 2))))

    for got, want in (
            (traj.states, states),
            (traj.populations, np.real(np.einsum("tii->ti", h.to_eigenbasis(
                states)))),
            (traj.occupations, herm_eigvalsh(states)),
            (traj.traces, np.real(np.einsum("tii->t", states))),
            (hole.states, q_states),
            (hole.populations, np.real(np.einsum("tii->ti", q_eig))),
            (hole.occupations, herm_eigvalsh(q_states)),
            (hole.traces, np.real(np.einsum("tii->t", q_states))),
            (hole.defect, defect), (traj.defect, defect)):
        assert got.shape == want.shape
        assert max_norm(got - want) <= 1e-14

    for t in (traj, hole):
        report = audit_trajectory(t)
        expected = _audit_per_sample(t)
        assert report.first_violation_time == expected.pop(
            "first_violation_time")
        assert report.violation == expected.pop("violation")
        for key, value in expected.items():
            assert abs(getattr(report, key) - value) <= 1e-14, key
        written = write_trajectory_csv(t, tmp_path / "t.csv").read_text()
        reference = _csv_per_row(t)
        assert written.splitlines()[:2] == reference.splitlines()[:2]
        got, want = (np.loadtxt(text.splitlines(), delimiter=",", skiprows=2)
                     for text in (written, reference))
        assert got.shape == want.shape == (2500, 8)
        assert max_norm(got - want) <= 1e-14


def test_dense_copropagated_run_keeps_packed_samples(tmp_path):
    # integrating, auditing and writing both CSVs of a 20,000-sample
    # co-propagated run never holds a full (n, d, d) stack of states
    scenario = builtin_benzene(kind="rme", t_end=16000.0, samples=20000,
                               copropagate_hole=True)
    tracemalloc.start()
    try:
        traj = integrate(scenario)
        audit_trajectory(traj)
        write_trajectory_csv(traj, tmp_path / "dense.csv",
                             tmp_path / "dense.hole.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    assert "states" not in traj.__dict__
    assert "states" not in traj.hole.__dict__
