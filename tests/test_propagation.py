"""Packed-vector integration, matrix-exponential cross-checks, scheduling."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rdmprop._numerics import dop853
from rdmprop.bath import BathModel, spectral_function_ule
from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.core import (
    CouplingOperator,
    DimensionError,
    PhysicalityError,
    SystemHamiltonian,
    max_norm,
)
from rdmprop.cli import main
from rdmprop.generators import build_generator, particle_hole_transform
from rdmprop.propagate import (
    RTOL_FLOOR,
    Schedule,
    Trajectory,
    _step_on_grid,
    build_packed_generator,
    default_t_end,
    integrate,
    pack_hermitian,
    propagate_state,
    transpose_permuted,
    unpack_hermitian,
)
from rdmprop.scenario import Scenario

from oracle import Oracle, expm_propagate, union_values


def random_hermitian(rng, d):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (b + b.conj().T)


def dop853_trajectory(h, spec, rho0, schedule):
    """DOP853 on the packed generator, linear or not, at the schedule's
    tolerances and on its grid: the adaptive cross-check of exact
    stepping."""
    times = np.linspace(0.0, schedule.t_end, schedule.samples)
    rho0 = np.asarray(getattr(rho0, "data", rho0), dtype=complex)
    ys, _ = dop853(build_packed_generator(h, spec),
                   pack_hermitian(h.to_eigenbasis(rho0)), times,
                   schedule.rtol, schedule.atol)
    return Trajectory(times=times, packed=ys, basis=h.eigenvectors,
                      chi=spec.chi)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6))
def test_pack_unpack_roundtrip_and_isometry(seed, d):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, d)
    b = random_hermitian(rng, d)
    pa, pb = pack_hermitian(a), pack_hermitian(b)
    assert pa.dtype == np.float64
    assert pa.size == d * d
    npt.assert_allclose(unpack_hermitian(pa, d), a, atol=1e-15)
    npt.assert_allclose(np.dot(pa, pb), np.real(np.trace(a @ b)),
                        rtol=1e-12, atol=1e-15)


def test_unpack_rejects_wrong_length():
    with pytest.raises(DimensionError):
        unpack_hermitian(np.zeros(8), 3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(samples=1)
    with pytest.raises(ValueError):
        Schedule(rtol=0.0)
    with pytest.raises(ValueError):
        Schedule(atol=-1e-12)
    with pytest.raises(ValueError):
        Schedule(t_end=0.0)
    for field in ("t_end", "rtol", "atol"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=field):
                Schedule(**{field: value})


def test_schedule_rejects_rtol_below_the_solver_floor():
    # below 100 machine epsilons no adaptive solver can honour rtol, and
    # none may raise it silently
    with pytest.raises(ValueError, match="rtol"):
        Schedule(rtol=1e-20)
    assert Schedule(rtol=RTOL_FLOOR).rtol == RTOL_FLOOR


def test_default_t_end_is_twenty_slowest_lifetimes():
    setup = builtin_three_level(kind="ule", temperature=50.0).build()
    rate = 2.0 * np.pi * spectral_function_ule(0.5, setup.spec.bath)
    assert default_t_end(setup.spec) == pytest.approx(20.0 / rate, rel=1e-15)


def test_default_t_end_ignores_rates_below_the_relevance_floor():
    setup = builtin_three_level(kind="ule", temperature=300.0).build()
    spec = setup.spec
    diagonal = union_values(spec, spec.decay_rate_arrays())
    up = diagonal[-0.5].real
    down = diagonal[0.5].real
    assert 0.0 < up < 1e-6 * down
    assert default_t_end(spec) == pytest.approx(20.0 / down, rel=1e-15)


def test_default_t_end_requires_a_decaying_channel():
    h = SystemHamiltonian.from_energies([-0.5, 0.0, 0.5])
    null = CouplingOperator("null", np.zeros((3, 3)))
    spec = build_generator(h, null, BathModel(lam=0.01, temperature=50.0),
                           "ule", chi=1.0)
    with pytest.raises(ValueError):
        default_t_end(spec)


def test_zero_coupling_evolution_is_stationary():
    h = SystemHamiltonian.from_energies([-0.5, 0.0, 0.5])
    null = CouplingOperator("null", np.zeros((3, 3)))
    spec = build_generator(h, null, BathModel(lam=0.01, temperature=50.0),
                           "ule", chi=1.0)
    rho0 = np.diag([0.3, 0.4, 0.3]).astype(complex)
    traj = propagate_state(h, spec, rho0, Schedule(t_end=5000.0, samples=9))
    assert float(np.max(np.abs(traj.states - rho0[None]))) < 1e-10


def test_packed_generator_reproduces_liouvillian_action(rng):
    setup = builtin_three_level(kind="ule", temperature=50.0).build()
    gmat = build_packed_generator(setup.hamiltonian, setup.spec).matrix
    rho = random_hermitian(rng, 3)
    direct = Oracle(setup.hamiltonian, setup.spec).liouvillian(rho)
    npt.assert_allclose(unpack_hermitian(gmat @ pack_hermitian(rho), 3),
                        direct, atol=1e-13)


def test_packed_generator_has_a_matrix_for_linear_specs_only(rng):
    linear = builtin_three_level(kind="ule", temperature=50.0).build()
    rhs = build_packed_generator(linear.hamiltonian, linear.spec)
    y = pack_hermitian(random_hermitian(rng, 3))
    assert rhs.matrix.shape == (9, 9)
    assert np.array_equal(rhs(0.0, y), rhs.matrix @ y)
    blocked = builtin_three_level(kind="ule", pauli_blocked=True,
                                  temperature=50.0).build()
    assert build_packed_generator(blocked.hamiltonian,
                                  blocked.spec).matrix is None
    six_levels = builtin_benzene().build().hamiltonian
    for spec in (linear.spec, blocked.spec):
        with pytest.raises(DimensionError):
            build_packed_generator(six_levels, spec)


def test_blocked_rhs_survives_overfull_rounding_excursions():
    setup = builtin_benzene(kind="ule", pauli_blocked=True).build()
    rhs = build_packed_generator(setup.hamiltonian, setup.spec)
    overfull = (2.0 + 1e-9) * np.eye(6, dtype=complex)
    dy = rhs(0.0, pack_hermitian(setup.hamiltonian.to_eigenbasis(overfull)))
    assert np.all(np.isfinite(dy))


def test_adaptive_and_exponential_routes_agree():
    setup = builtin_three_level(kind="ule", temperature=50.0).build()
    schedule = Schedule(t_end=16000.0, samples=17)
    traj = dop853_trajectory(setup.hamiltonian, setup.spec, setup.rho0,
                             schedule)
    states = expm_propagate(setup.hamiltonian, setup.spec, setup.rho0,
                            traj.times)
    pops = np.real(np.einsum("tii->ti",
                             setup.hamiltonian.to_eigenbasis(states)))
    assert np.max(np.abs(pops - traj.populations)) < 1e-8


@pytest.fixture(scope="module")
def benzene_rme():
    """Linear benzene rme: its set-up, packed generator and initial
    state."""
    setup = builtin_benzene(kind="rme").build()
    h = setup.hamiltonian
    return (setup, build_packed_generator(h, setup.spec).matrix,
            pack_hermitian(h.to_eigenbasis(setup.rho0.data)))


def _chosen_samples(n):
    """Ends, the edges of the first stepping blocks and a spread of
    interior samples of an n-sample grid."""
    block = 1 << (math.isqrt(n).bit_length() - 1)
    edges = [block - 1, block, 2 * block - 1, 2 * block, n - block - 1]
    picks = np.r_[0, 1, n - 2, n - 1, edges, np.linspace(0, n - 1, 7)]
    return np.unique(np.clip(picks.astype(int), 0, n - 1))


@pytest.mark.parametrize("t0", [0.0, 3000.0])
@pytest.mark.parametrize("samples", [2, 3, 16, 17, 128, 129, 20000])
def test_uniform_stepping_matches_direct_exponentials(benzene_rme, samples,
                                                      t0):
    # stepping from the state reached at t0 on a grid from 0
    _, gmat, y0 = benzene_rme
    times = np.linspace(0.0, 16000.0, samples)
    ys = _step_on_grid(gmat, expm(gmat * t0) @ y0, times)
    assert ys.shape == (samples, 36)
    for k in _chosen_samples(samples):
        assert max_norm(ys[k] - expm(gmat * (t0 + times[k])) @ y0) \
            <= 1e-12, k


def test_trace_is_conserved_along_trajectories(
        three_level_50k_trajectories, benzene_unblocked_trajectories):
    for group in (three_level_50k_trajectories,
                  benzene_unblocked_trajectories):
        for kind, traj in group.items():
            traces = np.real(np.einsum("tii->t", traj.states))
            drift = float(np.max(np.abs(traces - traces[0])))
            assert drift < 1e-8, (kind, drift)


def test_halving_tolerances_barely_moves_final_populations():
    setup = builtin_benzene(kind="ule").build()
    base = Schedule(t_end=16000.0, samples=9)
    tight = Schedule(t_end=16000.0, samples=9, rtol=0.5e-9, atol=0.5e-11)
    a, b = (dop853_trajectory(setup.hamiltonian, setup.spec, setup.rho0,
                              schedule) for schedule in (base, tight))
    dev = float(np.max(np.abs(a.populations[-1] - b.populations[-1])))
    assert dev < 10.0 * base.rtol


def test_lamb_shift_leaves_steady_populations_in_place():
    plain = integrate(builtin_three_level(kind="ule", temperature=50.0,
                                          t_end=16000.0, samples=9))
    shifted = integrate(builtin_three_level(kind="ule", temperature=50.0,
                                            t_end=16000.0, samples=9,
                                            lamb_shift=True))
    dev = float(np.max(np.abs(plain.populations[-1]
                              - shifted.populations[-1])))
    # the shift dresses the eigenstates, which feeds back on eigenbasis
    # populations only at second order in its off-diagonal part
    assert dev < 1e-5


def test_diagonal_lamb_shift_is_exactly_inert():
    plain = integrate(builtin_benzene(kind="rme", t_end=16000.0, samples=9))
    shifted = integrate(builtin_benzene(kind="rme", t_end=16000.0, samples=9,
                                        lamb_shift=True))
    npt.assert_allclose(plain.populations[-1], shifted.populations[-1],
                        atol=1e-12)


def test_integrate_rejects_unphysical_initial_states():
    scenario = builtin_three_level(kind="ule", temperature=50.0)
    scenario.initial_state = np.diag([1.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(PhysicalityError):
        integrate(scenario)


def test_integrate_attaches_metadata_and_setup():
    scenario = builtin_three_level(kind="ule", temperature=50.0,
                                   t_end=600.0, samples=5)
    traj = integrate(scenario)
    setup = scenario.build()
    assert traj.metadata["scenario"] == scenario.to_dict()
    assert traj.metadata["kind"] == "ule"
    assert setup is not None
    assert setup.spec.dim == 3
    assert traj.defect is None


def test_integrate_wires_hole_copropagation():
    scenario = builtin_three_level(kind="ule", temperature=50.0,
                                   t_end=600.0, samples=5,
                                   copropagate_hole=True)
    traj = integrate(scenario)
    assert traj.defect is not None
    assert len(traj.defect) == 5
    assert traj.hole is not None
    assert traj.hole.metadata["picture"] == "hole"
    npt.assert_allclose(traj.hole.times, traj.times, atol=0.0)


def test_trajectory_state_accessors():
    times = np.array([0.0, 1.0])
    states = np.array([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])],
                      dtype=complex)
    traj = Trajectory(times=times, packed=pack_hermitian(states),
                      basis=np.eye(2, dtype=complex), chi=1.0)
    assert len(traj) == 2
    assert traj.dim == 2
    npt.assert_allclose(traj.final_state.data, states[1], atol=0.0)
    assert traj.state(0).chi == 1.0


def test_propagate_state_validates_inputs():
    setup = builtin_three_level(kind="ule", temperature=50.0).build()
    from rdmprop.core import OneRdm

    wrong_chi = OneRdm(np.diag([1.0, 0.0, 0.0]).astype(complex), 2.0)
    with pytest.raises(ValueError):
        propagate_state(setup.hamiltonian, setup.spec, wrong_chi)
    with pytest.raises(DimensionError):
        propagate_state(setup.hamiltonian, setup.spec, np.eye(4))


def _unblocked(system, kind, **kwargs):
    build = builtin_three_level if system == "three-level" \
        else builtin_benzene
    return build(kind=kind, t_end=16000.0, **kwargs)


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
@pytest.mark.parametrize("system", ["three-level", "benzene"])
def test_exact_route_matches_tight_adaptive_integration(system, kind):
    exact = integrate(_unblocked(system, kind, samples=41))
    setup = _unblocked(system, kind).build()
    reference = dop853_trajectory(
        setup.hamiltonian, setup.spec, setup.rho0,
        Schedule(t_end=16000.0, samples=41, rtol=1e-11, atol=1e-13))
    assert exact.metadata["method"] == "expm"
    deviation = float(np.max(np.abs(exact.states - reference.states)))
    assert deviation < 1e-8, deviation
    traces = np.real(np.einsum("tii->t", exact.states))
    assert float(np.max(np.abs(traces - traces[0]))) < 1e-12


@pytest.mark.parametrize("times", [[0.0, 2500.0, 5000.0],
                                   [0.0, 1000.0, 2000.0, 3000.0],
                                   [0.0, 700.0, 1400.0, 2100.0, 2800.0],
                                   [0.0, 2500.0]])
def test_exact_route_matches_kronecker_route_on_any_grid(times):
    # any schedule grid: samples uniform times from 0 to t_end
    setup = builtin_benzene(kind="rme").build()
    times = np.array(times)
    states = expm_propagate(setup.hamiltonian, setup.spec, setup.rho0, times)
    traj = propagate_state(setup.hamiltonian, setup.spec, setup.rho0,
                           Schedule(t_end=times[-1], samples=times.size))
    assert traj.metadata["method"] == "expm"
    assert np.array_equal(traj.times, times)
    npt.assert_allclose(traj.states, states, atol=1e-12)


def test_blocked_spec_without_blockable_coupling_steps_exactly():
    # the coupling stays inside the degenerate pair, so blocking scales
    # nothing: the blocked equation is linear and is stepped exactly
    h = SystemHamiltonian.from_energies([0.0, 0.0, 0.4])
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = [[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]]
    bath = BathModel(lam=0.01, temperature=300.0)
    linear, blocked = (build_generator(h, CouplingOperator("x", a), bath,
                                       "ule", chi=1.0, pauli_blocked=b)
                       for b in (False, True))
    rho0 = np.array([[0.5, 0.3, 0.0], [0.3, 0.4, 0.1], [0.0, 0.1, 0.2]],
                    dtype=complex)
    traj = propagate_state(h, blocked, rho0, Schedule(t_end=2000.0,
                                                      samples=9))
    assert traj.metadata["method"] == "expm"
    assert traj.metadata["rhs_evaluations"] == 0
    states = expm_propagate(h, linear, rho0, traj.times)
    npt.assert_allclose(traj.states, states, atol=1e-12)
    oracle = Oracle(h, blocked)
    for y in traj.packed:
        assert max_norm(build_packed_generator(h, blocked).matrix @ y
                        - oracle.blocked_rhs(y)) < 1e-12


def test_metadata_records_the_route_taken():
    linear = integrate(_unblocked("three-level", "ule", samples=5))
    assert linear.metadata["method"] == "expm"
    assert linear.metadata["rhs_evaluations"] == 0
    blocked = integrate(builtin_three_level(kind="ume", pauli_blocked=True,
                                            t_end=400.0, samples=5))
    assert blocked.metadata["method"] == "DOP853"
    assert blocked.metadata["rhs_evaluations"] > 0


def test_hole_copropagation_takes_the_exact_route():
    exact = integrate(_unblocked("benzene", "rme", samples=9,
                                 copropagate_hole=True))
    assert exact.hole.metadata["method"] == "expm"
    assert exact.hole.metadata["rhs_evaluations"] == 0
    setup = _unblocked("benzene", "rme").build()
    h, spec = setup.hamiltonian, setup.spec
    schedule = Schedule(t_end=16000.0, samples=9, rtol=1e-11, atol=1e-13)
    particle = dop853_trajectory(h, spec, setup.rho0, schedule)
    h_hole, spec_hole = particle_hole_transform(h, spec)
    q0 = h.to_eigenbasis(setup.rho0.complement().data).T
    adaptive = dop853_trajectory(h_hole, spec_hole, q0, schedule)
    transpose_permuted(adaptive.packed, h_hole.eigenvectors)
    adaptive.basis = h.eigenvectors
    defect = np.abs(adaptive.states - (spec.chi * np.eye(6)
                                       - particle.states)).max(axis=(1, 2))
    npt.assert_allclose(exact.hole.states, adaptive.states, atol=1e-8)
    npt.assert_allclose(exact.defect, defect, atol=1e-8)


def test_scenario_roundtrip_keeps_default_and_explicit_method_apart(
        tmp_path, capsys):
    # the generator picks the route; a scenario naming one exits 2
    default = builtin_three_level(kind="ule", t_end=400.0, samples=5)
    assert "method" not in default.to_dict()["schedule"]
    assert integrate(Scenario.from_dict(default.to_dict())) \
        .metadata["method"] == "expm"
    explicit = default.to_dict()
    explicit["schedule"]["method"] = "DOP853"
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(explicit))
    assert main(["run", "--scenario", str(path), "--output-dir",
                 str(tmp_path)]) == 2
    assert "scenario.schedule: unknown keys ['method']" \
        in capsys.readouterr().err
