"""End-to-end acceptance checks, one test family per numbered criterion.

Each ``test_criterion_<n>*`` result is tallied by conftest into a single
PASS/FAIL line per criterion at the end of the run. Shared benchmark
trajectories come from the session fixtures in conftest.
"""

import itertools

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from rdmprop.bath import (
    K_B,
    BathModel,
    rme_rates,
    spectral_function_redfield,
    spectral_function_ule,
    xi_integral,
)
from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.core import CouplingOperator, SystemHamiltonian, max_norm
from rdmprop.generators import (
    MEKind,
    build_generator,
    dissipator,
    superoperator_matrix,
)
from rdmprop.propagate import Schedule, integrate
from rdmprop.representability import constraint_residual, unitality_residual

from oracle import Oracle, channel_operator, dissipator_ule, union_values

BENCH_FREQS = (0.169, 0.260, 0.491, 0.5)
STEADY_BLOCKED = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])


def test_criterion_1_populations_agree_across_generators(
        three_level_50k_trajectories):
    trajs = three_level_50k_trajectories
    for a, b in itertools.combinations(("rme", "ume", "ule"), 2):
        npt.assert_array_equal(trajs[a].times, trajs[b].times)
        gap = np.max(np.abs(trajs[a].populations - trajs[b].populations))
        assert gap < 1e-3


def test_criterion_2_unblocked_hole_defect_grows_large():
    scenario = builtin_three_level(kind="ule", temperature=50.0,
                                   copropagate_hole=True,
                                   t_end=16000.0, samples=9)
    traj = integrate(scenario)
    assert traj.defect is not None
    assert traj.defect[-1] > 0.05


def test_criterion_2_blocked_hole_defect_stays_small():
    scenario = builtin_three_level(kind="ule", temperature=50.0,
                                   pauli_blocked=True,
                                   copropagate_hole=True,
                                   t_end=16000.0, samples=9)
    scenario.schedule = Schedule(t_end=16000.0, samples=9,
                                 rtol=1e-11, atol=1e-13)
    traj = integrate(scenario)
    assert traj.defect is not None
    assert np.max(traj.defect) < 1e-6


def test_criterion_3_three_level_residual_structure():
    setup = builtin_three_level(kind="ule", temperature=50.0).build()
    bath = BathModel(lam=0.01, temperature=50.0)
    c = 2.0 * np.pi * (spectral_function_ule(0.5, bath)
                       - spectral_function_ule(-0.5, bath))
    report = constraint_residual(setup.hamiltonian, setup.spec)
    npt.assert_allclose(report.residual_matrix,
                        c * np.diag([1.0, 0.0, -1.0]), atol=1e-12)


def test_criterion_3_benzene_projector_decomposition():
    scenario = builtin_benzene(kind="rme")
    setup = scenario.build()
    report = constraint_residual(setup.hamiltonian, setup.spec)
    projectors = {
        0.169: np.diag([2.0, -1.0, -1.0, 0.0, 0.0, 0.0]),
        0.260: np.diag([0.0, 0.0, 0.0, 1.0, 1.0, -2.0]),
        0.491: np.diag([0.0, 2.0, 2.0, -2.0, -2.0, 0.0]),
    }
    rebuilt = np.zeros((6, 6), dtype=complex)
    for w, proj in projectors.items():
        rebuilt += (rme_rates(w, w, scenario.bath)
                    - rme_rates(-w, -w, scenario.bath)) * proj
    assert max_norm(report.residual_matrix - rebuilt) < 1e-12
    assert len(report.per_channel) == len(projectors)
    for entry in report.per_channel:
        w = min(projectors, key=lambda k: abs(k - entry.frequency))
        asym = (rme_rates(w, w, scenario.bath)
                - rme_rates(-w, -w, scenario.bath)).real
        assert abs(entry.rate_asymmetry - asym) < 1e-12


@pytest.mark.parametrize("system", ["three-level", "benzene"])
@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
def test_criterion_3_symmetrized_rates_restore_unitality(system, kind):
    if system == "three-level":
        setup = builtin_three_level(kind=kind, temperature=50.0,
                                    clustering_threshold=0.0).build()
    else:
        setup = builtin_benzene(kind=kind,
                                clustering_threshold=0.091).build()
    sym = setup.spec.symmetrized()
    assert unitality_residual(setup.hamiltonian, sym) < 1e-12


def test_criterion_4_unblocked_benzene_overfills_ground_orbital(
        benzene_unblocked_trajectories):
    trajs = benzene_unblocked_trajectories
    for kind in ("rme", "ume", "ule"):
        ground = trajs[kind].populations[:, 0]
        assert np.max(ground) > 2.0
        assert ground[-1] >= 5.9
    times = trajs["rme"].times
    window = (times >= 400.0) & (times <= 1200.0)
    assert np.any(window)
    ume0 = trajs["ume"].populations[window, 0]
    for kind in ("rme", "ule"):
        other0 = trajs[kind].populations[window, 0]
        assert np.all(ume0 < other0)
        assert np.max(other0 - ume0) > 0.1


def test_criterion_5_blocked_benzene_bounds_and_steady_state(
        benzene_blocked_trajectories):
    for traj in benzene_blocked_trajectories.values():
        pops = traj.populations
        assert np.min(pops) >= 0.0
        assert np.max(pops) <= 2.0 + 1e-6
        npt.assert_allclose(traj.populations[-1], STEADY_BLOCKED, atol=1e-3)
        npt.assert_allclose(pops.sum(axis=1), 6.0, atol=1e-8)


def test_criterion_5_blocked_generators_are_unital(
        benzene_blocked_trajectories):
    for traj in benzene_blocked_trajectories.values():
        setup = traj.setup
        assert unitality_residual(setup.hamiltonian, setup.spec) < 1e-12
    extra = builtin_benzene(kind="ume", clustering_threshold=0.0,
                            pauli_blocked=True).build()
    assert unitality_residual(extra.hamiltonian, extra.spec) < 1e-12


def test_criterion_6_detailed_balance():
    bath300 = BathModel(lam=0.01, temperature=300.0)
    kt = bath300.thermal_energy
    for w in BENCH_FREQS:
        ratio = (spectral_function_ule(w, bath300)
                 / spectral_function_ule(-w, bath300))
        assert ratio == pytest.approx(np.exp(w / kt), rel=1e-9)
    # below ~100 K every benchmark absorption rate underflows float64, so
    # the ratio identity is checked on the defining formula in 40-digit
    # arithmetic instead
    for temperature in (10.0, 50.0):
        bath = BathModel(lam=0.01, temperature=temperature)
        for w in BENCH_FREQS:
            assert spectral_function_ule(-w, bath) == 0.0
    with mpmath.workdps(40):
        for temperature in (10.0, 50.0, 300.0):
            kt_m = mpmath.mpf(K_B) * temperature
            for w in BENCH_FREQS:
                x = mpmath.mpf(w) / kt_m
                n = 1 / mpmath.expm1(x)
                rel = abs((n + 1) / n - mpmath.e**x) / mpmath.e**x
                assert rel < 1e-9


def test_criterion_6_spectral_function_continuous_at_zero():
    for temperature in (10.0, 50.0, 300.0):
        bath = BathModel(lam=0.01, temperature=temperature)
        mid = spectral_function_ule(0.0, bath)
        for eps in (1e-9, -1e-9):
            assert abs(spectral_function_ule(eps, bath) - mid) < 1e-8


def test_criterion_6_one_sided_real_part_consistency():
    for temperature in (50.0, 300.0):
        bath = BathModel(lam=0.01, temperature=temperature)
        for w in BENCH_FREQS:
            g = spectral_function_redfield(w, bath)
            assert abs(g.real
                       - np.pi * spectral_function_ule(w, bath)) <= 1e-15


def test_criterion_6_principal_value_self_convergence():
    coarse = BathModel(lam=0.01, temperature=50.0, pv_points=2048)
    fine = BathModel(lam=0.01, temperature=50.0, pv_points=4096)
    for w in BENCH_FREQS:
        a = xi_integral(w, coarse)
        b = xi_integral(w, fine)
        assert abs(a - b) < 1e-8 * abs(b)


@pytest.mark.parametrize("system,kind,threshold", [
    ("three-level", "rme", 0.0),
    ("three-level", "ume", 0.0),
    ("three-level", "ule", 0.0),
    ("benzene", "rme", 0.0),
    ("benzene", "ume", 0.091),
    ("benzene", "ule", 0.0),
])
def test_criterion_7_adaptive_rk_matches_matrix_exponential(
        system, kind, threshold):
    if system == "three-level":
        scenario = builtin_three_level(kind=kind, temperature=50.0,
                                       clustering_threshold=threshold,
                                       t_end=16000.0, samples=9)
    else:
        scenario = builtin_benzene(kind=kind,
                                   clustering_threshold=threshold,
                                   t_end=16000.0, samples=9)
    scenario.schedule = Schedule(t_end=16000.0, samples=9, method="DOP853")
    traj = integrate(scenario, verify_expm=True)
    assert traj.metadata["expm_max_population_deviation"] < 1e-8


def test_criterion_7_superoperator_functionals(
        three_level_50k_trajectories, benzene_unblocked_trajectories):
    setups = [traj.setup
              for traj in three_level_50k_trajectories.values()]
    setups += [traj.setup
               for traj in benzene_unblocked_trajectories.values()]
    assert len(setups) == 6
    for setup in setups:
        sup = superoperator_matrix(setup.hamiltonian, setup.spec)
        d = setup.spec.dim
        # the trace functional is a left null vector of every generator
        trace_row = np.eye(d).flatten(order="F") @ sup
        assert np.max(np.abs(trace_row)) < 1e-12
        filled = setup.spec.chi * np.eye(d)
        image = (sup @ filled.flatten(order="F")).reshape((d, d), order="F")
        residual = unitality_residual(setup.hamiltonian, setup.spec)
        assert abs(max_norm(image) - residual) < 1e-12


def _random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def test_criterion_8_structural_identities_on_random_systems():
    rng = np.random.default_rng(88)
    bath = BathModel(lam=0.01, temperature=300.0)
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        chi = float(rng.choice([1.0, 2.0]))
        h = SystemHamiltonian.from_matrix(_random_hermitian(rng, d))
        a = CouplingOperator("x", _random_hermitian(rng, d))
        w = _random_hermitian(rng, d)
        scale = float(np.max(np.abs(np.linalg.eigvalsh(w))))
        assert scale > 0.0
        rho = 0.9 * chi * w / scale

        ule = build_generator(h, [a], bath, MEKind.ULE, chi)
        assert max_norm(sum(ule.couplings)
                        - h.to_eigenbasis(a.matrix)) < 1e-10

        ume = build_generator(h, [a], bath, MEKind.UME, chi,
                              clustering_threshold=0.0)
        d_ule = dissipator_ule(rho, ule)
        d_ume = dissipator(rho, ume)
        for diss in (d_ule, d_ume):
            assert max_norm(diss - diss.conj().T) < 1e-12
            assert abs(np.trace(diss)) < 1e-12

        # threshold zero must reduce the clustered generator to the
        # secular one, frequency by frequency
        secular = np.zeros_like(rho)
        rates = union_values(ume, ume.rates.rate)
        labels = union_values(ume, ume.rates.cluster)
        for freq in ume.frequencies:
            rate = 2.0 * np.pi * spectral_function_ule(freq, bath)
            assert abs(rates[freq] - rate) < 1e-12
            for other in ume.frequencies:
                if other != freq:
                    # pairs of channels in two clusters carry no rate
                    assert labels[freq] != labels[other]
            aw = channel_operator(ume.channel_sets[0], freq)
            anti = aw.conj().T @ aw
            secular += rate * (aw @ rho @ aw.conj().T
                               - 0.5 * (anti @ rho + rho @ anti))
        assert max_norm(d_ume - secular) < 1e-12

        assert max_norm(Oracle(h, ule).dissipator(rho) - d_ule) < 1e-12

        for kind, threshold in ((MEKind.ULE, None), (MEKind.UME, 0.0)):
            blocked = build_generator(h, [a], bath, kind, chi,
                                      clustering_threshold=threshold,
                                      pauli_blocked=True)
            assert unitality_residual(h, blocked) < 1e-12
        checked += 1
    assert checked == 1000
