"""Generators of the n-site ring (``ring.py``), a degenerate family.

At n = 6, 10, 18 and 30, every kind, blocked and unblocked, with and
without the Lamb shift: the generator a run integrates keeps the trace
and Hermiticity, the blocked one annihilates the filled state exactly,
and the decay rates obey detailed balance. Past n = 10 a blocked
generator runs the O(K d^3) kernel, not the compact map, so both
evaluations are held to the same invariants. The blocking record reports
the overfill of one orbital of a half-empty shell, which the
shell-averaged vacancy does not see; on the 10-ring the same overfill
breaks the particle-hole complement. Starts that fill the two partners
of every shell alike relax under blocked ume to the aufbau state at
50 K and to Fermi-Dirac occupations at 20,000 K.
"""

import numpy as np
import numpy.testing as npt
import pytest

from rdmprop.bath import BathModel
from rdmprop.core import max_norm
from rdmprop.propagate import build_packed_generator, integrate, \
    pack_hermitian, unpack_hermitian
from rdmprop.representability import audit_trajectory, unitality_residual

from ring import CHI, ring_momenta, ring_scenario, ring_system

KINDS = ["rme", "ume", "ule"]
SIZES = [6, 10, 18, 30]
# the asymmetric start: k = 0 and k = 1 full, their partners -1 and 2
# half full, so shell +-1 holds 3 electrons and shell +-2 one
OVERFILL_START = [2.0, 2.0, 1.0, 1.0, 0.0, 0.0]


def _spec(n, kind, blocked, lamb_shift=False):
    scenario = ring_scenario(n, np.full(n, CHI / 2), kind,
                             pauli_blocked=blocked, temperature=300.0)
    scenario.lamb_shift = lamb_shift
    setup = scenario.build()
    return setup.hamiltonian, setup.spec


def _random_state(rng, n):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = c @ c.conj().T
    return w * (0.9 * CHI / np.linalg.eigvalsh(w).max())


@pytest.mark.parametrize("n", SIZES)
def test_ring_levels_and_couplings(n):
    h, couplings = ring_system(n)
    momenta = np.array(ring_momenta(n))
    assert sorted(momenta % n) == list(range(n))
    # the level order is ascending, so no level moved in the sort
    npt.assert_array_equal(h.energies, -0.5 * np.cos(2 * np.pi * momenta / n))
    # doubly degenerate shells +-k; k = 0 and k = n/2 alone
    assert [len(g) for g in h.degenerate_groups] == \
        [1] + [2] * (n // 2 - 1) + [1]
    # every orbital couples to its two neighbours k - 1 and k + 1
    assert len(couplings) == n
    total = sum(c.matrix for c in couplings)
    npt.assert_array_equal(total, total.T)
    npt.assert_array_equal(total.sum(axis=0), 2.0)


@pytest.mark.parametrize("lamb_shift", [False, True])
@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_ring_generator_keeps_trace_and_hermiticity(n, kind, blocked,
                                                    lamb_shift):
    h, spec = _spec(n, kind, blocked, lamb_shift)
    rhs = build_packed_generator(h, spec)
    rng = np.random.default_rng(n)
    for _ in range(3):
        drho = unpack_hermitian(rhs(0.0, pack_hermitian(_random_state(
            rng, n))), n)
        assert max_norm(drho - drho.conj().T) < 1e-12
        assert abs(np.trace(drho)) < 1e-12


@pytest.mark.parametrize("lamb_shift", [False, True])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_blocked_ring_generator_is_exactly_unital(n, kind, lamb_shift):
    h, spec = _spec(n, kind, True, lamb_shift)
    assert unitality_residual(h, spec) == 0.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_ring_rates_obey_detailed_balance(n, kind):
    # the decay rates of a level pair and of its mirror differ by the
    # Boltzmann factor exp(-w/kT) of the pair
    h, spec = _spec(n, kind, False)
    thermal = BathModel(lam=0.01, temperature=300.0).thermal_energy
    for rate, position in zip(spec.decay_rate_arrays(),
                              spec.union_positions):
        # a channel labels every level pair of its two shells
        w = np.append(spec.frequencies, np.nan)[position]
        assert np.array_equal(w, -w.T, equal_nan=True)
        assert np.all(rate.imag == 0.0)
        up = w > 0
        assert up.any()
        assert np.all(rate.real[up] > 0.0) and np.all(rate.real.T[up] > 0.0)
        npt.assert_allclose(rate.real.T[up],
                            np.exp(-w[up] / thermal) * rate.real[up],
                            rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module")
def overfilled_runs():
    """Blocked 6-ring runs from the asymmetric start at 50 K."""
    return {kind: integrate(ring_scenario(6, OVERFILL_START, kind,
                                          pauli_blocked=True))
            for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
def test_blocked_record_reports_the_ring_overfill(overfilled_runs, kind):
    # the shell average +-1 stays at or below chi, so no vacancy is
    # negative; orbital k = 1 of that shell passes chi all the same
    traj = overfilled_runs[kind]
    blocking = traj.metadata["blocking"]
    assert blocking["min_vacancy"] == 0.0
    assert blocking["clamped_samples"] == 0
    assert blocking["max_population"] == traj.populations.max()
    assert blocking["max_population"] == pytest.approx(2.5568, abs=1e-4)
    overfilled = (traj.populations > CHI + 1e-6).any(axis=1)
    assert blocking["overfilled_samples"] == overfilled.sum() == 200


@pytest.mark.xfail(strict=True, reason="blocking reads the shell-averaged "
                   "vacancy, so one orbital of a shell overfills "
                   "(ROADMAP item 6)")
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_ring_stays_in_bounds(overfilled_runs, kind):
    report = audit_trajectory(overfilled_runs[kind])
    assert -report.tol <= report.min_population
    assert report.max_population <= CHI + report.tol
    assert not report.violation


# partners of a shell filled alike, one electron per level: the k = 0
# level full and the top one empty, half filling (n electrons)
SYMMETRIC_STARTS = {6: [2.0, 1.0, 1.0, 1.0, 1.0, 0.0],
                    10: [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]}


def fermi_dirac(energies, electrons, kt):
    """chi / (1 + exp((E - mu)/kT)), mu bisected until the occupations
    sum to ``electrons``."""
    low, high = energies.min() - 50.0 * kt, energies.max() + 50.0 * kt
    for _ in range(200):
        mu = 0.5 * (low + high)
        if (CHI / (1.0 + np.exp((energies - mu) / kt))).sum() > electrons:
            high = mu
        else:
            low = mu
    return CHI / (1.0 + np.exp((energies - mu) / kt))


@pytest.mark.parametrize("n", [6, 10])
def test_blocked_ume_symmetric_start_reaches_aufbau(n):
    # criterion 5's tolerance. The last electrons fill their shell
    # algebraically, about 800 / t: at t = 2e6 the ends are 4.0e-4
    # (n = 6) and 2.5e-4 (n = 10) off
    traj = integrate(ring_scenario(n, SYMMETRIC_STARTS[n], "ume",
                                   pauli_blocked=True, t_end=2e6,
                                   samples=5))
    aufbau = np.repeat([CHI, 0.0], [n // 2, n - n // 2])
    npt.assert_allclose(traj.populations[-1], aufbau, atol=1e-3)


@pytest.mark.parametrize("n", [6, 10])
def test_blocked_ume_symmetric_start_reaches_fermi_dirac(n):
    # at 20,000 K the shell above the Fermi level holds 0.038 (n = 6) and
    # 0.16 (n = 10) per level; at t = 2e5 the ends are 3.5e-10 and 2.3e-12
    # off
    temperature = 20000.0
    scenario = ring_scenario(n, SYMMETRIC_STARTS[n], "ume",
                             pauli_blocked=True, temperature=temperature,
                             t_end=2e5, samples=5)
    traj = integrate(scenario)
    energies = ring_system(n)[0].energies
    thermal = fermi_dirac(energies, n,
                          BathModel(lam=0.01,
                                    temperature=temperature).thermal_energy)
    aufbau = np.repeat([CHI, 0.0], [n // 2, n - n // 2])
    assert np.abs(thermal - aufbau).max() > 1e-2
    npt.assert_allclose(traj.populations[-1], thermal, atol=1e-8, rtol=0.0)


@pytest.fixture(scope="module")
def ring10_hole_runs():
    """Blocked 10-ring runs from an asymmetric start at 50 K, t_end 500,
    with the hole co-propagated."""
    runs = {}
    for kind in KINDS:
        scenario = ring_scenario(10, [2.0, 2.0, 1.0, 1.0, 0.0, 0.0, 2.0,
                                      0.0, 0.0, 0.0], kind,
                                 pauli_blocked=True, t_end=500.0)
        scenario.copropagate_hole = True
        runs[kind] = integrate(scenario)
    return runs


def test_blocked_ume_overfills_the_10_ring(ring10_hole_runs):
    # shells +-1, +-2 and +-3 start with 3, 1 and 2 electrons, the last
    # two in k = -3 alone; orbital k = 1 passes chi
    blocking = ring10_hole_runs["ume"].metadata["blocking"]
    assert blocking["min_vacancy"] == 0.0
    assert blocking["max_population"] == pytest.approx(2.3405, abs=1e-4)
    assert blocking["overfilled_samples"] == 200


@pytest.mark.xfail(strict=True, reason="blocking reads the shell-averaged "
                   "vacancy, and the overfilled orbital breaks the "
                   "particle-hole complement (ROADMAP item 6)")
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_10_ring_hole_copropagation_keeps_the_complement(
        ring10_hole_runs, kind):
    # the defect reads 0.7716 for every kind
    assert float(np.max(ring10_hole_runs[kind].defect)) <= 1e-6
