"""Invariants and oracle agreement of every generator well beyond d = 6.

Random systems have d in {8, 10, 12, 16} levels (one blocked example has
20; the compact map is also checked at 2 to 6).
Their spectra are generic, or built from pairs of levels split by 1e-10 or
by 1e-8, on either side of the degeneracy tolerance 1e-9: the first pairs
merge into two-level subspaces, the second stay apart and give Bohr
frequencies of +-1e-8. Every kind is checked blocked and unblocked, with
and without the Lamb shift, against the channel-pair oracle in
``oracle.py``. The evaluations of a blocked generator, the compact map
in its ELL layout and the kernel, are compared with each other and with
the oracle at d in {2, 3, 4, 5, 6, 8, 10, 12, 16}, on both builtins and
on the 6-ring with its degenerate shells, and so is the pair-major
layout of the compact map up to d = 6; the kernel is also compared with
the oracle at d = 32. The filled-state constraint, detailed balance,
hole co-propagation and the blocked d = 32 runs use the baseline family
of sorted uniform spectra with one random coupling.

The principal-value quadratures are replaced by closed forms in this module.
The identities hold for any real coefficients, and the oracle reads the same
replaced functions, so the comparison tests the algebra; at d = 16 the real
quadratures would take seconds to minutes per system.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdmprop.bath
import rdmprop.generators
from rdmprop.bath import BathModel
from rdmprop.benchmarks import BENCHMARKS
from rdmprop._numerics import dop853
from rdmprop.core import CouplingOperator, SystemHamiltonian, max_norm
from rdmprop.generators import build_generator
from rdmprop.propagate import Schedule, _compact_rhs, _kernel_rhs, \
    build_packed_generator, pack_hermitian, propagate_state, \
    unpack_hermitian
from rdmprop.representability import constraint_residual, \
    copropagate_hole, unitality_residual

from oracle import Oracle
from ring import CHI, ring_scenario

BATH = BathModel(lam=0.01, temperature=300.0)
TOL = 1e-12


def closed_form_xi(omega, bath):
    return bath.lam**2 * (omega + 0.3 * bath.lam) / (omega**2 + bath.lam**2)


def closed_form_lamb(a, b, bath):
    # symmetric under (a, b) -> (-b, -a), like the integral, which keeps the
    # ule level shift Hermitian
    return bath.lam * (a - b) + bath.lam**2 * np.cos((a + b) / bath.lam)


@pytest.fixture(scope="module", autouse=True)
def closed_form_quadratures():
    with pytest.MonkeyPatch.context() as mp:
        for module in (rdmprop.bath, rdmprop.generators):
            mp.setattr(module, "xi_integral", closed_form_xi)
            mp.setattr(module, "ule_lamb_coefficient", closed_form_lamb)
        yield


def random_system(seed, d, split):
    """Spectrum and complex Hermitian coupling; with ``split``, the levels
    come in pairs that far apart."""
    rng = np.random.default_rng(seed)
    if split is None:
        energies = rng.uniform(-0.5, 0.5, d)
    else:
        centers = rng.uniform(-0.5, 0.5, d // 2)
        energies = np.concatenate([centers, centers + split])
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (SystemHamiltonian.from_energies(energies),
            CouplingOperator("x", 0.5 * (b + b.conj().T)), rng)


def random_state(rng, d, chi):
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = c @ c.conj().T
    return w * (0.9 * chi / np.linalg.eigvalsh(w).max())


def assert_trace_and_hermiticity(drho):
    assert max_norm(drho - drho.conj().T) < TOL
    assert abs(np.trace(drho)) < TOL


SYSTEMS = dict(seed=st.integers(0, 2**32 - 1),
               d=st.sampled_from((8, 12, 16)),
               split=st.sampled_from((None, 1e-10, 1e-8)),
               lamb=st.booleans(),
               threshold=st.sampled_from((0.0, 0.02)))


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
@settings(max_examples=2, deadline=None)
@example(seed=1, d=16, split=1e-10, lamb=True, threshold=0.0)
@example(seed=2, d=12, split=1e-8, lamb=False, threshold=0.02)
@example(seed=3, d=8, split=None, lamb=True, threshold=0.02)
@given(**SYSTEMS)
def test_linear_generator_matches_oracle(kind, seed, d, split, lamb,
                                         threshold):
    h, a, rng = random_system(seed, d, split)
    spec = build_generator(h, a, BATH, kind, chi=1.0, lamb_shift=lamb,
                           clustering_threshold=threshold)
    oracle = Oracle(h, spec)
    rho = random_state(rng, d, 1.0)
    gmat = build_packed_generator(h, spec).matrix
    drho = unpack_hermitian(gmat @ pack_hermitian(rho), d)
    assert_trace_and_hermiticity(drho)
    assert max_norm(drho - oracle.liouvillian(rho)) < TOL
    if lamb:
        assert max_norm(spec.lamb_hamiltonian - oracle.lamb) < TOL
    assert max_norm(gmat - oracle.packed_generator()) < TOL


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
@settings(max_examples=2, deadline=None)
@example(seed=4, d=16, split=1e-8, lamb=True, threshold=0.02)
@example(seed=5, d=12, split=1e-10, lamb=False, threshold=0.0)
@example(seed=6, d=8, split=None, lamb=True, threshold=0.0)
@example(seed=7, d=20, split=None, lamb=True, threshold=0.0)
@given(**SYSTEMS)
def test_blocked_generator_matches_oracle(kind, seed, d, split, lamb,
                                          threshold):
    h, a, rng = random_system(seed, d, split)
    chi = 2.0
    spec = build_generator(h, a, BATH, kind, chi=chi, lamb_shift=lamb,
                           clustering_threshold=threshold,
                           pauli_blocked=True)
    oracle = Oracle(h, spec)
    rho = random_state(rng, d, chi)
    rhs = build_packed_generator(h, spec)
    y = pack_hermitian(rho)
    drho = unpack_hermitian(rhs(0.0, y), d)
    assert_trace_and_hermiticity(drho)
    assert max_norm(drho - oracle.liouvillian(rho, oracle.root(rho))) < TOL
    assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < TOL
    # clamped factors
    for over in list(clamped_states(spec, rho))[1:]:
        y = pack_hermitian(over)
        assert oracle.root(over)[0] == 0.0
        assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < TOL
    # the filled state is stationary
    assert unitality_residual(h, spec) < TOL


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
@pytest.mark.parametrize("d,split", [(8, None), (16, 1e-10)])
def test_linear_is_blocked_at_unit_vacancy(kind, d, split):
    # every subspace holds chi - 1 per level, so every blocking factor is 1
    h, a, rng = random_system(11, d, split)
    chi = 2.0
    specs = [build_generator(h, a, BATH, kind, chi=chi, lamb_shift=True,
                             clustering_threshold=0.02, pauli_blocked=blocked)
             for blocked in (False, True)]
    gmat = build_packed_generator(h, specs[0]).matrix
    rhs = build_packed_generator(h, specs[1])
    assert rhs.matrix is None
    for _ in range(3):
        rho = random_state(rng, d, chi)
        np.fill_diagonal(rho, chi - 1.0)
        y = pack_hermitian(rho)
        assert max_norm(rhs(0.0, y) - gmat @ y) < TOL


def test_blocked_build_memory_at_d16():
    """At d = 16 a blocked generator runs the kernel: neither the build
    nor a call holds a d^2 x d^2 map (8 * 16^4 bytes = 524 kB) or much
    else."""
    h, a, _ = random_system(7, 16, None)
    a = CouplingOperator("x", 0.3 * a.matrix)
    spec = build_generator(h, a, BATH, "rme", chi=1.0, pauli_blocked=True)
    assert len(spec.subspaces) == 16
    y = pack_hermitian(0.5 * np.eye(16))
    tracemalloc.start()
    try:
        rhs = build_packed_generator(h, spec)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = rhs(0.0, y)
        call_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2e5
    assert kept < 2e5
    assert call_peak < 2e5
    assert out.shape == (256,)


def clamped_states(spec, rho):
    """``rho``, then rho with one subspace at chi + 0.025, as blocked rme
    reaches, then also one far past chi and one below zero occupancy (as
    far as there are subspaces)."""
    yield rho
    chi = spec.chi
    for shifts in ({0: chi + 0.025}, {0: chi + 0.025, 1: 1.5 * chi, 2: -0.1}):
        over = rho.copy()
        for s, target in list(shifts.items())[:len(spec.subspaces)]:
            idx = list(spec.subspaces[s])
            over[idx, idx] += target - np.mean(np.real(rho[idx, idx]))
        yield over


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
@pytest.mark.parametrize("system", [2, 3, 4, 5, 6, 8, 10, 12, 16,
                                    "three-level", "benzene", "ring-6"])
def test_compact_map_and_kernel_agree(kind, system):
    # random systems have one subspace per level; benzene's degenerate
    # shells give m = 4 subspaces for d = 6, and so do the 6-ring's
    if system == "ring-6":
        scenario = ring_scenario(6, np.full(6, CHI / 2), kind,
                                 pauli_blocked=True, temperature=300.0)
        scenario.lamb_shift = True
        setup = scenario.build()
        h, spec = setup.hamiltonian, setup.spec
        rng = np.random.default_rng(6)
    elif system in BENCHMARKS:
        setup = BENCHMARKS[system](kind=kind, pauli_blocked=True,
                                   lamb_shift=True,
                                   clustering_threshold=0.02).build()
        h, spec = setup.hamiltonian, setup.spec
        rng = np.random.default_rng(0)
    else:
        h, a, rng = random_system(20 + system, system, None)
        spec = build_generator(h, a, BATH, kind, chi=2.0, lamb_shift=True,
                               clustering_threshold=0.02, pauli_blocked=True)
    d, chi = h.dim, spec.chi
    routes = {"ell": _compact_rhs(h, spec, False),
              "kernel": _kernel_rhs(h, spec)}
    if d <= 6:
        routes["pair-major"] = _compact_rhs(h, spec, True)
    # pair-major while its table fits in PAIR_BYTES (10.7 kB at d = 3,
    # 51.8 kB at d = 4 with m = 4), ELL up to d = 10, then the kernel
    chosen = "pair-major" if d <= 3 else "ell" if d <= 10 else "kernel"
    assert build_packed_generator(h, spec).__code__ is \
        routes[chosen].__code__
    oracle = Oracle(h, spec)
    for rho in clamped_states(spec, random_state(rng, d, chi)):
        y = pack_hermitian(rho)
        expected, kernel = oracle.blocked_rhs(y), routes["kernel"](0.0, y)
        for route, rhs in routes.items():
            assert max_norm(rhs(0.0, y) - expected) < TOL, route
            assert max_norm(rhs(0.0, y) - kernel) < TOL, route
    filled = pack_hermitian(chi * np.eye(d))
    for route, rhs in routes.items():
        image = max_norm(rhs(0.0, filled))
        # the terms cancel exactly on the ring's real 0/1 couplings, and
        # to rounding on random ones (up to 1.5e-17 for ume)
        if system == "ring-6":
            assert image == 0.0, route
        else:
            assert image < TOL, route


def stage_functions(d):
    """The linear right-hand side of a random d-level system and the
    compact map in both layouts (pair-major up to d = 8) and the kernel
    of its blocked spec, with a random state generator."""
    h, a, rng = random_system(30 + d, d, None)
    linear, blocked = (build_generator(h, a, BATH, "rme", chi=1.0,
                                       pauli_blocked=b) for b in (False, True))
    funs = {"linear": build_packed_generator(h, linear),
            "ell": _compact_rhs(h, blocked, False),
            "kernel": _kernel_rhs(h, blocked)}
    if d <= 8:
        funs["pair-major"] = _compact_rhs(h, blocked, True)
    return funs, rng


@pytest.mark.parametrize("d", [3, 8, 16])
def test_right_hand_sides_write_into_out_what_they_return(d):
    funs, rng = stage_functions(d)
    y, z = (pack_hermitian(random_state(rng, d, 1.0)) for _ in range(2))
    for route, fun in funs.items():
        fresh = fun(0.0, y)
        kept = fresh.copy()
        out = np.full(d * d, np.nan)
        assert fun(0.0, y, out) is out, route
        assert np.array_equal(out, fresh), route
        # no buffer of the function escapes: later calls, fresh or into
        # ``out``, leave an array it returned unchanged
        other = fun(0.0, z)
        fun(0.0, z, out)
        assert np.array_equal(fresh, kept), route
        assert np.array_equal(other, out), route
        assert not np.array_equal(other, fresh), route


@pytest.mark.parametrize("d", [3, 8, 16])
def test_dop853_integrates_fresh_and_written_results_alike(d):
    funs, rng = stage_functions(d)
    y0 = pack_hermitian(random_state(rng, d, 1.0))
    t_eval = np.linspace(0.0, 5.0, 7)
    for route, fun in funs.items():
        written, nfev = dop853(fun, y0, t_eval, 1e-9, 1e-11)
        fresh, fresh_nfev = dop853(lambda t, y, out: fun(t, y), y0, t_eval,
                                   1e-9, 1e-11)
        assert nfev == fresh_nfev, route
        assert np.array_equal(written, fresh), route


@pytest.mark.parametrize("kind", ["rme", "ule"])
def test_blocked_kernel_at_d32(kind):
    h, a = baseline_system(32)
    spec = build_generator(h, a, BATH, kind, chi=1.0, pauli_blocked=True)
    rhs = build_packed_generator(h, spec)
    assert rhs.__code__ is _kernel_rhs(h, spec).__code__
    oracle = Oracle(h, spec)
    rng = np.random.default_rng(3)
    for rho in list(clamped_states(spec, random_state(rng, 32, 1.0)))[:2]:
        y = pack_hermitian(rho)
        assert_trace_and_hermiticity(unpack_hermitian(rhs(0.0, y), 32))
        assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < TOL
    rho0 = np.diag(np.repeat([1.0, 0.0], 16)).astype(complex)
    traj = propagate_state(h, spec, rho0, Schedule(t_end=200.0, samples=50))
    assert traj.metadata["method"] == "DOP853"
    assert np.abs(traj.traces - 16.0).max() < TOL
    states = traj.states
    assert max_norm(states - states.conj().transpose(0, 2, 1)) < TOL


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
@pytest.mark.parametrize("shells", [(7, 2), (3, 3, 3), (1, 2, 3), (5, 6, 7)])
@pytest.mark.parametrize("chi", [0.3, 1.7, 3.3])
def test_blocked_generator_is_unital_for_any_shell_size(kind, shells, chi):
    # a vacancy chi - mean(n_s) over 3, 6, 7 levels does not round to
    # exactly zero at chi*1 unless chi is formed as the filled state forms it
    energies = np.repeat(0.3 * np.arange(len(shells)), shells)
    d = energies.size
    b = np.random.default_rng(0).standard_normal((d, d, 2)) @ [1.0, 1j]
    a = CouplingOperator("x", 0.5 * (b + b.conj().T))
    h = SystemHamiltonian.from_energies(energies)
    spec = build_generator(h, a, BATH, kind, chi=chi, clustering_threshold=0.0,
                           pauli_blocked=True)
    assert spec.subspaces[0] == tuple(range(shells[0]))
    assert unitality_residual(h, spec) < TOL


def baseline_system(d, seed=0):
    """Sorted uniform energies on [0, 1] and one coupling 0.3 (g + g^+) / 2
    with complex Gaussian g."""
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(0.0, 1.0, d))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (SystemHamiltonian.from_energies(energies),
            CouplingOperator("x", 0.15 * (g + g.conj().T)))


@pytest.mark.parametrize("kind", ["ume", "ule"])
@pytest.mark.parametrize("d", [8, 16, 32])
def test_blocked_hole_copropagation_keeps_the_complement(kind, d):
    # criterion 2 beyond the builtins, at the default tolerances
    h, a = baseline_system(d)
    spec = build_generator(h, a, BATH, kind, chi=1.0,
                           clustering_threshold=0.0, pauli_blocked=True)
    rho0 = np.diag(np.repeat([1.0, 0.0], d // 2)).astype(complex)
    schedule = Schedule(t_end=200.0, samples=50)
    particle = propagate_state(h, spec, rho0, schedule)
    hole = copropagate_hole(np.eye(d) - rho0, h, spec, schedule, particle)
    assert float(np.max(hole.defect)) <= 1e-6


@pytest.mark.xfail(strict=True, reason="blocked rme breaks the complement "
                   "at every tolerance; whether through the paper's "
                   "positivity issues or a fault of the blocked rme "
                   "generator is open (ROADMAP items 11 and 6)")
def test_blocked_rme_hole_copropagation_keeps_the_complement_at_d8():
    # the defect reads 5.5e-3 with this module's closed-form quadratures,
    # natural occupations in [-9.2e-4, 1.00054]; ROADMAP records 1.2e-2
    # with the real ones. ume and ule keep it below 1e-6 on the same system
    h, a = baseline_system(8)
    spec = build_generator(h, a, BATH, "rme", chi=1.0,
                           clustering_threshold=0.0, pauli_blocked=True)
    rho0 = np.diag(np.repeat([1.0, 0.0], 4)).astype(complex)
    schedule = Schedule(t_end=200.0, samples=50)
    particle = propagate_state(h, spec, rho0, schedule)
    hole = copropagate_hole(np.eye(8) - rho0, h, spec, schedule, particle)
    assert float(np.max(hole.defect)) <= 1e-6


@pytest.mark.parametrize("kind", ["ule", "ume"])
@pytest.mark.parametrize("d", [8, 16, 32])
def test_constraint_beyond_six_levels(kind, d):
    h, a = baseline_system(d)
    raw = build_generator(h, a, BATH, kind, chi=1.0,
                          clustering_threshold=0.0)
    # the raw residual is the sum over channel pairs of their rate
    # asymmetries, read from the generator a run integrates
    report = constraint_residual(h, raw)
    assert report.pair_sum_norm == pytest.approx(report.residual_norm,
                                                 rel=1e-12)
    assert report.residual_norm == unitality_residual(h, raw)
    # symmetrized rates annihilate chi*1 and keep occupations in [0, chi]
    spec = raw.symmetrized()
    assert unitality_residual(h, spec) <= TOL
    rho0 = np.diag(np.repeat([1.0, 0.0], d // 2)).astype(complex)
    traj = propagate_state(h, spec, rho0, Schedule(t_end=200.0, samples=50))
    assert traj.metadata["method"] == "expm"
    assert traj.occupations.min() >= -1e-10
    assert traj.occupations.max() <= spec.chi + 1e-10


@pytest.mark.parametrize("kind", ["rme", "ule", "ume"])
@pytest.mark.parametrize("d", [8, 16, 32])
def test_detailed_balance_beyond_six_levels(kind, d):
    # the decay rates of a level pair and of its mirror, at the negated
    # frequency, differ by the Boltzmann factor exp(-w/kT) of the pair
    h, a = baseline_system(d)
    spec = build_generator(h, a, BATH, kind, chi=1.0,
                           clustering_threshold=0.0)
    (rate,) = spec.decay_rate_arrays()
    (position,) = spec.union_positions
    w = np.append(spec.frequencies, np.nan)[position]
    assert np.array_equal(w, -w.T, equal_nan=True)
    assert np.all(rate.imag == 0.0)
    up = w > 0
    emission, absorption = rate.real[up], rate.real.T[up]
    boltzmann = np.exp(-w[up] / BATH.thermal_energy)
    # pairs whose absorption rate leaves the normal float range are skipped
    kept = boltzmann * emission >= np.finfo(float).tiny
    assert kept.sum() >= d
    npt.assert_allclose(absorption[kept], boltzmann[kept] * emission[kept],
                        rtol=1e-12, atol=0.0)
