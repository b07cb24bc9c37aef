"""Invariants and oracle agreement of every generator well beyond d = 6.

Random systems have d in {8, 12, 16} levels (one blocked example has 20).
Their spectra are generic, or built from pairs of levels split by 1e-10 or
by 1e-8, on either side of the degeneracy tolerance 1e-9: the first pairs
merge into two-level subspaces, the second stay apart and give Bohr
frequencies of +-1e-8. Every kind is checked blocked and unblocked, with
and without the Lamb shift, against the channel-pair oracle in
``oracle.py``.

The principal-value quadratures are replaced by closed forms in this module.
The identities hold for any real coefficients, and the oracle reads the same
replaced functions, so the comparison tests the algebra; at d = 16 the real
quadratures would take seconds to minutes per system.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdmprop.bath
import rdmprop.generators
from rdmprop.bath import BathModel
from rdmprop.core import CouplingOperator, SystemHamiltonian, max_norm
from rdmprop.generators import build_generator, liouvillian_action
from rdmprop.propagate import build_blocked_rhs, build_packed_generator, \
    pack_hermitian, unpack_hermitian
from rdmprop.representability import unitality_residual

from oracle import Oracle

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
    drho = liouvillian_action(rho, h, spec)
    assert_trace_and_hermiticity(drho)
    assert max_norm(drho - oracle.liouvillian(rho)) < TOL
    if lamb:
        assert max_norm(spec.lamb_hamiltonian() - oracle.lamb) < TOL
    assert max_norm(build_packed_generator(h, spec)
                    - oracle.packed_generator()) < TOL


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
    rhs = build_blocked_rhs(h, spec)
    y = pack_hermitian(rho)
    drho = unpack_hermitian(rhs(0.0, y), d)
    assert_trace_and_hermiticity(drho)
    assert max_norm(drho - oracle.liouvillian(rho, oracle.root(rho))) < TOL
    assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < TOL
    # clamped factors: one subspace at chi + 0.025, as blocked rme reaches,
    # then one far past chi and one below zero occupancy
    for shifts in ({0: chi + 0.025}, {0: chi + 0.025, 1: 1.5 * chi, 2: -0.1}):
        over = rho.copy()
        for s, target in shifts.items():
            idx = list(spec.subspaces[s])
            over[idx, idx] += target - np.mean(np.real(rho[idx, idx]))
        y = pack_hermitian(over)
        assert oracle.root(over)[0] == 0.0
        assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < TOL
    # the filled state is stationary
    assert unitality_residual(h, spec) < TOL


def test_blocked_build_memory_at_d16():
    """A blocked build keeps one stack of at most 4 + 2m packed maps and
    never holds much more than that while it builds."""
    h, a, _ = random_system(7, 16, None)
    a = CouplingOperator("x", 0.3 * a.matrix)
    spec = build_generator(h, a, BATH, "rme", chi=1.0, pauli_blocked=True)
    m = len(spec.subspaces)
    tracemalloc.start()
    try:
        rhs = build_blocked_rhs(h, spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m == 16
    stack_bytes = 8 * (4 + 2 * m) * 16**4
    assert peak < 32e6
    assert kept < stack_bytes + 2e5
    assert rhs(0.0, pack_hermitian(np.eye(16))).shape == (256,)


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
