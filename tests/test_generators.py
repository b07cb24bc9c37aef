"""Dissipator construction, rate tables, Pauli blocking, and Lamb shifts."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdmprop.generators
from rdmprop.bath import BathModel, spectral_function_ule, \
    ule_lamb_coefficient, ule_rate
from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.core import (
    CouplingOperator,
    DimensionError,
    SystemHamiltonian,
    hermiticity_defect,
    max_norm,
)
from rdmprop.generators import (
    MEKind,
    _sandwich,
    build_generator,
    lamb_shift_hamiltonian,
    particle_hole_transform,
)
from rdmprop.propagate import build_packed_generator, pack_hermitian, \
    unpack_hermitian
from rdmprop.representability import unitality_residual

from oracle import Oracle, channel_operator, cluster_center, \
    dissipator_ule, rme_rates, ule_jump_operators, union_values

BATH_50K = BathModel(lam=0.01, temperature=50.0)
BATH_300K = BathModel(lam=0.01, temperature=300.0)


def random_hermitian(rng, d):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (b + b.conj().T)


def random_state(rng, d, chi):
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = c @ c.conj().T
    return w * (0.9 * chi / np.linalg.eigvalsh(w).max())


def dissipator(rho, spec):
    """Linear dissipator D(a, a) rho on full matrices, from the sandwich
    the packed generator is assembled from."""
    out, anti = _sandwich(spec, spec.couplings, spec.couplings, rho)
    return out - 0.5 * (anti @ rho + rho @ anti)


def build_benchmark_spec(scenario):
    return scenario.build()


@pytest.fixture(scope="module")
def three_ule():
    return builtin_three_level(kind="ule", temperature=50.0).build()


@pytest.fixture(scope="module")
def three_rme():
    return builtin_three_level(kind="rme", temperature=50.0).build()


@pytest.fixture(scope="module")
def benzene_ume():
    return builtin_benzene(kind="ume", clustering_threshold=0.091).build()


@pytest.fixture(scope="module")
def benzene_ule():
    return builtin_benzene(kind="ule").build()


@pytest.fixture(scope="module")
def benzene_ule_blocked():
    return builtin_benzene(kind="ule", pauli_blocked=True).build()


def test_kind_enumeration():
    assert MEKind("rme") is MEKind.RME
    assert MEKind("ume") is MEKind.UME
    assert MEKind("ule") is MEKind.ULE
    with pytest.raises(ValueError):
        MEKind("lindblad")


def test_build_generator_validation():
    h = SystemHamiltonian.from_energies([-0.5, 0.0, 0.5])
    a = CouplingOperator("x", np.eye(3))
    with pytest.raises(ValueError):
        build_generator(h, [], BATH_50K, "ule", chi=1.0)
    with pytest.raises(ValueError):
        build_generator(h, a, BATH_50K, "ume", chi=1.0)
    with pytest.raises(DimensionError):
        build_generator(h, [a, CouplingOperator("y", np.eye(2))],
                        BATH_50K, "ule", chi=1.0)


def test_single_operator_and_tuple_build_identically(three_ule):
    scenario = builtin_three_level(kind="ule", temperature=50.0)
    spec_seq = build_generator(scenario.hamiltonian,
                               list(scenario.coupling_operators),
                               scenario.bath, "ule", chi=1.0)
    spec_one = build_generator(scenario.hamiltonian,
                               scenario.coupling_operators[0],
                               scenario.bath, "ule", chi=1.0)
    assert spec_seq.frequencies == spec_one.frequencies
    npt.assert_allclose(sum(spec_seq.couplings), sum(spec_one.couplings),
                        atol=0.0)


def ume_pair_rate(spec):
    """(w, w') -> coefficient of A_w rho A_w'^+: the rate of w, where w and
    w' share a cluster label, else 0."""
    rate = union_values(spec, spec.rate)
    label = union_values(spec, spec.cluster)
    return lambda w, wp: rate[w] * (label[w] == label[wp])


def test_ule_pair_rates_factorize(three_ule):
    spec = three_ule.spec
    # the pair rate of channels w, w' is J(w) J(w')
    amp = union_values(spec, spec.rate)
    for w in spec.frequencies:
        for wp in spec.frequencies:
            expected = ule_rate(w, BATH_50K) * ule_rate(wp, BATH_50K)
            assert amp[w] * amp[wp] == pytest.approx(expected,
                                                     rel=1e-15, abs=0.0)


def test_rme_pair_rates_compose_one_sided_functions(three_rme):
    spec = three_rme.spec
    # the pair rate of channels w, w' is Gamma(w) + Gamma(w')^*
    gamma = union_values(spec, spec.rate)
    for w in spec.frequencies:
        for wp in spec.frequencies:
            expected = rme_rates(w, wp, BATH_50K)
            assert gamma[w] + np.conj(gamma[wp]) == pytest.approx(
                expected, rel=1e-12, abs=0.0)
    same = union_values(spec, spec.decay_rate_arrays())[0.5]
    assert same.imag == 0.0


def test_ume_rates_share_cluster_centers(benzene_ume):
    spec = benzene_ume.spec
    pair_rate = ume_pair_rate(spec)
    freqs = sorted(spec.frequencies)
    w_low, w_mid = freqs[3], freqs[4]
    center = cluster_center(spec.clusters, w_low)
    assert center == pytest.approx(0.2145, abs=1e-12)
    in_cluster = 2.0 * np.pi * spectral_function_ule(center, BATH_50K)
    assert pair_rate(w_low, w_mid) == pytest.approx(in_cluster, rel=1e-15)
    assert pair_rate(w_low, w_low) == pytest.approx(in_cluster, rel=1e-15)
    # across clusters and across the sign axis the rate vanishes exactly
    assert pair_rate(w_low, freqs[5]) == 0.0
    assert pair_rate(w_low, -w_low) == 0.0


def test_secular_limit_is_diagonal_in_frequency():
    setup = builtin_three_level(kind="ume", clustering_threshold=0.0,
                                temperature=50.0).build()
    pair_rate = ume_pair_rate(setup.spec)
    assert pair_rate(0.5, -0.5) == 0.0
    assert pair_rate(0.5, 0.5) == pytest.approx(
        2.0 * np.pi * spectral_function_ule(0.5, BATH_50K), rel=1e-15)


def test_dissipator_kind_guards(three_rme):
    rho = np.diag([0.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        dissipator_ule(rho, three_rme.spec)
    with pytest.raises(ValueError):
        ule_jump_operators(three_rme.spec)


def test_jump_operators_compose_channels(three_ule, benzene_ule):
    spec = three_ule.spec
    jumps = ule_jump_operators(spec)
    assert len(jumps) == 1
    expected = sum(ule_rate(w, BATH_50K)
                   * channel_operator(spec.channel_sets[0], w)
                   for w in spec.frequencies)
    npt.assert_allclose(jumps[0], expected, atol=1e-18)
    assert len(ule_jump_operators(benzene_ule.spec)) == 6 + 2


def test_ule_jump_and_double_routes_agree(three_ule, benzene_ule, rng):
    for setup in (three_ule, benzene_ule):
        spec = setup.spec
        rho = random_state(rng, spec.dim, spec.chi)
        jump = dissipator_ule(rho, spec)
        double = Oracle(setup.hamiltonian, spec).dissipator(rho)
        assert max_norm(jump - double) < 1e-12
        assert max_norm(dissipator(rho, spec) - double) < 1e-12


def test_ume_secular_limit_matches_per_frequency_terms(rng):
    setup = builtin_three_level(kind="ume", clustering_threshold=0.0,
                                temperature=50.0).build()
    spec = setup.spec
    rho = random_state(rng, 3, 1.0)
    expected = np.zeros_like(rho)
    for ch in spec.channel_sets:
        for w in ch.frequencies:
            rate = 2.0 * np.pi * spectral_function_ule(w, BATH_50K)
            aw = channel_operator(ch, w)
            anti = aw.conj().T @ aw
            expected += rate * (aw @ rho @ aw.conj().T
                                - 0.5 * (anti @ rho + rho @ anti))
    npt.assert_allclose(dissipator(rho, spec), expected, atol=1e-15)


def test_multi_coupling_dissipator_is_sum_of_single_couplings(rng):
    scenario = builtin_benzene(kind="ule")
    h = scenario.hamiltonian
    rho = random_state(rng, 6, 2.0)
    spec_all = build_generator(h, scenario.coupling_operators,
                               scenario.bath, "ule", chi=2.0)
    total = np.zeros_like(rho)
    for op in scenario.coupling_operators:
        spec_one = build_generator(h, op, scenario.bath, "ule", chi=2.0)
        total += dissipator_ule(rho, spec_one)
    npt.assert_allclose(dissipator_ule(rho, spec_all), total, atol=1e-15)


def test_spec_operator_sums_across_couplings(benzene_ule):
    spec = benzene_ule.spec
    u = 3
    w = spec.frequencies[u]
    total = np.zeros((6, 6), dtype=complex)
    for ch in spec.channel_sets:
        if w in ch.frequencies:
            total += channel_operator(ch, w)
    # the union positions select the same level pairs in every coupling
    summed = sum(np.where(pos == u, a, 0.0)
                 for a, pos in zip(spec.couplings, spec.union_positions))
    npt.assert_allclose(summed, total, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6),
       st.sampled_from(["ume", "ule"]))
def test_dissipator_preserves_hermiticity_and_trace(seed, d, kind):
    rng = np.random.default_rng(seed)
    h = SystemHamiltonian.from_matrix(random_hermitian(rng, d))
    a = CouplingOperator("x", random_hermitian(rng, d))
    spec = build_generator(h, a, BATH_300K, kind, chi=1.0,
                           clustering_threshold=0.0)
    rho = random_state(rng, d, 1.0)
    drho = dissipator(rho, spec)
    assert hermiticity_defect(drho) < 1e-12
    assert abs(np.trace(drho)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=4))
def test_rme_dissipator_preserves_hermiticity_and_trace(seed, d):
    rng = np.random.default_rng(seed)
    h = SystemHamiltonian.from_matrix(random_hermitian(rng, d))
    a = CouplingOperator("x", random_hermitian(rng, d))
    spec = build_generator(h, a, BATH_300K, "rme", chi=1.0)
    rho = random_state(rng, d, 1.0)
    drho = dissipator(rho, spec)
    assert hermiticity_defect(drho) < 1e-12
    assert abs(np.trace(drho)) < 1e-12


def test_per_block_terms_reproduce_linear_dissipator(three_rme, rng):
    spec = three_rme.spec
    rho = random_state(rng, 3, 1.0)
    oracle = Oracle(three_rme.hamiltonian, spec)
    total = oracle.dissipator(rho, root=np.ones(len(spec.subspaces)))
    npt.assert_allclose(total, dissipator(rho, spec), atol=1e-15)


def blocked_rhs_at(setup, rho):
    """Unpacked blocked right-hand side at ``rho``: the function a run
    integrates."""
    rhs = build_packed_generator(setup.hamiltonian, setup.spec)
    return unpack_hermitian(rhs(0.0, pack_hermitian(rho)), setup.spec.dim)


def test_subspace_occupancies_average_degenerate_shells(benzene_ule_blocked):
    # shells (0), (1, 2), (3, 4), (5) hold 2.0, 1.0, 0.5 and 0.25 per level
    setup = benzene_ule_blocked
    rho = np.diag([2.0, 1.5, 0.5, 1.0, 0.0, 0.25]).astype(complex)
    oracle = Oracle(setup.hamiltonian, setup.spec)
    npt.assert_allclose(oracle.root(rho) ** 2, [0.0, 1.0, 1.5, 1.75],
                        atol=1e-15)
    rhs = build_packed_generator(setup.hamiltonian, setup.spec)
    y = pack_hermitian(rho)
    assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < 1e-12
    # factors read off one level of each shell would change the flow
    one_level = np.sqrt(2.0 - np.real(np.diag(rho)))[[0, 1, 3, 5]]
    assert max_norm(pack_hermitian(oracle.liouvillian(rho, one_level))
                    - oracle.blocked_rhs(y)) > 1e-6


def test_blocking_factors_clamp_at_zero(benzene_ule_blocked):
    setup = benzene_ule_blocked
    oracle = Oracle(setup.hamiltonian, setup.spec)
    rho = np.diag([2.0, 1.0, 1.0, 0.5, 0.5, 0.0]).astype(complex)
    npt.assert_allclose(oracle.root(rho) ** 2, [0.0, 1.0, 1.5, 2.0],
                        atol=1e-15)
    # occupancies past chi or below zero clamp the factor at zero or leave
    # it above sqrt(chi); nothing raises
    rhs = build_packed_generator(setup.hamiltonian, setup.spec)
    for occ in ([2.0, 1.0, 1.0, 0.5, 0.5, 0.0], [2.5, 1, 1, 0, 0, 0],
                [-0.5, 1, 1, 1, 1, 1]):
        y = pack_hermitian(np.diag(occ).astype(complex))
        assert max_norm(rhs(0.0, y) - oracle.blocked_rhs(y)) < 1e-12


def test_blocked_generator_annihilates_filled_state():
    for scenario in (
            builtin_three_level(kind="ule", pauli_blocked=True,
                                temperature=50.0),
            builtin_benzene(kind="rme", pauli_blocked=True),
            builtin_benzene(kind="ume", pauli_blocked=True,
                            clustering_threshold=0.091),
            builtin_benzene(kind="ule", pauli_blocked=True)):
        setup = scenario.build()
        assert unitality_residual(setup.hamiltonian, setup.spec) < 1e-12


def test_blocked_dissipator_preserves_hermiticity_and_trace(
        benzene_ule_blocked, rng):
    setup = benzene_ule_blocked
    oracle = Oracle(setup.hamiltonian, setup.spec)
    for _ in range(5):
        rho = random_state(rng, 6, 2.0)
        # the packed route keeps only the Hermitian part, so the full
        # complex derivative it stands for is the oracle's
        expected = oracle.liouvillian(rho, oracle.root(rho))
        assert hermiticity_defect(expected) < 1e-12
        drho = blocked_rhs_at(setup, rho)
        assert max_norm(drho - expected) < 1e-12
        assert abs(np.trace(drho)) < 1e-12


def test_blocked_inflow_into_full_orbital_vanishes():
    setup = builtin_three_level(kind="ule", pauli_blocked=True,
                                temperature=50.0).build()
    # level 0 full, level 1 occupied: the 1 -> 0 transfer is switched off,
    # so the full orbital sees no net flow at all
    rho = np.diag([1.0, 1.0, 0.0]).astype(complex)
    drho = blocked_rhs_at(setup, rho)
    assert abs(drho[0, 0]) < 1e-15
    # the unblocked generator would push more population into level 0
    linear = builtin_three_level(kind="ule", temperature=50.0).build().spec
    assert dissipator_ule(rho, linear)[0, 0].real > 1e-5


def test_blocked_factors_scale_transfer_terms():
    setup = builtin_three_level(kind="ule", pauli_blocked=True,
                                temperature=50.0).build()
    linear = builtin_three_level(kind="ule", temperature=50.0).build().spec
    # level 0 half full: the 1 -> 0 inflow carries a factor chi - n = 1/2;
    # rho commutes with H, so the right-hand side is the dissipator alone
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    blocked_flow = blocked_rhs_at(setup, rho)[0, 0].real
    linear_flow = dissipator_ule(rho, linear)[0, 0].real
    assert blocked_flow == pytest.approx(0.5 * linear_flow, rel=1e-12)


def test_lamb_requires_rate_table_built_with_lamb_flag():
    setup = builtin_benzene(kind="ume", clustering_threshold=0.091).build()
    with pytest.raises(ValueError):
        lamb_shift_hamiltonian(setup.spec)
    setup_ule = builtin_three_level(kind="ule", temperature=50.0).build()
    with pytest.raises(ValueError):
        lamb_shift_hamiltonian(setup_ule.spec)


def test_lamb_hamiltonians_are_hermitian():
    for scenario in (
            builtin_three_level(kind="rme", temperature=50.0,
                                lamb_shift=True),
            builtin_three_level(kind="ule", temperature=50.0,
                                lamb_shift=True),
            builtin_benzene(kind="ume", clustering_threshold=0.091,
                            lamb_shift=True),
            builtin_benzene(kind="ule", lamb_shift=True)):
        setup = scenario.build()
        lamb = setup.spec.lamb_hamiltonian
        assert hermiticity_defect(lamb) < 1e-12
        assert max_norm(lamb) > 0.0


def test_ule_lamb_table_equals_direct_calls_bitwise(monkeypatch):
    """One integral per mirror pair, and only where the negated frequencies
    exist exactly: here Bohr frequencies merge in threes, and some merged
    frequency has no exact negation."""
    rng = np.random.default_rng(3)
    energies = np.array([0.0, 0.3, 0.6 + 3e-10, 0.9 - 2e-10, 0.137])
    h = SystemHamiltonian.from_energies(
        energies + rng.uniform(-1e-10, 1e-10, 5))
    b = rng.standard_normal((5, 5))
    calls = []

    def counted(w1, w2, bath):
        calls.append(np.size(w1))
        return ule_lamb_coefficient(w1, w2, bath)

    monkeypatch.setattr(rdmprop.generators, "ule_lamb_coefficient", counted)
    spec = build_generator(h, CouplingOperator("x", b + b.T), BATH_50K,
                           "ule", chi=1.0, lamb_shift=True)
    freqs, pos = spec.frequencies, spec.union_positions[0]
    present = set(freqs)
    assert any(-w not in present for w in freqs)
    used = set()
    for i, j, k in np.ndindex(5, 5, 5):
        if pos[i, j] >= 0 and pos[j, k] >= 0:
            w1, w2 = freqs[pos[i, j]], freqs[pos[j, k]]
            used.add((w1, w2))
            assert spec.lamb[0][i, j, k] \
                == ule_lamb_coefficient(w1, w2, BATH_50K)
    classes = {frozenset({(w1, w2), (-w2, -w1)})
               if -w1 in present and -w2 in present else (w1, w2)
               for w1, w2 in used}
    # one call for the whole table, one pair per mirror class
    assert calls == [len(classes)] and len(classes) < len(used)


def test_benzene_one_sided_lamb_is_diagonal():
    # every coupled pair bridges exactly one gap, so A^+A products are
    # population operators and the level shift commutes with H
    setup = builtin_benzene(kind="rme", lamb_shift=True).build()
    lamb = setup.spec.lamb_hamiltonian
    off = lamb - np.diag(np.diag(lamb))
    assert max_norm(off) < 1e-15


def test_superoperator_matches_action_route(three_rme, benzene_ume, rng):
    # the oracle's Kronecker matrix against the package's packed route
    for setup in (three_rme, benzene_ume):
        spec = setup.spec
        sup = Oracle(setup.hamiltonian, spec).superoperator()
        rho = random_state(rng, spec.dim, spec.chi)
        via_sup = (sup @ rho.flatten(order="F")).reshape(
            (spec.dim, spec.dim), order="F")
        fun = build_packed_generator(setup.hamiltonian, spec)
        via_packed = unpack_hermitian(fun(0.0, pack_hermitian(rho)), spec.dim)
        assert max_norm(via_sup - via_packed) < 1e-12


def test_superoperator_refuses_blocked_specs():
    # a blocked generator has no matrix; the oracle must not hand back the
    # linear one in its place
    setup = builtin_benzene(kind="ule", pauli_blocked=True).build()
    with pytest.raises(ValueError, match="not linear"):
        Oracle(setup.hamiltonian, setup.spec).superoperator()


def test_symmetrized_tables_are_mirror_even(three_rme, benzene_ume,
                                            benzene_ule):
    for setup in (three_rme, benzene_ume, benzene_ule):
        sym = setup.spec.symmetrized()
        assert sym.kind is setup.spec.kind
        # the mirror of level pair (i, j) is (j, i)
        for rate in sym.rate:
            mirror = rate.conj().T if sym.kind is MEKind.RME else rate.T
            npt.assert_array_equal(rate, mirror)
        diagonal = union_values(sym, sym.decay_rate_arrays())
        for w in sym.frequencies:
            if w <= 0:
                continue
            down = diagonal[w]
            up = diagonal[-w]
            assert down == up


@pytest.mark.parametrize("kind", ["rme", "ume", "ule"])
def test_symmetrized_spec_keeps_everything_but_the_rates(kind):
    spec = builtin_benzene(kind=kind, clustering_threshold=0.091,
                           lamb_shift=True, pauli_blocked=True).build().spec
    sym = spec.symmetrized()
    for name in ("kind", "chi", "bath", "pauli_blocked", "lamb_shift",
                 "clusters", "cluster", "channel_sets", "frequencies",
                 "union_positions"):
        assert getattr(sym, name) is getattr(spec, name), name
    assert sym.pauli_blocked and sym.lamb_shift
    # the per-kind rule, bit for bit
    if kind == "rme":
        rate = [0.5 * (g + g.conj().T) for g in spec.rate]
        assert spec.lamb is None and sym.lamb is None
    elif kind == "ume":
        rate = [0.5 * (r + r.T) for r in spec.rate]
        for s, s_sym in zip(spec.lamb, sym.lamb, strict=True):
            npt.assert_array_equal(s_sym, 0.5 * (s - s.T))
    else:
        rate = [np.sqrt(0.5 * (j ** 2 + (j ** 2).T)) for j in spec.rate]
        assert sym.lamb is spec.lamb
    for r, r_sym in zip(rate, sym.rate, strict=True):
        npt.assert_array_equal(r_sym, r)


def test_particle_hole_transform_structure(three_ule):
    h_hole, spec_hole = particle_hole_transform(three_ule.hamiltonian,
                                                three_ule.spec)
    npt.assert_allclose(h_hole.energies, [-0.5, 0.0, 0.5], atol=1e-15)
    assert spec_hole.kind is MEKind.ULE
    assert spec_hole.chi == three_ule.spec.chi
    assert sorted(spec_hole.frequencies) == sorted(
        three_ule.spec.frequencies)
    # the hole coupling is the transposed eigenbasis coupling
    npt.assert_allclose(
        spec_hole.channel_sets[0].coupling,
        h_hole.to_eigenbasis(
            sum(three_ule.spec.couplings).T), atol=1e-12)


def test_zero_temperature_generator_has_no_upward_rates():
    bath = BathModel(lam=0.01, temperature=0.0)
    h = SystemHamiltonian.from_energies([-0.5, 0.0, 0.5])
    a = CouplingOperator("ladder", np.diag([1.0, 1.0], k=1)
                         + np.diag([1.0, 1.0], k=-1))
    spec = build_generator(h, a, bath, "ule", chi=1.0)
    diagonal = union_values(spec, spec.decay_rate_arrays())
    assert diagonal[-0.5] == 0.0
    assert diagonal[0.5].real > 0.0
