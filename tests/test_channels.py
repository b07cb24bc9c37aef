"""Bohr-frequency channel decomposition and frequency clustering."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmprop.benchmarks import (
    BENZENE_BONDS,
    BENZENE_ENERGIES,
    builtin_benzene,
    builtin_three_level,
)
from rdmprop.channels import ChannelSet, cluster, decompose
from rdmprop.core import CouplingOperator, DimensionError, SystemHamiltonian

from oracle import channel_operator, cluster_center, cluster_index

BENZENE_GAPS = (0.169, 0.260, 0.491)


def ladder_system():
    h = SystemHamiltonian.from_energies([-0.5, 0.0, 0.5])
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    return h, CouplingOperator("ladder", a)


def random_hermitian(rng, d):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (b + b.conj().T)


def test_ladder_channels():
    h, a = ladder_system()
    ch = decompose(h, a)
    assert ch.label == "ladder"
    assert ch.frequencies == (-0.5, 0.5)
    lowering = np.zeros((3, 3), dtype=complex)
    lowering[0, 1] = 1.0
    lowering[1, 2] = 1.0
    npt.assert_allclose(channel_operator(ch, 0.5), lowering, atol=1e-15)
    npt.assert_allclose(channel_operator(ch, -0.5), lowering.conj().T,
                        atol=1e-15)
    assert 0.0 not in ch.frequencies
    with pytest.raises(KeyError):
        channel_operator(ch, 1.0)


def test_ladder_skips_the_empty_distant_block():
    # the 0 <-> 2 subspace pair has gap 1.0 but no coupling entries, so no
    # channel at +-1.0 appears
    h, a = ladder_system()
    ch = decompose(h, a)
    assert all(abs(abs(f) - 1.0) > 1e-9 for f in ch.frequencies)


def test_dimension_mismatch_raises():
    h, _ = ladder_system()
    with pytest.raises(DimensionError):
        decompose(h, CouplingOperator("two", np.eye(2)))


def test_diagonal_coupling_yields_zero_frequency_channel():
    h, _ = ladder_system()
    a = CouplingOperator("dephasing", np.diag([1.0, -1.0, 0.5]))
    ch = decompose(h, a)
    assert ch.frequencies == (0.0,)
    npt.assert_allclose(channel_operator(ch, 0.0),
                        np.diag([1.0, -1.0, 0.5]), atol=1e-15)


def test_benzene_bond_channels():
    scenario = builtin_benzene()
    h = scenario.hamiltonian
    assert len(scenario.coupling_operators) == len(BENZENE_BONDS)
    union = set()
    for op in scenario.coupling_operators:
        ch = decompose(h, op)
        # every coupled orbital pair bridges exactly one subspace gap
        assert len(ch.frequencies) == 2
        assert ch.frequencies[0] == -ch.frequencies[1]
        union.update(ch.frequencies)
    expected = sorted([g for g in BENZENE_GAPS] + [-g for g in BENZENE_GAPS])
    npt.assert_allclose(sorted(union), expected, atol=1e-12)


def test_benzene_subspace_structure():
    scenario = builtin_benzene()
    ch = decompose(scenario.hamiltonian, scenario.coupling_operators[0])
    assert ch.subspaces == ((0,), (1, 2), (3, 4), (5,))
    npt.assert_allclose(scenario.hamiltonian.subspace_energies,
                        [-0.492, -0.323, 0.168, 0.428], atol=1e-12)


def test_summed_benzene_coupling_has_sixteen_entries():
    scenario = builtin_benzene()
    total = np.zeros((6, 6))
    for op in scenario.coupling_operators:
        total = total + op.matrix.real
    assert np.count_nonzero(total) == 16
    npt.assert_allclose(total, total.T, atol=0.0)


def test_three_level_coupling_is_a_single_ladder():
    scenario = builtin_three_level()
    assert len(scenario.coupling_operators) == 1
    ch = decompose(scenario.hamiltonian, scenario.coupling_operators[0])
    assert ch.frequencies == (-0.5, 0.5)


def test_near_degenerate_frequencies_merge():
    h = SystemHamiltonian.from_energies([0.0, 1e-10, 1.0],
                                        degeneracy_tol=1e-9)
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    ch = decompose(h, CouplingOperator("merged", a))
    # levels 0 and 1 form one subspace, so both couplings share one channel
    assert len(ch.frequencies) == 2
    assert ch.frequencies[1] == pytest.approx(1.0 - 5e-11, abs=1e-12)
    assert np.count_nonzero(channel_operator(ch, ch.frequencies[1])) == 2


def test_equal_gaps_from_distinct_subspaces_share_one_channel():
    h = SystemHamiltonian.from_energies([0.0, 1.0, 2.0 + 1e-10],
                                        degeneracy_tol=1e-9)
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    ch = decompose(h, CouplingOperator("chain", a))
    # gaps 1.0 and 1.0 + 1e-10 merge into one channel at their mean
    assert len(ch.frequencies) == 2
    assert ch.frequencies[1] == pytest.approx(1.0 + 5e-11, abs=1e-12)
    op = channel_operator(ch, ch.frequencies[1])
    assert op[0, 1] == pytest.approx(1.0)
    assert op[1, 2] == pytest.approx(1.0)


def test_drop_tolerance_discards_weak_channels_within_bound():
    # dropped blocks occupy disjoint index rectangles, so the
    # reconstruction error stays below the drop tolerance itself
    h = SystemHamiltonian.from_energies([0.0, 0.3, 1.0])
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1.0
    m[1, 2] = m[2, 1] = 1e-6
    m[0, 2] = m[2, 0] = 1e-6
    a = CouplingOperator("mixed", m)
    full = decompose(h, a)
    assert sorted(full.frequencies) == [-1.0, -0.7, -0.3, 0.3, 0.7, 1.0]
    trimmed = decompose(h, a, drop_tol=1e-3)
    assert sorted(trimmed.frequencies) == [-0.3, 0.3]
    defect = np.max(np.abs(trimmed.coupling - h.to_eigenbasis(m)))
    assert 0.0 < defect < 1e-3
    # dropping everything is allowed and still reconstructs within bound
    empty = decompose(h, a, drop_tol=2.0)
    assert empty.frequencies == ()
    assert np.max(np.abs(empty.coupling - h.to_eigenbasis(m))) == 1.0
    assert (empty.channel == -1).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6))
def test_channel_completeness_and_conjugation(seed, d):
    rng = np.random.default_rng(seed)
    h = SystemHamiltonian.from_matrix(random_hermitian(rng, d))
    a = CouplingOperator("x", random_hermitian(rng, d))
    ch = decompose(h, a)
    a_eig = h.to_eigenbasis(a.matrix)
    # completeness: the channels tile the eigenbasis coupling operator
    assert np.max(np.abs(ch.coupling - a_eig)) < 1e-10
    # a Hermitian coupling pairs each channel with its adjoint at -w
    for w in ch.frequencies:
        npt.assert_allclose(channel_operator(ch, -w),
                            channel_operator(ch, w).conj().T, atol=1e-12)
    assert ch.frequencies == tuple(sorted(ch.frequencies))


@settings(max_examples=100, deadline=None)
# three blocks at exactly -0.1 once averaged to one ulp below -0.1
@example(seed=0, levels=[(0, 0.0), (0, 1.2e-9), (1, 0.0), (1, 1.2e-9),
                         (2, 0.0)], density=1.0)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.tuples(st.integers(0, 3),
                          st.sampled_from((0.0, 3e-10, 6e-10, 1.2e-9))),
                min_size=2, max_size=7),
       st.floats(min_value=0.2, max_value=1.0))
def test_channel_labels_at_near_degenerate_spectra(seed, levels, density):
    # levels on a 0.1 grid, nudged by fractions and multiples of the
    # degeneracy tolerance, so shells form and Bohr frequencies chain
    tol = 1e-9
    h = SystemHamiltonian.from_energies([0.1 * n + dn for n, dn in levels],
                                        degeneracy_tol=tol)
    d = h.dim
    rng = np.random.default_rng(seed)
    mask = rng.random((d, d)) < density
    a = CouplingOperator("x", random_hermitian(rng, d) * (mask & mask.T))
    ch = decompose(h, a)
    a_eig = h.to_eigenbasis(a.matrix)
    n = len(ch.frequencies)
    # the channel operators sum back to the coupling, which is the
    # eigenbasis coupling on the labelled pairs and zero elsewhere
    npt.assert_array_equal(sum((np.where(ch.channel == k, ch.coupling, 0.0)
                                for k in range(n)), np.zeros((d, d))),
                           ch.coupling)
    npt.assert_array_equal(ch.coupling, np.where(ch.channel >= 0, a_eig, 0.0))
    assert np.all(np.abs(a_eig[ch.channel < 0]) < 1e-12)
    assert sorted(set(ch.channel.ravel()) - {-1}) == list(range(n))
    # one label per subspace block; the label indexes the channel whose
    # merge chain holds the block's frequency e_source - e_target
    e = h.subspace_energies
    sub = np.repeat(np.arange(len(ch.subspaces)),
                    [len(s) for s in ch.subspaces])
    block = {}
    for (i, j), k in np.ndenumerate(ch.channel):
        assert block.setdefault((sub[i], sub[j]), k) == k
    chains = [sorted(e[s] - e[t] for (t, s), k in block.items() if k == c)
              for c in range(n)]
    for c, chain in enumerate(chains):
        assert np.all(np.diff(chain) <= tol)
        assert chain[0] <= ch.frequencies[c] <= chain[-1]
    for low, high in zip(chains, chains[1:]):
        assert high[0] - low[-1] > tol
    # an empty or wholly dropped coupling has no channel
    for empty in (decompose(h, CouplingOperator("0", np.zeros((d, d)))),
                  decompose(h, a, drop_tol=2.0 * np.abs(a_eig).max() + 1.0)):
        assert empty.frequencies == ()
        assert np.all(empty.channel == -1)
        assert not empty.coupling.any()


def test_cluster_examples():
    freqs = [-0.491, -0.26, -0.169, 0.169, 0.26, 0.491]
    c = cluster(freqs, 0.091)
    assert c.frequencies == tuple(freqs)
    assert c.label.tolist() == [0, 1, 1, 2, 2, 3]
    npt.assert_allclose(c.centers, [-0.491, -0.2145, 0.2145, 0.491],
                        atol=1e-12)
    assert cluster_index(c, 0.26) == 2
    assert cluster_center(c, -0.169) == pytest.approx(-0.2145)
    assert c.zero_cluster_index is None
    with pytest.raises(KeyError):
        cluster_index(c, 0.5)


def test_cluster_secular_limit_is_singletons():
    freqs = [-0.5, 0.0, 0.5]
    c = cluster(freqs, 0.0)
    assert c.label.tolist() == [0, 1, 2]
    assert c.centers == (-0.5, 0.0, 0.5)
    assert c.zero_cluster_index == 1


def test_cluster_chains_across_consecutive_gaps():
    c = cluster([0.0, 0.05, 0.1], 0.05)
    assert c.label.tolist() == [0, 0, 0]
    assert c.centers[0] == pytest.approx(0.05)


def test_cluster_validation():
    with pytest.raises(ValueError):
        cluster([0.1, 0.2], -0.1)
    with pytest.raises(ValueError, match="threshold"):
        cluster([0.1, 0.2], float("nan"))
    with pytest.raises(ValueError):
        cluster([0.1, 0.1], 0.0)
    # an infinite threshold joins every frequency into one cluster
    assert len(cluster([0.1, 0.2, 5.0], float("inf")).centers) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False), min_size=1, max_size=12,
                unique=True),
       st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_cluster_partition_properties(freqs, threshold):
    c = cluster(freqs, threshold)
    # exact partition of the input: every sorted frequency has one label,
    # and the labels run 0, 1, ... in order
    assert c.frequencies == tuple(sorted(freqs))
    assert c.label.shape == (len(freqs),)
    assert c.label[0] == 0
    assert set(np.diff(c.label)) <= {0, 1}
    assert len(c.centers) == c.label[-1] + 1
    f = np.array(c.frequencies)
    for k, center in enumerate(c.centers):
        members = f[c.label == k]
        # consecutive members never exceed the threshold gap
        assert np.all(np.diff(members) <= threshold + 1e-12)
        assert center == pytest.approx(np.mean(members))
    # distinct clusters are separated by more than the threshold
    step = np.diff(c.label) == 1
    assert np.all(np.diff(f)[step] > threshold)


def test_mirror_symmetric_input_clusters_symmetrically():
    freqs = [-0.3, -0.29, -0.1, 0.1, 0.29, 0.3]
    c = cluster(freqs, 0.02)
    centers = np.array(c.centers)
    npt.assert_allclose(centers, -centers[::-1], atol=1e-15)
