"""State containers, Hamiltonian wrapper, and audit primitives."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmprop.core import (
    AuditReport,
    CouplingOperator,
    DimensionError,
    OneRdm,
    SystemHamiltonian,
    as_square_matrix,
    hermiticity_defect,
    hermitize,
    max_norm,
    spectral_audit,
)


def random_hermitian(rng, d):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (b + b.conj().T)


def test_as_square_matrix_accepts_nested_lists():
    m = as_square_matrix([[1.0, 0.0], [0.0, 2.0]])
    assert m.shape == (2, 2)
    assert m.dtype == complex


def test_as_square_matrix_rejects_non_square():
    with pytest.raises(DimensionError):
        as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        as_square_matrix(np.zeros(4))


def test_max_norm_and_hermitize():
    m = np.array([[0.0, 1.0 + 2.0j], [0.0, 0.0]])
    assert max_norm(m) == pytest.approx(np.hypot(1.0, 2.0))
    h = hermitize(m)
    npt.assert_allclose(h, h.conj().T)
    assert hermiticity_defect(h) == 0.0
    assert hermiticity_defect(m) > 1.0


def test_spectral_audit_requires_chi_for_raw_matrix():
    with pytest.raises(ValueError):
        spectral_audit(np.eye(2))


def test_spectral_audit_reports_violation_without_raising():
    rho = np.diag([2.5, -0.1]).astype(complex)
    report = spectral_audit(rho, chi=2.0)
    assert isinstance(report, AuditReport)
    assert report.violation
    assert report.min_eigenvalue == pytest.approx(-0.1)
    assert report.max_eigenvalue == pytest.approx(2.5)
    assert report.trace == pytest.approx(2.4)


def test_spectral_audit_clean_state():
    report = spectral_audit(np.diag([1.0, 0.5, 0.0]).astype(complex), chi=1.0)
    assert not report.violation


def test_one_rdm_rejects_non_hermitian():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        OneRdm(bad, chi=2.0)


def test_one_rdm_rejects_nonpositive_chi():
    with pytest.raises(ValueError):
        OneRdm(np.eye(2, dtype=complex), chi=0.0)


def test_one_rdm_data_is_read_only():
    rdm = OneRdm(np.eye(2, dtype=complex), chi=2.0)
    with pytest.raises(ValueError):
        rdm.data[0, 0] = 3.0


def test_one_rdm_trace_check_against_electron_count():
    OneRdm(np.diag([2.0, 1.0]).astype(complex), chi=2.0, n_electrons=3)
    with pytest.raises(ValueError):
        OneRdm(np.diag([2.0, 1.0]).astype(complex), chi=2.0, n_electrons=4)


def test_one_rdm_complement_sums_to_full_shell():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 4)
    m = m @ m.conj().T
    m *= 1.8 / np.linalg.eigvalsh(m).max()
    rdm = OneRdm(m, chi=2.0)
    hole = rdm.complement()
    npt.assert_allclose(rdm.data + hole.data, 2.0 * np.eye(4), atol=1e-14)
    assert hole.chi == 2.0


def test_one_rdm_from_occupations_roundtrip():
    occ = [2.0, 1.5, 0.0]
    rdm = OneRdm.from_occupations(occ, chi=2.0)
    npt.assert_allclose(sorted(rdm.occupations()), sorted(occ), atol=1e-14)
    assert rdm.dim == 3


def test_one_rdm_audit_flags_overfilled_orbital():
    rdm = OneRdm(np.diag([1.2, 0.0]).astype(complex), chi=1.0)
    assert rdm.audit().violation
    assert not rdm.audit(tol=0.5).violation


def test_hamiltonian_from_matrix_reconstructs_input():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 5)
    h = SystemHamiltonian.from_matrix(m)
    npt.assert_allclose(h.matrix, m, atol=1e-12)
    assert np.all(np.diff(h.energies) >= 0)


def test_hamiltonian_from_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        SystemHamiltonian.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hamiltonian_from_energies_sorts():
    h = SystemHamiltonian.from_energies([0.5, -0.5, 0.0])
    npt.assert_allclose(h.energies, [-0.5, 0.0, 0.5])
    npt.assert_allclose(h.matrix, np.diag([-0.5, 0.0, 0.5]), atol=1e-15)


def test_hamiltonian_requires_ascending_energies():
    with pytest.raises(ValueError):
        SystemHamiltonian(np.array([1.0, 0.0]), np.eye(2, dtype=complex))


def test_hamiltonian_requires_unitary_eigenvectors():
    with pytest.raises(ValueError):
        SystemHamiltonian(np.array([0.0, 1.0]),
                          np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_hamiltonian_basis_roundtrip():
    rng = np.random.default_rng(3)
    h = SystemHamiltonian.from_matrix(random_hermitian(rng, 4))
    m = random_hermitian(rng, 4)
    npt.assert_allclose(h.from_eigenbasis(h.to_eigenbasis(m)), m, atol=1e-13)
    # the Hamiltonian itself is diagonal in its own eigenbasis
    diag = h.to_eigenbasis(h.matrix)
    npt.assert_allclose(diag, np.diag(h.energies), atol=1e-12)


def test_eigenbasis_rotations_act_on_stacks():
    rng = np.random.default_rng(5)
    h = SystemHamiltonian.from_matrix(random_hermitian(rng, 4))
    assert max_norm(h.eigenvectors - np.eye(4)) > 0.1
    stack = np.array([[random_hermitian(rng, 4) for _ in range(3)]
                      for _ in range(2)])
    for rotate in (h.to_eigenbasis, h.from_eigenbasis):
        rotated = rotate(stack)
        assert rotated.shape == stack.shape
        for idx in np.ndindex(stack.shape[:2]):
            assert max_norm(rotated[idx] - rotate(stack[idx])) <= 1e-15
    with pytest.raises(DimensionError):
        h.to_eigenbasis(np.zeros((2, 3, 3)))


def test_degenerate_groups_chain_within_tolerance():
    h = SystemHamiltonian.from_energies([0.0, 1e-10, 2e-10, 1.0],
                                        degeneracy_tol=1e-9)
    assert h.degenerate_groups == ((0, 1, 2), (3,))
    npt.assert_allclose(h.subspace_energies, [1e-10, 1.0], atol=1e-23)


def test_degenerate_groups_of_two_shell_spectrum():
    h = SystemHamiltonian.from_energies(
        [-0.492, -0.323, -0.323, 0.168, 0.168, 0.428])
    assert h.degenerate_groups == ((0,), (1, 2), (3, 4), (5,))


def test_coupling_operator_requires_hermitian():
    with pytest.raises(ValueError):
        CouplingOperator("bad", np.array([[0.0, 1.0], [0.5, 0.0]]))
    op = CouplingOperator("ok", np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert op.dim == 2
    assert op.label == "ok"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6))
def test_hermitize_projects_onto_hermitian_part(seed, d):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = hermitize(b)
    assert hermiticity_defect(h) < 1e-14
    # hermitize is idempotent and preserves already-Hermitian input
    npt.assert_allclose(hermitize(h), h, atol=1e-15)
    npt.assert_allclose(h, 0.5 * (b + b.conj().T), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6))
def test_eigenbasis_transform_preserves_spectrum_and_trace(seed, d):
    rng = np.random.default_rng(seed)
    h = SystemHamiltonian.from_matrix(random_hermitian(rng, d))
    m = random_hermitian(rng, d)
    m_eig = h.to_eigenbasis(m)
    npt.assert_allclose(np.trace(m_eig), np.trace(m), atol=1e-12)
    npt.assert_allclose(np.linalg.eigvalsh(m_eig), np.linalg.eigvalsh(m),
                        atol=1e-11)
