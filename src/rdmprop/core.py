"""Dense Hermitian domain types for one-body reduced density matrices.

Everything downstream (channel decomposition, dissipators, audits) assumes the
invariants enforced here: Hermitian inputs, ascending eigenvalues, unitary
eigenvector matrices. All matrices are dense complex; the systems of interest
have a handful of orbitals, so there is no sparse path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Structural tolerances guard exact algebraic identities (Hermiticity,
# unitarity); the physical tolerance absorbs integrator drift in audits.
STRUCTURAL_TOL = 1e-10
PHYSICAL_TOL = 1e-8


class DimensionError(ValueError):
    """Matrix shape does not match the declared dimension."""


class PhysicalityError(RuntimeError):
    """A state left the physically meaningful domain."""


class NumericalError(ValueError):
    """Valid inputs without a usable result: a runtime, not a usage, error."""


def as_square_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_matrices(m, dim: int) -> np.ndarray:
    """Complex array of one (dim, dim) matrix or a stack (..., dim, dim)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (dim, dim):
        raise DimensionError(f"shape {m.shape} does not match dim {dim}")
    return m


def max_norm(m) -> float:
    """Largest absolute entry of a matrix or vector."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def hermitize(m) -> np.ndarray:
    """Project a square matrix onto its Hermitian part, (M + M†)/2."""
    m = as_square_matrix(m)
    return 0.5 * (m + m.conj().T)


def hermiticity_defect(m) -> float:
    m = as_square_matrix(m)
    return max_norm(m - m.conj().T)


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Scalars of the positivity and occupancy audit of a density matrix."""

    min_eigenvalue: float
    max_eigenvalue: float
    trace: float
    hermiticity_defect: float
    chi: float
    tol: float

    @property
    def violation(self) -> bool:
        return (self.min_eigenvalue < -self.tol
                or self.max_eigenvalue > self.chi + self.tol)


def spectral_audit(rho, chi: float | None = None, tol: float = PHYSICAL_TOL) -> AuditReport:
    """Audit a (candidate) density matrix against occupancy bounds.

    Accepts either a OneRdm or a raw matrix plus an explicit occupancy cap.
    The eigenvalue solver is a Hermitian one applied to the Hermitian part of
    the input, so the reported spectrum is always real. This is a diagnostic
    and never raises on unphysical values; read ``report.violation``.
    """
    if isinstance(rho, OneRdm):
        if chi is None:
            chi = rho.chi
        rho = rho.data
    if chi is None:
        raise ValueError("chi is required when auditing a raw matrix")
    m = as_square_matrix(rho)
    defect = hermiticity_defect(m)
    eigs = np.linalg.eigvalsh(hermitize(m))
    return AuditReport(
        min_eigenvalue=float(eigs[0]),
        max_eigenvalue=float(eigs[-1]),
        trace=float(np.trace(m).real),
        hermiticity_defect=defect,
        chi=float(chi),
        tol=float(tol),
    )


@dataclass(frozen=True, eq=False)
class OneRdm:
    """One-particle reduced density matrix with an occupancy cap.

    ``chi`` is 1 for spin-orbitals and 2 for spatial orbitals. The same type
    represents the one-hole matrix chi*1 - rho.
    """

    data: np.ndarray
    chi: float
    n_electrons: float | None = None

    def __post_init__(self):
        m = as_square_matrix(self.data)
        if hermiticity_defect(m) > STRUCTURAL_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if self.chi <= 0:
            raise ValueError("occupancy cap chi must be positive")
        m = hermitize(m)
        m.setflags(write=False)
        object.__setattr__(self, "data", m)
        tr = float(np.trace(m).real)
        if self.n_electrons is None:
            object.__setattr__(self, "n_electrons", tr)
        elif abs(tr - self.n_electrons) > 1e-6 * max(1.0, abs(self.n_electrons)):
            raise ValueError(
                f"trace {tr} does not match declared electron count {self.n_electrons}")

    @classmethod
    def from_occupations(cls, occupations, chi: float) -> "OneRdm":
        occ = np.asarray(occupations, dtype=float)
        return cls(np.diag(occ.astype(complex)), chi)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def occupations(self) -> np.ndarray:
        """Eigenvalues (natural occupations), ascending."""
        return np.linalg.eigvalsh(self.data)

    def complement(self) -> "OneRdm":
        """The one-hole matrix chi*1 - rho."""
        return OneRdm(self.chi * np.eye(self.dim) - self.data, self.chi)

    def audit(self, tol: float = PHYSICAL_TOL) -> AuditReport:
        return spectral_audit(self.data, self.chi, tol)


def _degenerate_groups(energies: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    groups: list[list[int]] = [[0]]
    for k in range(1, len(energies)):
        if energies[k] - energies[k - 1] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(tuple(g) for g in groups)


@dataclass(frozen=True, eq=False)
class SystemHamiltonian:
    """System Hamiltonian as (ascending energies, unitary eigenvectors).
    Basis changes act on one matrix or on a stack (..., d, d)."""

    energies: np.ndarray
    eigenvectors: np.ndarray
    degeneracy_tol: float = 1e-9

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float).reshape(-1)
        v = as_square_matrix(self.eigenvectors)
        if v.shape[0] != e.size:
            raise DimensionError("eigenvector matrix does not match energy count")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        if max_norm(v.conj().T @ v - np.eye(e.size)) > STRUCTURAL_TOL:
            raise ValueError("eigenvectors are not unitary within 1e-10")
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "eigenvectors", v)

    @classmethod
    def from_matrix(cls, h, degeneracy_tol: float = 1e-9) -> "SystemHamiltonian":
        h = as_square_matrix(h)
        if hermiticity_defect(h) > STRUCTURAL_TOL:
            raise ValueError("Hamiltonian is not Hermitian within 1e-10")
        energies, vectors = np.linalg.eigh(hermitize(h))
        return cls(energies, vectors, degeneracy_tol)

    @classmethod
    def from_energies(cls, energies, degeneracy_tol: float = 1e-9) -> "SystemHamiltonian":
        e = np.sort(np.asarray(energies, dtype=float).reshape(-1))
        return cls(e, np.eye(e.size, dtype=complex), degeneracy_tol)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def matrix(self) -> np.ndarray:
        return self.from_eigenbasis(np.diag(self.energies))

    @property
    def degenerate_groups(self) -> tuple[tuple[int, ...], ...]:
        """Orbital indices grouped by energy, gap-chained at degeneracy_tol."""
        return _degenerate_groups(self.energies, self.degeneracy_tol)

    @property
    def subspace_energies(self) -> np.ndarray:
        return np.array([self.energies[list(g)].mean() for g in self.degenerate_groups])

    def to_eigenbasis(self, m) -> np.ndarray:
        v = self.eigenvectors
        return v.conj().T @ as_matrices(m, self.dim) @ v

    def from_eigenbasis(self, m) -> np.ndarray:
        v = self.eigenvectors
        return v @ as_matrices(m, self.dim) @ v.conj().T


@dataclass(frozen=True, eq=False)
class CouplingOperator:
    """Hermitian system-side coupling operator, dimensionless.

    The coupling magnitude lives in the bath spectral density. Hermiticity is
    required for detailed balance in all three master equations.
    """

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix)
        if hermiticity_defect(m) > STRUCTURAL_TOL:
            raise ValueError(f"coupling operator {self.label!r} is not Hermitian")
        m = hermitize(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
