"""Representability audits for 1-RDM master equations.

A CPTP-consistent generator must annihilate the fully filled state
chi * identity; equivalently the 1-particle and 1-hole pictures must stay
exact complements of each other. This module measures how badly a generator
breaks that (algebraically and along trajectories) and runs the two-picture
co-propagation test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import propagate as _prop
from .core import DimensionError, SystemHamiltonian, max_norm
from .generators import GeneratorSpec, particle_hole_transform


@dataclass(frozen=True, eq=False)
class ChannelAsymmetry:
    """Net unitality contribution of one emission/absorption channel pair."""

    frequency: float
    rate_asymmetry: complex
    contribution_norm: float


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    """Unitality audit of a linear generator.

    ``residual_matrix`` is the generator a run integrates applied to the
    filled state, divided by chi so the number is filling-independent.
    ``per_channel`` decomposes the commutator part into emission/absorption
    rate asymmetries, one entry per positive Bohr frequency;
    ``pair_sum_norm`` is the norm of that decomposition alone (it omits any
    cross-frequency contributions, which the full residual includes).
    ``unitality_residual`` is the max-norm of the image before the division
    by chi, the number ``unitality_residual`` returns.
    """

    residual_matrix: np.ndarray
    residual_norm: float
    unitality_residual: float
    per_channel: tuple[ChannelAsymmetry, ...]
    pair_sum_norm: float
    satisfied: bool
    tol: float


def constraint_residual(h: SystemHamiltonian, spec: GeneratorSpec,
                        tol: float = 1e-10) -> ConstraintReport:
    """Evaluate the filled-state residual of a linear generator: the
    image of ``build_packed_generator`` at chi*1, which
    ``unitality_residual`` reduces to its norm.

    Raises ValueError for Pauli-blocked specs; those are unital by
    construction and should be checked with unitality_residual instead.
    """
    if spec.pauli_blocked:
        raise ValueError("constraint_residual audits linear generators; "
                         "use unitality_residual for blocked specs")
    image = _prop.filled_image(_prop.build_packed_generator(h, spec), spec)
    residual = image / spec.chi

    # diagonal pair rate minus that of the mirror pair (j, i), per frequency
    freqs = spec.frequencies
    where = spec.union_positions
    asym = np.zeros(len(freqs), dtype=complex)
    for rate, pos in zip(spec.decay_rate_arrays(), where):
        asym[pos[pos >= 0]] = (rate - rate.T)[pos >= 0]

    entries = []
    pair_sum = np.zeros((spec.dim, spec.dim), dtype=complex)
    for u in np.flatnonzero(np.array(freqs) > 0):
        ops = [np.where(pos == u, a, 0.0)
               for a, pos in zip(spec.couplings, where) if (pos == u).any()]
        comm = sum(a @ a.conj().T - a.conj().T @ a for a in ops)
        pair_sum += asym[u] * comm
        entries.append(ChannelAsymmetry(
            frequency=freqs[u], rate_asymmetry=complex(asym[u]),
            contribution_norm=max_norm(asym[u] * comm)))

    norm = max_norm(residual)
    return ConstraintReport(
        residual_matrix=residual,
        residual_norm=norm,
        unitality_residual=max_norm(image),
        per_channel=tuple(entries),
        pair_sum_norm=max_norm(pair_sum),
        satisfied=bool(norm < tol),
        tol=tol,
    )


def unitality_residual(h: SystemHamiltonian, spec: GeneratorSpec) -> float:
    """Max-norm of the generator applied to the fully filled state.

    Zero (to rounding) exactly when the generator is unital. Evaluates
    ``build_packed_generator``, the function a run integrates, at chi*1,
    linear or Pauli-blocked.
    """
    return max_norm(_prop.filled_image(_prop.build_packed_generator(h, spec),
                                       spec))


def copropagate_hole(q0, h: SystemHamiltonian, spec: GeneratorSpec,
                     schedule: _prop.Schedule, particle: _prop.Trajectory):
    """Propagate the 1-hole RDM under the hole-picture generator.

    The hole generator comes from applying the same master-equation
    construction to the hole system (negated spectrum, transposed coupling,
    identical bath). The hole is stepped on ``schedule`` with ``t_end``
    pinned to the particle's last time, so that it is sampled on the
    particle's grid even when the two pictures' default end times differ.
    The returned trajectory carries the co-propagation defect
    ||q(t) - (chi - rho(t))||_max against ``particle``.

    ``q0`` is the initial hole RDM in the same (original) basis as particle
    states; its spectrum must lie in [0, chi]. The hole trajectory keeps
    packed samples in particle-eigenbasis coordinates: the hole eigenvectors
    are an exact permutation, and transposing conjugates, so its samples
    are the hole solver's with packed entries permuted and the imaginary
    block's signs flipped. One blockwise pass over both trajectories forms
    q - (chi*1 - rho) in those coordinates, rotates that one stack to the
    original basis for the defect, and caches both spectra. ``particle``
    must be stored in the eigenbasis of ``h`` and sampled on ``schedule``.
    """
    q0 = np.asarray(getattr(q0, "data", q0), dtype=complex)
    if q0.shape != (h.dim, h.dim):
        raise DimensionError(f"hole state shape {q0.shape} does not match "
                             f"dimension {h.dim}")

    if not np.array_equal(particle.basis, h.eigenvectors):
        raise ValueError("particle trajectory is not stored in the "
                         "eigenbasis of the Hamiltonian")
    times = particle.times

    h_hole, spec_hole = particle_hole_transform(h, spec)
    hole_traj = _prop.propagate_state(
        h_hole, spec_hole, h.to_eigenbasis(q0).T.copy(),
        replace(schedule, t_end=float(times[-1])))
    if not np.array_equal(hole_traj.times, times):
        raise ValueError("particle trajectory is not sampled on the "
                         "schedule's grid")
    _prop.transpose_permuted(hole_traj.packed, h_hole.eigenvectors)
    metadata = dict(hole_traj.metadata)
    metadata.update({"picture": "hole", "kind": spec.kind.value,
                     "pauli_blocked": spec.pauli_blocked})
    q_traj = _prop.Trajectory(times=times, packed=hole_traj.packed,
                              basis=h.eigenvectors, chi=spec.chi,
                              metadata=metadata)

    filled = spec.chi * np.eye(h.dim)
    defect = np.empty(len(times))
    for rows, (rho, q) in _prop.state_blocks(particle, q_traj):
        # q - (chi*1 - rho) in eigenbasis coordinates, rotated once
        np.subtract(filled, rho, out=rho)
        np.subtract(q, rho, out=rho)
        defect[rows] = np.abs(q_traj.to_original(rho)).max(axis=(-2, -1))
    q_traj.defect = defect
    return q_traj


@dataclass(frozen=True, eq=False)
class TrajectoryAudit:
    """Physicality summary of a propagated trajectory: extrema of the natural
    occupations (eigenvalues) and of the eigenbasis populations."""

    min_eigenvalue: float
    max_eigenvalue: float
    min_population: float
    max_population: float
    max_trace_drift: float
    max_hermiticity_defect: float
    first_violation_time: float | None
    violation: bool
    chi: float
    tol: float


def audit_trajectory(traj, tol: float = 1e-6) -> TrajectoryAudit:
    """Reduce a trajectory's spectrum, populations and traces.

    A state violates when a natural occupation leaves [-tol, chi + tol].
    Trace drift is measured against the initial state. Occupations and
    traces are the trajectory's cached per-sample reductions, from one
    blockwise pass over its unpacked eigenbasis samples. The Hermiticity
    defect is the trajectory's 0.0: packed samples are Hermitian by
    construction, and no pass is run for it.
    """
    occ = traj.occupations
    bad = (occ[:, 0] < -tol) | (occ[:, -1] > traj.chi + tol)
    first_violation = float(traj.times[bad.argmax()]) if bad.any() else None
    return TrajectoryAudit(
        min_eigenvalue=float(occ[:, 0].min()),
        max_eigenvalue=float(occ[:, -1].max()),
        min_population=float(traj.populations.min()),
        max_population=float(traj.populations.max()),
        max_trace_drift=float(np.abs(traj.traces - traj.traces[0]).max()),
        max_hermiticity_defect=traj.hermiticity_defect,
        first_violation_time=first_violation,
        violation=first_violation is not None,
        chi=traj.chi,
        tol=tol,
    )
