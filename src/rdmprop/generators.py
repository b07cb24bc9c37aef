"""One bilinear dissipator for the three master-equation kinds.

Every generator acts on a 1-electron reduced density matrix in the system
eigenbasis through the coupling operators a_k (independent noise sources):

    D(X, Y) rho = sum_k sum_(U, V) [ (U o X_k) rho (V o Y_k)^+
                                     - 1/2 {(V o Y_k)^+ (U o X_k), rho} ]

``o`` is the element-wise product, and the rate factors U, V are arrays over
level pairs (i, j): a bath quantity, evaluated once per distinct frequency,
gathered through the integer channel label of (i, j). The linear
dissipator is D(a, a), and the kinds differ only in their factors: rme has
(Gamma, 1) and (1, Gamma) with the one-sided rate Gamma = pi Gamma_hat +
i xi; ule has (J, J) with J = sqrt(2 pi Gamma_hat), one jump J o a_k per
coupling; ume has (rate, 1), rate = 2 pi Gamma_hat at the center of each
pair's frequency cluster, joining only the pairs of pairs (i, j), (k, l)
with one cluster label: out_ik = sum rate_ij X_ij rho_jl conj(Y_kl), a
sparse map with sum_c |c|^2 entries per coupling. Its i = k entries give
the anticommutator, and with xi for the rate the Lamb term.

Pauli blocking replaces the coupling by M(rho) o a, where
M_ij = sqrt(chi - n_sub(i)) on blocks between two different subspaces
(outside the ume zero-frequency cluster) and 1 elsewhere. The mask scales
rows, so the blocked generator stays trace- and Hermiticity-preserving and
annihilates the filled state chi*1 exactly. With every factor 1 it is the
linear generator. ``propagate.build_packed_generator`` assembles both on
packed states from the sandwich here; it is the one evaluation of a
dissipator, which runs integrate and the filled-state audits read.

``GeneratorSpec`` holds one generator whole: its channels, their frequency
union, the bath rates on the coupling and the flags. ``build_generator``
builds it, and ``GeneratorSpec.symmetrized`` derives its unital partner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .bath import BathModel, spectral_function_ule, ule_lamb_coefficient, \
    ule_rate, xi_integral
from .channels import ChannelSet, FrequencyClusters, cluster, decompose
from .core import CouplingOperator, DimensionError, NumericalError, \
    SystemHamiltonian, hermitize, max_norm


class MEKind(str, Enum):
    RME = "rme"
    UME = "ume"
    ULE = "ule"


def _scatter(values, index: np.ndarray, fill=0.0) -> np.ndarray:
    """values[index] with ``fill`` wherever index is -1."""
    return np.append(np.asarray(values), fill)[index]


def build_rate_table(kind: MEKind, freqs: tuple[float, ...], where,
                     bath: BathModel, threshold: float | None = None,
                     lamb_shift: bool = False) -> dict:
    """Evaluate every bath quantity the chosen generator kind needs: the
    ``rate``, ``cluster``, ``lamb`` and ``clusters`` fields of its spec.

    Gamma_hat is evaluated in one call on the union ``freqs`` of the
    channel frequencies, and every bath quantity is scattered onto the
    level pairs through ``where``, the position in ``freqs`` of the channel
    of every level pair, per coupling operator. ume clusters ``freqs`` at
    ``threshold``. Principal-value integrals run only where used, in one
    array call per table: in every rme rate, at ume cluster centers for the
    Lamb shift, and for ule at the frequency pairs (w_ij, w_jk) of chained
    channel products a_ij a_jk, once per mirror pair (a, b), (-b, -a).
    """
    n = len(freqs)
    clusters = cluster_of = lamb = None
    if kind is MEKind.RME:
        values = (np.pi * spectral_function_ule(np.array(freqs), bath)
                  + 1j * xi_integral(np.array(freqs), bath))
    elif kind is MEKind.ULE:
        values = ule_rate(np.array(freqs), bath)
        if lamb_shift:
            # union positions (w_ij, w_jk) of every chained product a_ij a_jk
            codes = [np.where((p[:, :, None] >= 0) & (p >= 0),
                              p[:, :, None] * n + p, -1) for p in where]
            # return_index takes the sort path, which imports no numpy.ma
            unique = np.unique(np.concatenate([c.ravel() for c in codes]),
                               return_index=True)[0]
            unique = unique[unique >= 0]
            # S_hat(a, b) equals S_hat(-b, -a) to the last bit, so one
            # integral serves each mirror pair whose negations exist exactly
            f = np.array(freqs)
            mirror = np.minimum(np.searchsorted(f, -f), n - 1)
            exact = f[mirror] == -f
            p, q = np.divmod(unique, n)
            twin = np.where(exact[p] & exact[q], mirror[q] * n + mirror[p],
                            unique)
            canon, back = np.unique(np.minimum(unique, twin),
                                    return_inverse=True)
            coeff = ule_lamb_coefficient(f[canon // n], f[canon % n],
                                         bath)[back]
            lamb = tuple(_scatter(coeff, np.where(
                c >= 0, np.searchsorted(unique, c), -1)) for c in codes)
    else:
        if threshold is None:
            raise ValueError("ume generators need a clustering threshold")
        clusters = cluster(freqs, threshold)
        label, centers = clusters.label, clusters.centers
        values = (2.0 * np.pi * spectral_function_ule(np.array(centers),
                                                      bath))[label]
        cluster_of = tuple(_scatter(label, p, -1) for p in where)
        if lamb_shift:
            xi = xi_integral(np.array(centers), bath)[label]
            lamb = tuple(_scatter(xi, p) for p in where)
    return {"rate": tuple(_scatter(values, p) for p in where),
            "cluster": cluster_of, "lamb": lamb, "clusters": clusters}


@dataclass(eq=False)
class GeneratorSpec:
    """Everything needed to apply one master-equation generator.

    ``channel_sets`` holds one ChannelSet per coupling operator; the
    dissipator is the sum of the per-operator dissipators. ``frequencies``
    is the sorted union of their Bohr frequencies, and ``union_positions``
    holds the position in it of the channel of every level pair, -1
    outside, per coupling operator.

    The bath rates are level-pair arrays, one per coupling operator, 0
    outside every channel. ``rate`` holds Gamma (rme), 2 pi Gamma_hat at
    the cluster center (ume) or sqrt(2 pi Gamma_hat) (ule) at the frequency
    of each pair's channel. ume's ``clusters`` group ``frequencies``, and
    ``cluster`` holds their labels per level pair (-1 outside), which pair
    the level pairs ume joins. ``lamb`` holds the Lamb coefficients when
    requested: xi at the cluster center per pair (ume), or
    S_hat(w_ij, w_jk) per level triple (i, j, k) (ule); rme needs none
    beyond Gamma. Specs come from ``build_generator`` and ``symmetrized``.
    """

    kind: MEKind
    channel_sets: tuple[ChannelSet, ...]
    frequencies: tuple[float, ...]
    union_positions: tuple[np.ndarray, ...]
    bath: BathModel
    rate: tuple[np.ndarray, ...]
    chi: float
    pauli_blocked: bool = False
    lamb_shift: bool = False
    clusters: FrequencyClusters | None = None
    cluster: tuple[np.ndarray, ...] | None = None
    lamb: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        self.chi = float(self.chi)
        for arr in (*self.rate, *(self.lamb or ())):
            if not np.all(np.isfinite(arr)):
                raise NumericalError("rate table contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.channel_sets[0].dim

    @property
    def subspaces(self) -> tuple[tuple[int, ...], ...]:
        return self.channel_sets[0].subspaces

    @property
    def level_subspace(self) -> np.ndarray:
        """Index of the eigen-subspace of every level."""
        return np.repeat(np.arange(len(self.subspaces)),
                         [len(idx) for idx in self.subspaces])

    @property
    def couplings(self) -> tuple[np.ndarray, ...]:
        return tuple(ch.coupling for ch in self.channel_sets)

    @cached_property
    def rate_factors(self) -> tuple[tuple[tuple, ...], ...]:
        """Rate factors (U, V) of the dissipator, per coupling operator;
        ume's joins only the pairs of pairs in ``pair_pairs``."""
        if self.kind is MEKind.RME:
            return tuple(((g, 1.0), (1.0, g)) for g in self.rate)
        if self.kind is MEKind.ULE:
            return tuple(((j, j),) for j in self.rate)
        return tuple(((rate, 1.0),) for rate in self.rate)

    @cached_property
    def pair_pairs(self) -> tuple:
        """ume: flat indices (p, q) of every two level pairs with one cluster
        label, per coupling operator; None for rme and ule."""
        if self.kind is not MEKind.UME:
            return (None,) * len(self.channel_sets)
        flat = [label.ravel() for label in self.cluster]
        return tuple(np.nonzero((f[:, None] == f) & (f >= 0)[:, None])
                     for f in flat)

    @cached_property
    def blocking_split(self):
        """Couplings split as a = a_free + a_blk, where a_blk holds the blocks
        between two different subspaces (outside the ume zero-frequency
        cluster) whose rows Pauli blocking scales; zero for linear specs."""
        sub = self.level_subspace
        blockable = (sub[:, None] != sub) & self.pauli_blocked
        masks = [blockable] * len(self.channel_sets)
        zero = self.clusters.zero_cluster_index if self.clusters else None
        if zero is not None:
            masks = [m & (c != zero) for m, c in zip(masks, self.cluster)]
        return (tuple(np.where(m, 0.0, a) for m, a in zip(masks, self.couplings)),
                tuple(np.where(m, a, 0.0) for m, a in zip(masks, self.couplings)))

    @cached_property
    def lamb_hamiltonian(self) -> np.ndarray:
        """The Hermitian level shift, ``lamb_shift_hamiltonian(self)``."""
        return lamb_shift_hamiltonian(self)

    def decay_rate_arrays(self) -> tuple[np.ndarray, ...]:
        """sum_(U, V) U o conj(V), the coefficient of A rho A^+ for a level
        pair with itself, per coupling operator."""
        return tuple(sum(u * np.conj(v) for u, v in factors)
                     for factors in self.rate_factors)

    def diagonal_rates(self) -> tuple[np.ndarray, ...]:
        """Decay rate of every channel, read at its first level pair, per
        coupling operator."""
        out = []
        for ch, rate in zip(self.channel_sets, self.decay_rate_arrays()):
            index, first = np.unique(ch.channel, return_index=True)
            out.append(rate.real.ravel()[first[index >= 0]])
        return tuple(out)

    def symmetrized(self) -> "GeneratorSpec":
        """Same channels and flags, rates averaged with their
        mirror-frequency partners.

        The mirror of pair (i, j) is (j, i): Gamma_s = (Gamma + Gamma^+) / 2
        keeps the even decay rate and the odd level shift, which makes the
        constraint residual vanish identically. ule averages squared
        amplitudes; ume Lamb coefficients keep their odd part; ule Lamb
        coefficients only enter the commutator and are copied.
        """
        lamb = self.lamb
        if self.kind is MEKind.RME:
            rate = tuple(0.5 * (g + g.conj().T) for g in self.rate)
        elif self.kind is MEKind.UME:
            rate = tuple(0.5 * (r + r.T) for r in self.rate)
            if lamb is not None:
                lamb = tuple(0.5 * (s - s.T) for s in lamb)
        else:
            rate = tuple(np.sqrt(0.5 * (j ** 2 + (j ** 2).T))
                         for j in self.rate)
        return replace(self, rate=rate, lamb=lamb)


def build_generator(h: SystemHamiltonian, coupling, bath: BathModel,
                    kind: MEKind | str, chi: float,
                    clustering_threshold: float | None = None,
                    pauli_blocked: bool = False,
                    lamb_shift: bool = False) -> GeneratorSpec:
    """Decompose, cluster, and rate-evaluate in one call.

    ``coupling`` may be a single CouplingOperator or a sequence; each
    operator becomes an independent noise source with its own channel set.
    The union of all their frequencies is formed once, here, and
    clustering and the rate table run over it.
    """
    if isinstance(coupling, CouplingOperator):
        ops = [coupling]
    else:
        ops = list(coupling)
        if not ops:
            raise ValueError("at least one coupling operator is required")
    for op in ops[1:]:
        if op.dim != ops[0].dim:
            raise DimensionError("coupling operators differ in dimension")

    kind = MEKind(kind)
    channel_sets = tuple(decompose(h, op) for op in ops)
    freqs = tuple(sorted({w for ch in channel_sets for w in ch.frequencies}))
    where = tuple(_scatter(np.searchsorted(freqs, ch.frequencies), ch.channel,
                           -1) for ch in channel_sets)
    table = build_rate_table(kind, freqs, where, bath, clustering_threshold,
                             lamb_shift)
    return GeneratorSpec(kind=kind, channel_sets=channel_sets,
                         frequencies=freqs, union_positions=where, bath=bath,
                         chi=chi, pauli_blocked=pauli_blocked,
                         lamb_shift=lamb_shift, **table)


def particle_hole_transform(h: SystemHamiltonian, spec: GeneratorSpec
                            ) -> tuple[SystemHamiltonian, GeneratorSpec]:
    """Build the generator the same construction assigns to the hole picture.

    Working in the particle eigenbasis, the hole Hamiltonian is -diag(E)
    (levels reordered ascending by an exact permutation) and each hole
    coupling operator is the transpose of the matching eigenbasis coupling.
    Bath, kind, chi, clustering threshold, blocking, and Lamb flag carry
    over unchanged. Returns the hole Hamiltonian and its spec, which treat
    the particle eigenbasis as their own original basis.
    """
    energies = h.energies
    order = np.argsort(-energies, kind="stable")
    hole_energies = (-energies)[order]
    perm = np.eye(h.dim, dtype=complex)[:, order]
    h_hole = SystemHamiltonian(hole_energies, perm,
                               degeneracy_tol=h.degeneracy_tol)
    a_hole = [CouplingOperator(f"hole:{ch.label}", ch.coupling.T.copy())
              for ch in spec.channel_sets]
    threshold = spec.clusters.threshold if spec.clusters is not None else None
    return h_hole, build_generator(
        h_hole, a_hole, spec.bath, spec.kind, spec.chi,
        clustering_threshold=threshold, pauli_blocked=spec.pauli_blocked,
        lamb_shift=spec.lamb_shift)


def _sandwich(spec: GeneratorSpec, x, y, rho=None, factors=None):
    """Sandwich of D(X, Y) applied to ``rho`` (a state, a stack, or None)
    and its anticommutator matrix, over ``factors`` (default: the rate
    factors). ume scatters its pair-of-pairs lists."""
    d = spec.dim
    out = None if rho is None else np.zeros(np.shape(rho), dtype=complex)
    anti = np.zeros((d, d), dtype=complex)
    factors = spec.rate_factors if factors is None else factors
    for xk, yk, fk, pairs in zip(x, y, factors, spec.pair_pairs):
        for u, v in fk:
            left, right = u * xk, v * yk
            if not (left.any() and right.any()):
                continue
            if pairs is None:
                right = right.conj().T
                anti += right @ left
                if out is not None:
                    out += left @ rho @ right
                continue
            p, q = pairs
            coeff = left.ravel()[p] * right.ravel()[q].conj()
            (i, j), (k, l) = np.divmod(p, d), np.divmod(q, d)
            row = i == k
            np.add.at(anti, (l[row], j[row]), coeff[row])
            if out is not None:
                flat = np.reshape(rho, (-1, d * d)).T
                image = np.zeros((d * d, flat.shape[1]), dtype=complex)
                np.add.at(image, i * d + k, coeff[:, None] * flat[j * d + l])
                out += image.T.reshape(out.shape)
    return out, anti


def lamb_shift_hamiltonian(spec: GeneratorSpec) -> np.ndarray:
    """Hermitian level shift, summed over coupling operators.

    rme: (a^+ Lambda - Lambda^+ a) / 2i with Lambda = Gamma o a. ume:
    sum_c xi(center_c) A_c^+ A_c with A_c the coupling on the pairs of
    cluster c: the anticommutator matrix with xi in place of the rate. ule:
    H_ik = sum_j S_hat(w_ij, w_jk) a_ij a_jk.
    """
    if spec.kind is not MEKind.RME and spec.lamb is None:
        raise ValueError("rate table was built without Lamb coefficients")
    a = spec.couplings
    if spec.kind is MEKind.UME:
        xi = tuple(((s, 1.0),) for s in spec.lamb)
        out = _sandwich(spec, a, a, factors=xi)[1]
    elif spec.kind is MEKind.RME:
        lam = [g * ak for g, ak in zip(spec.rate, a)]
        out = sum((ak.conj().T @ lk - lk.conj().T @ ak) / 2j
                  for ak, lk in zip(a, lam))
    else:
        out = sum(np.einsum("ij,ijk,jk->ik", ak, s, ak)
                  for ak, s in zip(a, spec.lamb))
    if max_norm(out - out.conj().T) > 1e-10:
        raise RuntimeError("Lamb-shift construction lost Hermiticity")
    return hermitize(out)


def effective_hamiltonian(h: SystemHamiltonian,
                          spec: GeneratorSpec) -> np.ndarray:
    """diag(E), plus the Lamb shift when the spec asks for it."""
    heff = np.diag(h.energies).astype(complex)
    return heff + spec.lamb_hamiltonian if spec.lamb_shift else heff

