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
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(eq=False)
class RateTable:
    """Bath rates as level-pair arrays, one per coupling operator.

    ``rate`` holds Gamma (rme), 2 pi Gamma_hat at the cluster center (ume)
    or sqrt(2 pi Gamma_hat) (ule) at the frequency of each pair's channel,
    0 outside every channel. ``cluster`` holds ume cluster labels (-1
    outside), which pair the level pairs ume joins. ``lamb`` holds the
    Lamb coefficients when requested: xi at the cluster center per pair
    (ume), or S_hat(w_ij, w_jk) per level triple (i, j, k) (ule); rme needs
    none beyond Gamma.
    """

    kind: MEKind
    bath: BathModel
    rate: tuple[np.ndarray, ...]
    cluster: tuple[np.ndarray, ...] | None = None
    lamb: tuple[np.ndarray, ...] | None = None

    def symmetrized(self) -> "RateTable":
        """Rates averaged with their mirror-frequency partners.

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
        return RateTable(kind=self.kind, bath=self.bath, rate=rate,
                         cluster=self.cluster, lamb=lamb)


def _union_frequencies(channel_sets) -> tuple[float, ...]:
    return tuple(sorted({w for ch in channel_sets for w in ch.frequencies}))


def _union_positions(channel_sets, freqs) -> list[np.ndarray]:
    """Position in ``freqs`` of the channel of every level pair, -1 outside,
    per channel set."""
    return [_scatter(np.searchsorted(freqs, ch.frequencies), ch.channel, -1)
            for ch in channel_sets]


def _scatter(values, index: np.ndarray, fill=0.0) -> np.ndarray:
    """values[index] with ``fill`` wherever index is -1."""
    return np.append(np.asarray(values), fill)[index]


def build_rate_table(kind: MEKind, channel_sets, bath: BathModel,
                     clusters: FrequencyClusters | None = None,
                     lamb_shift: bool = False) -> RateTable:
    """Evaluate every bath quantity the chosen generator kind needs.

    Gamma_hat is evaluated in one call on the distinct frequencies of the
    channel sets, and every bath quantity is scattered onto their level
    pairs through the channel labels. ume reads each frequency's cluster
    from ``clusters.label``, so the clusters must be built over exactly
    that union of frequencies. Principal-value integrals run only where
    used, in one array call per table: in every rme rate, at ume cluster
    centers for the Lamb shift, and for ule at the frequency pairs
    (w_ij, w_jk) of chained channel products a_ij a_jk, once per mirror
    pair (a, b), (-b, -a).
    """
    if isinstance(channel_sets, ChannelSet):
        channel_sets = (channel_sets,)
    kind = MEKind(kind)
    freqs = _union_frequencies(channel_sets)
    n = len(freqs)
    where = _union_positions(channel_sets, freqs)
    cluster_of = lamb = None
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
        if clusters is None:
            raise ValueError("ume rate table needs frequency clusters")
        if clusters.frequencies != freqs:
            raise ValueError("clusters were built over other frequencies "
                             "than the channels'")
        label, centers = clusters.label, clusters.centers
        values = (2.0 * np.pi * spectral_function_ule(np.array(centers),
                                                      bath))[label]
        cluster_of = tuple(_scatter(label, p, -1) for p in where)
        if lamb_shift:
            xi = xi_integral(np.array(centers), bath)[label]
            lamb = tuple(_scatter(xi, p) for p in where)
    return RateTable(kind, bath, tuple(_scatter(values, p) for p in where),
                     cluster=cluster_of, lamb=lamb)


@dataclass(eq=False)
class GeneratorSpec:
    """Everything needed to apply one master-equation generator.

    ``channel_sets`` holds one ChannelSet per coupling operator; the
    dissipator is the sum of the per-operator dissipators.
    """

    kind: MEKind
    channel_sets: tuple[ChannelSet, ...]
    rates: RateTable
    chi: float
    pauli_blocked: bool = False
    lamb_shift: bool = False
    clusters: FrequencyClusters | None = None

    def __post_init__(self):
        self.kind = MEKind(self.kind)
        if isinstance(self.channel_sets, ChannelSet):
            self.channel_sets = (self.channel_sets,)
        self.channel_sets = tuple(self.channel_sets)
        if not self.channel_sets:
            raise ValueError("at least one channel set is required")
        dims = {ch.dim for ch in self.channel_sets}
        if len(dims) != 1:
            raise DimensionError("channel sets differ in dimension")
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        self.chi = float(self.chi)
        if self.kind is MEKind.UME and self.clusters is None:
            raise ValueError("ume generators need frequency clusters")
        for arr in (*self.rates.rate, *(self.rates.lamb or ())):
            if not np.all(np.isfinite(arr)):
                raise NumericalError("rate table contains non-finite entries")
        self._lamb = None

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

    @cached_property
    def frequencies(self) -> tuple[float, ...]:
        """Sorted union of the Bohr frequencies of all coupling operators."""
        return _union_frequencies(self.channel_sets)

    @property
    def couplings(self) -> tuple[np.ndarray, ...]:
        return tuple(ch.coupling for ch in self.channel_sets)

    @cached_property
    def union_positions(self) -> list[np.ndarray]:
        """Position in ``frequencies`` of the channel of every level pair,
        -1 outside, per coupling operator."""
        return _union_positions(self.channel_sets, self.frequencies)

    @cached_property
    def rate_factors(self) -> tuple[tuple[tuple, ...], ...]:
        """Rate factors (U, V) of the dissipator, per coupling operator;
        ume's joins only the pairs of pairs in ``pair_pairs``."""
        if self.kind is MEKind.RME:
            return tuple(((g, 1.0), (1.0, g)) for g in self.rates.rate)
        if self.kind is MEKind.ULE:
            return tuple(((j, j),) for j in self.rates.rate)
        return tuple(((rate, 1.0),) for rate in self.rates.rate)

    @cached_property
    def pair_pairs(self) -> tuple:
        """ume: flat indices (p, q) of every two level pairs with one cluster
        label, per coupling operator; None for rme and ule."""
        if self.kind is not MEKind.UME:
            return (None,) * len(self.channel_sets)
        flat = [label.ravel() for label in self.rates.cluster]
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
            masks = [m & (c != zero) for m, c in zip(masks, self.rates.cluster)]
        return (tuple(np.where(m, 0.0, a) for m, a in zip(masks, self.couplings)),
                tuple(np.where(m, a, 0.0) for m, a in zip(masks, self.couplings)))

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
        """Same channels and flags, mirror-symmetrized rate table."""
        return GeneratorSpec(
            kind=self.kind, channel_sets=self.channel_sets,
            rates=self.rates.symmetrized(), chi=self.chi,
            pauli_blocked=self.pauli_blocked, lamb_shift=self.lamb_shift,
            clusters=self.clusters)

    def lamb_hamiltonian(self) -> np.ndarray:
        if self._lamb is None:
            self._lamb = lamb_shift_hamiltonian(self)
        return self._lamb


def build_generator(h: SystemHamiltonian, coupling, bath: BathModel,
                    kind: MEKind | str, chi: float,
                    clustering_threshold: float | None = None,
                    pauli_blocked: bool = False,
                    lamb_shift: bool = False,
                    drop_tol: float = 1e-12) -> GeneratorSpec:
    """Decompose, cluster, and rate-evaluate in one call.

    ``coupling`` may be a single CouplingOperator or a sequence; each
    operator becomes an independent noise source with its own channel set.
    Clustering and the rate table run over the union of all frequencies.
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
    channel_sets = tuple(decompose(h, op, drop_tol=drop_tol) for op in ops)
    clusters = None
    if kind is MEKind.UME:
        if clustering_threshold is None:
            raise ValueError("ume generators need a clustering threshold")
        clusters = cluster(_union_frequencies(channel_sets),
                           clustering_threshold)
    rates = build_rate_table(kind, channel_sets, bath, clusters, lamb_shift)
    return GeneratorSpec(kind=kind, channel_sets=channel_sets, rates=rates,
                         chi=chi, pauli_blocked=pauli_blocked,
                         lamb_shift=lamb_shift, clusters=clusters)


@dataclass(frozen=True, eq=False)
class HoleSystem:
    """Hole-picture Hamiltonian and generator, in particle-eigenbasis coordinates."""

    hamiltonian: SystemHamiltonian
    spec: GeneratorSpec


def particle_hole_transform(h: SystemHamiltonian,
                            spec: GeneratorSpec) -> HoleSystem:
    """Build the generator the same construction assigns to the hole picture.

    Working in the particle eigenbasis, the hole Hamiltonian is -diag(E)
    (levels reordered ascending by an exact permutation) and each hole
    coupling operator is the transpose of the matching eigenbasis coupling.
    Bath, kind, chi, clustering threshold, blocking, and Lamb flag carry
    over unchanged. The returned system treats the particle eigenbasis as
    its own original basis.
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
    spec_hole = build_generator(
        h_hole, a_hole, spec.rates.bath, spec.kind, spec.chi,
        clustering_threshold=threshold, pauli_blocked=spec.pauli_blocked,
        lamb_shift=spec.lamb_shift)
    return HoleSystem(hamiltonian=h_hole, spec=spec_hole)


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
    if spec.kind is not MEKind.RME and spec.rates.lamb is None:
        raise ValueError("rate table was built without Lamb coefficients")
    a = spec.couplings
    if spec.kind is MEKind.UME:
        xi = tuple(((s, 1.0),) for s in spec.rates.lamb)
        out = _sandwich(spec, a, a, factors=xi)[1]
    elif spec.kind is MEKind.RME:
        lam = [g * ak for g, ak in zip(spec.rates.rate, a)]
        out = sum((ak.conj().T @ lk - lk.conj().T @ ak) / 2j
                  for ak, lk in zip(a, lam))
    else:
        out = sum(np.einsum("ij,ijk,jk->ik", ak, s, ak)
                  for ak, s in zip(a, spec.rates.lamb))
    if max_norm(out - out.conj().T) > 1e-10:
        raise RuntimeError("Lamb-shift construction lost Hermiticity")
    return hermitize(out)


def effective_hamiltonian(h: SystemHamiltonian,
                          spec: GeneratorSpec) -> np.ndarray:
    """diag(E), plus the Lamb shift when the spec asks for it."""
    heff = np.diag(h.energies).astype(complex)
    return heff + spec.lamb_hamiltonian() if spec.lamb_shift else heff

