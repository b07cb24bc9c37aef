"""Channel-pair route to every generator, kept as an independent test oracle.

This is the construction the package used before its dissipator became one
bilinear expression over level-pair rate arrays. The dissipator is the
explicit sum over pairs of channel operators of each coupling operator,

    D(rho) = sum_(w, w') r(w, w') (A_w rho A_w'^+ - 1/2 {A_w'^+ A_w, rho}),

and the Pauli-blocked dissipator is the same sum over pairs of eigen-subspace
blocks, each term scaled by sqrt(f) of the target subspace of every
blockable side. Pair rates are composed from the bath functions evaluated
at each channel frequency; the Lamb shift comes from the same pair sums
(rme, ume) or from chained block products (ule). The oracle shares only the
channel decomposition, the frequency clusters, the bath functions and the
state packing with the package. Pair sums are contracted with numpy instead
of Python loops so the oracle stays usable at d = 16.

The module also keeps the ule dissipator in Lindblad form, one jump
operator per coupling, a reader of level-pair arrays by frequency, and
lookups of a frequency's cluster by member.
"""

import numpy as np

from rdmprop import bath as _bath
from rdmprop.core import as_matrices
from rdmprop.generators import MEKind
from rdmprop.propagate import pack_hermitian, unpack_hermitian


def ule_jump_operators(spec):
    """One jump operator L = J o a = sum_w sqrt(2 pi J_hat(w)) A_w per
    coupling."""
    if spec.kind is not MEKind.ULE:
        raise ValueError("generator kind is not ule")
    return tuple(j * a for j, a in zip(spec.rates.rate, spec.couplings))


def dissipator_ule(rho, spec):
    """Factorized-rate dissipator in Lindblad form, one jump per coupling."""
    rho = as_matrices(rho, spec.dim)
    out = np.zeros_like(rho)
    for jump in ule_jump_operators(spec):
        jd = jump.conj().T
        anti = jd @ jump
        out += jump @ rho @ jd - 0.5 * (anti @ rho + rho @ anti)
    return out


def cluster_index(clusters, frequency):
    """Index of the cluster that lists ``frequency`` among its members."""
    for k, c in enumerate(clusters.clusters):
        if frequency in c.members:
            return k
    raise KeyError(f"frequency {frequency!r} is not in any cluster")


def cluster_center(clusters, frequency):
    """Center of the cluster that lists ``frequency`` among its members."""
    return clusters.clusters[cluster_index(clusters, frequency)].center


def union_values(spec, arrays):
    """{frequency: entry} of per-coupling level-pair arrays, read at the
    first level pair of each channel in the union of the couplings."""
    out = {}
    for arr, pos in zip(arrays, spec.union_positions):
        kept = pos >= 0
        for u, value in zip(pos[kept], arr[kept]):
            out.setdefault(spec.frequencies[u], value)
    return out


def _pair_products(ops, coeff):
    """sum_(p, q) coeff[p, q] A_q^+ A_p, and the mixed operators
    C_p = sum_q conj(coeff[p, q]) A_q."""
    mixed = np.einsum("pq,qij->pij", coeff.conj(), ops)
    return np.einsum("pji,pjk->ik", mixed.conj(), ops), mixed


def _pair_sum(rho, ops, coeff):
    """sum_(p, q) coeff[p, q] (A_p rho A_q^+ - 1/2 {A_q^+ A_p, rho})."""
    return _apply(rho, ops, *_pair_products(ops, coeff))


def _apply(rho, ops, anti, mixed):
    sandwich = (ops @ rho @ np.swapaxes(mixed.conj(), 1, 2)).sum(axis=0)
    return sandwich - 0.5 * (anti @ rho + rho @ anti)


class Oracle:
    """Pair-sum generator of one spec, with rates built per frequency."""

    def __init__(self, h, spec):
        self.h, self.spec = h, spec
        self.bath = spec.rates.bath
        self._gamma, self._amp, self._cluster, self._xi = {}, {}, {}, {}
        zero = spec.clusters.zero_cluster_index if spec.clusters else None
        self.channels, self.blocks = [], []
        for ch in spec.channel_sets:
            ops = np.array([ch.operator(w) for w in ch.frequencies]
                           ).reshape(-1, h.dim, h.dim)
            freqs = ch.frequencies
            self.channels.append(
                (ops, *_pair_products(ops, self.pair_rates(freqs))))
            block_ops, block_freqs, targets = [], [], []
            for b in ch.blocks:
                idx = np.ix_(ch.subspaces[b.target], ch.subspaces[b.source])
                op = np.zeros((h.dim, h.dim), dtype=complex)
                op[idx] = ch.operator(b.frequency)[idx]
                exempt = b.is_diagonal or (spec.kind is MEKind.UME and
                                           self.cluster_of(b.frequency) == zero)
                block_ops.append(op)
                block_freqs.append(b.frequency)
                targets.append(-1 if exempt else b.target)
            self.blocks.append((np.array(block_ops).reshape(-1, h.dim, h.dim),
                                self.pair_rates(block_freqs),
                                np.array(targets, dtype=int)))
        self.lamb = (self.lamb_hamiltonian() if spec.lamb_shift
                     else np.zeros((h.dim, h.dim)))

    def gamma(self, w):
        if w not in self._gamma:
            self._gamma[w] = _bath.spectral_function_redfield(w, self.bath)
        return self._gamma[w]

    def amplitude(self, w):
        if w not in self._amp:
            self._amp[w] = _bath.ule_rate(w, self.bath)
        return self._amp[w]

    def cluster_of(self, w):
        if w not in self._cluster:
            self._cluster[w] = cluster_index(self.spec.clusters, w)
        return self._cluster[w]

    def center_xi(self, w):
        """Principal-value integral at the center of the cluster of w."""
        c = self.cluster_of(w)
        if c not in self._xi:
            center = self.spec.clusters.clusters[c].center
            self._xi[c] = _bath.xi_integral(center, self.bath)
        return self._xi[c]

    def pair_rates(self, freqs):
        """r(w, w'), the coefficient of A_w rho A_w'^+, for all pairs of
        ``freqs``."""
        kind = self.spec.kind
        if kind is MEKind.RME:
            g = np.array([self.gamma(w) for w in freqs], dtype=complex)
            return g[:, None] + g.conj()[None, :]
        if kind is MEKind.UME:
            c = np.array([self.cluster_of(w) for w in freqs], dtype=int)
            rate = np.array([2.0 * np.pi * _bath.spectral_function_ule(
                self.spec.clusters.clusters[k].center, self.bath) for k in c])
            return np.where(c[:, None] == c[None, :], rate[:, None], 0.0)
        j = np.array([self.amplitude(w) for w in freqs])
        return np.outer(j, j).astype(complex)

    def lamb_hamiltonian(self):
        d = self.h.dim
        out = np.zeros((d, d), dtype=complex)
        kind = self.spec.kind
        for ch, (ops, _, _), (block_ops, _, _) in zip(
                self.spec.channel_sets, self.channels, self.blocks):
            freqs = ch.frequencies
            if kind is MEKind.RME:
                g = np.array([self.gamma(w) for w in freqs], dtype=complex)
                coeff = (g[:, None] - g.conj()[None, :]) / 2j
            elif kind is MEKind.UME:
                c = np.array([self.cluster_of(w) for w in freqs], dtype=int)
                xi = np.array([self.center_xi(w) for w in freqs])
                coeff = np.where(c[:, None] == c[None, :], xi[:, None], 0.0)
            else:
                for b1, op1 in zip(ch.blocks, block_ops):
                    for b2, op2 in zip(ch.blocks, block_ops):
                        if b1.source == b2.target:
                            out += _bath.ule_lamb_coefficient(
                                b1.frequency, b2.frequency, self.bath) \
                                * (op1 @ op2)
                continue
            out += _pair_products(ops, coeff.reshape(len(freqs),
                                                     len(freqs)))[0]
        return 0.5 * (out + out.conj().T)

    def dissipator(self, rho, root=None):
        """Unblocked channel-pair sum, or the blocked per-block sum when
        ``root`` (sqrt of the hole occupancy per subspace) is given."""
        out = np.zeros_like(rho, dtype=complex)
        if root is None:
            for terms in self.channels:
                out += _apply(rho, *terms)
            return out
        weight_of = np.append(root, 1.0)
        for ops, coeff, targets in self.blocks:
            w = weight_of[targets]
            out += _pair_sum(rho, ops, coeff * np.outer(w, w))
        return out

    def liouvillian(self, rho, root=None):
        heff = np.diag(self.h.energies) + self.lamb
        return -1j * (heff @ rho - rho @ heff) + self.dissipator(rho, root)

    def root(self, rho):
        """Clamped sqrt(chi - n_s) from the subspace occupancies of rho."""
        occ = np.array([np.real(np.trace(rho[np.ix_(idx, idx)])) / len(idx)
                        for idx in self.spec.subspaces])
        return np.sqrt(np.clip(self.spec.chi - occ, 0.0, None))

    def packed_generator(self):
        """Real packed matrix of the linear generator, one probe per column."""
        d = self.h.dim
        cols = [pack_hermitian(self.liouvillian(unpack_hermitian(e, d)))
                for e in np.eye(d * d)]
        return np.array(cols).T

    def blocked_rhs(self, y):
        """Packed right-hand side of the blocked equation at packed state y."""
        rho = unpack_hermitian(y, self.h.dim)
        return pack_hermitian(self.liouvillian(rho, self.root(rho)))
