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
channel decomposition (the integer channel label of every level pair),
the frequency clusters (the cluster label of every frequency), the bath
functions and the state packing with the package; its channel and block
operators it cuts from the coupling itself, by label and by subspace. Pair
sums are contracted with numpy instead of Python loops so the oracle stays
usable at d = 16.

The Kronecker route is built on the same pair sums: the complex generator
on column-stacked states, one probe of ``Oracle.liouvillian`` per unit
matrix, exponentiated by scipy once per sample (``expm_propagate``).

The module also keeps the ule dissipator in Lindblad form, one jump
operator per coupling, a reader of level-pair arrays by frequency, and
lookups by frequency of a channel operator and of a cluster. It keeps the
Redfield pair rates built from the one-sided spectral function, and the
per-frequency principal-value quadrature the package used before its
integrals were evaluated in frequency batches on fixed-order panels: one
integral per call, its node budget shared evenly by its panels.
"""

import functools
import math

import numpy as np
from scipy.linalg import expm

from rdmprop import bath as _bath
from rdmprop.core import as_matrices
from rdmprop.generators import MEKind
from rdmprop.propagate import pack_hermitian, unpack_hermitian


def ule_jump_operators(spec):
    """One jump operator L = J o a = sum_w sqrt(2 pi J_hat(w)) A_w per
    coupling."""
    if spec.kind is not MEKind.ULE:
        raise ValueError("generator kind is not ule")
    return tuple(j * a for j, a in zip(spec.rate, spec.couplings))


def dissipator_ule(rho, spec):
    """Factorized-rate dissipator in Lindblad form, one jump per coupling."""
    rho = as_matrices(rho, spec.dim)
    out = np.zeros_like(rho)
    for jump in ule_jump_operators(spec):
        jd = jump.conj().T
        anti = jd @ jump
        out += jump @ rho @ jd - 0.5 * (anti @ rho + rho @ anti)
    return out


def channel_operator(ch, frequency):
    """The coupling on the level pairs of the channel at ``frequency``."""
    if frequency not in ch.frequencies:
        raise KeyError(f"no channel at frequency {frequency!r}")
    return np.where(ch.channel == ch.frequencies.index(frequency),
                    ch.coupling, 0.0)


def cluster_index(clusters, frequency):
    """Label of the cluster of ``frequency``."""
    if frequency not in clusters.frequencies:
        raise KeyError(f"frequency {frequency!r} is not in any cluster")
    return int(clusters.label[clusters.frequencies.index(frequency)])


def cluster_center(clusters, frequency):
    """Center of the cluster of ``frequency``."""
    return clusters.centers[cluster_index(clusters, frequency)]


def subspace_blocks(ch):
    """(target, source, frequency, operator) of every kept eigen-subspace
    block of a channel set, the operator the coupling on that block."""
    out = []
    for t, rows in enumerate(ch.subspaces):
        for s, cols in enumerate(ch.subspaces):
            k = ch.channel[rows[0], cols[0]]
            if k < 0:
                continue
            idx = np.ix_(rows, cols)
            op = np.zeros((ch.dim, ch.dim), dtype=complex)
            op[idx] = ch.coupling[idx]
            out.append((t, s, ch.frequencies[k], op))
    return out


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
    mixed = np.einsum("pq,qij->pij", coeff.conj(), ops, optimize=True)
    return np.einsum("pji,pjk->ik", mixed.conj(), ops, optimize=True), mixed


def _pair_sum(rho, ops, coeff):
    """sum_(p, q) coeff[p, q] (A_p rho A_q^+ - 1/2 {A_q^+ A_p, rho})."""
    return _apply(rho, ops, *_pair_products(ops, coeff))


def _apply(rho, ops, anti, mixed):
    sandwich = (ops @ rho @ np.swapaxes(mixed.conj(), 1, 2)).sum(axis=0)
    return sandwich - 0.5 * (anti @ rho + rho @ anti)


def spectral_function_redfield(omega0, bath):
    """One-sided-FT spectral function Gamma(w0) = pi*Gamma_hat(w0) + i*xi(w0)."""
    return (np.pi * _bath.spectral_function_ule(omega0, bath)
            + 1j * _bath.xi_integral(omega0, bath))


def rme_rates(omega, omega_prime, bath):
    """Pairwise decay rate gamma(w, w') = Gamma(w) + Gamma*(w')."""
    return (spectral_function_redfield(omega, bath)
            + np.conj(spectral_function_redfield(omega_prime, bath)))


def rme_lamb(omega, omega_prime, bath):
    """Pairwise Lamb-shift coefficient S(w, w') = (Gamma(w) - Gamma*(w')) / 2i."""
    g = spectral_function_redfield(omega, bath)
    gp = np.conj(spectral_function_redfield(omega_prime, bath))
    return (g - gp) / 2j


@functools.lru_cache(maxsize=None)
def _gauss_nodes(order):
    return np.polynomial.legendre.leggauss(order)


def _integrate_panels(f, edges, points, skip=None):
    """Composite Gauss-Legendre over consecutive edge pairs, the node budget
    ``points`` shared evenly by the panels (8 to 512 nodes each), dropping
    empty panels and those whose midpoint lies inside ``skip``."""
    x, w = _gauss_nodes(int(min(max(points // max(len(edges) - 1, 1), 8), 512)))
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    keep = b - a > 0
    if skip is not None:
        keep &= ~((skip[0] < mid) & (mid < skip[1]))
    mid, half = mid[keep], half[keep]
    panels = np.sum(w * f(mid[:, None] + half[:, None] * x), axis=1)
    return float(np.sum(half * panels))


def _self_converged(quadrature, points, label):
    """Fine value of ``quadrature`` at 2 * points, checked against points."""
    coarse, fine = quadrature(points), quadrature(2 * points)
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        raise _bath.QuadratureError(
            f"{label} is not finite: {coarse:.3e} vs {fine:.3e}")
    diff = abs(fine - coarse)
    if diff > 1e-6 * max(abs(fine), abs(coarse), 1e-300) and diff > 1e-14:
        raise _bath.QuadratureError(
            f"{label} did not converge: {coarse:.3e} vs {fine:.3e}")
    return fine


def _geometric_edges(start, stop, factor=2.0):
    if stop <= start:
        return []
    edges = [start]
    step = start
    while edges[-1] + step < stop:
        edges.append(edges[-1] + step)
        step *= factor
    return edges


def _xi_edges(bath, cutoff, pole, delta):
    kt = bath.thermal_energy
    scales = [s for s in (bath.lam, kt, pole) if s and s > 0]
    smin = min(scales) / 128.0
    pts = {0.0, cutoff}
    pts.update(e for e in _geometric_edges(smin, cutoff) if 0 < e < cutoff)
    if pole is not None:
        window = (pole - delta, pole + delta)
        pts = {p for p in pts if not (window[0] < p < window[1])}
        pts.update(window)
        for sign in (-1.0, 1.0):
            step = delta
            edge = pole + sign * delta
            while 0 < edge + sign * step < cutoff and step < cutoff:
                edge = edge + sign * step
                if window[0] < edge < window[1]:
                    break
                pts.add(edge)
                step *= 2.0
    return np.array(sorted(pts))


def _xi_quadrature(omega0, bath, points, cutoff):
    kt, lam = bath.thermal_energy, bath.lam
    drude_lorentz, occupancy = _bath.drude_lorentz, _bath._occupancy

    if abs(omega0) < _bath._ZERO_FREQ:
        edges = _xi_edges(bath, cutoff, None, 0.0)
        total = _integrate_panels(lambda w: -drude_lorentz(w, lam) / w, edges,
                                  points)
        return total - lam * (lam / cutoff)

    pole = abs(omega0)
    delta = min(1e-4 * max(lam, pole), 0.5 * pole)

    def f(w):
        n = occupancy(w, kt)
        return drude_lorentz(w, lam) * (n / (omega0 + w) + (n + 1.0) / (omega0 - w))

    edges = _xi_edges(bath, cutoff, pole, delta)
    total = _integrate_panels(f, edges, points,
                              skip=(pole - delta, pole + delta))
    upper = float(omega0 > 0)

    def g(w):
        return drude_lorentz(w, lam) * (occupancy(w, kt) + upper)

    h = delta / 16.0
    dg = float(g(pole + h) - g(pole - h)) / (2.0 * h)
    regular = (drude_lorentz(pole, lam) * float(occupancy(pole, kt) + (1.0 - upper))
               / (omega0 + omega0))
    total += -math.copysign(2.0, omega0) * delta * dg + 2.0 * delta * regular
    return total + lam * (lam / omega0) * np.log1p(-omega0 / cutoff)


def xi_quadrature(omega0, bath):
    """xi(w0) of one frequency, node budgets pv_points and twice that."""
    cutoff = bath.cutoff_for(omega0)
    return _self_converged(
        lambda points: _xi_quadrature(omega0, bath, points, cutoff),
        bath.pv_points, f"xi({omega0:g})")


def _ule_lamb_quadrature(a, b, bath, points, cutoff):
    def g(w):
        with np.errstate(over="ignore"):
            return np.sqrt(_bath.spectral_function_ule(w - a, bath)
                           * _bath.spectral_function_ule(w + b, bath))

    scales = [s for s in (bath.lam, bath.thermal_energy) if s > 0]
    delta = 1e-4 * min(scales)
    smin = min(scales + [x for x in (abs(a), abs(b)) if x > 0]) / 128.0

    half = {cutoff}
    half.update(e for e in _geometric_edges(max(delta, smin), cutoff)
                if delta < e < cutoff)
    anchors = [x for x in (a, -b) if delta < abs(x) < cutoff]
    pos = sorted(half | {abs(x) for x in anchors} | {delta})
    edges = np.array([-e for e in reversed(pos)] + pos)

    total = _integrate_panels(lambda w: g(w) / w, edges, points,
                              skip=(-delta, delta))
    h = delta / 16.0
    dg = float(g(h) - g(-h)) / (2.0 * h)
    total += 2.0 * delta * dg
    total += bath.lam * (bath.lam / cutoff)
    return -2.0 * np.pi * total


def ule_lamb_quadrature(a, b, bath):
    """S_hat(a, b) of one pair, node budgets 2 pv_points and twice that."""
    cutoff = bath.cutoff_for(a, b)
    return _self_converged(
        lambda points: _ule_lamb_quadrature(a, b, bath, points, cutoff),
        2 * bath.pv_points, f"S_hat({a:g}, {b:g})")


class Oracle:
    """Pair-sum generator of one spec, with rates built per frequency."""

    def __init__(self, h, spec):
        self.h, self.spec = h, spec
        self.bath = spec.bath
        self._gamma, self._amp, self._cluster, self._xi = {}, {}, {}, {}
        zero = spec.clusters.zero_cluster_index if spec.clusters else None
        self.channels, self.blocks = [], []
        for ch in spec.channel_sets:
            ops = np.array([channel_operator(ch, w) for w in ch.frequencies]
                           ).reshape(-1, h.dim, h.dim)
            freqs = ch.frequencies
            self.channels.append(
                (ops, *_pair_products(ops, self.pair_rates(freqs))))
            block_ops, block_freqs, targets = [], [], []
            for t, s, w, op in subspace_blocks(ch):
                exempt = t == s or (spec.kind is MEKind.UME and
                                    self.cluster_of(w) == zero)
                block_ops.append(op)
                block_freqs.append(w)
                targets.append(-1 if exempt else t)
            self.blocks.append((np.array(block_ops).reshape(-1, h.dim, h.dim),
                                self.pair_rates(block_freqs),
                                np.array(targets, dtype=int)))
        self.lamb = (self.lamb_hamiltonian() if spec.lamb_shift
                     else np.zeros((h.dim, h.dim)))

    def gamma(self, w):
        if w not in self._gamma:
            self._gamma[w] = spectral_function_redfield(w, self.bath)
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
            center = self.spec.clusters.centers[c]
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
                self.spec.clusters.centers[k], self.bath) for k in c])
            return np.where(c[:, None] == c[None, :], rate[:, None], 0.0)
        j = np.array([self.amplitude(w) for w in freqs])
        return np.outer(j, j).astype(complex)

    def lamb_hamiltonian(self):
        d = self.h.dim
        out = np.zeros((d, d), dtype=complex)
        kind = self.spec.kind
        for ch, (ops, _, _) in zip(self.spec.channel_sets, self.channels):
            freqs = ch.frequencies
            if kind is MEKind.RME:
                g = np.array([self.gamma(w) for w in freqs], dtype=complex)
                coeff = (g[:, None] - g.conj()[None, :]) / 2j
            elif kind is MEKind.UME:
                c = np.array([self.cluster_of(w) for w in freqs], dtype=int)
                xi = np.array([self.center_xi(w) for w in freqs])
                coeff = np.where(c[:, None] == c[None, :], xi[:, None], 0.0)
            else:
                blocks = subspace_blocks(ch)
                for _, s1, w1, op1 in blocks:
                    for t2, _, w2, op2 in blocks:
                        if s1 == t2:
                            out += _bath.ule_lamb_coefficient(
                                w1, w2, self.bath) * (op1 @ op2)
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

    def superoperator(self):
        """Complex matrix of the linear generator on column-stacked
        states: column j + d l is the image of the unit matrix E_jl."""
        if self.spec.pauli_blocked:
            raise ValueError("a Pauli-blocked generator is not linear")
        d = self.h.dim
        cols = [self.liouvillian(e.reshape(d, d, order="F")).ravel(order="F")
                for e in np.eye(d * d)]
        return np.array(cols).T

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


def expm_propagate(h, spec, rho0, times):
    """States in the original basis at ``times``, shaped (n, d, d): the
    Kronecker superoperator of the oracle, exponentiated once per sample."""
    sup = Oracle(h, spec).superoperator()
    d = h.dim
    vec = h.to_eigenbasis(np.asarray(getattr(rho0, "data", rho0),
                                     dtype=complex)).ravel(order="F")
    return h.from_eigenbasis(np.array(
        [(expm(sup * t) @ vec).reshape(d, d, order="F") for t in times]))
