"""Drude-Lorentz bath: spectral functions and principal-value integrals.

The bath is the Drude-Lorentz spectral density J(w) = w lam^2/(w^2 + lam^2)
with Bose-Einstein occupancy at a temperature. From it come the
full-Fourier-transform spectral function Gamma_hat (universal Lindblad
equation), the one-sided spectral function pi Gamma_hat + i xi with its
Cauchy principal-value integral xi (Redfield and unified equations), and the
principal-value Lamb-shift coefficient S_hat of the universal Lindblad
equation. Each has one evaluation path: one Gamma_hat expression, and one
composite nested Gauss-Kronrod rule on graded panels, whose Kronrod sum is
the value and must agree with the Gauss sum on the shared nodes. Every
integral is evaluated at half the full order first, and again at the full
order only where that check fails. Every function takes one frequency or
an array of them; the integrals of an array are evaluated together in
chunked array passes.

Units: energies in Hartree, temperature in Kelvin, time in atomic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import gauss_kronrod

# CODATA Boltzmann constant in Hartree per Kelvin.
K_B = 3.166811563e-6

# Frequencies below this are treated as exactly zero: channel construction
# merges Bohr frequencies at 1e-9, so the open interval (0, 1e-12) is
# unreachable from real systems and an excision window there is meaningless.
_ZERO_FREQ = 1e-12


class QuadratureError(RuntimeError):
    """Principal-value quadrature failed its self-convergence check."""


def drude_lorentz(omega, lam: float):
    """Drude-Lorentz spectral density J(w) = w lam^2 / (w^2 + lam^2); odd in w.

    J is homogeneous of degree one, so it is evaluated on w and lam scaled
    by 2^-e, e the binary exponent of lam, and the result by 2^e, both with
    ldexp: the scaling is exact, the rounding is that of the plain formula,
    and lam^2 stays finite for any finite lam (2^e itself may not be).
    """
    e = math.frexp(lam)[1]
    omega = np.ldexp(np.asarray(omega, dtype=float), -e)
    lam = math.ldexp(lam, -e)
    out = np.ldexp(omega * lam**2 / (omega**2 + lam**2), e)
    return out if out.ndim else float(out)


def _occupancy(omega, kt: float) -> np.ndarray:
    """Bose-Einstein N(w) at w > 0; 0.0 where w/kT overflows, and at kT = 0."""
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.expm1(np.asarray(omega, dtype=float) / kt)


def bose_einstein(omega: float, temperature: float) -> float:
    """Bose-Einstein occupancy at omega > 0. Underflows to 0.0 at large w/kT."""
    if omega <= 0:
        raise ValueError("occupancy is defined for strictly positive frequency")
    return float(_occupancy(omega, K_B * temperature))


@dataclass(eq=False)
class BathModel:
    """Drude-Lorentz bath at a temperature, plus quadrature configuration.

    ``lam`` is the Drude-Lorentz width (the conventional symbol lambda is a
    Python keyword). ``pv_cutoff=None`` selects an automatic cutoff of
    100 * max(lam, |w0|, kT) per integral; explicit cutoffs below
    50 * max(lam, |w0|) are rejected. ``pv_points // 128`` is the full
    order q of the nested rule on the panels of each principal-value
    integral. The first pass runs at order q // 2, whose integrand is
    evaluated once per panel, on q // 2 Gauss and q // 2 + 1 Kronrod
    nodes; only an integral that fails its check there is evaluated again
    at order q, on 2q + 1 more nodes per panel.
    """

    lam: float
    temperature: float
    pv_cutoff: float | None = None
    pv_points: int = 2048

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"spectral density width lam must be positive "
                             f"and finite, got {self.lam}")
        if not 0 <= self.temperature < np.inf:
            raise ValueError(f"temperature must be nonnegative and finite, "
                             f"got {self.temperature}")
        if self.pv_cutoff is not None and not np.isfinite(self.pv_cutoff):
            raise ValueError(f"pv_cutoff must be finite, got {self.pv_cutoff}")
        if self.pv_points < 64:
            raise ValueError("pv_points below 64 cannot resolve the integrands")

    @property
    def thermal_energy(self) -> float:
        return K_B * self.temperature

    def cutoff_for(self, *frequencies):
        """Cutoff of the integral at these frequencies, elementwise over
        arrays of them; infinite for lam near the largest float."""
        fmax = np.max(np.abs(np.broadcast_arrays(0.0, *frequencies)), axis=0)
        with np.errstate(over="ignore"):
            floor = 50.0 * np.max(np.maximum(self.lam, fmax))
            out = 100.0 * np.maximum(max(self.lam, self.thermal_energy), fmax)
        if self.pv_cutoff is not None:
            if self.pv_cutoff < floor:
                raise ValueError("pv_cutoff must be at least "
                                 f"50 * max(lam, |omega|) = {floor:g}")
            out = np.full(fmax.shape, float(self.pv_cutoff))
        return out if out.ndim else float(out)


def spectral_function_ule(omega, bath: BathModel):
    """Full-FT bath spectral function Gamma_hat at a frequency or an array.

    J(w)(N(w)+1) for w > 0 and J(-w)N(-w) for w < 0. J is odd, so both are
    the one expression J(w) / (1 - exp(-w/kT)), evaluated with expm1. Both
    one-sided limits at w = 0 equal kT, and that is returned there (0 at
    zero temperature). Nonnegative everywhere; exactly 0.0 where the upward
    rate underflows, and for w < 0 at zero temperature.
    """
    omega = np.asarray(omega, dtype=float)
    kt = bath.thermal_energy
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = drude_lorentz(omega, bath.lam) / -np.expm1(omega / -kt)
    out = np.where(omega == 0.0, kt, out)
    return out if out.ndim else float(out)


def ule_rate(omega, bath: BathModel):
    """Jump-operator amplitude sqrt(2 pi Gamma_hat(w)); real and nonnegative."""
    out = np.sqrt(2.0 * np.pi * spectral_function_ule(omega, bath))
    return out if np.ndim(out) else float(out)


# Edges are built for blocks of this many integrals, and integrands are
# evaluated in array passes of about this many nodes. A pass holds whole
# integrals only, which bounds memory at about a MB and keeps every value
# independent of the other integrals of its call.
_BLOCK, _PASS_NODES = 64, 1 << 13


def _panel_sums(f, lo, hi, owner, count: int, q: int, params) -> np.ndarray:
    """Gauss order-q and Kronrod (2q+1)-point sums, rows 0 and 1, of
    ``f(w, *params[owner])`` over the panels [lo, hi] of each integral
    0..count-1, panels grouped by owner.

    The two rules share the q Gauss nodes, so each panel's integrand is
    evaluated once, on 2q + 1 nodes. Midpoints and half-widths are formed
    from halves, since lo + hi overflows near the largest float. A panel's
    sum is the reduction of its row of weighted nodes, and an integral's
    the sum of its panels in order, so every value depends on its own
    nodes only, never on where its rows sit in a pass. A matrix-vector
    product with the weights would not keep that: BLAS rounds by the
    position of a row in its blocks.
    """
    x, gauss, kronrod = gauss_kronrod(q)
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    ends = np.cumsum(np.bincount(owner, minlength=count))
    out = np.zeros((2, count))
    k0 = 0
    while k0 < count:
        p0 = ends[k0 - 1] if k0 else 0
        k1 = max(int(np.searchsorted(ends, p0 + _PASS_NODES // x.size,
                                     side="right")), k0 + 1)
        rows = slice(p0, ends[k1 - 1])
        k = owner[rows]
        vals = f(mid[rows, None] + half[rows, None] * x,
                 *(p[k, None] for p in params))
        k = k - k0
        for i, panel in enumerate(((vals[:, :q] * gauss).sum(axis=1),
                                   (vals * kronrod).sum(axis=1))):
            out[i, k0:k1] = np.bincount(k, weights=half[rows] * panel,
                                        minlength=k1 - k0)
        k0 = k1
    return out


def _integrals(f, edges, window, bath: BathModel, label, extra, scale,
               *params) -> np.ndarray:
    """``scale * (panel sums + extra)`` of every integral.

    ``edges(rows)`` returns the sorted, NaN-padded edges of the integrals
    ``rows``, one row each; empty panels and those whose midpoint lies
    inside (window[0][k], window[1][k]) are dropped. The full order of
    the nested rule on every panel is q = pv_points // 128 (16 at the
    default). Every integral is first evaluated at order q // 2: the value
    is its Kronrod sum, checked against the Gauss sum on the shared nodes.
    An integral whose value is not finite, or whose sums differ by more
    than 1e-6 relative and 1e-14 absolute, is evaluated again on the same
    panels at order q, so its panels cost 3q + 2 nodes each at even q; a
    failure there raises QuadratureError naming the first failing
    integral, ``label(k)``. At q = 1 there is the one pass at order q.
    Overflow and invalid values in edges and integrands are not warned
    about, since they surface as such a non-finite value.
    """
    q = max(bath.pv_points // 128, 1)
    out = np.empty(len(extra))
    todo = np.arange(len(extra))
    with np.errstate(all="ignore"):
        for order in ((q // 2, q) if q > 1 else (q,)):
            sums = np.zeros((2, todo.size))
            for k0 in range(0, todo.size, _BLOCK):
                rows = todo[k0:k0 + _BLOCK]
                e = edges(rows)
                lo, hi = e[:, :-1], e[:, 1:]
                mid = 0.5 * lo + 0.5 * hi
                keep = (hi > lo) & ~((window[0][rows, None] < mid)
                                     & (mid < window[1][rows, None]))
                sums[:, k0:k0 + _BLOCK] = _panel_sums(
                    f, lo[keep], hi[keep], np.nonzero(keep)[0], len(e), order,
                    [p[rows] for p in params])
            coarse, fine = scale * (sums + extra[todo])
            finite = np.isfinite(coarse) & np.isfinite(fine)
            diff = np.abs(fine - coarse)
            bad = ~finite | ((diff > 1e-14) & (
                diff > 1e-6 * np.maximum(np.abs(fine), np.abs(coarse))))
            out[todo] = fine
            if not bad.any():
                return out
            k = int(np.argmax(bad))
            first, todo = todo[k], todo[bad]
    raise QuadratureError(
        f"{label(first)} "
        f"{'did not converge' if finite[k] else 'is not finite'}"
        f": {coarse[k]:.3e} vs {fine[k]:.3e}")


def _doublings(start, stop) -> np.ndarray:
    """start * 2^k for k = 0, 1, ... until past the largest ``stop``."""
    # doubled past 2^2100 every float is infinite (an infinite cutoff)
    count = int(np.clip(np.log2(np.max(stop) / np.min(start)), 0, 2100)) + 2
    return np.ldexp(np.asarray(start, dtype=float)[..., None], np.arange(count))


def _xi_edges(bath: BathModel, pole: np.ndarray, delta: np.ndarray,
              cutoff: np.ndarray) -> np.ndarray:
    """Edges of each xi integral on [0, cutoff], one sorted NaN-padded row
    per frequency: geometric from min(lam, kT, |w0|) / 128 up, and where
    delta > 0, geometric from the window edges |w0| +- delta away from the
    pole, which keeps it outside each panel's region of analyticity."""
    scales = [s for s in (bath.lam, bath.thermal_energy) if s > 0]
    smin = np.minimum(min(scales), np.where(pole > 0, pole, np.inf)) / 128.0
    # without a pole (delta = 0) the steps repeat the smin edges
    step = _doublings(np.where(delta > 0, delta, smin), cutoff)
    cut = cutoff[:, None]
    e = np.concatenate([np.zeros_like(cut), cut, _doublings(smin, cutoff),
                        pole[:, None] - step, pole[:, None] + step], axis=1)
    return np.sort(np.where((0 <= e) & (e <= cut), e, np.nan), axis=1)


def xi_integral(omega0, bath: BathModel):
    """Imaginary coefficient of the one-sided spectral function, at a
    frequency or an array of them.

    Evaluates the principal-value integral
    P int_0^cutoff dw J(w) [N(w)/(w0+w) + (N(w)+1)/(w0-w)]
    by symmetric excision of the pole, nested Gauss-Kronrod panels, and the
    closed-form Drude-Lorentz tail past the cutoff, each frequency with its
    own cutoff, edges and window; QuadratureError names an unconverged one.
    No factor of the tail exceeds the tail itself, so xi is finite while
    lam^2 overflows, up to lam of about 1.79e306, past which the cutoff
    100 lam is infinite.
    """
    omega = np.asarray(omega0, dtype=float)
    if not omega.size:
        return np.zeros(omega.shape)
    kt, lam = bath.thermal_energy, bath.lam
    zero = np.abs(omega.ravel()) < _ZERO_FREQ
    # at w0 = 0 the occupancies cancel, leaving -J(w)/w, and there is no pole
    w0 = np.where(zero, 0.0, omega.ravel())
    pole = np.abs(w0)
    cutoff = bath.cutoff_for(w0)
    delta = np.minimum(1e-4 * np.maximum(lam, pole), 0.5 * pole)

    def f(w, w0):
        n = _occupancy(w, kt)
        return drude_lorentz(w, lam) * (n / (w0 + w) + (n + 1.0) / (w0 - w))

    # analytic window. The pole sits in (N+1)/(w0-w) for w0 > 0 and in
    # N/(w0+w) for w0 < 0: the odd part of that singular factor cancels,
    # leaving the first-order term of its numerator g. The other term is
    # regular there (denominator w0 + w0) and adds its area.
    upper = (w0 > 0).astype(float)

    def g(w):
        return drude_lorentz(w, lam) * (_occupancy(w, kt) + upper)

    h = delta / 16.0
    with np.errstate(all="ignore"):
        dg = (g(pole + h) - g(pole - h)) / (2.0 * h)
        regular = (drude_lorentz(pole, lam)
                   * (_occupancy(pole, kt) + (1.0 - upper)) / (w0 + w0))
        window = -np.copysign(2.0, w0) * delta * dg + 2.0 * delta * regular
        # closed-form Drude-Lorentz tail of the (N+1)/(w0-w) term past the
        # cutoff, lam^2/w0 log(1 - w0/cutoff) with lam/cutoff <= 1/50; the
        # occupancy tail is exponentially negligible there
        x = w0 / cutoff
        tail = lam * (lam / cutoff) * (np.log1p(-x) / x)
    out = _integrals(f, lambda k: _xi_edges(bath, pole[k], delta[k], cutoff[k]),
                     (pole - delta, pole + delta), bath,
                     lambda k: f"xi({omega.flat[k]:g})",
                     np.where(zero, -(lam * (lam / cutoff)), window + tail),
                     1.0, w0)
    return out.reshape(omega.shape) if omega.ndim else float(out[0])


def _lamb_edges(a: np.ndarray, b: np.ndarray, delta: float, start: float,
                cutoff: np.ndarray) -> np.ndarray:
    """Edges of each S_hat(a, b) integral on [-cutoff, cutoff], one sorted
    NaN-padded row per pair: geometric from the excision edges +-delta
    outward, and from ``start`` on both sides of each anchor w = a, w = -b,
    where a shifted spectral-function argument is zero (at T = 0 a
    square-root edge). A row depends on a and -b only as a set, so
    S_hat(a, b) and S_hat(-b, -a) share it."""
    cut = cutoff[:, None]
    base = _doublings(np.full(cutoff.shape, delta), cutoff)
    step = _doublings(start, cutoff)
    edges = [-cut, cut, -base, base]
    for c in (a[:, None], -b[:, None]):
        near = np.where(step < np.abs(c), step, np.nan)
        edges += [c, c - near, c + near]
    e = np.concatenate(edges, axis=1)
    return np.sort(np.where((delta <= np.abs(e)) & (np.abs(e) <= cut), e,
                            np.nan), axis=1)


def ule_lamb_coefficient(omega_ml, omega_ln, bath: BathModel):
    """Lamb-shift coefficient of the universal Lindblad equation, at one
    frequency pair or at broadcast arrays of them.

    S_hat(a, b) = -2 pi P int dw w^-1 sqrt(Gamma_hat(w-a) Gamma_hat(w+b)),
    with the w = 0 principal value handled by symmetric excision;
    QuadratureError names an unconverged pair. The square root is taken of
    each factor, so S_hat is finite while their product overflows, up to
    lam of about 1.79e306, past which the cutoff 100 lam is infinite.
    """
    a, b = np.broadcast_arrays(np.asarray(omega_ml, dtype=float),
                               np.asarray(omega_ln, dtype=float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    if not a.size:
        return np.zeros(shape)
    lam, kt = bath.lam, bath.thermal_energy
    delta = 1e-4 * min(s for s in (lam, kt) if s > 0)
    # Gamma_hat is analytic within min(lam, 2 pi kT) of a zero argument at
    # T > 0; at T = 0 its square root has an edge there
    start = max(delta, min(lam, kt) / 4.0)
    cutoff = bath.cutoff_for(a, b)

    def g(w, a, b):
        # the product commutes, so the mirror pair (-b, -a) evaluates the
        # same value
        return (np.sqrt(spectral_function_ule(w - a, bath))
                * np.sqrt(spectral_function_ule(w + b, bath)))

    h = delta / 16.0
    dg = (g(h, a, b) - g(-h, a, b)) / (2.0 * h)
    # positive-side Drude-Lorentz tail; the negative side is thermally damped
    out = _integrals(lambda w, a, b: g(w, a, b) / w,
                     lambda k: _lamb_edges(a[k], b[k], delta, start, cutoff[k]),
                     (np.full(a.size, -delta), np.full(a.size, delta)), bath,
                     lambda k: f"S_hat({a[k]:g}, {b[k]:g})",
                     2.0 * delta * dg + lam * (lam / cutoff), -2.0 * np.pi,
                     a, b)
    return out.reshape(shape) if shape else float(out[0])


def sample_spectra(bath: BathModel, omegas) -> tuple[np.ndarray, ...]:
    """Columns of a spectral-function dump over a frequency grid: omega,
    Gamma_hat, the decay rate pi Gamma_hat and xi."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    gamma_hat = spectral_function_ule(omegas, bath)
    return omegas, gamma_hat, np.pi * gamma_hat, xi_integral(omegas, bath)
