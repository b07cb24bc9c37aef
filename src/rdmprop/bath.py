"""Drude-Lorentz bath: spectral functions and principal-value integrals.

The bath is the Drude-Lorentz spectral density J(w) = w lam^2/(w^2 + lam^2)
with Bose-Einstein occupancy at a temperature. From it come the
full-Fourier-transform spectral function Gamma_hat (universal Lindblad
equation), the one-sided spectral function pi Gamma_hat + i xi with its
Cauchy principal-value integral xi (Redfield and unified equations), and the
principal-value Lamb-shift coefficient S_hat of the universal Lindblad
equation. Each has one evaluation path: one occupancy, one Gamma_hat for a
frequency or an array of them, and one composite Gauss-Legendre rule whose
integrals must agree under node doubling.

Units: energies in Hartree, temperature in Kelvin, time in atomic units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n = 1.0 / np.expm1(np.asarray(omega, dtype=float) / kt)
    return np.where(np.isfinite(n), n, 0.0)


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
    50 * max(lam, |w0|) are rejected. ``pv_points`` is the node budget of the
    coarse pass of each principal-value integral.
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

    def cutoff_for(self, *frequencies: float) -> float:
        fmax = max((abs(f) for f in frequencies), default=0.0)
        if self.pv_cutoff is None:
            return 100.0 * max(self.lam, fmax, self.thermal_energy)
        if self.pv_cutoff < 50.0 * max(self.lam, fmax):
            raise ValueError(
                "pv_cutoff must be at least 50 * max(lam, |omega|) "
                f"= {50.0 * max(self.lam, fmax):g}")
        return float(self.pv_cutoff)


def spectral_function_ule(omega, bath: BathModel):
    """Full-FT bath spectral function Gamma_hat at a frequency or an array.

    J(w)(N(w)+1) for w > 0 and J(-w)N(-w) for w < 0. Both one-sided limits at
    w = 0 equal kT, and that is returned there (0 at zero temperature).
    Nonnegative everywhere.
    """
    omega = np.asarray(omega, dtype=float)
    j = drude_lorentz(np.abs(omega), bath.lam)
    n = _occupancy(np.abs(omega), bath.thermal_energy)
    out = np.where(omega > 0, j * (n + 1.0),
                   np.where(omega < 0, j * n, bath.thermal_energy))
    return out if out.ndim else float(out)


def ule_rate(omega, bath: BathModel):
    """Jump-operator amplitude sqrt(2 pi Gamma_hat(w)); real and nonnegative."""
    out = np.sqrt(2.0 * np.pi * spectral_function_ule(omega, bath))
    return out if np.ndim(out) else float(out)


@functools.lru_cache(maxsize=None)
def _gauss_nodes(order: int):
    # order is at most 512, so the cache stays small
    return np.polynomial.legendre.leggauss(order)


def _integrate_panels(f, edges: np.ndarray, points: int, skip=None) -> float:
    """Composite Gauss-Legendre over consecutive edge pairs.

    The node budget ``points`` is shared evenly by the panels (8 to 512
    nodes each). Empty panels are dropped, and so are panels whose midpoint
    lies inside ``skip``, an (a, b) principal-value excision window. ``f`` is
    called once, on the nodes of every kept panel (one row per panel).
    """
    x, w = _gauss_nodes(int(min(max(points // max(len(edges) - 1, 1), 8), 512)))
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    keep = b - a > 0
    if skip is not None:
        keep &= ~((skip[0] < mid) & (mid < skip[1]))
    mid, half = mid[keep], half[keep]
    panels = np.sum(w * f(mid[:, None] + half[:, None] * x), axis=1)
    return float(np.sum(half * panels))


def _self_converged(quadrature: Callable[[int], float], points: int,
                    label: str) -> float:
    """Fine value of ``quadrature`` at 2 * points, checked against points.

    Raises QuadratureError if either value is not finite, or if the two
    differ by more than 1e-6 relative and 1e-14 absolute.
    """
    coarse, fine = quadrature(points), quadrature(2 * points)
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        raise QuadratureError(
            f"{label} is not finite: {coarse:.3e} vs {fine:.3e}")
    diff = abs(fine - coarse)
    if diff > 1e-6 * max(abs(fine), abs(coarse), 1e-300) and diff > 1e-14:
        raise QuadratureError(
            f"{label} did not converge: {coarse:.3e} vs {fine:.3e}")
    return fine


def _geometric_edges(start: float, stop: float, factor: float = 2.0) -> list[float]:
    """Edges from start toward stop, spacing growing geometrically."""
    if stop <= start:
        return []
    edges = [start]
    step = start
    while edges[-1] + step < stop:
        edges.append(edges[-1] + step)
        step *= factor
    return edges


def _xi_edges(bath: BathModel, cutoff: float, pole: float | None,
              delta: float) -> tuple[np.ndarray, tuple[float, float] | None]:
    kt = bath.thermal_energy
    scales = [s for s in (bath.lam, kt, pole) if s and s > 0]
    smin = min(scales) / 128.0
    pts = {0.0, cutoff}
    pts.update(e for e in _geometric_edges(smin, cutoff) if 0 < e < cutoff)
    window = None
    if pole is not None:
        window = (pole - delta, pole + delta)
        pts = {p for p in pts if not (window[0] < p < window[1])}
        pts.update(window)
        # geometric approach to both window edges keeps the pole outside
        # each panel's region of analyticity
        for sign in (-1.0, 1.0):
            step = delta
            edge = pole + sign * delta
            while 0 < edge + sign * step < cutoff and step < cutoff:
                edge = edge + sign * step
                if window[0] < edge < window[1]:
                    break
                pts.add(edge)
                step *= 2.0
    return np.array(sorted(pts)), window


def _xi_quadrature(omega0: float, bath: BathModel, points: int, cutoff: float) -> float:
    kt, lam = bath.thermal_energy, bath.lam

    if abs(omega0) < _ZERO_FREQ:
        # the occupancies cancel exactly at w0 = 0: integrand is -J(w)/w
        edges, _ = _xi_edges(bath, cutoff, None, 0.0)
        total = _integrate_panels(lambda w: -drude_lorentz(w, lam) / w, edges,
                                  points)
        return total - lam * (lam / cutoff)

    pole = abs(omega0)
    delta = min(1e-4 * max(lam, pole), 0.5 * pole)

    def f(w):
        n = _occupancy(w, kt)
        return drude_lorentz(w, lam) * (n / (omega0 + w) + (n + 1.0) / (omega0 - w))

    edges, window = _xi_edges(bath, cutoff, pole, delta)
    total = _integrate_panels(f, edges, points, skip=window)

    # analytic window. The pole sits in (N+1)/(w0-w) for w0 > 0 and in
    # N/(w0+w) for w0 < 0: the odd part of that singular factor cancels,
    # leaving the first-order term of its numerator g. The other term is
    # regular there (denominator w0 + w0) and adds its area.
    upper = float(omega0 > 0)

    def g(w):
        return drude_lorentz(w, lam) * (_occupancy(w, kt) + upper)

    h = delta / 16.0
    dg = float(g(pole + h) - g(pole - h)) / (2.0 * h)
    regular = (drude_lorentz(pole, lam) * float(_occupancy(pole, kt) + (1.0 - upper))
               / (omega0 + omega0))
    total += -math.copysign(2.0, omega0) * delta * dg + 2.0 * delta * regular

    # closed-form Drude-Lorentz tail of the (N+1)/(w0-w) term past the
    # cutoff; the occupancy tail is exponentially negligible there
    return total + lam * (lam / omega0) * np.log1p(-omega0 / cutoff)


def xi_integral(omega0: float, bath: BathModel) -> float:
    """Imaginary coefficient of the one-sided spectral function.

    Evaluates the principal-value integral
    P int_0^cutoff dw J(w) [N(w)/(w0+w) + (N(w)+1)/(w0-w)]
    by symmetric excision of the pole plus composite Gauss-Legendre panels.
    The result is checked by doubling the node budget; a non-finite result
    or disagreement beyond 1e-6 relative raises QuadratureError.
    """
    cutoff = bath.cutoff_for(omega0)
    return _self_converged(
        lambda points: _xi_quadrature(omega0, bath, points, cutoff),
        bath.pv_points, f"xi({omega0:g})")


def spectral_function_redfield(omega0: float, bath: BathModel) -> complex:
    """One-sided-FT spectral function Gamma(w0) = pi*Gamma_hat(w0) + i*xi(w0)."""
    return np.pi * spectral_function_ule(omega0, bath) + 1j * xi_integral(omega0, bath)


def rme_rates(omega: float, omega_prime: float, bath: BathModel) -> complex:
    """Pairwise decay rate gamma(w, w') = Gamma(w) + Gamma*(w')."""
    return (spectral_function_redfield(omega, bath)
            + np.conj(spectral_function_redfield(omega_prime, bath)))


def rme_lamb(omega: float, omega_prime: float, bath: BathModel) -> complex:
    """Pairwise Lamb-shift coefficient S(w, w') = (Gamma(w) - Gamma*(w')) / 2i."""
    g = spectral_function_redfield(omega, bath)
    gp = np.conj(spectral_function_redfield(omega_prime, bath))
    return (g - gp) / 2j


def _ule_lamb_quadrature(a: float, b: float, bath: BathModel, points: int,
                         cutoff: float) -> float:
    def g(w):
        # a product that overflows (huge lam) gives an S_hat that is rejected
        with np.errstate(over="ignore"):
            return np.sqrt(spectral_function_ule(w - a, bath)
                           * spectral_function_ule(w + b, bath))

    scales = [s for s in (bath.lam, bath.thermal_energy) if s > 0]
    delta = 1e-4 * min(scales)
    smin = min(scales + [x for x in (abs(a), abs(b)) if x > 0]) / 128.0

    half = {cutoff}
    half.update(e for e in _geometric_edges(max(delta, smin), cutoff) if delta < e < cutoff)
    # anchors where the shifted spectral-function arguments cross zero
    anchors = [x for x in (a, -b) if delta < abs(x) < cutoff]
    pos = sorted(half | {abs(x) for x in anchors} | {delta})
    edges = np.array([-e for e in reversed(pos)] + pos)

    total = _integrate_panels(lambda w: g(w) / w, edges, points,
                              skip=(-delta, delta))
    h = delta / 16.0
    dg = float(g(h) - g(-h)) / (2.0 * h)
    total += 2.0 * delta * dg
    # positive-side Drude-Lorentz tail; the negative side is thermally damped
    total += bath.lam * (bath.lam / cutoff)
    return -2.0 * np.pi * total


def ule_lamb_coefficient(omega_ml: float, omega_ln: float, bath: BathModel) -> float:
    """Lamb-shift coefficient of the universal Lindblad equation.

    S_hat(a, b) = -2 pi P int dw w^-1 sqrt(Gamma_hat(w-a) Gamma_hat(w+b)),
    with the w = 0 principal value handled by symmetric excision. Converges to
    the same value under node doubling or raises QuadratureError.
    """
    cutoff = bath.cutoff_for(omega_ml, omega_ln)
    # the domain spans both half-axes and the integrand has square-root
    # kinks where a shifted argument changes sign, so the node budget
    # starts at twice the one-sided xi budget
    return _self_converged(
        lambda points: _ule_lamb_quadrature(omega_ml, omega_ln, bath, points,
                                            cutoff),
        2 * bath.pv_points, f"S_hat({omega_ml:g}, {omega_ln:g})")


@dataclass(frozen=True)
class SpectralSample:
    """One row of a spectral-function dump."""

    omega: float
    gamma_hat: float
    gamma_real: float
    lamb_shift: float


def sample_spectra(bath: BathModel, omegas) -> list[SpectralSample]:
    """Evaluate Gamma_hat and Gamma over a frequency grid (for CSV dumps)."""
    omegas = np.asarray(omegas, dtype=float)
    return [SpectralSample(float(w), float(g), np.pi * float(g),
                           xi_integral(float(w), bath))
            for w, g in zip(omegas, spectral_function_ule(omegas, bath))]
