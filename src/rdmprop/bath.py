"""Bosonic bath model and spectral functions.

Implements the Drude-Lorentz spectral density, Bose-Einstein occupancy, the
full-Fourier-transform spectral function (used by the universal Lindblad
equation), the one-sided spectral function with its Cauchy principal-value
integral (Redfield and unified equations), and the principal-value Lamb-shift
coefficients of the universal Lindblad equation.

Units: energies in Hartree, temperature in Kelvin, time in atomic units.
"""

from __future__ import annotations

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

    J is homogeneous of degree one, so it is evaluated on w and lam divided
    by the power of two just above lam: the division is exact, the rounding is
    that of the plain formula, and lam^2 stays finite for any finite lam.
    """
    scale = 2.0 ** math.frexp(lam)[1]
    omega, lam = np.asarray(omega, dtype=float) / scale, lam / scale
    out = scale * (omega * lam**2 / (omega**2 + lam**2))
    return out if out.ndim else float(out)


def bose_einstein(omega: float, temperature: float, k_b: float = K_B) -> float:
    """Bose-Einstein occupancy at omega > 0. Underflows to 0.0 at large w/kT."""
    if omega <= 0:
        raise ValueError("occupancy is defined for strictly positive frequency")
    if temperature == 0:
        return 0.0
    x = omega / (k_b * temperature)
    # np.expm1 saturates to inf instead of raising, so 1/inf -> 0.0.
    return float(1.0 / np.expm1(x))


@dataclass(eq=False)
class BathModel:
    """Bath parameters plus quadrature configuration.

    ``lam`` is the Drude-Lorentz width (the conventional symbol lambda is a
    Python keyword). ``pv_cutoff=None`` selects an automatic cutoff of
    100 * max(lam, |w0|, kT) per integral; explicit cutoffs below
    50 * max(lam, |w0|) are rejected. ``density`` may override the spectral
    density with any odd function vanishing at 0; the closed-form integral
    tail is only applied for the built-in Drude-Lorentz density.
    """

    lam: float
    temperature: float
    k_b: float = K_B
    pv_cutoff: float | None = None
    pv_points: int = 2048
    density: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("spectral density width lam must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.pv_points < 64:
            raise ValueError("pv_points below 64 cannot resolve the integrands")

    def spectral_density(self, omega):
        if self.density is not None:
            return self.density(np.asarray(omega, dtype=float))
        return drude_lorentz(omega, self.lam)

    @property
    def thermal_energy(self) -> float:
        return self.k_b * self.temperature

    def occupancy(self, omega: float) -> float:
        return bose_einstein(omega, self.temperature, self.k_b)

    def cutoff_for(self, *frequencies: float) -> float:
        fmax = max((abs(f) for f in frequencies), default=0.0)
        if self.pv_cutoff is None:
            return 100.0 * max(self.lam, fmax, self.thermal_energy)
        if self.pv_cutoff < 50.0 * max(self.lam, fmax):
            raise ValueError(
                "pv_cutoff must be at least 50 * max(lam, |omega|) "
                f"= {50.0 * max(self.lam, fmax):g}")
        return float(self.pv_cutoff)


def _gamma_hat_array(omega: np.ndarray, bath: BathModel) -> np.ndarray:
    """Vectorized full-FT spectral function over an array of frequencies."""
    omega = np.asarray(omega, dtype=float)
    j_abs = np.asarray(bath.spectral_density(np.abs(omega)), dtype=float)
    if bath.temperature == 0:
        return np.where(omega > 0, j_abs, 0.0)
    kt = bath.thermal_energy
    with np.errstate(over="ignore", divide="ignore"):
        occ = 1.0 / np.expm1(np.abs(omega) / kt)
    occ = np.where(np.isfinite(occ), occ, 0.0)
    pos = j_abs * (occ + 1.0)
    neg = j_abs * occ
    return np.where(omega > 0, pos, np.where(omega < 0, neg, kt))


def spectral_function_ule(omega: float, bath: BathModel) -> float:
    """Full-FT bath spectral function.

    J(w)(N(w)+1) for w > 0 and J(-w)N(-w) for w < 0. Both one-sided limits at
    w = 0 equal kT for a density with J(w) ~ w, and that limit is returned
    there (0 at zero temperature). Nonnegative everywhere.
    """
    if omega == 0.0:
        if bath.temperature == 0:
            return 0.0
        if bath.density is None:
            return bath.thermal_energy
        # slope of a custom density at the origin sets the w -> 0 limit
        h = 1e-6 * bath.lam
        slope = float(bath.spectral_density(h)) / h
        return slope * bath.thermal_energy
    return float(_gamma_hat_array(np.array(omega), bath))


def ule_rate(omega: float, bath: BathModel) -> float:
    """Jump-operator amplitude sqrt(2 pi Gamma_hat(w)); real and nonnegative."""
    g = spectral_function_ule(omega, bath)
    if g < 0:
        raise RuntimeError("spectral function went negative; invalid bath")
    return float(np.sqrt(2.0 * np.pi * g))


def _gauss_nodes(order: int):
    # cached Gauss-Legendre rules; order is bounded by _panel_order
    rule = _gauss_nodes._cache.get(order)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(order)
        _gauss_nodes._cache[order] = rule
    return rule


_gauss_nodes._cache = {}


def _panel_order(points: int, n_panels: int) -> int:
    return int(min(max(points // max(n_panels, 1), 8), 512))


def _integrate_panels(f, edges: np.ndarray, order: int, skip=None) -> float:
    """Composite Gauss-Legendre over consecutive edge pairs.

    ``skip`` is an (a, b) interval whose interior panels are excluded (the
    principal-value excision window).
    """
    x, w = _gauss_nodes(order)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        mid = 0.5 * (a + b)
        if skip is not None and skip[0] < mid < skip[1]:
            continue
        half = 0.5 * (b - a)
        total += half * float(np.sum(w * f(mid + half * x)))
    return total


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
    kt = bath.thermal_energy
    lam = bath.lam

    def occ(w):
        if bath.temperature == 0:
            return np.zeros_like(w)
        with np.errstate(over="ignore", divide="ignore"):
            n = 1.0 / np.expm1(w / kt)
        return np.where(np.isfinite(n), n, 0.0)

    if abs(omega0) < _ZERO_FREQ:
        # the occupancies cancel exactly at w0 = 0: integrand is -J(w)/w
        def f(w):
            return -np.asarray(bath.spectral_density(w)) / w

        edges, _ = _xi_edges(bath, cutoff, None, 0.0)
        order = _panel_order(points, len(edges) - 1)
        total = _integrate_panels(f, edges, order)
        tail = -lam**2 / cutoff if bath.density is None else 0.0
        return total + tail

    pole = abs(omega0)
    delta = min(1e-4 * max(lam, pole), 0.5 * pole)

    def f(w):
        j = np.asarray(bath.spectral_density(w))
        n = occ(w)
        return j * (n / (omega0 + w) + (n + 1.0) / (omega0 - w))

    edges, window = _xi_edges(bath, cutoff, pole, delta)
    order = _panel_order(points, len(edges) - 1)
    total = _integrate_panels(f, edges, order, skip=window)

    # analytic window: odd part of the singular factor cancels, leaving the
    # first-order term of the regular factor, plus the nonsingular term's area
    h = delta / 16.0
    if omega0 > 0:
        def u(w):
            return np.asarray(bath.spectral_density(w)) * (occ(np.asarray(w)) + 1.0)
        du = float(u(pole + h) - u(pole - h)) / (2.0 * h)
        regular = float(bath.spectral_density(pole)) * float(occ(np.array(pole))) / (omega0 + pole)
        total += -2.0 * delta * du + 2.0 * delta * regular
    else:
        def v(w):
            return np.asarray(bath.spectral_density(w)) * occ(np.asarray(w))
        dv = float(v(pole + h) - v(pole - h)) / (2.0 * h)
        regular = float(bath.spectral_density(pole)) * (float(occ(np.array(pole))) + 1.0) / (omega0 - pole)
        total += 2.0 * delta * dv + 2.0 * delta * regular

    if bath.density is None:
        # closed-form Drude-Lorentz tail of the (N+1)/(w0-w) term past the
        # cutoff; the occupancy tail is exponentially negligible there
        total += lam**2 * np.log1p(-omega0 / cutoff) / omega0
    return total


def xi_integral(omega0: float, bath: BathModel) -> float:
    """Imaginary coefficient of the one-sided spectral function.

    Evaluates the principal-value integral
    P int_0^cutoff dw J(w) [N(w)/(w0+w) + (N(w)+1)/(w0-w)]
    by symmetric excision of the pole plus composite Gauss-Legendre panels.
    The result is checked by doubling the node budget; disagreement beyond
    1e-6 relative raises QuadratureError.
    """
    cutoff = bath.cutoff_for(omega0)
    coarse = _xi_quadrature(omega0, bath, bath.pv_points, cutoff)
    fine = _xi_quadrature(omega0, bath, 2 * bath.pv_points, cutoff)
    scale = max(abs(fine), abs(coarse), 1e-300)
    if abs(fine - coarse) > 1e-6 * scale and abs(fine - coarse) > 1e-14:
        raise QuadratureError(
            f"xi({omega0:g}) did not converge: {coarse:.3e} vs {fine:.3e}")
    return fine


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
    kt = bath.thermal_energy

    def w_func(w):
        prod = _gamma_hat_array(w - a, bath) * _gamma_hat_array(w + b, bath)
        return np.sqrt(np.maximum(prod, 0.0))

    scales = [s for s in (bath.lam, kt) if s > 0]
    delta = 1e-4 * min(scales)
    smin = min(scales + [x for x in (abs(a), abs(b)) if x > 0]) / 128.0

    half = {cutoff}
    half.update(e for e in _geometric_edges(max(delta, smin), cutoff) if delta < e < cutoff)
    # anchors where the shifted spectral-function arguments cross zero
    anchors = [x for x in (a, -b) if delta < abs(x) < cutoff]
    pos = sorted(half | {abs(x) for x in anchors} | {delta})
    edges = np.array([-e for e in reversed(pos)] + pos)

    order = _panel_order(points, len(edges) - 1)
    total = _integrate_panels(lambda w: w_func(w) / w, edges, order,
                              skip=(-delta, delta))
    h = delta / 16.0
    dw = float(w_func(np.array(h)) - w_func(np.array(-h))) / (2.0 * h)
    total += 2.0 * delta * dw
    if bath.density is None:
        # positive-side Drude-Lorentz tail; the negative side is thermally damped
        total += bath.lam**2 / cutoff
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
    coarse = _ule_lamb_quadrature(omega_ml, omega_ln, bath,
                                  2 * bath.pv_points, cutoff)
    fine = _ule_lamb_quadrature(omega_ml, omega_ln, bath,
                                4 * bath.pv_points, cutoff)
    scale = max(abs(fine), abs(coarse), 1e-300)
    if abs(fine - coarse) > 1e-6 * scale and abs(fine - coarse) > 1e-14:
        raise QuadratureError(
            f"S_hat({omega_ml:g}, {omega_ln:g}) did not converge: "
            f"{coarse:.3e} vs {fine:.3e}")
    return fine


@dataclass(frozen=True)
class SpectralSample:
    """One row of a spectral-function dump."""

    omega: float
    gamma_hat: float
    gamma_real: float
    lamb_shift: float


def sample_spectra(bath: BathModel, omegas) -> list[SpectralSample]:
    """Evaluate Gamma_hat and Gamma over a frequency grid (for CSV dumps)."""
    rows = []
    for w in np.asarray(omegas, dtype=float):
        gh = spectral_function_ule(float(w), bath)
        xi = xi_integral(float(w), bath)
        rows.append(SpectralSample(float(w), gh, np.pi * gh, xi))
    return rows
