"""Bath spectral functions, occupancies, and principal-value quadrature.

Derived quantities are checked against an independent high-precision
reference built with mpmath: the principal value is taken by symmetric
excision around the pole and the remaining smooth pieces are integrated
adaptively on the full half-line, so the reference shares no code or
cutoff policy with the implementation.
"""

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import rdmprop.bath

from rdmprop.bath import (
    K_B,
    BathModel,
    QuadratureError,
    bose_einstein,
    drude_lorentz,
    sample_spectra,
    spectral_function_ule,
    ule_lamb_coefficient,
    ule_rate,
    xi_integral,
)

from oracle import rme_lamb, rme_rates, spectral_function_redfield, \
    ule_lamb_quadrature, xi_quadrature

LAM = 0.01
BENCH_FREQS = (0.169, 0.260, 0.491, 0.5)


def make_bath(temperature=50.0, **kw):
    return BathModel(lam=LAM, temperature=temperature, **kw)


def xi_reference(omega0: float, lam: float, temperature: float) -> float:
    """Principal-value integral in 40-digit arithmetic, no shared code.

    The singular factor is regularized by subtracting its value at the
    pole, which leaves a bounded integrand on the pole-straddling
    segment; a symmetric fold would lose digits to cancellation near
    the pole.  The exact integrand is integrated to infinity (no
    closed-form tail approximation).
    """
    with mpmath.workdps(40):
        lam_m = mpmath.mpf(lam)
        kt = mpmath.mpf(K_B) * temperature
        w0 = mpmath.mpf(omega0)

        def dens(w):
            return w * lam_m**2 / (w * w + lam_m * lam_m)

        def occ(w):
            return 1 / mpmath.expm1(w / kt)

        if w0 == 0:
            # the two pole terms cancel exactly, leaving -J(w)/w
            val = mpmath.quad(lambda w: -(lam_m**2) / (w * w + lam_m**2),
                              [0, kt, lam_m, 100 * lam_m, mpmath.inf])
            return float(val)

        pole = abs(w0)
        if w0 > 0:
            def sing_num(w):
                return dens(w) * (occ(w) + 1)

            def sing_den(w):
                return w0 - w

            def smooth(w):
                return dens(w) * occ(w) / (w0 + w)

            dsign = -1
        else:
            def sing_num(w):
                return dens(w) * occ(w)

            def sing_den(w):
                return w0 + w

            def smooth(w):
                return dens(w) * (occ(w) + 1) / (w0 - w)

            dsign = 1

        at_pole = sing_num(pole)

        def regularized(w):
            # the subtracted quotient tends to -/+ d(sing_num)/dw at the
            # pole; quadrature nodes never land on it exactly
            return (sing_num(w) - at_pole) / sing_den(w)

        # PV of the constant term over [0, 2*pole] vanishes by symmetry
        val = mpmath.quad(regularized,
                          [0, kt, lam_m, 10 * lam_m, pole, 2 * pole])
        val += dsign * mpmath.quad(
            lambda w: sing_num(w) / abs(sing_den(w)),
            [2 * pole, 10 * pole, 100 * pole, mpmath.inf])
        val += mpmath.quad(smooth,
                           [0, kt, lam_m, 10 * lam_m, 2 * pole, mpmath.inf])
        return float(val)


def test_boltzmann_constant_in_atomic_units():
    assert K_B == 3.166811563e-6


def test_drude_lorentz_shape():
    w = 0.5
    expected = w * LAM**2 / (w * w + LAM**2)
    assert drude_lorentz(w, LAM) == pytest.approx(expected, rel=1e-15)
    # odd function, peak value lam/2 at w = lam
    assert drude_lorentz(-w, LAM) == -drude_lorentz(w, LAM)
    assert drude_lorentz(LAM, LAM) == pytest.approx(LAM / 2, rel=1e-15)
    grid = np.linspace(-1.0, 1.0, 11)
    npt.assert_allclose(drude_lorentz(grid, LAM),
                        grid * LAM**2 / (grid**2 + LAM**2), rtol=1e-15)


def test_drude_lorentz_survives_huge_widths():
    # lam^2 overflows a float here; for |w| << lam the density is J = w
    assert drude_lorentz(0.5, 1e200) == 0.5
    npt.assert_allclose(drude_lorentz(np.array([-0.5, 0.0, 3.0]), 1e200),
                        [-0.5, 0.0, 3.0], rtol=1e-15)
    # past 2^1023 the next power of two overflows; the scale must not
    assert drude_lorentz(0.5, 1.7e308) == 0.5


def test_bose_einstein_basics():
    with pytest.raises(ValueError):
        bose_einstein(0.0, 300.0)
    with pytest.raises(ValueError):
        bose_einstein(-0.1, 300.0)
    assert bose_einstein(0.5, 0.0) == 0.0
    # saturation: w/kT far beyond float range gives exactly zero occupancy
    with np.errstate(over="ignore"):
        assert bose_einstein(0.5, 50.0) == 0.0
    n = bose_einstein(0.001, 300.0)
    x = 0.001 / (K_B * 300.0)
    assert n == pytest.approx(1.0 / np.expm1(x), rel=1e-15)


def test_bath_model_validation():
    with pytest.raises(ValueError):
        BathModel(lam=0.0, temperature=50.0)
    with pytest.raises(ValueError):
        BathModel(lam=LAM, temperature=-1.0)
    with pytest.raises(ValueError):
        BathModel(lam=LAM, temperature=50.0, pv_points=32)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lam"):
            BathModel(lam=value, temperature=50.0)
        with pytest.raises(ValueError, match="temperature"):
            BathModel(lam=LAM, temperature=value)
        with pytest.raises(ValueError, match="pv_cutoff"):
            BathModel(lam=LAM, temperature=50.0, pv_cutoff=value)


def test_cutoff_policy():
    bath = make_bath()
    assert bath.cutoff_for(0.5) == pytest.approx(50.0)
    assert bath.cutoff_for() == pytest.approx(100.0 * LAM)
    explicit = make_bath(pv_cutoff=30.0)
    assert explicit.cutoff_for(0.5) == 30.0
    with pytest.raises(ValueError):
        make_bath(pv_cutoff=20.0).cutoff_for(0.5)


def test_full_ft_spectral_function_values():
    bath = make_bath(300.0)
    for w in BENCH_FREQS:
        j = drude_lorentz(w, LAM)
        n = bose_einstein(w, 300.0)
        assert spectral_function_ule(w, bath) == pytest.approx(
            j * (n + 1.0), rel=1e-15)
        assert spectral_function_ule(-w, bath) == pytest.approx(
            j * n, rel=1e-15)


def test_full_ft_zero_frequency_is_thermal_energy():
    assert spectral_function_ule(0.0, make_bath(50.0)) == K_B * 50.0
    assert spectral_function_ule(0.0, make_bath(300.0)) == K_B * 300.0
    assert spectral_function_ule(0.0, make_bath(0.0)) == 0.0


def test_full_ft_array_form_equals_scalar_calls_bitwise():
    omegas = np.array([-0.5, -0.169, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.169,
                       0.5])
    for temperature in (0.0, 50.0, 300.0):
        bath = make_bath(temperature)
        gammas = spectral_function_ule(omegas, bath)
        rates = ule_rate(omegas, bath)
        assert gammas.shape == rates.shape == omegas.shape
        for w, g, r in zip(omegas, gammas, rates):
            assert g == spectral_function_ule(float(w), bath)
            assert r == ule_rate(float(w), bath)


def gamma_hat_reference(omega: float, bath: BathModel) -> float:
    """Gamma_hat by its two branches, J (N + 1) above zero and J(|w|) N(|w|)
    below, in 50-digit arithmetic, rounded once to a float. J and w/kT are
    the floats the program forms: both branches share them, and exp
    amplifies a rounding of w/kT by w/kT itself."""
    kt = bath.thermal_energy
    if omega == 0.0:
        return kt
    j = drude_lorentz(abs(omega), bath.lam)
    if kt == 0.0:
        return j if omega > 0 else 0.0
    with mpmath.workdps(50):
        n = 1 / mpmath.expm1(mpmath.mpf(abs(omega) / kt))
        return float(j * (n + 1) if omega > 0 else j * n)


@pytest.mark.parametrize("temperature", [0.0, 50.0, 300.0])
def test_full_ft_one_expression_matches_the_two_branches(temperature):
    # J(w) / (1 - exp(-w/kT)) on both half-axes, against the branches it
    # replaces: within 2 ulp, and exactly 0.0 where the branch underflows
    bath = make_bath(temperature)
    mags = np.logspace(-8, 1, 91)
    omegas = np.concatenate([-mags[::-1], [0.0], mags])
    values = spectral_function_ule(omegas, bath)
    reference = np.array([gamma_hat_reference(w, bath)
                          for w in omegas.tolist()])
    assert np.all(values >= 0.0)
    underflow = reference == 0.0
    assert underflow.any()
    assert np.array_equal(values[underflow], reference[underflow])
    # nonnegative floats are ordered like their bit patterns, so the
    # difference of the patterns counts ulps, subnormals included
    ulps = np.abs(values.view(np.int64) - reference.view(np.int64))
    assert ulps.max() <= 2, omegas[np.argmax(ulps)]


def test_full_ft_continuous_at_zero():
    for temperature in (10.0, 50.0, 300.0):
        bath = make_bath(temperature)
        mid = spectral_function_ule(0.0, bath)
        for eps in (1e-9, -1e-9):
            assert abs(spectral_function_ule(eps, bath) - mid) < 1e-8


def test_upward_rates_underflow_to_exact_zero_at_low_temperature():
    # at 10 K and 50 K every benchmark absorption rate is below the
    # smallest positive float; the implementation returns exactly 0.0
    for temperature in (10.0, 50.0):
        bath = make_bath(temperature)
        for w in BENCH_FREQS:
            assert spectral_function_ule(-w, bath) == 0.0


def test_detailed_balance_at_300k_float64():
    bath = make_bath(300.0)
    kt = bath.thermal_energy
    for w in BENCH_FREQS:
        ratio = spectral_function_ule(w, bath) / spectral_function_ule(-w, bath)
        assert ratio == pytest.approx(np.exp(w / kt), rel=1e-9)


def test_detailed_balance_formula_high_precision():
    # at 10 K and 50 K the float64 ratio is 1/0; the identity is checked on
    # the same defining formula in 40-digit arithmetic instead
    with mpmath.workdps(40):
        for temperature in (10.0, 50.0, 300.0):
            kt = mpmath.mpf(K_B) * temperature
            for w in BENCH_FREQS:
                x = mpmath.mpf(w) / kt
                n = 1 / mpmath.expm1(x)
                ratio = (n + 1) / n
                rel = abs(ratio - mpmath.e**x) / (mpmath.e**x)
                assert rel < 1e-9


def test_jump_amplitude_squares_to_rate():
    bath = make_bath(50.0)
    for w in (0.5, -0.5, 0.169, 0.0):
        amp = ule_rate(w, bath)
        assert amp >= 0.0
        assert amp**2 == pytest.approx(
            2.0 * np.pi * spectral_function_ule(w, bath), rel=1e-15, abs=0.0)


def test_one_sided_real_part_is_pi_times_full_ft():
    for temperature in (50.0, 300.0):
        bath = make_bath(temperature)
        for w in BENCH_FREQS + (-0.5,):
            g = spectral_function_redfield(w, bath)
            assert abs(g.real - np.pi * spectral_function_ule(w, bath)) \
                <= 1e-15
            assert g.imag == xi_integral(w, bath)


@pytest.mark.parametrize("omega0", [0.5, -0.5, 0.169])
def test_xi_against_high_precision_reference(omega0):
    bath = make_bath(50.0)
    ref = xi_reference(omega0, LAM, 50.0)
    assert xi_integral(omega0, bath) == pytest.approx(ref, rel=5e-9)


def test_xi_at_zero_matches_analytic_value():
    # exact value is -pi*lam/2; the finite cutoff at 100*lam truncates
    # lam^4/(3 c^3) ~ 3.3e-9 of it
    bath = make_bath(50.0)
    assert xi_integral(0.0, bath) == pytest.approx(-np.pi * LAM / 2,
                                                   abs=5e-9)
    assert xi_integral(0.0, bath) == pytest.approx(
        xi_reference(0.0, LAM, 50.0), abs=5e-9)


def test_xi_self_converges_under_node_doubling():
    coarse = make_bath(50.0, pv_points=2048)
    fine = make_bath(50.0, pv_points=4096)
    for w in BENCH_FREQS:
        a = xi_integral(w, coarse)
        b = xi_integral(w, fine)
        assert abs(a - b) < 1e-8 * abs(b)


def test_unresolvable_density_raises_quadrature_error(monkeypatch):
    # the node budget must exceed the per-panel order floor, otherwise
    # the doubled budget clamps to the same rule and cannot disagree
    def wiggly(w, lam):
        return drude_lorentz(w, lam) * (1.0 + 0.9 * np.sin(w / 1e-4))

    monkeypatch.setattr("rdmprop.bath.drude_lorentz", wiggly)
    bath = BathModel(lam=LAM, temperature=50.0, pv_points=2048)
    with pytest.raises(QuadratureError):
        xi_integral(0.5, bath)


def test_non_finite_quadrature_raises_quadrature_error():
    # at this width the cutoff, 100 lam, and with it S_hat, about
    # -pi^2 lam, exceed the largest float
    bath = BathModel(lam=1.7e308, temperature=300.0)
    with pytest.raises(QuadratureError, match="not finite"):
        ule_lamb_coefficient(-0.5, 0.5, bath)


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("lam", [1e160, 1e200, 1e300])
def test_s_hat_stays_finite_at_huge_bath_widths(lam, temperature):
    # each spectral function is of order lam and their product overflows,
    # but not the product of their square roots; for lam >> |a|, |b|, kT
    # the integrand is J(w) / w on w > 0, which integrates to pi lam / 2
    bath = BathModel(lam=lam, temperature=temperature)
    values = ule_lamb_coefficient(np.array([-0.5, 0.0, 0.5]),
                                  np.array([0.5, 0.0, 0.3]), bath)
    npt.assert_allclose(values, -np.pi**2 * lam, rtol=1e-6)


@pytest.mark.parametrize("lam", [1e160, 1e200, 1e300])
def test_xi_stays_finite_at_huge_bath_widths(lam):
    # lam^2 overflows, but no factor of the closed-form tail exceeds the
    # tail itself; for lam >> |w0|, kT the integral is -pi lam / 2 up to
    # the (lam / cutoff)^3 / 3 the finite cutoff truncates
    bath = BathModel(lam=lam, temperature=300.0)
    values = xi_integral(np.array([-0.5, 0.0, 0.5]), bath)
    npt.assert_allclose(values, -0.5 * np.pi * lam, rtol=1e-6)


@pytest.mark.parametrize("temperature", [0.0, 50.0, 300.0])
@pytest.mark.parametrize("lam", [1e306, 1.5e306, 1.7e306])
def test_quadratures_converge_with_a_cutoff_near_the_largest_float(
        lam, temperature):
    # the cutoff 100 lam is within a factor of two of the largest float,
    # where lo + hi of the outer panels overflows but lo / 2 + hi / 2 does
    # not; the values are those of lam >> |w0|, kT as above
    bath = BathModel(lam=lam, temperature=temperature)
    npt.assert_allclose(xi_integral(np.linspace(-0.9, 0.9, 37), bath),
                        -0.5 * np.pi * lam, rtol=1e-6)
    a, b = (x.ravel() for x in np.meshgrid(*2 * [np.linspace(-0.9, 0.9, 7)]))
    npt.assert_allclose(ule_lamb_coefficient(a, b, bath), -np.pi**2 * lam,
                        rtol=1e-6)


def test_pair_rate_composition():
    bath = make_bath(50.0)
    g1 = spectral_function_redfield(0.5, bath)
    g2 = spectral_function_redfield(-0.5, bath)
    assert rme_rates(0.5, -0.5, bath) == g1 + np.conj(g2)
    same = rme_rates(0.5, 0.5, bath)
    assert same.imag == 0.0
    assert same.real == pytest.approx(
        2.0 * np.pi * spectral_function_ule(0.5, bath), rel=1e-15)


def test_pairwise_lamb_coefficient():
    bath = make_bath(50.0)
    diag = rme_lamb(0.5, 0.5, bath)
    assert diag.imag == 0.0
    assert diag.real == pytest.approx(xi_integral(0.5, bath), rel=1e-15)
    cross = rme_lamb(0.5, -0.5, bath)
    g1 = spectral_function_redfield(0.5, bath)
    g2 = spectral_function_redfield(-0.5, bath)
    assert cross == pytest.approx((g1 - np.conj(g2)) / 2j, rel=1e-15)


def test_ule_lamb_coefficient_converges_and_matches_reference():
    bath = make_bath(50.0)
    val = ule_lamb_coefficient(0.5, 0.169, bath)
    assert np.isfinite(val)
    finer = make_bath(50.0, pv_points=4096)
    val_fine = ule_lamb_coefficient(0.5, 0.169, finer)
    assert val == pytest.approx(val_fine, rel=1e-6)

    ref = ule_lamb_reference(0.5, 0.169, LAM, 50.0,
                             cutoff=bath.cutoff_for(0.5, 0.169))
    assert val == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("temperature", [50.0, 300.0])
def test_ule_lamb_coefficient_is_mirror_symmetric_bitwise(temperature):
    # S_hat(a, b) and S_hat(-b, -a) integrate the same product over the same
    # edges, which lets the rate table evaluate one of each mirror pair
    bath = make_bath(temperature)
    grid = [float(w) for w in np.linspace(-0.9, 0.9, 7)]
    for a in grid:
        for b in grid:
            assert ule_lamb_coefficient(a, b, bath) \
                == ule_lamb_coefficient(-b, -a, bath)


def test_every_panel_is_one_pass_of_2q_plus_1_nodes(monkeypatch):
    # every panel is evaluated in one pass of the nested rule of order
    # q // 2 (q = pv_points // 128): its q // 2 Gauss and q // 2 + 1
    # Kronrod nodes; this integral passes its check there, so no panel is
    # evaluated at order q, and the panels do not depend on pv_points;
    # count the integrand's node arrays (the window term evaluates 1-d
    # arrays)
    widths, totals = [], []

    def counted(w, lam):
        if np.ndim(w) == 2:
            widths.append(np.shape(w)[1])
            totals[-1] += np.size(w)
        return drude_lorentz(w, lam)

    monkeypatch.setattr("rdmprop.bath.drude_lorentz", counted)
    for points in (2048, 4096):
        widths.clear()
        totals.append(0)
        xi_integral(0.5, make_bath(50.0, pv_points=points))
        assert set(widths) == {2 * (points // 128 // 2) + 1}
    assert totals[0] // 17 == totals[1] // 33 > 0


def test_an_integral_that_fails_at_order_q_half_is_evaluated_at_order_q(
        monkeypatch):
    # at pv_points = 1024 (q = 8) xi(0) at 300 K fails its check at order
    # 4 and is evaluated again at order 8 on the same panels; +-0.5 pass at
    # order 4. The value is the order-8 value of pv_points = 2048, whose
    # first pass is at order 8, alone and in a batch
    bath = make_bath(300.0, pv_points=1024)
    widths = []

    def counted(w, lam):
        if np.ndim(w) == 2:
            widths.append(np.shape(w)[1])
        return drude_lorentz(w, lam)

    monkeypatch.setattr("rdmprop.bath.drude_lorentz", counted)
    alone = xi_integral(0.0, bath)
    assert set(widths) == {9, 17}
    widths.clear()
    passing = xi_integral(np.array([-0.5, 0.5]), bath)
    assert set(widths) == {9}
    batch = xi_integral(np.array([-0.5, 0.0, 0.5]), bath)
    monkeypatch.undo()
    assert batch.tolist() == [passing[0], alone, passing[1]]
    assert alone == xi_integral(0.0, make_bath(300.0, pv_points=2048))
    assert alone == pytest.approx(xi_quadrature(0.0, bath), rel=1e-12)


LAMB_GRID = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]


def ule_lamb_quad(a, b, bath):
    """S_hat(a, b) by scipy's adaptive quad on the same truncated integral:
    breakpoints at a, -b and +-delta, and the same window and tail terms."""
    cutoff = bath.cutoff_for(a, b)
    delta = 1e-4 * min(s for s in (bath.lam, bath.thermal_energy) if s > 0)

    def g(w):
        return np.sqrt(spectral_function_ule(w - a, bath)
                       * spectral_function_ule(w + b, bath))

    total = 0.0
    for lo, hi in ((-cutoff, -delta), (delta, cutoff)):
        points = sorted({x for x in (a, -b) if lo < x < hi}) or None
        total += quad(lambda w: g(w) / w, lo, hi, points=points, limit=500,
                      epsabs=1e-15, epsrel=1e-13)[0]
    h = delta / 16.0
    total += 2.0 * delta * (g(h) - g(-h)) / (2.0 * h)
    total += bath.lam * (bath.lam / cutoff)
    return -2.0 * np.pi * total


@pytest.mark.parametrize("temperature", [0.0, 50.0, 300.0])
def test_ule_lamb_coefficient_converges_on_the_grid(temperature):
    # at T = 0 Gamma_hat(w - a) Gamma_hat(w + b) has square-root edges at
    # w = a and w = -b, which the panels are graded toward
    bath = make_bath(temperature)
    a, b = (x.ravel() for x in np.meshgrid(LAMB_GRID, LAMB_GRID))
    values = ule_lamb_coefficient(a, b, bath)
    for x, y, value in zip(a.tolist(), b.tolist(), values.tolist()):
        if temperature == 0.0:
            assert value == pytest.approx(ule_lamb_quad(x, y, bath), rel=1e-8)
        else:
            assert value == pytest.approx(ule_lamb_quadrature(x, y, bath),
                                          rel=1e-9)


def test_batched_values_do_not_depend_on_their_place_in_a_pass(monkeypatch):
    # a panel's sum is a row reduction of its own nodes, so a value is the
    # same bitwise wherever its rows sit in an array pass; checked on the
    # spectra grid and on an S_hat batch that spans several passes of
    # 2 (q // 2) + 1 = 17 nodes per panel, none of which falls back to
    # order q (2q + 1 = 33 nodes)
    bath = make_bath(300.0)
    grid = np.linspace(-1.0, 1.0, 401)
    xi = xi_integral(grid, bath)
    assert [xi_integral(w, bath) for w in grid.tolist()] == xi.tolist()

    passes = {}
    original = rdmprop.bath.spectral_function_ule

    def counted(omega, bath):
        if np.ndim(omega) == 2:   # two calls per pass, one per factor
            width = np.shape(omega)[1]
            passes[width] = passes.get(width, 0) + 0.5
        return original(omega, bath)

    a, b = (x.ravel() for x in np.meshgrid(LAMB_GRID, LAMB_GRID))
    monkeypatch.setattr("rdmprop.bath.spectral_function_ule", counted)
    lamb = ule_lamb_coefficient(a, b, bath)
    monkeypatch.undo()
    assert list(passes) == [17] and passes[17] >= 3, passes
    assert [ule_lamb_coefficient(x, y, bath)
            for x, y in zip(a.tolist(), b.tolist())] == lamb.tolist()


def bohr_frequencies(seed, d):
    """Sorted distinct Bohr frequencies of d levels uniform in [-0.5, 0.5],
    redrawn until levels are 1e-3 and Bohr frequencies 1e-6 apart."""
    rng = np.random.default_rng(seed)
    while True:
        e = np.sort(rng.uniform(-0.5, 0.5, d))
        w = np.sort((e[None, :] - e[:, None]).ravel())
        off = w[np.abs(w) > 0]
        if np.min(np.diff(e)) >= 1e-3 and np.min(np.diff(off)) >= 1e-6:
            return np.unique(w), rng


@settings(max_examples=10, deadline=None)
# the mirror pair S_hat(-0.692848, 0.692848) fails the oracle's own
# coarse/fine check at the default pv_points
@example(seed=1910747, d=5, temperature=50.0)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=4, max_value=16),
       st.sampled_from([50.0, 300.0]))
def test_batched_quadratures_equal_scalar_calls_and_oracle(seed, d,
                                                           temperature):
    bath = make_bath(temperature)
    # the S_hat reference at twice the default pv_points, where its own
    # check passes
    reference = make_bath(temperature, pv_points=4096)
    freqs, rng = bohr_frequencies(seed, d)
    xi = xi_integral(freqs, bath)
    for w, value in zip(freqs.tolist(), xi.tolist()):
        assert value == xi_integral(w, bath)
        assert value == pytest.approx(xi_quadrature(w, bath), rel=1e-12)
    a, b = rng.choice(freqs, (2, 12))
    lamb = ule_lamb_coefficient(a, b, bath)
    assert np.array_equal(lamb, ule_lamb_coefficient(-b, -a, bath))
    for x, y, value in zip(a.tolist(), b.tolist(), lamb.tolist()):
        assert value == ule_lamb_coefficient(x, y, bath)
        assert value == pytest.approx(ule_lamb_quadrature(x, y, reference),
                                      rel=1e-9)


def ule_lamb_reference(a, b, lam, temperature, cutoff):
    """Excised principal value of the factorized Lamb integrand, mpmath."""
    with mpmath.workdps(30):
        lam_m = mpmath.mpf(lam)
        kt = mpmath.mpf(K_B) * temperature

        def gamma_hat(x):
            if x == 0:
                return kt
            j = abs(x) * lam_m**2 / (x * x + lam_m * lam_m)
            n = 1 / mpmath.expm1(abs(x) / kt)
            return j * (n + 1) if x > 0 else j * n

        def g(w):
            return mpmath.sqrt(gamma_hat(w - a) * gamma_hat(w + b))

        r = min(x for x in (abs(a), abs(b), lam_m, kt) if x > 0) / 2

        def sym(u):
            return (g(u) - g(-u)) / u

        splits_pos = sorted({float(x) for x in (kt, lam_m, abs(a), abs(b))
                             if r < x < cutoff})
        val = mpmath.quad(sym, [0, r])
        val += mpmath.quad(lambda w: g(w) / w, [r] + splits_pos + [cutoff])
        val += mpmath.quad(lambda w: g(w) / w,
                           [-cutoff] + [-s for s in reversed(splits_pos)]
                           + [-r])
        # same closed-form positive-side tail the implementation applies
        val += lam_m**2 / cutoff
        return float(-2 * mpmath.pi * val)


def test_spectra_sampling_consistency():
    bath = make_bath(50.0)
    omegas = np.array([-0.5, -0.1, 0.0, 0.1, 0.5])
    columns = sample_spectra(bath, omegas)
    assert list(columns[0]) == list(omegas)
    for omega, gamma_hat, gamma_real, lamb_shift in zip(*columns):
        assert gamma_hat == spectral_function_ule(omega, bath)
        assert gamma_real == pytest.approx(np.pi * gamma_hat, rel=1e-15)
        assert lamb_shift == pytest.approx(xi_integral(omega, bath),
                                           rel=1e-12)
