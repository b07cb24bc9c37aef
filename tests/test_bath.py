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

from rdmprop.bath import (
    K_B,
    BathModel,
    QuadratureError,
    bose_einstein,
    drude_lorentz,
    rme_lamb,
    rme_rates,
    sample_spectra,
    spectral_function_redfield,
    spectral_function_ule,
    ule_lamb_coefficient,
    ule_rate,
    xi_integral,
)

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
    # at this width the closed-form xi tail overflows to -inf, and so does
    # the product of spectral functions in the Lamb integrand
    bath = BathModel(lam=1e200, temperature=300.0)
    for w in (-0.5, 0.5):
        with pytest.raises(QuadratureError, match="not finite"):
            xi_integral(w, bath)
    with pytest.raises(QuadratureError, match="not finite"):
        ule_lamb_coefficient(-0.5, 0.5, bath)


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
    samples = sample_spectra(bath, omegas)
    assert [s.omega for s in samples] == list(omegas)
    for s in samples:
        assert s.gamma_hat == spectral_function_ule(s.omega, bath)
        assert s.gamma_real == pytest.approx(np.pi * s.gamma_hat, rel=1e-15)
        assert s.lamb_shift == pytest.approx(
            xi_integral(s.omega, bath), rel=1e-12)
