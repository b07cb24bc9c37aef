"""The numpy-only matrix exponential and DOP853 port against scipy, and
the nested Gauss-Kronrod rule."""

import sys

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm as scipy_expm

from rdmprop import _numerics
from rdmprop._numerics import StiffnessError, dop853, expm, gauss_kronrod
from rdmprop.bath import BathModel
from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.core import CouplingOperator, SystemHamiltonian
from rdmprop.generators import build_generator
from rdmprop.propagate import build_packed_generator, pack_hermitian

from oracle import Oracle

BUILTINS = {"benzene": builtin_benzene, "three-level": builtin_three_level}
# 0.01 and 0.1 reach Pade degrees 3 and 5, the others 7, 9 and 13
TIMES = (0.01, 0.1, 1.0, 80.0, 1286.0, 16000.0, 19000.0)


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module", params=[(name, kind, route)
                                        for name in BUILTINS
                                        for kind in ("rme", "ume", "ule")
                                        for route in ("packed", "kronecker")],
                ids="-".join)
def generator(request):
    """A linear generator and its trace row t, with t G = 0."""
    name, kind, route = request.param
    setup = BUILTINS[name](kind=kind).build()
    h, spec = setup.hamiltonian, setup.spec
    if route == "packed":
        trace = pack_hermitian(np.eye(h.dim))
        return build_packed_generator(h, spec).matrix, trace
    return Oracle(h, spec).superoperator(), np.eye(h.dim).flatten(order="F")


@pytest.mark.parametrize("t", TIMES)
def test_expm_matches_scipy(generator, t):
    g = generator[0] * t
    ours, theirs = expm(g), scipy_expm(g)
    gap = relative_gap(ours, theirs)
    if gap > 1e-13:
        # scipy's own error can exceed 1e-13 (three-level at 1286 au): the
        # exact exponential settles it
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(g.tolist())).tolist(),
                             dtype=g.dtype)
        assert relative_gap(ours, exact) <= 1e-13


@pytest.mark.parametrize("t", TIMES)
def test_expm_keeps_the_trace_row(generator, t):
    g, trace = generator
    assert np.max(np.abs(trace @ g)) <= 1e-15
    drift = np.max(np.abs(trace @ expm(g * t) - trace))
    # squaring doubles a one-ulp trace error each time; where scipy's result
    # drifts by more than 1e-14, this one must drift no more than one ulp
    # beyond it
    floor = np.max(np.abs(trace @ scipy_expm(g * t) - trace))
    assert drift <= max(1e-14, floor + np.finfo(float).eps)


def test_expm_of_diagonal_and_zero_matrices():
    a = np.diag([-3.0, 0.5, 2.0])
    assert np.allclose(expm(a), np.diag(np.exp([-3.0, 0.5, 2.0])),
                       rtol=1e-15, atol=0.0)
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))


@pytest.mark.parametrize("q", [1, 2, 7, 15, 16, 32])
def test_gauss_kronrod_extends_leggauss_to_degree_3q_plus_1(q):
    x, gauss, kronrod = gauss_kronrod(q)
    nodes, weights = leggauss(q)
    assert np.array_equal(x[:q], nodes) and np.array_equal(gauss, weights)
    assert x.shape == kronrod.shape == (2 * q + 1,)
    # sorted, the q + 1 Kronrod nodes interleave the Gauss nodes
    order = np.argsort(x)
    assert np.array_equal(order[1::2], np.arange(q))
    assert np.all(np.diff(x[order]) > 0) and np.all(kronrod > 0)
    assert np.array_equal(x[order], -x[order][::-1])
    assert np.array_equal(kronrod[order], kronrod[order][::-1])
    assert abs(kronrod.sum() - 2.0) <= 1e-14
    for k in range(3 * q + 2):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(kronrod * x**k) - exact) <= 1e-14, k


def test_tableau_is_scipys():
    ours = _numerics
    assert np.array_equal(ours._A[:12, :12], DOP853.A)
    assert np.array_equal(ours._A[13:], DOP853.A_EXTRA)
    assert np.array_equal(ours._C[:12], DOP853.C)
    assert np.array_equal(ours._C[13:], DOP853.C_EXTRA)
    assert np.array_equal(ours._B, DOP853.B)
    assert np.array_equal(ours._E3, DOP853.E3)
    assert np.array_equal(ours._E5, DOP853.E5)
    assert np.array_equal(ours._D, DOP853.D)


def blocked_builtin(name, kind):
    setup = BUILTINS[name](kind=kind, pauli_blocked=True).build()
    return setup.hamiltonian, setup.spec, setup.rho0.data


def blocked_random(d, seed):
    rng = np.random.default_rng(seed)
    h = SystemHamiltonian.from_energies(np.sort(rng.uniform(-0.5, 0.5, d)))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    spec = build_generator(h, CouplingOperator("x", 0.3 * (b + b.conj().T)),
                           BathModel(lam=0.01, temperature=300.0), "ule",
                           1.0, pauli_blocked=True)
    return h, spec, np.diag(np.r_[np.ones(d // 2), np.zeros(d - d // 2)])


CASES = {
    **{f"{name}-{kind}": (lambda n=name, k=kind: blocked_builtin(n, k),
                          np.linspace(0.0, 2000.0, 400))
       for name in BUILTINS for kind in ("rme", "ume", "ule")},
    "random-d4": (lambda: blocked_random(4, 7), np.linspace(0.0, 200.0, 50)),
    "random-d8": (lambda: blocked_random(8, 8), np.linspace(0.0, 200.0, 50)),
    "offset-grid": (lambda: blocked_builtin("benzene", "rme"),
                    np.linspace(300.0, 2000.0, 7)),
    "two-samples": (lambda: blocked_builtin("benzene", "ule"),
                    np.array([0.0, 2000.0])),
    "dense-grid": (lambda: blocked_builtin("benzene", "rme"),
                   np.linspace(0.0, 2000.0, 20000)),
}


@pytest.mark.parametrize("case", CASES)
def test_dop853_matches_solve_ivp(case):
    build, t_eval = CASES[case]
    h, spec, rho0 = build()
    fun = build_packed_generator(h, spec)
    y0 = pack_hermitian(h.to_eigenbasis(rho0))
    ours, nfev = dop853(fun, y0, t_eval, 1e-9, 1e-11)
    sol = solve_ivp(fun, (0.0, t_eval[-1]), y0, method="DOP853",
                    t_eval=t_eval, rtol=1e-9, atol=1e-11)
    assert sol.success
    assert ours.shape == (t_eval.size, y0.size)
    assert np.max(np.abs(ours - sol.y.T)) <= 1e-12
    assert nfev == sol.nfev


def test_blocked_run_enters_numpy_python_code_only_in_set_up():
    # stage points, error norms and the compact map call ndarray methods
    # and ufuncs, which skip numpy's Python dispatchers: the few numpy
    # Python frames of a run are its set-up's, none per evaluation
    h, spec, rho0 = blocked_builtin("three-level", "rme")
    fun = build_packed_generator(h, spec)
    y0 = pack_hermitian(h.to_eigenbasis(rho0))
    t_eval = np.linspace(0.0, 50.0, 11)
    frames = []

    def profile(frame, event, arg):
        if event == "call" and "numpy" in frame.f_code.co_filename:
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        _, nfev = dop853(fun, y0, t_eval, 1e-9, 1e-11)
    finally:
        sys.setprofile(None)
    assert nfev > 900
    assert "dot" not in frames
    assert len(frames) <= 10


def forced_relaxation(t, y, out=None):
    return -50.0 * (y - np.cos(t))


def attempts_per_step(fun, y0, t_end, rtol, atol):
    """scipy's DOP853 stepped by hand: its evaluations per accepted step,
    12 per attempt, so any count above 12 is a rejected step."""
    solver = DOP853(fun, 0.0, y0, t_end, rtol=rtol, atol=atol)
    counts = []
    while solver.status == "running":
        before = solver.nfev
        solver.step()
        counts.append(solver.nfev - before)
    return counts


@pytest.mark.parametrize("samples", [2, 5000])
def test_dop853_counts_every_evaluation(samples):
    y0, t_eval = np.array([0.0, 2.0]), np.linspace(0.0, 10.0, samples)
    assert max(attempts_per_step(forced_relaxation, y0, 10.0, 1e-9,
                                 1e-11)) > 12
    calls = 0

    def counted(t, y, out=None):
        nonlocal calls
        calls += 1
        return forced_relaxation(t, y)

    ours, nfev = dop853(counted, y0, t_eval, 1e-9, 1e-11)
    assert nfev == calls
    sol = solve_ivp(forced_relaxation, (0.0, 10.0), y0, method="DOP853",
                    t_eval=t_eval, rtol=1e-9, atol=1e-11)
    assert nfev == sol.nfev
    assert np.max(np.abs(ours - sol.y.T)) <= 1e-12


def test_dop853_raises_when_the_step_underflows():
    def blow_up(t, y, out=None):
        return y * y

    with pytest.raises(StiffnessError, match="stopped early"):
        dop853(blow_up, np.array([1.0]), np.array([0.0, 2.0]), 1e-9, 1e-11)
