"""Matrix exponential, Gauss-Kronrod rule and DOP853 integration on numpy
alone.

``expm`` is the scaling-and-squaring algorithm of Al-Mohy & Higham, SIAM
J. Matrix Anal. Appl. 31, 970 (2009), with exact 1-norms of the matrix
powers. ``gauss_kronrod`` is the nested Gauss-Kronrod rule on [-1, 1] by
Laurie's algorithm, Math. Comp. 66, 1133 (1997). ``dop853`` follows
scipy's ``solve_ivp(method="DOP853")``: the same tableau, initial step,
error norm, step-size control and dense output. It forms each stage point
as one product ``[1, h A_s] @ [y; k_0 ... k_(s-1)]`` and counts
evaluations per stage, without wrapping ``fun``. That rounds
differently from scipy's ``y + h (A_s @ k)``, so it returns the same
``nfev``, with samples within 1e-12 of ``solve_ivp``'s, unless a last-bit
difference flips an accept or reject decision. Stage points, error
estimates and norms call ``ndarray.dot``: the C product of ``np.dot``,
bitwise, without its Python dispatcher (about 0.25 us a call), so the
step loop itself enters no numpy Python code. Nor does an attempted step
allocate: each stage point is formed in one reused buffer,
``fun(t, y, out)`` writes stage s straight into its row of the stage
array, and the error norm's scale and estimates are kept in buffers,
computed in scipy's order.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# Al-Mohy & Higham (2009), Table 3.1 and Section 5: the largest 1-norm for
# which each Pade degree m is accurate to unit roundoff.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}


def _pade_coefficients(m: int) -> list[float]:
    """b_j of the [m/m] Pade approximant of exp, scaled so b_m = 1."""
    f = math.factorial
    return [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]


def _onenorm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> int:
    """Extra squarings that keep the backward error of degree m at unit
    roundoff, from the exact 1-norm of |a|^(2m + 1)."""
    v, magnitude = np.ones(a.shape[0]), np.abs(a)
    for _ in range(2 * m + 1):
        v = v @ magnitude
    norm = v.max()
    if not norm:
        return 0
    f = math.factorial
    # 1 / |c_(2m+1)|, the leading coefficient of the Pade error series
    recip = f(2 * m) * f(2 * m + 1) / f(m) ** 2
    alpha = norm / (_onenorm(a) * recip)
    return max(math.ceil(math.log2(alpha / 2.0**-53) / (2 * m)), 0)


def _combine(coefficients, powers):
    return sum(c * p for c, p in reversed(list(zip(coefficients, powers))))


def _pade(a: np.ndarray, powers: list, m: int) -> np.ndarray:
    """r_m(a) from the even powers [I, a^2, a^4, ...] of a. The result is
    formed as I + 2 (V - U)^-1 U, which keeps a left null vector of a exact
    to rounding, where (V - U)^-1 (V + U) loses it in the large V."""
    b = _pade_coefficients(m)
    if m == 13:
        top = powers[3]
        u = top @ _combine(b[9::2], powers[1:]) + _combine(b[1:9:2], powers)
        v = top @ _combine(b[8::2], powers[1:]) + _combine(b[0:8:2], powers)
    else:
        u = _combine(b[1::2], powers)
        v = _combine(b[0::2], powers)
    u = a @ u
    return powers[0] + 2.0 * np.linalg.solve(v - u, u)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square real or complex array."""
    a = np.asarray(a, dtype=np.result_type(a, 1.0))
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    a8 = a4 @ a4

    def root(power, k):
        return _onenorm(power) ** (1.0 / k)

    eta = max(root(a4, 4), root(a6, 6))
    for m, powers in ((3, [eye, a2]), (5, [eye, a2, a4])):
        if eta < _THETA[m] and _ell(a, m) == 0:
            return _pade(a, powers, m)
    eta = max(root(a6, 6), root(a8, 8))
    for m, powers in ((7, [eye, a2, a4, a6]), (9, [eye, a2, a4, a6, a8])):
        if eta < _THETA[m] and _ell(a, m) == 0:
            return _pade(a, powers, m)
    eta = min(eta, max(root(a8, 8), root(a4 @ a6, 10)))
    s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta else 0
    s += _ell(a * 2.0**-s, 13)
    scaled = [eye] + [p * 2.0**(-2 * k * s)
                      for k, p in enumerate((a2, a4, a6), 1)]
    r = _pade(a * 2.0**-s, scaled, 13)
    for _ in range(s):
        r = r @ r
    return r


@lru_cache
def gauss_kronrod(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nested Gauss-Kronrod rule of 2q + 1 points on [-1, 1], built on
    first use and shared read-only.

    Returns the nodes, the q nodes of ``leggauss(q)`` (bitwise) followed by
    the q + 1 Kronrod nodes in ascending order, then the Gauss weights of
    the first q nodes (``leggauss(q)``'s, bitwise) and the Kronrod weights
    of all of them. The Kronrod sum is exact for polynomials of degree
    3q + 1 and the Gauss sum for degree 2q - 1, so their difference
    estimates the error of the Gauss sum at the cost of q + 1 more nodes.

    Laurie's algorithm completes the Legendre recurrence coefficients
    beta_k = k^2 / (4k^2 - 1) (beta_0 = 2) to those of the (2q + 1)-point
    Kronrod-Jacobi matrix, whose eigenvalues are the nodes and the squared
    first components of whose eigenvectors, times beta_0, the weights
    (Golub-Welsch). The Legendre weight is even, so every diagonal
    coefficient is zero and only the betas are completed.
    """
    # the algorithm reads the Legendre betas up to k = ceil(3q / 2)
    beta = np.zeros(2 * q + 1)
    n = np.arange(1.0, -(-3 * q // 2) + 1)
    beta[0], beta[1:n.size + 1] = 2.0, n**2 / (4.0 * n**2 - 1.0)
    # Laurie's mixed moments, kept two rows at a time (s and t)
    s, t = np.zeros(q // 2 + 2), np.zeros(q // 2 + 2)
    t[1] = beta[q + 1]
    for m in range(q - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(beta[k + q + 1] * s[k]
                             - beta[m - k] * s[k + 1])
        s, t = t, s
    s[1:q // 2 + 2] = s[:q // 2 + 1].copy()
    for m in range(q - 1, 2 * q - 2):
        k = np.arange(m + 1 - q, (m - 1) // 2 + 1)
        j = q - 1 - (m - k)
        s[j + 1] = np.cumsum(beta[m - k] * s[j + 2]
                             - beta[k + q + 1] * s[j + 1])
        if m % 2:
            beta[(m + 1) // 2 + q + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.sqrt(beta[1:])
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = beta[0] * v[0] ** 2
    # the Kronrod nodes interleave the Gauss nodes and hold both ends
    kronrod = x[::2]
    kronrod, w = 0.5 * (kronrod - kronrod[::-1]), 0.5 * (w + w[::-1])
    gauss, gauss_weights = leggauss(q)
    rule = (np.concatenate([gauss, kronrod]), gauss_weights,
            np.concatenate([w[1::2], w[::2]]))
    for a in rule:
        a.flags.writeable = False
    return rule


# Hairer's DOP853 tableau (dop853.f), each coefficient written as the
# shortest decimal that rounds to the same double. Row s of A holds the
# weights of stages 0..s-1; stage 12 is the step's end point, and stages
# 13-15 serve the dense output only.
_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A = np.zeros((16, 16))
for _s, _row in enumerate([
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0, 0.08876275643042054],
        [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0, 0, 0.17082860872947386,
         0.12546768756682242],
        [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627],
        [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
        [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, 0.3111643669578199,
         -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
        [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
        [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0, 0,
         -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
         7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
         -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]],
        start=1):
    _A[_s, :_s] = _row
_B = _A[12, :12]
# error estimators of orders 5 and 3 over the 13 stages
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0])
# the four higher interpolant coefficients over the 16 stages
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


class StiffnessError(RuntimeError):
    """The ODE solver failed to reach the end of the requested interval."""


def _rms(x: np.ndarray) -> float:
    # np.linalg.norm's own sum and root, without its dispatcher
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def dop853(fun, y0: np.ndarray, t_eval: np.ndarray, rtol: float,
           atol: float) -> tuple[np.ndarray, int]:
    """Integrate y' = fun(t, y) from y(0) = y0 to t_eval[-1] > 0 and sample
    the dense output at the sorted times ``t_eval`` >= 0.

    ``fun(t, y, out)`` returns f(t, y), a float array shaped like y: either
    ``out`` itself, written in place, or a fresh array, which is copied
    into ``out``. ``y`` is a buffer of the solver's, valid for that call
    only, and ``out`` never overlaps it. Returns the samples, shaped
    (len(t_eval), len(y0)), and the number of evaluations of ``fun``: 2
    for the initial step, 12 per attempted step and 3 per step with dense
    output. Raises StiffnessError when the step size falls below ten
    units in the last place of t.
    """
    t, t_bound = 0.0, float(t_eval[-1])
    if not t_bound > t:
        raise ValueError("t_eval must end after t = 0")
    y0 = np.asarray(y0, dtype=float)
    size = y0.size
    out = np.empty((len(t_eval), size))
    # the step's start point, then the 16 stage derivatives; stage s is
    # evaluated at weights[s, :s + 1] @ points[:s + 1], weights = [1, h A]
    points = np.empty((17, size))
    y, k = points[0], points[1:]
    y[:] = y0
    k13 = k[:13]
    weights = np.empty((16, 17))
    weights[:, 0] = 1.0
    # h A is formed in a contiguous block, then copied into weights[:, 1:]:
    # the same products, faster than a multiply into the strided view
    scaled, tableau = np.empty((16, 16)), weights[:, 1:]
    stages = [(c, weights[s, :s + 1], points[:s + 1], k[s])
              for s, c in enumerate(_C.tolist())]
    inner, dense = stages[1:12], stages[13:]
    end_row, end_head = stages[12][1:3]
    # the stage point, the end point and the error norm's terms, reused by
    # every step
    point, y_new, abs_new = np.empty(size), np.empty(size), np.empty(size)
    err5, err3 = np.empty(size), np.empty(size)
    rtols, atols = np.full(size, rtol), np.full(size, atol)
    fy, f_new = k[0], k[12]
    grid = np.asarray(t_eval, dtype=float).tolist()

    def evaluate(at, state, into):
        f = fun(at, state, into)
        if f is not into:
            into[:] = f

    evaluate(t, y, fy)

    # initial step: Hairer, Norsett & Wanner, Sec. II.4; its scale array
    # is the buffer every step's scale is written into
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    np.add(y, h0 * fy, point)
    evaluate(t + h0, point, k[1])
    d2 = _rms((k[1] - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t_bound - t))

    nfev = 2
    done = 0
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    "integration stopped early: Required step size is less "
                    "than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            np.multiply(_A, h, scaled)
            tableau[:] = scaled
            # evaluate(), inlined on the hot path
            for c, row, head, stage in inner:
                row.dot(head, point)
                f = fun(t + c * h, point, stage)
                if f is not stage:
                    stage[:] = f
            end_row.dot(end_head, y_new)
            evaluate(t + h, y_new, f_new)
            nfev += 12
            # scipy's scale, atol + max(|y|, |y_new|) * rtol, and its two
            # error estimates, without temporaries
            np.abs(y_new, abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            np.multiply(scale, rtols, scale)
            np.add(scale, atols, scale)
            _E5.dot(k13, err5)
            err5 /= scale
            _E3.dot(k13, err3)
            err3 /= scale
            err5_2 = float(err5.dot(err5))
            err3_2 = float(err3.dot(err3))
            if err5_2 == 0 and err3_2 == 0:
                error = 0.0
            else:
                error = h_abs * err5_2 / math.sqrt(
                    (err5_2 + 0.01 * err3_2) * size)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error ** (-1 / 8))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** (-1 / 8))
            rejected = True

        stop = bisect.bisect_right(grid, t_new, done)
        if stop > done:
            # dense output over the step just taken
            for c, row, head, stage in dense:
                row.dot(head, point)
                evaluate(t + c * h, point, stage)
            nfev += 3
            delta = y_new - y
            coeffs = np.empty((7, size))
            coeffs[0] = delta
            coeffs[1] = h * fy - delta
            coeffs[2] = 2 * delta - h * (f_new + fy)
            coeffs[3:] = h * (_D @ k)
            x = ((t_eval[done:stop] - t) / h)[:, None]
            sample = np.zeros((len(x), size))
            for i, coeff in enumerate(coeffs[::-1]):
                sample += coeff
                sample *= x if i % 2 == 0 else 1 - x
            sample += y
            out[done:stop] = sample
            done = stop
        t = t_new
        y[:] = y_new
        fy[:] = f_new
        abs_y, abs_new = abs_new, abs_y
    return out, nfev
