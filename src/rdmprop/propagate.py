"""Time propagation of 1-RDM master equations.

States are packed into a real vector (diagonal, then scaled real and
imaginary upper-triangle parts) so every route works on a real equation
whose flow preserves Hermiticity exactly. Linear generators become a single
dense real matrix G and are stepped exactly on the sample grid with
exp(G dt), one exponential per distinct sample interval. Pauli-blocked
generators become one dense stack of at most 4 + 2m such matrices for m
subspaces: the free-free part, the three sandwiches of the free and
blockable coupling parts, and two anticommutator maps per subspace. Each is
weighted on every packed output entry by a product of two state-dependent
blocking factors (1 for a free side). Blocked equations are integrated
adaptively (DOP853 by default). ``Schedule.method`` names a solve_ivp
method to force adaptive integration for linear generators too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .core import DimensionError, NumericalError, OneRdm, PhysicalityError, \
    SystemHamiltonian, max_norm
from .generators import GeneratorSpec, _sandwich, effective_hamiltonian, \
    liouvillian_action, superoperator_matrix

_SQRT2 = np.sqrt(2.0)


class StiffnessError(RuntimeError):
    """The ODE solver failed to reach the end of the requested interval."""


def pack_hermitian(m: np.ndarray) -> np.ndarray:
    """Map a Hermitian matrix to a real vector isometrically.

    Layout: d diagonal entries, then sqrt(2) * real upper triangle, then
    sqrt(2) * imaginary upper triangle (row-major order of the triangle).
    The scaling makes the map preserve the Frobenius inner product. Leading
    batch axes are kept.
    """
    m = np.asarray(m)
    iu = np.triu_indices(m.shape[-1], 1)
    upper = m[..., iu[0], iu[1]]
    return np.concatenate([np.real(np.diagonal(m, axis1=-2, axis2=-1)),
                           _SQRT2 * np.real(upper),
                           _SQRT2 * np.imag(upper)], axis=-1)


def unpack_hermitian(y: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of pack_hermitian, over the last axis."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (dim * dim,):
        raise DimensionError(f"packed length {y.shape[-1:]} does not match "
                             f"dimension {dim}")
    iu = np.triu_indices(dim, 1)
    k = iu[0].size
    upper = (y[..., dim:dim + k] + 1j * y[..., dim + k:]) / _SQRT2
    m = np.zeros(y.shape[:-1] + (dim, dim), dtype=complex)
    m[..., range(dim), range(dim)] = y[..., :dim]
    m[..., iu[0], iu[1]] = upper
    m[..., iu[1], iu[0]] = np.conj(upper)
    return m


def build_packed_generator(h: SystemHamiltonian,
                           spec: GeneratorSpec) -> np.ndarray:
    """Dense real matrix of a linear generator on packed eigenbasis states,
    from one liouvillian_action (which refuses Pauli-blocked specs) on the
    stack of all basis states."""
    basis = unpack_hermitian(np.eye(h.dim * h.dim), h.dim)
    return pack_hermitian(liouvillian_action(basis, h, spec)).T


def build_blocked_rhs(h: SystemHamiltonian, spec: GeneratorSpec):
    """Right-hand side of a Pauli-blocked equation on packed vectors.

    M o a = a_free + R a_blk with R = diag(r_sub(i)), r_s = sqrt(chi - n_s),
    so the generator is one dense stack of at most 4 + 2m packed maps
    (m subspaces), each weighted on packed output entry (i, k) by u_p u_q,
    u = (1, r_s): -i[H_eff, .] and D(free, free) by 1; the sandwiches
    S(blk, free), S(free, blk), S(blk, blk) by r_sub(i), r_sub(k) and both;
    per subspace s, the anticommutators of free-blk and blk-blk terms
    through s by r_s and r_s^2. Zero maps are dropped. This is the only
    evaluator of blocked generators, which act on packed states only: runs
    integrate it and ``unitality_residual`` evaluates it at chi*1. Factors
    clamp at zero and nothing raises: populations pass chi by rounding, and
    for rme also for real; ule can keep them in bounds while natural
    occupations pass chi. The run audit reports both margins.
    """
    if not spec.pauli_blocked:
        raise ValueError("generator spec is not Pauli-blocked")
    d, n, m = h.dim, h.dim * h.dim, len(spec.subspaces)
    free, blk = spec.blocking_split
    sub = spec.level_subspace
    basis = unpack_hermitian(np.eye(n), d)
    # 1 + subspace of the row and of the column of every packed entry
    iu = np.triu_indices(d, 1)
    row, col = sub[np.concatenate([[range(d)] * 2, iu, iu], axis=1)] + 1
    stack, index = np.empty(((4 + 2 * m) * n, n)), []

    def anti(*pairs):
        a = -0.5 * sum(_sandwich(spec, x, y)[1] for x, y in pairs)
        out = a @ basis
        out += basis @ a
        return out

    def add(image, first, second):
        packed = pack_hermitian(image).T
        if packed.any() or not index:
            stack[len(index) * n:][:n] = packed
            index.append(np.broadcast_arrays(first, second, row)[:2])

    heff = effective_hamiltonian(h, spec)
    add(-1j * (heff @ basis - basis @ heff)
        + _sandwich(spec, free, free, basis)[0] + anti((free, free)), 0, 0)
    add(_sandwich(spec, blk, free, basis)[0], row, 0)
    add(_sandwich(spec, free, blk, basis)[0], 0, col)
    add(_sandwich(spec, blk, blk, basis)[0], row, col)
    for s in range(m):
        part = tuple(np.where((sub == s)[:, None], b, 0.0) for b in blk)
        add(anti((free, part), (part, free)), s + 1, 0)
        add(anti((part, part)), s + 1, s + 1)

    stack, ones = stack[:len(index) * n], np.ones(len(index))
    left, right = map(np.array, zip(*index))
    average = np.zeros((m + 1, d))
    average[sub + 1, range(d)] = -1.0 / np.bincount(sub)[sub]
    # the vacancy chi - n_s, with chi as the product the filled state gives,
    # so that u = (1, 0, ..., 0) exactly at chi*1 for any shell size
    offset = -(average @ np.full(d, spec.chi))
    offset[0] = 1.0

    def rhs(t, y):
        u = np.sqrt(np.maximum(offset + average @ y[:d], 0.0))
        return ones @ (u[left] * u[right] * (stack @ y).reshape(-1, n))

    return rhs


def filled_residual(fun, spec: GeneratorSpec) -> float:
    """Max-norm of the packed right-hand side ``fun`` at the filled state
    chi*1, unpacked: zero exactly when the generator is unital."""
    filled = pack_hermitian(spec.chi * np.eye(spec.dim))
    return max_norm(unpack_hermitian(fun(0.0, filled), spec.dim))


ADAPTIVE_METHODS = ("RK23", "RK45", "DOP853", "Radau", "BDF", "LSODA")


@dataclass
class Schedule:
    """Integration window and solver settings.

    ``method`` None takes the route the generator's structure allows: exact
    stepping on the sample grid for linear generators, DOP853 for blocked
    ones. A solve_ivp method name forces adaptive integration for both.
    ``rtol`` and ``atol`` apply to adaptive integration only.
    """

    t_end: float | None = None
    samples: int = 400
    rtol: float = 1e-9
    atol: float = 1e-11
    method: str | None = None

    def __post_init__(self):
        if self.method is not None and self.method not in ADAPTIVE_METHODS:
            raise ValueError(f"method must be one of "
                             f"{', '.join(ADAPTIVE_METHODS)} or omitted, "
                             f"got {self.method!r}")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        for name in ("t_end", "rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")


@dataclass(eq=False)
class Trajectory:
    """Stored solution of one propagation.

    ``states`` holds the 1-RDM in the original basis at each sample time;
    ``populations`` holds the eigenbasis diagonal. ``defect`` is filled by
    hole co-propagation with the complement mismatch per sample.
    """

    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    chi: float
    metadata: dict = field(default_factory=dict)
    defect: np.ndarray | None = None
    hole: "Trajectory | None" = None
    setup: object = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def occupations(self) -> np.ndarray:
        """Natural occupations per sample, ascending: the eigenvalues of the
        Hermitian part of each state, from one batched eigvalsh."""
        herm = np.conj(np.swapaxes(self.states, -1, -2))
        herm += self.states
        herm *= 0.5
        return np.linalg.eigvalsh(herm)

    @cached_property
    def traces(self) -> np.ndarray:
        """Real part of the trace of each state."""
        return np.real(np.trace(self.states, axis1=-2, axis2=-1))

    def state(self, k: int) -> OneRdm:
        return OneRdm(self.states[k], self.chi)

    @property
    def final_state(self) -> OneRdm:
        return self.state(len(self) - 1)


def default_t_end(spec: GeneratorSpec) -> float:
    """Twenty lifetimes of the slowest relevant channel.

    Channels whose diagonal decay rate is below 1e-6 of the fastest one
    (typically frozen uphill transitions) do not count as relevant. Raises
    NumericalError (a ValueError) when no channel decays, in which case an
    explicit t_end is required.
    """
    rates = np.concatenate(spec.diagonal_rates())
    rates = rates[rates > 0.0]
    if not rates.size:
        raise NumericalError(
            "no decaying channel; an explicit t_end is required")
    floor = 1e-6 * rates.max()
    return 20.0 / float(rates[rates >= floor].min())


def propagate_state(h: SystemHamiltonian, spec: GeneratorSpec, rho0,
                    schedule: Schedule | None = None,
                    t_eval: np.ndarray | None = None,
                    verify_expm: bool = False) -> Trajectory:
    """Propagate one initial state and sample it on a uniform grid.

    ``rho0`` is given in the original basis (a matrix or OneRdm). The
    metadata records the route taken as ``method``: "expm" for exact
    stepping, else the solve_ivp method; and as ``unitality_residual`` the
    function it integrates, evaluated once at chi*1. With ``verify_expm``
    the linear generator is also propagated through its Kronecker
    superoperator (``expm_propagate``) and the maximum population deviation
    is recorded in the metadata.
    """
    if schedule is None:
        schedule = Schedule()
    if isinstance(rho0, OneRdm):
        if abs(rho0.chi - spec.chi) > 1e-12:
            raise ValueError(f"state chi {rho0.chi} does not match "
                             f"generator chi {spec.chi}")
        rho0 = rho0.data
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (h.dim, h.dim):
        raise DimensionError(f"state shape {rho0.shape} does not match "
                             f"dimension {h.dim}")
    if h.dim != spec.dim:
        raise DimensionError("Hamiltonian and generator dimensions differ")

    if t_eval is None:
        t_end = schedule.t_end if schedule.t_end is not None \
            else default_t_end(spec)
        t_eval = np.linspace(0.0, t_end, schedule.samples)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        t_end = float(t_eval[-1])
        if t_eval[0] < 0.0 or np.any(np.diff(t_eval) < 0.0):
            raise ValueError("t_eval must be non-negative and sorted")

    y0 = pack_hermitian(h.to_eigenbasis(rho0))
    method = schedule.method or ("DOP853" if spec.pauli_blocked else "expm")
    if spec.pauli_blocked:
        fun = build_blocked_rhs(h, spec)
    else:
        gmat = build_packed_generator(h, spec)

        def fun(t, y):
            return gmat @ y

    residual = filled_residual(fun, spec)
    started = time.perf_counter()
    if method == "expm":
        ys, nfev = _step_on_grid(gmat, y0, t_eval), 0
    else:
        sol = solve_ivp(fun, (0.0, t_end), y0, method=method, t_eval=t_eval,
                        rtol=schedule.rtol, atol=schedule.atol)
        if not sol.success:
            raise StiffnessError(f"integration stopped early: {sol.message}")
        ys, nfev = sol.y.T, sol.nfev
    elapsed = time.perf_counter() - started

    # the packed layout starts with the eigenbasis diagonal
    populations = ys[:, :h.dim].copy()
    states = h.from_eigenbasis(unpack_hermitian(ys, h.dim))

    metadata = {
        "kind": spec.kind.value,
        "pauli_blocked": spec.pauli_blocked,
        "lamb_shift": spec.lamb_shift,
        "chi": spec.chi,
        "t_end": t_end,
        "samples": int(len(t_eval)),
        "method": method,
        "rtol": schedule.rtol,
        "atol": schedule.atol,
        "rhs_evaluations": int(nfev),
        "wall_time_s": elapsed,
        "unitality_residual": residual,
    }
    traj = Trajectory(times=t_eval.copy(), states=states,
                      populations=populations, chi=spec.chi,
                      metadata=metadata)

    if verify_expm:
        reference = expm_propagate(h, spec, rho0, t_eval)
        ref_pops = np.real(np.einsum("tii->ti", h.to_eigenbasis(reference)))
        deviation = float(np.max(np.abs(ref_pops - populations)))
        metadata["expm_max_population_deviation"] = deviation
    return traj


def _step_on_grid(generator: np.ndarray, y0: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Exact samples y(t) = exp(generator t) y0 of a linear equation.

    ``y0`` is the state at t = 0; a grid starting at t_0 > 0 first applies
    exp(generator t_0). A uniform grid reuses one exponential; otherwise
    each interval gets its own. Returns shape (len(times), len(y0)).
    """
    out = np.empty((times.size, y0.size), dtype=np.result_type(generator, y0))
    out[0] = y0 if times[0] == 0.0 else expm(generator * times[0]) @ y0
    steps = np.diff(times)
    uniform = steps.size and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
    step = expm(generator * steps[0]) if uniform else None
    for k, dt in enumerate(steps, start=1):
        out[k] = (step if uniform else expm(generator * dt)) @ out[k - 1]
    return out


def expm_propagate(h: SystemHamiltonian, spec: GeneratorSpec, rho0,
                   times: np.ndarray) -> np.ndarray:
    """Independent propagation route through the Kronecker superoperator.

    Raises for Pauli-blocked specs (no linear superoperator exists). Steps
    the column-major vectorised eigenbasis state with ``_step_on_grid``.
    Returns states in the original basis, shaped (n, d, d).
    """
    if isinstance(rho0, OneRdm):
        rho0 = rho0.data
    sup = superoperator_matrix(h, spec)
    d = h.dim
    vec = h.to_eigenbasis(np.asarray(rho0, dtype=complex)).flatten(order="F")
    vecs = _step_on_grid(sup, vec, np.asarray(times, dtype=float))
    # row-major reshape of a column-major vector gives the transpose
    out_eig = vecs.reshape(-1, d, d).transpose(0, 2, 1)
    return h.from_eigenbasis(out_eig)


def integrate(scenario, verify_expm: bool = False) -> Trajectory:
    """Run a full scenario: build, audit the initial state, propagate.

    When the scenario requests hole co-propagation the returned particle
    trajectory carries the per-sample complement defect and the hole
    trajectory itself on its ``defect`` and ``hole`` attributes.
    """
    setup = scenario.build()
    report = setup.rho0.audit()
    if report.violation:
        raise PhysicalityError(
            f"initial state eigenvalues in [{report.min_eigenvalue:.3e}, "
            f"{report.max_eigenvalue:.3e}] violate [0, {setup.rho0.chi}]")

    traj = propagate_state(setup.hamiltonian, setup.spec, setup.rho0,
                           setup.schedule, verify_expm=verify_expm)
    traj.metadata["scenario"] = scenario.to_dict()
    traj.setup = setup

    if scenario.copropagate_hole:
        from .representability import copropagate_hole as _cop
        q0 = setup.rho0.complement()
        hole_traj = _cop(q0, setup.hamiltonian, setup.spec,
                         schedule=setup.schedule, particle_trajectory=traj)
        traj.defect = hole_traj.defect
        traj.hole = hole_traj
    return traj
