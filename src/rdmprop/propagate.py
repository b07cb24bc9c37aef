"""Time propagation of 1-RDM master equations.

States are packed into a real vector (diagonal, then scaled real and
imaginary upper-triangle parts) so every route works on a real equation
whose flow preserves Hermiticity exactly. One assembly,
``build_packed_generator``, serves every spec. It splits the coupling into
a free part and a part Pauli blocking scales. A spec without blockable
coupling, every linear spec among them, is one real matrix G on packed
vectors, stepped exactly on the uniform sample grid in blocks of about
sqrt(N) samples, each one product with a power of exp(G dt). A blocked
spec weights the images of the free and blockable parts by products of
two state-dependent blocking factors, by one of three routes that byte
sizes pick at build time. Up to ``COMPACT_BYTES`` it is one compact map
whose rows are merged by factor pair and output entry. While that map
stored pair-major, one row per output entry and ordered factor pair,
fits in ``PAIR_BYTES``, a call weights the rows by the outer product of
the factors in one product; otherwise every output entry has one run of
equal length (ELL), summed by one product with a vector of ones. Above
``COMPACT_BYTES``, an O(K d^3) kernel applies the sandwich of the blocked
couplings to the unpacked state. Each is integrated adaptively by the
numpy port of DOP853 in ``_numerics``, which follows scipy's
``solve_ivp`` and has every right-hand side write each stage into the
solver's own array (``f(t, y, out)``); the exponential is that module's
too, so runs need numpy alone. The schedule decides the grid:
``samples`` points from 0 to ``t_end``.

A ``Trajectory`` keeps the packed eigenbasis samples and the eigenvectors.
Everything a run reads from it (populations, natural occupations, traces,
audits, the hole defect, CSV rows) is computed over blocks of
``BLOCK_SAMPLES`` samples. Occupations and traces are unitarily invariant,
so they are taken in the eigenbasis; only the hole defect is rotated to
the original basis, and the full stack of states is formed only when read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._numerics import StiffnessError, dop853, expm
from .core import DimensionError, NumericalError, OneRdm, PhysicalityError, \
    SystemHamiltonian, max_norm
from .generators import GeneratorSpec, _sandwich, effective_hamiltonian

_SQRT2 = np.sqrt(2.0)
# samples per block in every pass over a stored trajectory
BLOCK_SAMPLES = 1024
# largest bound (4 + 2m) d^4 floats, in bytes, of a blocked generator's
# compact map; larger generators run the O(K d^3) kernel (crossover near
# d = 10)
COMPACT_BYTES = 2**21
# largest pair-major compact map, (m + 1 + (m + 1)^2 d^2) d^2 floats, in
# bytes; larger maps take the ELL layout. Per call (2-vCPU host, BLAS at
# one thread) pair-major takes 0.8x the ELL time at 10.7 kB (d = 3), par
# at 51.8 kB (d = 4) and 81 kB (d = 5, m = 3), and 1.3x at 181 kB (d = 5)
PAIR_BYTES = 2**15


@lru_cache
def _upper(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row-major."""
    row, col = np.triu_indices(dim, 1)
    row.flags.writeable = col.flags.writeable = False
    return row, col


def pack_hermitian(m: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """Map a Hermitian matrix to a real vector isometrically.

    Layout: d diagonal entries, then sqrt(2) * real upper triangle, then
    sqrt(2) * imaginary upper triangle (row-major order of the triangle).
    The scaling makes the map preserve the Frobenius inner product. Leading
    batch axes are kept. The result is written into ``out`` when given.
    """
    m = np.asarray(m)
    upper = m[(...,) + _upper(m.shape[-1])]
    return np.concatenate([np.real(np.diagonal(m, axis1=-2, axis2=-1)),
                           _SQRT2 * np.real(upper),
                           _SQRT2 * np.imag(upper)], axis=-1, out=out)


def unpack_hermitian(y: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of pack_hermitian, over the last axis."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (dim * dim,):
        raise DimensionError(f"packed length {y.shape[-1:]} does not match "
                             f"dimension {dim}")
    row, col = _upper(dim)
    k = row.size
    upper = (y[..., dim:dim + k] + 1j * y[..., dim + k:]) / _SQRT2
    m = np.zeros(y.shape[:-1] + (dim, dim), dtype=complex)
    diagonal = np.arange(dim)
    m[..., diagonal, diagonal] = y[..., :dim]
    m[..., row, col] = upper
    m[..., col, row] = np.conj(upper)
    return m


def transpose_permuted(packed: np.ndarray, perm: np.ndarray) -> None:
    """In place: packed samples y of states P y P^T, for an exact
    permutation matrix P, become the packed transposes (P y P^T)^T. Entry
    (a, b) of that is conj(y)[s[a], s[b]] with P[a, s[a]] = 1, so the
    packed entries are permuted and the imaginary parts of the upper
    triangle that stays upper flip sign."""
    d = perm.shape[0]
    src = np.abs(perm).argmax(axis=1)
    row, col = np.triu_indices(d, 1)
    upper = np.zeros((d, d), dtype=int)
    upper[row, col] = range(row.size)
    i, j = src[row], src[col]
    pos = upper[np.minimum(i, j), np.maximum(i, j)]
    packed[:] = packed[:, np.concatenate([src, d + pos, d + row.size + pos])]
    packed[:, d + row.size:] *= np.where(i < j, -1.0, 1.0)


def build_packed_generator(h: SystemHamiltonian, spec: GeneratorSpec):
    """Right-hand side f(t, y, out=None) of the master equation on packed
    eigenbasis states, linear or Pauli-blocked.

    f writes its image into ``out`` and returns it, or returns a fresh
    array when ``out`` is None; ``out`` must not overlap y. The arrays it
    returns are never its own buffers, so a later call leaves them alone.

    Blocking makes the coupling M o a = a_free + R a_blk with
    R = diag(r_sub(i)), r_s = sqrt(chi - n_s); a linear spec has no
    blockable part (``GeneratorSpec.blocking_split``). A spec without
    blockable coupling, every linear spec among them, is one real matrix G:
    f(t, y) = G @ y, and ``f.matrix`` is G, for exact stepping. Otherwise
    ``f.matrix`` is None and f is one of three evaluations of the same
    generator, all built on ``generators._sandwich``: the compact map of
    ``_compact_rhs`` while its bound of (4 + 2m) d^4 floats (m subspaces)
    fits in ``COMPACT_BYTES``, stored pair-major while that table of
    (m + 1 + (m + 1)^2 d^2) d^2 floats fits in ``PAIR_BYTES`` and in the
    ELL layout above it; else the O(K d^3) kernel of ``_kernel_rhs`` (K
    coupling and rate-factor pairs), which keeps no d^2 x d^2 map. Runs
    integrate f, and the unitality and constraint audits evaluate it at
    chi*1 (``filled_image``). Factors clamp at zero and nothing raises:
    populations pass chi by rounding, and for rme also for real; ule can
    keep them in bounds while natural occupations pass chi. A run records
    the clamps (``blocking`` in its metadata) and the audit both margins.
    """
    if h.dim != spec.dim:
        raise DimensionError("Hamiltonian and generator dimensions differ")
    d, m = h.dim, len(spec.subspaces)
    if not any(b.any() for b in spec.blocking_split[1]):
        matrix = pack_hermitian(_free_images(h, spec)).T

        def rhs(t, y, out=None):
            return matrix.dot(y, out)

        rhs.matrix = matrix
        return rhs
    if 8 * (4 + 2 * m) * d**4 > COMPACT_BYTES:
        rhs = _kernel_rhs(h, spec)
    else:
        n = d * d
        rhs = _compact_rhs(h, spec, 8 * (m + 1 + n * (m + 1)**2) * n
                           <= PAIR_BYTES)
    rhs.matrix = None
    return rhs


def _free_images(h: SystemHamiltonian, spec: GeneratorSpec) -> np.ndarray:
    """Images of the packed unit vectors under -i[H_eff, .] and the
    dissipator of the free coupling, the linear generator."""
    d = h.dim
    basis = unpack_hermitian(np.eye(d * d), d)
    heff = effective_hamiltonian(h, spec)
    free = spec.blocking_split[0]
    images, anti = _sandwich(spec, free, free, basis)
    return -1j * (heff @ basis - basis @ heff) + images + _anti(basis, anti)


def _anti(basis: np.ndarray, *matrices) -> np.ndarray:
    """Images of ``basis`` under -1/2 {sum of ``matrices``, .}."""
    a = -0.5 * sum(matrices)
    out = a @ basis
    out += basis @ a
    return out


def _vacancy_map(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """``(average, offset)`` with ``offset + average @ y[:d]`` the squared
    blocking factors u^2 = (1, chi - n_1, ..., chi - n_m) of a packed state
    y: row 0 is the free side, row s + 1 the vacancy of subspace s. chi is
    formed as the filled state forms it, so that u = (1, 0, ..., 0)
    exactly at chi*1 for any shell size."""
    d, sub = spec.dim, spec.level_subspace
    average = np.zeros((len(spec.subspaces) + 1, d))
    average[sub + 1, range(d)] = -1.0 / np.bincount(sub)[sub]
    offset = -(average @ np.full(d, spec.chi))
    offset[0] = 1.0
    return average, offset


def _compact_rhs(h: SystemHamiltonian, spec: GeneratorSpec,
                 pair_major: bool):
    """Blocked right-hand side as one compact map W.

    The generator is a sum of linear maps weighted on every packed output
    entry (i, k) by a product u_p u_q of two blocking factors: the free
    part by 1; the sandwiches S(blk, free), S(free, blk), S(blk, blk) by
    u_sub(i), u_sub(k) and both; per subspace s, the anticommutators of
    the free-blk and blk-blk terms through s by u_s and u_s^2. W holds the
    m + 1 population averages of ``_vacancy_map``, then the rows of those
    maps merged by (output entry, unordered factor pair p <= q), all-zero
    rows dropped, in one of two layouts. A call starts with w = W @ y and
    u = sqrt(max(offset + w[:m+1], 0)), and forms the products u_p u_q as
    one outer product.

    ``pair_major``: one row per output entry and ordered pair, (m + 1)^2
    per entry, holding the merged row of that pair or zero; the pairs
    p > q are all zero. The image is then one product of the n x (m + 1)^2
    array of w with the products u u^T, which are symmetric, so a call is
    six numpy calls whatever the entry's pairs. Otherwise every output
    entry has one run of r rows, r the largest number of factor pairs an
    entry has, at most 2m + 2: (0, 0), (0, s) and (s, s) per subspace and
    one (sub(i), sub(k)). Shorter runs are padded with zero rows of the
    free pair (the ELL layout of Bell & Garland, SC'09); the products are
    gathered per row, multiplied into w and each run summed by one
    product with a vector of ones, O(n r). The first layout holds
    (m + 1)^2 / r times as many rows and wins while its table is small
    (``build_packed_generator``).

    Every step writes into a buffer bound at build time, the last into
    ``out``, and calls a C function of numpy's, so a call allocates
    nothing when given ``out`` and enters no numpy Python code. The
    buffers make a call not reentrant: one call at a time.
    """
    d, n, m = h.dim, h.dim * h.dim, len(spec.subspaces)
    pairs = (m + 1) ** 2
    free, blk = spec.blocking_split
    basis = unpack_hermitian(np.eye(n), d)
    sub = spec.level_subspace
    # 1 + subspace of the row and of the column of every packed entry
    iu = _upper(d)
    row, col = sub[np.concatenate([[range(d)] * 2, iu, iu], axis=1)] + 1
    maps, keys = [], []

    def collect(image, first, second):
        first, second = np.broadcast_arrays(first, second, row)[:2]
        pair = np.minimum(first, second) * (m + 1) + np.maximum(first, second)
        packed = pack_hermitian(image).T
        kept = packed.any(axis=1)
        maps.append(packed[kept])
        keys.append((np.arange(n) * pairs + pair)[kept])

    collect(_free_images(h, spec), 0, 0)
    collect(_sandwich(spec, blk, free, basis)[0], row, 0)
    collect(_sandwich(spec, free, blk, basis)[0], 0, col)
    collect(_sandwich(spec, blk, blk, basis)[0], row, col)
    for s in range(m):
        part = tuple(np.where((sub == s)[:, None], b, 0.0) for b in blk)
        collect(_anti(basis, _sandwich(spec, free, part)[1],
                      _sandwich(spec, part, free)[1]), s + 1, 0)
        collect(_anti(basis, _sandwich(spec, part, part)[1]), s + 1, s + 1)

    # rows of one key summed in the order they were collected, then placed
    # at their key's row, or at their slot in their entry's run of
    # ``width`` rows
    keys = np.concatenate(keys)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    if pair_major:
        width, place = pairs, keys[first]
    else:
        entry, pair = np.divmod(keys[first], pairs)
        counts = np.bincount(entry, minlength=n)
        width = int(counts.max())
        place = entry * width + np.arange(entry.size) \
            - np.repeat(counts.cumsum() - counts, counts)
    table = np.zeros((n * width, n))
    table[place] = np.add.reduceat(np.concatenate(maps)[order], first)
    average, offset = _vacancy_map(spec)
    averages = np.zeros((m + 1, n))
    averages[:, :d] = average
    w_map = np.concatenate([averages, table])
    # buffers, views and functions bound once, not made or looked up per
    # call; u is computed in place over the averages' part of w
    w = np.empty(w_map.shape[0])
    u, w_rows = w[:m + 1], w[m + 1:]
    u_col, u_row = u[:, None], u[None, :]
    products = np.empty((m + 1, m + 1))
    weights = products.reshape(-1)
    zero = np.zeros(m + 1)
    add, maximum, sqrt = np.add, np.maximum, np.sqrt

    if pair_major:
        rows = w_rows.reshape(n, pairs)

        def rhs(t, y, out=None):
            if out is None:
                out = np.empty(n)
            w_map.dot(y, w)
            add(offset, u, u)
            maximum(u, zero, out=u)
            sqrt(u, u)
            u_col.dot(u_row, products)
            # every entry's rows weighted by their pair's product and summed
            return rows.dot(weights, out)

        return rhs

    run_pair = np.zeros(n * width, dtype=np.intp)
    run_pair[place] = pair
    coef = np.empty(n * width)
    runs, ones = coef.reshape(n, width), np.ones(width)
    multiply = np.multiply

    def rhs(t, y, out=None):
        if out is None:
            out = np.empty(n)
        w_map.dot(y, w)
        add(offset, u, u)
        maximum(u, zero, out=u)
        sqrt(u, u)
        # u_p u_q for every pair as one outer product, gathered per row
        u_col.dot(u_row, products)
        weights.take(run_pair, None, coef, "clip")
        multiply(coef, w_rows, coef)
        # each entry's run of coefficients summed by one product
        return runs.dot(ones, out)

    return rhs


def _kernel_rhs(h: SystemHamiltonian, spec: GeneratorSpec):
    """Blocked right-hand side in O(K d^3) per call: unpack y, scale the
    blockable rows of every coupling, M o a = a_free + R a_blk, and apply
    -i[H_eff, rho] plus one ``_sandwich`` of the blocked couplings."""
    d = h.dim
    free, blk = spec.blocking_split
    heff = effective_hamiltonian(h, spec)
    average, offset = _vacancy_map(spec)
    sub = spec.level_subspace[:, None] + 1

    def rhs(t, y, out=None):
        rho = unpack_hermitian(y, d)
        u = np.sqrt(np.maximum(offset + average @ y[:d], 0.0))[sub]
        x = tuple(f + u * b for f, b in zip(free, blk))
        image, anti = _sandwich(spec, x, x, rho)
        image -= 1j * (heff @ rho - rho @ heff)
        image -= 0.5 * (anti @ rho + rho @ anti)
        return pack_hermitian(image, out)

    return rhs


def filled_image(fun, spec: GeneratorSpec) -> np.ndarray:
    """The packed right-hand side ``fun`` at the filled state chi*1,
    unpacked: zero exactly when the generator is unital."""
    filled = pack_hermitian(spec.chi * np.eye(spec.dim))
    return unpack_hermitian(fun(0.0, filled), spec.dim)


# the smallest relative tolerance an adaptive solver can honour
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass
class Schedule:
    """Sample grid and solver tolerances: ``samples`` uniform times from 0
    to ``t_end`` (None: ``default_t_end``). ``rtol`` and ``atol`` apply to
    adaptive integration only, which the generator decides on."""

    t_end: float | None = None
    samples: int = 400
    rtol: float = 1e-9
    atol: float = 1e-11

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        for name in ("t_end", "rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if self.rtol < RTOL_FLOOR:
            raise ValueError(f"rtol must be at least {RTOL_FLOOR:.3g} "
                             f"(100 machine epsilons), got {self.rtol}")


@dataclass(eq=False)
class Trajectory:
    """Stored solution of one propagation.

    ``packed`` holds one packed eigenbasis sample per time
    (``pack_hermitian`` layout) and ``basis`` the unitary that maps a
    sample to the original basis, rho = basis @ unpack(y) @ basis^+. The
    populations are the packed diagonal. Natural occupations and traces
    come from one pass over the unpacked eigenbasis samples in blocks of
    ``BLOCK_SAMPLES`` (``state_blocks``) and are cached; the rotation to
    the original basis leaves both unchanged. A packed sample unpacks to
    an exactly Hermitian matrix, so the Hermiticity defect is 0.0.
    ``states``, the (n, d, d) stack in the original basis, is formed only
    when read. ``defect`` is filled by hole co-propagation with the
    complement mismatch per sample.
    """

    times: np.ndarray
    packed: np.ndarray
    basis: np.ndarray
    chi: float
    metadata: dict = field(default_factory=dict)
    defect: np.ndarray | None = None
    hole: "Trajectory | None" = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Eigenbasis diagonal per sample, a view of the packed samples."""
        return self.packed[:, :self.dim]

    @cached_property
    def states(self) -> np.ndarray:
        """All samples in the original basis, shaped (n, d, d)."""
        return self.to_original(unpack_hermitian(self.packed, self.dim))

    def to_original(self, m: np.ndarray) -> np.ndarray:
        """Rotate eigenbasis matrices (one or a stack) to the original
        basis."""
        return self.basis @ m @ self.basis.conj().T

    def _scanned(self, name: str):
        for _ in state_blocks(self):
            pass
        return self.__dict__[name]

    @cached_property
    def occupations(self) -> np.ndarray:
        """Natural occupations per sample, ascending: the eigenvalues of
        each state."""
        return self._scanned("occupations")

    @cached_property
    def traces(self) -> np.ndarray:
        """Real part of the trace of each state."""
        return self._scanned("traces")

    @property
    def hermiticity_defect(self) -> float:
        """Largest entry of rho - rho^+ over all states: 0.0, which packed
        storage guarantees."""
        return 0.0

    def state(self, k: int) -> OneRdm:
        return OneRdm(self.to_original(
            unpack_hermitian(self.packed[k], self.dim)), self.chi)

    @property
    def final_state(self) -> OneRdm:
        return self.state(len(self) - 1)


def state_blocks(*trajs: Trajectory):
    """Eigenbasis states of trajectories on one time grid, in blocks.

    Yields ``(rows, blocks)``: the slice of up to ``BLOCK_SAMPLES`` sample
    indices and one fresh (k, d, d) stack of unpacked eigenbasis samples
    per trajectory, which the caller may overwrite. The natural
    occupations and traces are taken from each block before it is
    yielded; a completed pass caches them on every trajectory, so reading
    them later costs no second pass.
    """
    n = len(trajs[0])
    found = [{"occupations": np.empty((n, t.dim)), "traces": np.empty(n)}
             for t in trajs]
    for start in range(0, n, BLOCK_SAMPLES):
        rows = slice(start, start + BLOCK_SAMPLES)
        yield rows, [_reduce_block(t, rows, f) for t, f in zip(trajs, found)]
    for t, f in zip(trajs, found):
        t.__dict__.update(f)


def _reduce_block(traj: Trajectory, rows: slice, found: dict) -> np.ndarray:
    """Unpack one block of eigenbasis samples and record its occupations
    and traces in ``found``."""
    states = unpack_hermitian(traj.packed[rows], traj.dim)
    found["occupations"][rows] = np.linalg.eigvalsh(states)
    found["traces"][rows] = np.real(np.trace(states, axis1=-2, axis2=-1))
    return states


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
                    schedule: Schedule | None = None) -> Trajectory:
    """Propagate one initial state and sample it on the schedule's grid.

    ``rho0`` is given in the original basis (a matrix or OneRdm). The
    generator picks the route, recorded in the metadata as ``method``:
    "expm", exact stepping, when ``build_packed_generator`` returns a
    matrix, else "DOP853". ``unitality_residual`` records the function it
    integrates, evaluated once at chi*1. A Pauli-blocked run also records
    ``blocking``: the smallest vacancy chi - n_s over samples and
    subspaces (``min_vacancy``) and the number of samples where some
    vacancy is negative, so that its blocking factor clamps at zero
    (``clamped_samples``). As the vacancies average over a degenerate
    subspace, it also records the largest eigenbasis population over
    samples and levels (``max_population``) and the number of samples
    where some population exceeds chi + 1e-6 (``overfilled_samples``).
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

    t_end = schedule.t_end or default_t_end(spec)
    times = np.linspace(0.0, t_end, schedule.samples)

    y0 = pack_hermitian(h.to_eigenbasis(rho0))
    fun = build_packed_generator(h, spec)
    residual = max_norm(filled_image(fun, spec))
    method = "DOP853" if fun.matrix is None else "expm"
    started = time.perf_counter()
    if method == "expm":
        ys, nfev = _step_on_grid(fun.matrix, y0, times), 0
    else:
        ys, nfev = dop853(fun, y0, times, schedule.rtol, schedule.atol)
    elapsed = time.perf_counter() - started

    metadata = {
        "kind": spec.kind.value,
        "pauli_blocked": spec.pauli_blocked,
        "lamb_shift": spec.lamb_shift,
        "chi": spec.chi,
        "t_end": t_end,
        "samples": int(len(times)),
        "method": method,
        "rtol": schedule.rtol,
        "atol": schedule.atol,
        "rhs_evaluations": int(nfev),
        "wall_time_s": elapsed,
        "unitality_residual": residual,
    }
    if spec.pauli_blocked:
        # vacancies chi - n_s of every sample, as the blocking factors read
        # them; a negative one is clamped to zero in the generator
        average, offset = _vacancy_map(spec)
        populations = ys[:, :h.dim]
        vacancy = populations @ average[1:].T + offset[1:]
        metadata["blocking"] = {
            "min_vacancy": float(vacancy.min()),
            "clamped_samples": int(np.count_nonzero(
                (vacancy < 0.0).any(axis=1))),
            "max_population": float(populations.max()),
            "overfilled_samples": int(np.count_nonzero(
                (populations > spec.chi + 1e-6).any(axis=1))),
        }
    return Trajectory(times=times, packed=ys, basis=h.eigenvectors,
                      chi=spec.chi, metadata=metadata)


def _step_on_grid(generator: np.ndarray, y0: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Exact samples y(t) = exp(generator t) y0 of a linear equation on a
    uniform grid ``times`` from t = 0, y0 being the state there.

    N samples are stepped in blocks of B = 2^floor(log2 sqrt(N)): the first
    B samples with E = exp(generator dt), each later block as one product
    of the block before with E^B = exp(generator B dt), taken as its own
    exponential (squaring E chains more roundings). Returns shape
    (len(times), len(y0)).
    """
    out = np.empty((times.size, y0.size), dtype=np.result_type(generator, y0))
    out[0] = y0
    step = expm(generator * times[1])
    block = 1 << (math.isqrt(times.size).bit_length() - 1)
    for k in range(1, block):
        out[k] = step @ out[k - 1]
    # samples are rows, so a block advances by the transpose of E^B
    leap = expm(generator * (block * times[1])).T
    for start in range(block, times.size, block):
        rows = out[start:start + block]
        np.matmul(out[start - block:start - block + len(rows)], leap,
                  out=rows)
    return out


def integrate(scenario) -> Trajectory:
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
                           setup.schedule)
    traj.metadata["scenario"] = scenario.to_dict()

    if scenario.copropagate_hole:
        from .representability import copropagate_hole as _cop
        q0 = setup.rho0.complement()
        hole_traj = _cop(q0, setup.hamiltonian, setup.spec, setup.schedule,
                         traj)
        traj.defect = hole_traj.defect
        traj.hole = hole_traj
    return traj
