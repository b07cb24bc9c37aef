"""Scenario files: a JSON description of one complete propagation setup.

A scenario pins down the system (Hamiltonian, coupling operators, filling
bound chi, initial state), the bath, the generator kind with its options,
and the integration schedule. Complex matrix entries are written as plain
numbers when real or as two-element [re, im] arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bath import BathModel
from .core import CouplingOperator, OneRdm, SystemHamiltonian
from .generators import GeneratorSpec, MEKind, build_generator
from .propagate import Schedule


class ScenarioError(ValueError):
    """A scenario file or dictionary is malformed."""


def _parse_number(obj, path: str, finite: bool = True) -> complex:
    """A number or an [re, im] pair; NaN and infinities are rejected
    unless ``finite`` is False."""
    if isinstance(obj, bool):
        raise ScenarioError(f"{path}: expected a number, got a boolean")
    if isinstance(obj, (int, float)):
        parts = (obj, 0.0)
    elif (isinstance(obj, list) and len(obj) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in obj)):
        parts = obj
    else:
        raise ScenarioError(f"{path}: expected a number or an [re, im] "
                            f"pair, got {obj!r}")
    try:
        z = complex(*parts)
    except OverflowError:
        # a JSON integer past the largest float
        raise ScenarioError(f"{path}: expected a finite number, got an "
                            f"integer beyond the float range") from None
    if finite and not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ScenarioError(f"{path}: expected a finite number, got {obj!r}")
    return z


def _parse_real(obj, path: str, finite: bool = True) -> float:
    z = _parse_number(obj, path, finite)
    if z.imag != 0.0:
        raise ScenarioError(f"{path}: expected a real number")
    return float(z.real)


def _parse_int(obj, path: str) -> int:
    """A JSON integer, or a float with an integral value such as 400.0."""
    if isinstance(obj, bool) or not (
            isinstance(obj, int)
            or isinstance(obj, float) and obj.is_integer()):
        raise ScenarioError(f"{path}: expected an integer, got {obj!r}")
    return int(obj)


def _parse_bool(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ScenarioError(f"{path}: expected a boolean, got {obj!r}")
    return obj


def _parse_matrix(obj, path: str, dim: int | None = None) -> np.ndarray:
    """A rectangular matrix; a dim x dim one when ``dim`` is given."""
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"{path}: expected a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise ScenarioError(f"{path}[{r}]: expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ScenarioError(f"{path}[{r}]: row length {len(row)} differs "
                                f"from {width}")
        rows.append([_parse_number(x, f"{path}[{r}][{c}]")
                     for c, x in enumerate(row)])
    if dim is not None and (len(rows), width) != (dim, dim):
        raise ScenarioError(f"{path}: expected a {dim}x{dim} matrix, got "
                            f"{len(rows)}x{width}")
    return np.array(rows, dtype=complex)


def _format_number(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _format_matrix(m: np.ndarray):
    return [[_format_number(x) for x in row] for row in np.asarray(m)]


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"{path}: missing required key {key!r}")
    return d[key]


def _check_keys(d: dict, allowed: set, path: str):
    extra = set(d) - allowed
    if extra:
        raise ScenarioError(f"{path}: unknown keys {sorted(extra)}")


def _non_default(obj, names) -> dict:
    """The fields ``names`` of a dataclass that differ from its defaults."""
    defaults = {f.name: f.default for f in fields(obj)}
    return {name: getattr(obj, name) for name in names
            if getattr(obj, name) != defaults[name]}


def _parse_present(d: dict, parsers: dict, path: str) -> dict:
    """The keys of ``d`` that ``parsers`` names, parsed: absent ones keep
    the defaults of the dataclass they are passed to."""
    return {key: parse(d[key], f"{path}.{key}")
            for key, parse in parsers.items() if key in d}


@dataclass(frozen=True, eq=False)
class RunSetup:
    """Built objects ready for propagation."""

    hamiltonian: SystemHamiltonian
    spec: GeneratorSpec
    rho0: OneRdm
    schedule: Schedule


@dataclass(eq=False)
class Scenario:
    name: str
    chi: float
    hamiltonian: SystemHamiltonian
    coupling_operators: tuple[CouplingOperator, ...]
    initial_state: np.ndarray
    bath: BathModel
    kind: MEKind = MEKind.ULE
    clustering_threshold: float | None = None
    pauli_blocked: bool = False
    lamb_shift: bool = False
    schedule: Schedule = field(default_factory=Schedule)
    copropagate_hole: bool = False

    def __post_init__(self):
        self.kind = MEKind(self.kind)
        self.initial_state = np.asarray(self.initial_state, dtype=complex)
        self.coupling_operators = tuple(self.coupling_operators)

    def build(self) -> RunSetup:
        rho0 = OneRdm(self.initial_state, self.chi)
        spec = build_generator(
            self.hamiltonian, self.coupling_operators, self.bath, self.kind,
            self.chi, clustering_threshold=self.clustering_threshold,
            pauli_blocked=self.pauli_blocked, lamb_shift=self.lamb_shift)
        return RunSetup(hamiltonian=self.hamiltonian, spec=spec, rho0=rho0,
                        schedule=self.schedule)

    def to_dict(self) -> dict:
        h = {"energies": [float(e) for e in self.hamiltonian.energies]}
        vecs = self.hamiltonian.eigenvectors
        if not np.array_equal(vecs, np.eye(self.hamiltonian.dim)):
            h["eigenvectors"] = _format_matrix(vecs)
        h.update(_non_default(self.hamiltonian, ("degeneracy_tol",)))
        bath = {"lambda": self.bath.lam, "temperature": self.bath.temperature}
        bath.update(_non_default(self.bath, ("pv_cutoff", "pv_points")))
        gen = {"kind": self.kind.value}
        gen.update(_non_default(self, ("clustering_threshold",
                                       "pauli_blocked", "lamb_shift")))
        sched = _non_default(self.schedule,
                             ("t_end", "samples", "rtol", "atol"))
        out = {
            "name": self.name,
            "chi": self.chi,
            "hamiltonian": h,
            "coupling_operators": [
                {"label": op.label, "matrix": _format_matrix(op.matrix)}
                for op in self.coupling_operators],
            "initial_state": {"matrix": _format_matrix(self.initial_state)},
            "bath": bath,
            "generator": gen,
        }
        if sched:
            out["schedule"] = sched
        if self.copropagate_hole:
            out["copropagate_hole"] = True
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("scenario: expected a JSON object")
        _check_keys(d, {"name", "chi", "hamiltonian", "coupling_operators",
                        "initial_state", "bath", "generator", "schedule",
                        "copropagate_hole"}, "scenario")
        name = _require(d, "name", "scenario")
        if not isinstance(name, str):
            raise ScenarioError("scenario.name: expected a string")
        chi = _require(d, "chi", "scenario")
        if not isinstance(chi, (int, float)) or isinstance(chi, bool) \
                or not 0 < chi < math.inf:
            raise ScenarioError("scenario.chi: expected a positive number")
        chi = _parse_real(chi, "scenario.chi")

        hd = _require(d, "hamiltonian", "scenario")
        if not isinstance(hd, dict):
            raise ScenarioError("scenario.hamiltonian: expected an object")
        _check_keys(hd, {"energies", "eigenvectors", "matrix",
                         "degeneracy_tol"}, "scenario.hamiltonian")
        tol = _parse_present(hd, {"degeneracy_tol": _parse_real},
                             "scenario.hamiltonian")
        if tol.get("degeneracy_tol", 0.0) < 0.0:
            raise ScenarioError("scenario.hamiltonian.degeneracy_tol: "
                                "expected a nonnegative number")
        try:
            if "matrix" in hd:
                if "energies" in hd or "eigenvectors" in hd:
                    raise ScenarioError(
                        "scenario.hamiltonian: give either matrix or "
                        "energies/eigenvectors, not both")
                h = SystemHamiltonian.from_matrix(
                    _parse_matrix(hd["matrix"], "scenario.hamiltonian.matrix"),
                    **tol)
            else:
                energies = _require(hd, "energies", "scenario.hamiltonian")
                if not isinstance(energies, list) or not energies:
                    raise ScenarioError("scenario.hamiltonian.energies: "
                                        "expected a non-empty list")
                energies = [_parse_real(
                    e, f"scenario.hamiltonian.energies[{k}]")
                    for k, e in enumerate(energies)]
                if "eigenvectors" in hd:
                    vecs = _parse_matrix(hd["eigenvectors"],
                                         "scenario.hamiltonian.eigenvectors")
                    h = SystemHamiltonian(np.array(energies), vecs, **tol)
                else:
                    h = SystemHamiltonian.from_energies(energies, **tol)
        except ValueError as err:
            if isinstance(err, ScenarioError):
                raise
            raise ScenarioError(f"scenario.hamiltonian: {err}") from err

        cops = _require(d, "coupling_operators", "scenario")
        if not isinstance(cops, list) or not cops:
            raise ScenarioError("scenario.coupling_operators: expected a "
                                "non-empty list")
        ops = []
        for k, entry in enumerate(cops):
            path = f"scenario.coupling_operators[{k}]"
            if not isinstance(entry, dict):
                raise ScenarioError(f"{path}: expected an object")
            _check_keys(entry, {"label", "matrix"}, path)
            label = entry.get("label", f"A{k}")
            mat = _parse_matrix(_require(entry, "matrix", path),
                                f"{path}.matrix", h.dim)
            try:
                ops.append(CouplingOperator(str(label), mat))
            except ValueError as err:
                raise ScenarioError(f"{path}: {err}") from err

        sd = _require(d, "initial_state", "scenario")
        if not isinstance(sd, dict):
            raise ScenarioError("scenario.initial_state: expected an object")
        _check_keys(sd, {"matrix", "occupations"}, "scenario.initial_state")
        if ("matrix" in sd) == ("occupations" in sd):
            raise ScenarioError("scenario.initial_state: give exactly one of "
                                "matrix or occupations")
        if "matrix" in sd:
            rho0 = _parse_matrix(sd["matrix"], "scenario.initial_state.matrix",
                                 h.dim)
        else:
            occ = sd["occupations"]
            if not isinstance(occ, list):
                raise ScenarioError("scenario.initial_state.occupations: "
                                    "expected a list")
            if len(occ) != h.dim:
                raise ScenarioError(f"scenario.initial_state.occupations: "
                                    f"expected {h.dim} entries, got "
                                    f"{len(occ)}")
            occ = [_parse_real(x, f"scenario.initial_state.occupations[{k}]")
                   for k, x in enumerate(occ)]
            # occupations fill eigenbasis levels, lowest energy first
            rho0 = h.from_eigenbasis(np.diag(occ).astype(complex))

        bd = _require(d, "bath", "scenario")
        if not isinstance(bd, dict):
            raise ScenarioError("scenario.bath: expected an object")
        _check_keys(bd, {"lambda", "temperature", "pv_cutoff", "pv_points"},
                    "scenario.bath")
        lam, temperature = (
            _parse_real(_require(bd, key, "scenario.bath"),
                        f"scenario.bath.{key}")
            for key in ("lambda", "temperature"))
        quadrature = _parse_present(bd, {"pv_cutoff": _parse_real,
                                         "pv_points": _parse_int},
                                    "scenario.bath")
        try:
            bath = BathModel(lam=lam, temperature=temperature, **quadrature)
        except ValueError as err:
            raise ScenarioError(f"scenario.bath: {err}") from err

        gd = _require(d, "generator", "scenario")
        if not isinstance(gd, dict):
            raise ScenarioError("scenario.generator: expected an object")
        _check_keys(gd, {"kind", "clustering_threshold", "pauli_blocked",
                         "lamb_shift"}, "scenario.generator")
        kind_raw = _require(gd, "kind", "scenario.generator")
        try:
            kind = MEKind(kind_raw)
        except ValueError:
            raise ScenarioError(
                f"scenario.generator.kind: unknown kind {kind_raw!r}; "
                f"expected one of {[m.value for m in MEKind]}") from None
        threshold = gd.get("clustering_threshold")
        if threshold is not None:
            path = "scenario.generator.clustering_threshold"
            # an infinite threshold joins every frequency into one cluster
            threshold = _parse_real(threshold, path, finite=False)
            if not threshold >= 0.0:
                raise ScenarioError(f"{path}: expected a nonnegative "
                                    f"clustering threshold, got {threshold}")
        flags = _parse_present(gd, {"pauli_blocked": _parse_bool,
                                    "lamb_shift": _parse_bool},
                               "scenario.generator")
        if kind is MEKind.UME and threshold is None:
            raise ScenarioError("scenario.generator: ume needs "
                                "clustering_threshold")

        sched_d = d.get("schedule", {})
        if not isinstance(sched_d, dict):
            raise ScenarioError("scenario.schedule: expected an object")
        parsers = {"t_end": _parse_real, "samples": _parse_int,
                   "rtol": _parse_real, "atol": _parse_real}
        _check_keys(sched_d, set(parsers), "scenario.schedule")
        values = _parse_present(sched_d, parsers, "scenario.schedule")
        try:
            schedule = Schedule(**values)
        except ValueError as err:
            raise ScenarioError(f"scenario.schedule: {err}") from err
        # a run stores (samples, d^2) floats; numpy refuses larger arrays
        largest = np.iinfo(np.intp).max // (8 * h.dim**2)
        if schedule.samples > largest:
            raise ScenarioError(
                f"scenario.schedule.samples: at most {largest} samples fit "
                f"in one array of {h.dim}x{h.dim} states")

        flags.update(_parse_present(d, {"copropagate_hole": _parse_bool},
                                    "scenario"))
        return cls(name=name, chi=chi, hamiltonian=h,
                   coupling_operators=tuple(ops), initial_state=rho0,
                   bath=bath, kind=kind, clustering_threshold=threshold,
                   schedule=schedule, **flags)


def set_keys(d, values: dict):
    """Set each dotted key of ``values`` (``bath.temperature``) in the
    scenario dict ``d`` and return it; a non-object section raises."""
    for dotted, value in values.items():
        *sections, key = dotted.split(".")
        cur, path = d, "scenario"
        for section in sections:
            if isinstance(cur, dict):
                cur, path = cur.setdefault(section, {}), f"{path}.{section}"
        if not isinstance(cur, dict):
            raise ScenarioError(f"{path}: expected an object")
        cur[key] = value
    return d


def read_scenario(path) -> dict:
    """The JSON content of a scenario file, not yet parsed."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: invalid JSON at line {err.lineno} "
                            f"column {err.colno}: {err.msg}") from err
    return data


def load_scenario(path) -> Scenario:
    return Scenario.from_dict(read_scenario(path))


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2,
                                     sort_keys=True) + "\n")
