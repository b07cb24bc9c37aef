"""Workload definitions and the seeded random-system generator.

A workload is a list of cases. Each case is the argument list of one
`rdmprop` CLI call; the worker runs it in process through
`rdmprop.cli.main`, the same path a user's command takes. Every `run` case
pins `--t-end` and `--samples`, so a change to the program's default end
time cannot change the work measured.

Random systems are written as scenario JSON files. Nothing else about them
reaches the program. This module imports only the standard library, so
generating inputs is part of set-up, not of the measured run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

KINDS = ("rme", "ume", "ule")

RANDOM_SIZES = (4, 6, 8)
LAMB_SIZES = (6, 8)
RANDOM_T_END = 200.0
RANDOM_SAMPLES = 50
RANDOM_TEMPERATURE = 300.0
RANDOM_LAMBDA = 0.01

# Spectral gaps stay far above the program's merge tolerances (degeneracy_tol
# 1e-9, cluster gap 1e-12), so every random system is non-degenerate and
# every Bohr frequency is its own channel and its own ume cluster.
MIN_LEVEL_GAP = 1e-2
MIN_BOHR_GAP = 1e-3

BUILTIN_T_END = 16000.0
BENZENE_STEADY_T_END = 1.2e6
BUILTIN_SAMPLES = 200
DENSE_SAMPLES = 20000


SPECTRA_ARGV = ("spectra", "--lambda", "0.01", "--temperature", "300",
                "--points", "401")


@dataclass(frozen=True)
class Case:
    """One CLI call: a `run` of a builtin or a scenario file, or `spectra`.

    ``source`` is a builtin benchmark name, or the stem of a generated
    scenario file (``random-d8``); it is None for the spectra case.
    """

    name: str
    source: str | None = None
    kind: str | None = None
    flags: tuple[str, ...] = ()
    t_end: float | None = None
    samples: int | None = None

    @property
    def seeded(self) -> bool:
        return self.source is not None and self.source.startswith("random-")

    @property
    def blocked(self) -> bool:
        return "--blocked" in self.flags

    @property
    def lamb_shift(self) -> bool:
        return "--lamb-shift" in self.flags

    @property
    def copropagate_hole(self) -> bool:
        return "--copropagate-hole" in self.flags

    def argv(self, inputs: Path, output: Path) -> list[str]:
        """CLI arguments, writing outputs to ``output/<name>.*``."""
        out = ["--output-dir", str(output), "--prefix", self.name]
        if self.source is None:
            return [*SPECTRA_ARGV, *out]
        if self.seeded:
            src = ["--scenario", str(inputs / f"{self.source}.json")]
        else:
            src = ["--benchmark", self.source]
        threshold = ["--threshold", "0"] if self.kind == "ume" else []
        return ["run", *src, "--kind", self.kind, *threshold, *self.flags,
                "--t-end", repr(self.t_end), "--samples", str(self.samples),
                *out]


def random_system(d: int, seed: int) -> dict:
    """Scenario dict of a seeded non-degenerate d-level system.

    Energies are uniform in [-0.5, 0.5] au, redrawn until every level gap
    is at least MIN_LEVEL_GAP and every two distinct Bohr frequencies differ
    by at least MIN_BOHR_GAP. The coupling is one random real-symmetric
    matrix. Half the levels start filled, the upper half, so the system
    relaxes downhill.
    """
    rng = random.Random(f"rdmprop-perfbench/{seed}/{d}")
    while True:
        energies = sorted(rng.uniform(-0.5, 0.5) for _ in range(d))
        gaps = [b - a for a, b in zip(energies, energies[1:])]
        bohr = sorted(energies[j] - energies[i]
                      for i in range(d) for j in range(i + 1, d))
        if min(gaps) >= MIN_LEVEL_GAP and all(
                b - a >= MIN_BOHR_GAP for a, b in zip(bohr, bohr[1:])):
            break
    coupling = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            coupling[i][j] = coupling[j][i] = rng.gauss(0.0, math.sqrt(0.5))
    occupations = [0.0] * (d - d // 2) + [1.0] * (d // 2)
    return {
        "name": f"random-d{d}",
        "chi": 1.0,
        "hamiltonian": {"energies": energies},
        "coupling_operators": [{"label": "random", "matrix": coupling}],
        "initial_state": {"occupations": occupations},
        "bath": {"lambda": RANDOM_LAMBDA, "temperature": RANDOM_TEMPERATURE},
        "generator": {"kind": "ule"},
        "schedule": {"t_end": RANDOM_T_END, "samples": RANDOM_SAMPLES},
    }


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's scenario files; return {file name: sha256}."""
    directory.mkdir(parents=True, exist_ok=True)
    hashes = {}
    sources = sorted({c.source for c in cases_for(workload) if c.seeded})
    for source in sources:
        d = int(source.removeprefix("random-d"))
        text = json.dumps(random_system(d, seed), indent=1, sort_keys=True)
        text += "\n"
        (directory / f"{source}.json").write_text(text)
        hashes[f"{source}.json"] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def _case(source: str, kind: str, t_end: float, samples: int,
          *flags: str) -> Case:
    tag = "".join(f[2] for f in flags)   # --blocked -> b, --lamb-shift -> l
    name = f"{source}-{kind}" + (f"-{tag}" if tag else "")
    return Case(name=name, source=source, kind=kind, flags=flags,
                t_end=t_end, samples=samples)


def builtins_cases() -> list[Case]:
    cases = []
    for bench in ("three-level", "benzene"):
        blocked_t_end = BENZENE_STEADY_T_END if bench == "benzene" \
            else BUILTIN_T_END
        for kind in KINDS:
            cases.append(_case(bench, kind, BUILTIN_T_END, BUILTIN_SAMPLES))
            cases.append(_case(bench, kind, blocked_t_end, BUILTIN_SAMPLES,
                               "--blocked"))
    return cases


def random_family_cases() -> list[Case]:
    return [_case(f"random-d{d}", kind, RANDOM_T_END, RANDOM_SAMPLES, *flags)
            for d in RANDOM_SIZES for kind in KINDS
            for flags in ((), ("--blocked",))]


def lamb_quadrature_cases() -> list[Case]:
    return [Case(name="spectra")] + [
        _case(f"random-d{d}", "ule", RANDOM_T_END, RANDOM_SAMPLES,
              "--lamb-shift") for d in LAMB_SIZES] + [
        _case("benzene", kind, BUILTIN_T_END, BUILTIN_SAMPLES, "--lamb-shift")
        for kind in KINDS]


def dense_output_cases() -> list[Case]:
    return [
        _case("benzene", "ule", BENZENE_STEADY_T_END, DENSE_SAMPLES,
              "--blocked", "--copropagate-hole"),
        _case("three-level", "ule", BUILTIN_T_END, DENSE_SAMPLES),
        _case("benzene", "rme", BUILTIN_T_END, DENSE_SAMPLES,
              "--copropagate-hole"),
    ]


WORKLOADS = {
    "builtins": builtins_cases,
    "random-family": random_family_cases,
    "lamb-quadrature": lamb_quadrature_cases,
    "dense-output": dense_output_cases,
}


def cases_for(workload: str) -> list[Case]:
    return WORKLOADS[workload]()
