"""Built-in benchmark scenarios.

Both systems use a Drude-Lorentz bath with reorganization scale 0.01 au.
Energies and times are in atomic units; temperatures in kelvin. Each
factory takes ``kind``, ``temperature`` and the keywords of ``_builtin``.
"""

from __future__ import annotations

import numpy as np

from .bath import BathModel
from .core import CouplingOperator, SystemHamiltonian
from .generators import MEKind
from .propagate import Schedule
from .scenario import Scenario

THREE_LEVEL_ENERGIES = (-0.5, 0.0, 0.5)
BENZENE_ENERGIES = (-0.492, -0.323, -0.323, 0.168, 0.168, 0.428)
# coupled orbital pairs of the benzene pi system (upper triangle)
BENZENE_BONDS = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5),
                 (4, 5))


def _bond_coupling(label: str, dim: int, pairs) -> CouplingOperator:
    a = np.zeros((dim, dim))
    for i, j in pairs:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return CouplingOperator(label, a)


def _builtin(name: str, chi: float, energies, couplings, occupations,
             kind, temperature: float, clustering_threshold: float = 0.0,
             t_end: float | None = None, samples: int = 400,
             **flags) -> Scenario:
    """A builtin system under a Drude-Lorentz bath of scale 0.01 au; the
    threshold applies to ume only, ``flags`` are Scenario's booleans."""
    return Scenario(
        name=name,
        chi=chi,
        hamiltonian=SystemHamiltonian.from_energies(energies),
        coupling_operators=couplings,
        initial_state=np.diag(occupations).astype(complex),
        bath=BathModel(lam=0.01, temperature=temperature),
        kind=kind,
        clustering_threshold=(clustering_threshold
                              if MEKind(kind) is MEKind.UME else None),
        schedule=Schedule(t_end=t_end, samples=samples),
        **flags,
    )


def builtin_three_level(kind="ule", temperature: float = 300.0,
                        **options) -> Scenario:
    """Equally spaced three-level ladder, one electron starting at the top.

    Spin-orbital filling (chi = 1). The nearest-neighbor ladder coupling
    produces a single emission channel at frequency 0.5 au, so every
    generator kind reduces to the same secular structure and the system
    relaxes straight down the ladder.
    """
    return _builtin("three-level-ladder", 1.0, THREE_LEVEL_ENERGIES,
                    (_bond_coupling("ladder", 3, ((0, 1), (1, 2))),),
                    [0.0, 0.0, 1.0], kind, temperature, **options)


def builtin_benzene(kind="rme", temperature: float = 50.0,
                    **options) -> Scenario:
    """Six pi orbitals of benzene with a photoexcited electron-hole pair.

    Spatial-orbital filling (chi = 2). The two doubly degenerate shells
    give Bohr frequencies 0.169, 0.260, and 0.491 au; at the default 50 K
    every upward rate underflows to zero and relaxation runs strictly
    downhill. Each coupled orbital pair is its own noise source; lumping
    them into one operator would leave the antisymmetric combinations of
    the degenerate shells dark and freeze part of the initial population.
    """
    bonds = tuple(_bond_coupling(f"pair-{i}-{j}", 6, ((i, j),))
                  for i, j in BENZENE_BONDS)
    return _builtin("benzene-pi", 2.0, BENZENE_ENERGIES, bonds,
                    [2.0, 1.0, 1.0, 1.0, 1.0, 0.0], kind, temperature,
                    **options)


BENCHMARKS = {
    "three-level": builtin_three_level,
    "benzene": builtin_benzene,
}
