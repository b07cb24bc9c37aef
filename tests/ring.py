"""The n-site ring in k-orbitals: a degenerate test family past benzene.

The orbitals of an n-site ring with nearest-neighbour hopping are plane
waves k = 0, ..., n - 1 with energies -0.5 cos(2 pi k / n). Every shell
+-k with 0 < k < n/2 is doubly degenerate. Levels are ordered
k = 0, 1, -1, 2, -2, ... (and n/2 last when n is even), so the energies
ascend and the partners of a shell are neighbours. The bath couples each
cyclic Delta k = +1 pair through its own real operator |k><k+1| + h.c.,
as benzene couples each of its orbital pairs, so there are n operators.
chi = 2: spatial orbitals. The benzene builtin is the n = 6 member up to
its energies and pair set.
"""

import numpy as np

from rdmprop.bath import BathModel
from rdmprop.core import CouplingOperator, SystemHamiltonian
from rdmprop.propagate import Schedule
from rdmprop.scenario import Scenario

CHI = 2.0


def ring_momenta(n):
    """Momentum k of every level, in level order 0, 1, -1, 2, -2, ..."""
    return [(level + 1) // 2 * (1 if level % 2 else -1)
            for level in range(n)]


def ring_system(n):
    """Hamiltonian and the n pair couplings of the n-site ring."""
    momenta = ring_momenta(n)
    level = {k % n: i for i, k in enumerate(momenta)}
    energies = -0.5 * np.cos(2.0 * np.pi * np.array(momenta) / n)
    couplings = []
    for k in range(n):
        a = np.zeros((n, n))
        i, j = level[k], level[(k + 1) % n]
        a[i, j] = a[j, i] = 1.0
        couplings.append(CouplingOperator(f"k{k}-k{(k + 1) % n}", a))
    return SystemHamiltonian.from_energies(energies), tuple(couplings)


def ring_scenario(n, occupations, kind, pauli_blocked=False,
                  temperature=50.0, t_end=2000.0, samples=201):
    """A ring run from the diagonal state ``occupations`` (in level order),
    bath lam = 0.01; ume clusters nothing (threshold 0)."""
    h, couplings = ring_system(n)
    return Scenario(
        name=f"ring-{n}",
        chi=CHI,
        hamiltonian=h,
        coupling_operators=couplings,
        initial_state=np.diag(np.asarray(occupations, dtype=float)),
        bath=BathModel(lam=0.01, temperature=temperature),
        kind=kind,
        clustering_threshold=0.0 if kind == "ume" else None,
        pauli_blocked=pauli_blocked,
        schedule=Schedule(t_end=t_end, samples=samples),
    )
