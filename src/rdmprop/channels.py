"""Bohr-frequency channel decomposition and frequency clustering.

A Hermitian coupling operator is split in the system eigenbasis into
eigen-subspace blocks, and the blocks are grouped into channels, one per
Bohr frequency (difference of eigen-subspace energies). A channel set holds
the coupling once, together with a map from every level pair (i, j) to its
channel: a channel operator is the coupling masked to the pairs of that
channel, and summing all channels returns the operator. Generators read
their rates off this map as arrays over level pairs. For the unified master
equation, nearby Bohr frequencies are grouped into clusters that share one
decay rate evaluated at the cluster center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CouplingOperator, DimensionError, SystemHamiltonian, max_norm

# Guard for float dust when a frequency gap lands exactly on the clustering
# threshold (the benzene example needs gap 0.091 to join a 0.091 cluster).
_CLUSTER_GAP_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class ChannelBlock:
    """One eigen-subspace block of a coupling operator.

    It moves population from the source subspace (columns) into the target
    subspace (rows); its frequency is e_source - e_target (positive for
    emission).
    """

    target: int
    source: int
    frequency: float

    @property
    def is_diagonal(self) -> bool:
        return self.target == self.source


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Channels of one coupling operator, in the eigenbasis.

    ``coupling`` is the eigenbasis coupling on the kept blocks; ``channel``
    maps each level pair to the index of its channel in ``frequencies``
    (-1 in dropped blocks).
    """

    frequencies: tuple[float, ...]
    blocks: tuple[ChannelBlock, ...]
    subspaces: tuple[tuple[int, ...], ...]
    subspace_energies: np.ndarray
    dim: int
    coupling: np.ndarray
    channel: np.ndarray
    label: str = ""

    def operator(self, frequency: float) -> np.ndarray:
        try:
            k = self.frequencies.index(frequency)
        except ValueError:
            raise KeyError(f"no channel at frequency {frequency!r}") from None
        return np.where(self.channel == k, self.coupling, 0.0)

    def coupling_sum(self) -> np.ndarray:
        """Sum of all channels; reconstructs the eigenbasis coupling operator."""
        return self.coupling.copy()


def decompose(h: SystemHamiltonian, a: CouplingOperator,
              drop_tol: float = 1e-12) -> ChannelSet:
    """Split a coupling operator into Bohr-frequency channels.

    Channels are computed in the eigenbasis of ``h``. Frequencies that agree
    within ``h.degeneracy_tol`` are merged (their operators summed) and a
    merged frequency within the tolerance of zero is snapped to exactly 0.0.
    Blocks with max-norm below ``drop_tol`` are dropped.
    """
    if h.dim != a.dim:
        raise DimensionError(f"dimension mismatch: H is {h.dim}, A is {a.dim}")
    a_eig = h.to_eigenbasis(a.matrix)
    groups = h.degenerate_groups
    energies = h.subspace_energies

    raw: list[ChannelBlock] = []
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            if max_norm(a_eig[np.ix_(gi, gj)]) < drop_tol:
                continue
            raw.append(ChannelBlock(i, j, float(energies[j] - energies[i])))

    raw.sort(key=lambda b: b.frequency)
    merged: list[list[ChannelBlock]] = []
    for blk in raw:
        if merged and blk.frequency - merged[-1][-1].frequency <= h.degeneracy_tol:
            merged[-1].append(blk)
        else:
            merged.append([blk])

    freqs: list[float] = []
    blocks: list[ChannelBlock] = []
    channel = np.full((h.dim, h.dim), -1)
    for k, group in enumerate(merged):
        f = float(np.mean([b.frequency for b in group]))
        if abs(f) <= h.degeneracy_tol:
            f = 0.0
        freqs.append(f)
        for b in group:
            channel[np.ix_(groups[b.target], groups[b.source])] = k
            blocks.append(ChannelBlock(b.target, b.source, f))

    channels = ChannelSet(
        frequencies=tuple(freqs),
        blocks=tuple(blocks),
        subspaces=groups,
        subspace_energies=energies,
        dim=h.dim,
        coupling=np.where(channel >= 0, a_eig, 0.0),
        channel=channel,
        label=a.label,
    )
    # completeness can only be broken by the drop tolerance
    bound = 1e-10 + drop_tol * max(len(raw), 1)
    if max_norm(channels.coupling_sum() - a_eig) > bound:
        raise RuntimeError("channel decomposition failed completeness check")
    return channels


@dataclass(frozen=True, eq=False)
class Cluster:
    members: tuple[float, ...]
    center: float


@dataclass(frozen=True, eq=False)
class FrequencyClusters:
    """Partition of Bohr frequencies into gap-bounded clusters."""

    clusters: tuple[Cluster, ...]
    threshold: float

    @property
    def zero_cluster_index(self) -> int | None:
        """Index of the cluster containing frequency 0, if any."""
        for k, c in enumerate(self.clusters):
            if any(abs(m) < _CLUSTER_GAP_EPS for m in c.members):
                return k
        return None

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple(c.center for c in self.clusters)


def cluster(frequencies, threshold: float) -> FrequencyClusters:
    """Greedy left-to-right agglomeration of sorted frequencies.

    A new cluster starts whenever the gap to the previous frequency exceeds
    the threshold. The center is the plain arithmetic mean of the members.
    Threshold 0 yields singleton clusters (the secular limit). Clustering runs
    over the full signed axis, so mirror clusters form symmetrically.
    """
    if not threshold >= 0:
        raise ValueError(f"clustering threshold must be nonnegative, "
                         f"got {threshold}")
    freqs = sorted(float(f) for f in frequencies)
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    groups: list[list[float]] = []
    for f in freqs:
        if groups and f - groups[-1][-1] <= threshold + _CLUSTER_GAP_EPS:
            groups[-1].append(f)
        else:
            groups.append([f])
    clusters = tuple(Cluster(tuple(g), float(np.mean(g))) for g in groups)
    return FrequencyClusters(clusters=clusters, threshold=float(threshold))
