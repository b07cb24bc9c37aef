"""Bohr-frequency channel decomposition and frequency clustering.

A Hermitian coupling operator is split in the system eigenbasis into
eigen-subspace blocks, and the blocks are grouped into channels, one per
Bohr frequency (difference of eigen-subspace energies). A channel set holds
the coupling once, together with an integer label per level pair (i, j):
the index of its channel in the sorted frequencies, -1 in dropped blocks.
A channel operator is the coupling masked to the pairs of one label, and
summing all channels returns the operator. Generators read their rates off
these labels as arrays over level pairs. For the unified master equation,
nearby Bohr frequencies are grouped into clusters that share one decay rate
evaluated at the cluster center; clustering labels each sorted frequency
with the index of its cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CouplingOperator, DimensionError, SystemHamiltonian, max_norm

# Guard for float dust when a frequency gap lands exactly on the clustering
# threshold (the benzene example needs gap 0.091 to join a 0.091 cluster).
_CLUSTER_GAP_EPS = 1e-12


def _chain(values: np.ndarray, tol: float):
    """Chain-merge sorted values: the group label of every value and the
    mean of every group. A new group starts wherever the gap to the
    previous value is not within ``tol`` (a NaN gap included)."""
    new = np.ones(values.size, dtype=bool)
    new[1:] = ~(np.diff(values) <= tol)
    groups = np.split(values, np.flatnonzero(new))[1:]
    return np.cumsum(new) - 1, [float(np.mean(g)) for g in groups]


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Channels of one coupling operator, in the eigenbasis.

    ``coupling`` is the eigenbasis coupling on the kept blocks; ``channel``
    maps each level pair to the index of its channel in ``frequencies``
    (-1 in dropped blocks).
    """

    frequencies: tuple[float, ...]
    subspaces: tuple[tuple[int, ...], ...]
    coupling: np.ndarray
    channel: np.ndarray
    label: str = ""

    @property
    def dim(self) -> int:
        return self.channel.shape[0]


def decompose(h: SystemHamiltonian, a: CouplingOperator,
              drop_tol: float = 1e-12) -> ChannelSet:
    """Split a coupling operator into Bohr-frequency channels.

    Channels are computed in the eigenbasis of ``h``. The kept subspace
    blocks (target, source), with frequency e_source - e_target, are sorted
    stably by frequency and chain-merged at ``h.degeneracy_tol``; a channel
    sits at the mean frequency of its blocks, snapped to exactly 0.0 within
    the tolerance of zero. Blocks with max-norm below ``drop_tol`` are
    dropped.
    """
    if h.dim != a.dim:
        raise DimensionError(f"dimension mismatch: H is {h.dim}, A is {a.dim}")
    a_eig = h.to_eigenbasis(a.matrix)
    groups = h.degenerate_groups
    sub = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    norm = np.zeros((len(groups), len(groups)))
    np.maximum.at(norm, (sub[:, None], sub), np.abs(a_eig))
    target, source = np.nonzero(~(norm < drop_tol))
    w = h.subspace_energies[source] - h.subspace_energies[target]
    order = np.argsort(w, kind="stable")
    label, means = _chain(w[order], h.degeneracy_tol)
    block = np.full(norm.shape, -1)
    block[target[order], source[order]] = label
    channel = block[sub[:, None], sub]

    channels = ChannelSet(frequencies=tuple(0.0 if abs(f) <= h.degeneracy_tol
                                            else f for f in means),
                          subspaces=groups,
                          coupling=np.where(channel >= 0, a_eig, 0.0),
                          channel=channel, label=a.label)
    # completeness can only be broken by the drop tolerance
    bound = 1e-10 + drop_tol * max(len(w), 1)
    if max_norm(channels.coupling - a_eig) > bound:
        raise RuntimeError("channel decomposition failed completeness check")
    return channels


@dataclass(frozen=True, eq=False)
class FrequencyClusters:
    """Partition of sorted Bohr frequencies into gap-bounded clusters.

    ``label[i]`` is the index of the cluster of ``frequencies[i]``, and
    ``centers[k]`` the mean of the frequencies of cluster k.
    """

    frequencies: tuple[float, ...]
    label: np.ndarray
    centers: tuple[float, ...]
    threshold: float

    @property
    def zero_cluster_index(self) -> int | None:
        """Index of the cluster containing frequency 0, if any."""
        if 0.0 not in self.frequencies:
            return None
        return int(self.label[self.frequencies.index(0.0)])


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
    freqs = np.sort(np.fromiter(frequencies, dtype=float))
    if np.unique(freqs).size != freqs.size:
        raise ValueError("frequencies must be distinct")
    label, centers = _chain(freqs, threshold + _CLUSTER_GAP_EPS)
    return FrequencyClusters(frequencies=tuple(freqs.tolist()), label=label,
                             centers=tuple(centers), threshold=float(threshold))
