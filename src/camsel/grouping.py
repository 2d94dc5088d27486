"""Dynamic camera graph: components as inferred groups, edge deletion, reconnection.

The graph is a dense symmetric boolean adjacency over camera ids. Connected
components (the inferred groups) are recomputed lazily after mutations and a
component is always labeled by its smallest member id, which keeps traces
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError

F_FUNCTIONS = {
    "f1": lambda x: np.sqrt((1.0 + np.log1p(x)) / (1.0 + x)),
    "f2": lambda x: (1.0 + x) ** -2.0,
    "f3": lambda x: (1.0 + x) ** -0.5,
    "f4": lambda x: (1.0 + x) ** -0.25,
    "f5": lambda x: 1.0 + np.log1p(x),
    "f6": lambda x: np.sqrt(1.0 + np.log1p(x)),
}

RECONNECT_MODES = ("whole-graph-reset", "per-edge")


@dataclass(frozen=True)
class DeletionRule:
    """Edge (a, b) is deleted when the estimate distance exceeds
    beta * (f(count_a) + f(count_b))."""

    beta: float
    f_id: str = "f1"

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigError(f"deletion beta must be positive, got {self.beta}")
        if self.f_id not in F_FUNCTIONS:
            raise ConfigError(f"unknown deletion function {self.f_id!r}; expected f1..f6")


@dataclass(frozen=True)
class ReconnectPolicy:
    """Reinstate edges with probability p_t = min(1, p0/t^2) each round."""

    p0: float
    mode: str = "whole-graph-reset"

    def __post_init__(self):
        if not (0.0 < self.p0 < 1.0):
            raise ConfigError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.mode not in RECONNECT_MODES:
            raise ConfigError(f"unknown reconnect mode {self.mode!r}")

    def probability(self, t: int) -> float:
        if t < 1:
            raise ValueError(f"round index must be >= 1, got {t}")
        return min(1.0, self.p0 / float(t) ** 2)


class CameraGraph:
    """Undirected graph over cameras 0..n-1 with lazily cached components and
    a kept edge count. Mutate it through its methods; after writing ``adj``
    directly, call :meth:`_invalidate`."""

    def __init__(self, n: int, adjacency: np.ndarray | None = None):
        if n < 1:
            raise ConfigError(f"graph needs at least one camera, got n={n}")
        self.n = n
        if adjacency is None:
            adjacency = np.zeros((n, n), dtype=bool)
        else:
            adjacency = np.array(adjacency, dtype=bool)
            if adjacency.shape != (n, n):
                raise ValueError(f"adjacency shape {adjacency.shape} does not match n={n}")
            if not np.array_equal(adjacency, adjacency.T):
                raise ValueError("adjacency must be symmetric")
        np.fill_diagonal(adjacency, False)
        self.adj = adjacency
        self._invalidate()

    @classmethod
    def complete(cls, n: int) -> "CameraGraph":
        g = cls(n, np.ones((n, n), dtype=bool))
        g._labels = np.zeros(n, dtype=int)     # one component, labeled 0
        return g

    @classmethod
    def edgeless(cls, n: int) -> "CameraGraph":
        return cls(n)

    def edge_count(self) -> int:
        return self._edges

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.adj[a, b])

    def neighbors(self, camera: int) -> np.ndarray:
        return np.flatnonzero(self.adj[camera])

    def _invalidate(self):
        """Recount the edges and drop the cached components."""
        self._edges = int(np.count_nonzero(self.adj)) // 2
        self._labels = None

    def component_labels(self) -> np.ndarray:
        """Component label per camera; the label is the smallest member id."""
        if self._labels is None:
            self._labels = _min_labels(self.adj)
        return self._labels

    def component_count(self) -> int:
        return int(np.unique(self.component_labels()).size)

    def find_group(self, camera: int):
        """(label, sorted member ids) of the component containing ``camera``."""
        if not 0 <= camera < self.n:
            raise ValueError(f"camera {camera} outside 0..{self.n - 1}")
        labels = self.component_labels()
        members = np.flatnonzero(labels == labels[camera])
        return int(labels[camera]), members

    def remove_edges(self, camera: int, targets: np.ndarray):
        if len(targets):
            degree = np.count_nonzero(self.adj[camera])
            self.adj[camera, targets] = False
            self.adj[targets, camera] = False
            self._edges -= int(degree - np.count_nonzero(self.adj[camera]))
            self._labels = None

    def restore_edges(self, rows: np.ndarray, cols: np.ndarray):
        """Add the undirected edges (rows[i], cols[i]), i != j."""
        if len(rows):
            self.adj[rows, cols] = True
            self.adj[cols, rows] = True
            self._invalidate()

    def reset_complete(self):
        self.adj[:] = True
        np.fill_diagonal(self.adj, False)
        self._edges = self.n * (self.n - 1) // 2
        self._labels = np.zeros(self.n, dtype=int)


def _min_labels(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    _, raw = connected_components(csr_array(adj), directed=False)
    mins = np.full(raw.max() + 1, n, dtype=int)
    np.minimum.at(mins, raw, np.arange(n))
    return mins[raw]


def init_graph(n: int) -> CameraGraph:
    """The starting state: a complete graph, a single inferred group."""
    return CameraGraph.complete(n)


def find_group(graph: CameraGraph, camera: int):
    return graph.find_group(camera)


def deletion_threshold(rule: DeletionRule, count_a, count_b):
    """beta * (f(count_a) + f(count_b)); accepts scalars or arrays of counts."""
    f = F_FUNCTIONS[rule.f_id]
    out = rule.beta * (f(np.asarray(count_a, dtype=float)) + f(np.asarray(count_b, dtype=float)))
    return float(out) if np.isscalar(count_a) and np.isscalar(count_b) else out


def delete_edges(graph: CameraGraph, camera: int, estimates: np.ndarray,
                 counts: np.ndarray, rule: DeletionRule) -> CameraGraph:
    """Drop every edge (camera, l) whose estimate distance exceeds the rule
    threshold. Only edges incident to ``camera`` are examined; mutates and
    returns the graph."""
    estimates = np.asarray(estimates, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if estimates.shape[0] != graph.n or counts.shape[0] != graph.n:
        raise ValueError(
            f"need an estimate and count for each of {graph.n} cameras, "
            f"got {estimates.shape[0]} estimates and {counts.shape[0]} counts")
    nbrs = graph.neighbors(camera)
    if nbrs.size == 0:
        return graph
    dist = np.linalg.norm(estimates[nbrs] - estimates[camera], axis=1)
    thr = deletion_threshold(rule, counts[nbrs], counts[camera])
    graph.remove_edges(camera, nbrs[dist > thr])
    return graph


def reconnect(graph: CameraGraph, policy: ReconnectPolicy, t: int, rng) -> CameraGraph:
    """Whole-graph-reset mode restores the complete graph with probability p_t;
    per-edge mode restores each absent edge independently. Mutates and returns
    the graph."""
    p = policy.probability(t)
    if policy.mode == "whole-graph-reset":
        if rng.random() < p:
            graph.reset_complete()
        return graph
    if p <= 0.0:
        return graph
    missing = ~graph.adj
    np.fill_diagonal(missing, False)
    iu = np.triu_indices(graph.n, k=1)
    restore = missing[iu] & (rng.random(iu[0].size) < p)
    graph.restore_edges(iu[0][restore], iu[1][restore])
    return graph


def set_based_groups(estimates: np.ndarray, counts: np.ndarray, rule: DeletionRule,
                     fixed_threshold: float | None = None) -> np.ndarray:
    """From-scratch partition: O(N^2) pairwise checks every call.

    Two cameras share a component when their estimate distance is at most the
    rule threshold (or ``fixed_threshold`` when given). Returns smallest-
    member-id labels.
    """
    estimates = np.asarray(estimates, dtype=float)
    counts = np.asarray(counts, dtype=float)
    sq = np.sum(estimates ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (estimates @ estimates.T)
    np.clip(d2, 0.0, None, out=d2)
    if fixed_threshold is not None:
        thr = float(fixed_threshold)
        adj = d2 <= thr * thr
    else:
        f = F_FUNCTIONS[rule.f_id]
        fx = f(counts)
        thr = rule.beta * (fx[:, None] + fx[None, :])
        adj = d2 <= thr * thr
    np.fill_diagonal(adj, False)
    return _min_labels(adj)


def partition_sets(labels: np.ndarray) -> list[list[int]]:
    """Components as sorted member lists, ordered by label."""
    labels = np.asarray(labels)
    return [sorted(np.flatnonzero(labels == lab).tolist()) for lab in np.unique(labels)]


def format_partition(labels: np.ndarray) -> str:
    """Dump format: one line per component, sorted member ids."""
    return "\n".join(" ".join(str(m) for m in comp) for comp in partition_sets(labels))

