"""Dynamic camera graph: components as inferred groups, edge deletion, reconnection.

The graph is a dense symmetric boolean adjacency over camera ids. Connected
components (the inferred groups) are recomputed lazily after mutations and a
component is always labeled by its smallest member id, which keeps traces
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

F_FUNCTIONS = {
    "f1": lambda x: np.sqrt((1.0 + np.log1p(x)) / (1.0 + x)),
    "f2": lambda x: (1.0 + x) ** -2.0,
    "f3": lambda x: (1.0 + x) ** -0.5,
    "f4": lambda x: (1.0 + x) ** -0.25,
    "f5": lambda x: 1.0 + np.log1p(x),
    "f6": lambda x: np.sqrt(1.0 + np.log1p(x)),
}

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
    """Restore the complete graph with probability p_t = min(1, p0/t^2) each round."""

    p0: float

    def __post_init__(self):
        if not (0.0 < self.p0 < 1.0):
            raise ConfigError(f"p0 must lie in (0, 1), got {self.p0}")

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
        """The starting state: a complete graph, a single inferred group."""
        return cls(n, np.ones((n, n), dtype=bool))

    def edge_count(self) -> int:
        return self._edges

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

    def reset_complete(self):
        self.adj[:] = True
        np.fill_diagonal(self.adj, False)
        self._edges = self.n * (self.n - 1) // 2
        self._labels = None


def _min_labels(adj: np.ndarray) -> np.ndarray:
    """Label each camera with the smallest id in its component.

    Isolated cameras label themselves. Every other camera is reached by a
    breadth-first search over dense adjacency rows, started from the smallest
    camera not yet labeled; that camera is the smallest id of its component.
    """
    labels = np.arange(adj.shape[0])
    pending = adj.any(axis=1)
    while pending.any():
        start = int(pending.argmax())
        reach = adj[start].copy()
        reach[start] = True
        frontier = reach
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reach
            reach |= frontier
        labels[reach] = start
        pending &= ~reach
    return labels


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
    nbrs = graph.adj[camera].nonzero()[0]
    if nbrs.size == 0:
        return graph
    dist = np.linalg.norm(estimates[nbrs] - estimates[camera], axis=1)
    thr = deletion_threshold(rule, counts[nbrs], counts[camera])
    graph.remove_edges(camera, nbrs[dist > thr])
    return graph


def reconnect(graph: CameraGraph, policy: ReconnectPolicy, t: int, rng) -> CameraGraph:
    """Restore the complete graph with probability p_t: one uniform draw per
    round. Mutates and returns the graph."""
    p = policy.probability(t)
    if rng.random() < p:
        graph.reset_complete()
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
    if counts.shape != estimates.shape[:1]:
        raise ValueError(f"need one count for each of {estimates.shape[0]} cameras, "
                         f"got counts of shape {counts.shape}")
    sq = np.sum(estimates ** 2, axis=1)
    gram = estimates @ estimates.T
    fx = F_FUNCTIONS[rule.f_id](counts) if fixed_threshold is None else None
    adj = np.empty(gram.shape, dtype=bool)
    # rows in blocks of about 8k cells: the Gram matrix is the one N x N float array
    step = max(1, 8192 // max(len(sq), 1))
    for lo in range(0, len(sq), step):
        rows = slice(lo, lo + step)
        d2 = np.add.outer(sq[rows], sq)
        d2 -= 2.0 * gram[rows]
        np.clip(d2, 0.0, None, out=d2)
        thr = float(fixed_threshold) if fx is None else rule.beta * np.add.outer(fx[rows], fx)
        np.less_equal(d2, thr * thr, out=adj[rows])
    np.fill_diagonal(adj, False)
    return _min_labels(adj)

