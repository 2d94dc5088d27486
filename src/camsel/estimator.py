"""Sufficient statistics, penalized GLM estimation via damped Newton, confidence widths.

The estimating equation solved here is the zeta-penalized score

    score(theta) = sum_i w_i * (rbar_i - mu(x_i.theta)) * x_i - zeta * theta = 0

where each row may carry an integer weight (repeated observations of the same
feature vector collapse into one weighted row; w_i * rbar_i is the summed
response). With zeta > 0 the Newton system matrix zeta*I + sum w_i mu'(x_i.theta)
x_i x_i^T is always positive definite, so no invertibility guard is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from .core import LinkFunctionSpec, link_callables
from .errors import NumericError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
MAX_HALVINGS = 30


@dataclass(frozen=True)
class SufficientStats:
    """Per-camera running sums: Gramian, weighted response, feedback count."""

    gramian: np.ndarray
    response: np.ndarray
    count: int

    @classmethod
    def zeros(cls, dim: int) -> "SufficientStats":
        return cls(np.zeros((dim, dim)), np.zeros(dim), 0)

    @property
    def dim(self) -> int:
        return self.response.shape[0]


@dataclass(frozen=True)
class GroupStats:
    """Regularized aggregate over a group of cameras: zeta*I + sum of Gramians."""

    gramian_reg: np.ndarray
    response: np.ndarray
    count: int
    zeta: float

    @property
    def dim(self) -> int:
        return self.response.shape[0]


@dataclass(frozen=True)
class Estimate:
    theta_hat: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float


def update_stats(stats: SufficientStats, x: np.ndarray, r) -> SufficientStats:
    """Absorb one (feature, binary payoff) observation; returns new stats."""
    x = np.asarray(x, dtype=float)
    if x.shape != (stats.dim,):
        raise ValueError(f"feature dimension {x.shape} does not match stats dimension ({stats.dim},)")
    return SufficientStats(
        gramian=stats.gramian + np.outer(x, x),
        response=stats.response + float(r) * x,
        count=stats.count + 1,
    )


def aggregate_group(members, zeta: float, dim: int | None = None) -> GroupStats:
    """Sum member statistics and add the zeta*I regularizer.

    An empty member list is a valid cold-start group, but then ``dim`` must be
    given explicitly.
    """
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    members = list(members)
    if not members:
        if dim is None:
            raise ValueError("dim is required to aggregate an empty member list")
        return GroupStats(zeta * np.eye(dim), np.zeros(dim), 0, zeta)
    d = members[0].dim
    if dim is not None and dim != d:
        raise ValueError(f"dim={dim} does not match member dimension {d}")
    if any(m.dim != d for m in members):
        raise ValueError("member statistics have mixed dimensions")
    gram = zeta * np.eye(d)
    resp = np.zeros(d)
    count = 0
    for m in members:
        gram += m.gramian
        resp += m.response
        count += m.count
    return GroupStats(gram, resp, count, zeta)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b by LAPACK gesv, called directly: at d = 5 most of the cost
    of np.linalg.solve is its per-call overhead, and the result is the same."""
    x, info = dgesv(a, b)[2:]
    if info != 0:
        raise np.linalg.LinAlgError(f"gesv failed with info={info}: singular matrix")
    return x


# resolved once per link and once per (zeta, d), not once per solve
_links = functools.cache(link_callables)


@functools.cache
def _ridge(zeta: float, d: int) -> np.ndarray:
    """zeta * I, shared read-only."""
    ridge = zeta * np.eye(d)
    ridge.flags.writeable = False
    return ridge


def _newton(feats, weights, resp_sums, zeta, link, theta0, tol, max_iter):
    """Damped Newton on the penalized score. ``resp_sums`` holds w_i * rbar_i.

    Each point is evaluated once: the accepted candidate's z = F theta and
    mu(z) give both its score and the next Hessian. Products call the
    ndarray ``dot`` method: the BLAS calls of ``@`` without its dispatch.
    """
    d = feats.shape[1]
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    mu, mu_prime = _links(link)
    ridge = _ridge(zeta, d)
    feats_t = feats.T
    z = feats.dot(theta)
    m = mu(z)
    g = feats_t.dot(resp_sums - weights * m) - zeta * theta
    gnorm = math.sqrt(g.dot(g))
    iters = 0
    while gnorm > tol and iters < max_iter:
        # feats_t * slope is (feats * slope[:, None]).T, element for element
        delta = _solve(ridge + (feats_t * (weights * mu_prime(z, m))).dot(feats), g)
        step = 1.0
        cand = theta + delta
        for _ in range(MAX_HALVINGS):
            z_new = feats.dot(cand)
            m_new = mu(z_new)
            g_new = feats_t.dot(resp_sums - weights * m_new) - zeta * cand
            gn = math.sqrt(g_new.dot(g_new))
            if math.isfinite(gn) and gn < gnorm:
                break
            step *= 0.5
            cand = theta + step * delta
        else:
            break
        theta, z, m, g, gnorm = cand, z_new, m_new, g_new, gn
        iters += 1
    # a guard: the line search accepts only finite scores, which no
    # non-finite theta has
    if iters and not np.isfinite(theta).all():
        raise NumericError("Newton iterate became non-finite")
    return Estimate(theta_hat=theta, converged=gnorm <= tol, iterations=iters, gradient_norm=gnorm)


def solve_mle(gs: GroupStats, link: LinkFunctionSpec, X, r,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              theta0=None) -> Estimate:
    """Penalized MLE from raw (x, r) pairs of the group's history.

    ``X`` is (n, d), ``r`` is (n,). The history must account for exactly the
    observations absorbed into ``gs``.
    """
    X = np.asarray(X, dtype=float).reshape(-1, gs.dim)
    r = np.asarray(r, dtype=float).reshape(-1)
    if X.shape[0] != r.shape[0]:
        raise ValueError(f"history mismatch: {X.shape[0]} features vs {r.shape[0]} payoffs")
    if X.shape[0] != gs.count:
        raise ValueError(f"history holds {X.shape[0]} observations but stats count {gs.count}")
    return _newton(X, np.ones(X.shape[0]), r, gs.zeta, link, theta0, tol, max_iter)


def solve_mle_weighted(gs: GroupStats, link: LinkFunctionSpec, feats, counts, successes,
                       tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                       theta0=None) -> Estimate:
    """Penalized MLE from per-model aggregates.

    ``counts[m]`` observations of model m's feature row with ``successes[m]``
    total payoff is likelihood-equivalent to the raw pair history and keeps
    each Newton pass O(catalog) instead of O(rounds).
    """
    feats = np.asarray(feats, dtype=float)
    counts = np.asarray(counts, dtype=float)
    successes = np.asarray(successes, dtype=float)
    if int(round(counts.sum())) != gs.count:
        raise ValueError(f"aggregates hold {counts.sum():.0f} observations but stats count {gs.count}")
    mask = counts > 0
    return _newton(feats[mask], counts[mask], successes[mask], gs.zeta, link, theta0, tol, max_iter)


def confidence_width(x: np.ndarray, gs: GroupStats) -> float:
    """The norm sqrt(x^T M^{-1} x) under the regularized group Gramian M."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(x @ _solve(gs.gramian_reg, x)))


def confidence_widths(X: np.ndarray, gs: GroupStats) -> np.ndarray:
    """Row-wise confidence widths for a whole catalog at once."""
    X = np.asarray(X, dtype=float)
    solved = _solve(gs.gramian_reg, X.T)
    return np.sqrt(np.einsum("ij,ji->i", X, solved))
