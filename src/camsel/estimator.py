"""Sufficient statistics, penalized GLM estimation via damped Newton, confidence widths.

The estimating equation solved here is the zeta-penalized score

    score(theta) = sum_i w_i * (rbar_i - mu(x_i.theta)) * x_i - zeta * theta = 0

where each row may carry an integer weight (repeated observations of the same
feature vector collapse into one weighted row; w_i * rbar_i is the summed
response). With zeta > 0 the Newton system matrix zeta*I + sum w_i mu'(x_i.theta)
x_i x_i^T is always positive definite, so no invertibility guard is needed.

Every linear system, one or a stack, is solved by :func:`_solve` through numpy's
LAPACK, so the per-seed ``Agent`` and the lockstep engine share one build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    count: int
    zeta: float

    @property
    def dim(self) -> int:
        return self.gramian_reg.shape[0]


@dataclass(frozen=True)
class Estimate:
    """A solve's last point: ``theta_hat``, whether its score norm
    ``gradient_norm`` met the tolerance, the Newton steps taken, and
    ``means`` = mu(x_i.theta_hat) per row as the solve last evaluated it, so
    a caller ranking by the means need not evaluate the link again."""
    theta_hat: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    means: np.ndarray | None = None


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
        return GroupStats(zeta * np.eye(dim), 0, zeta)
    d = members[0].dim
    if dim is not None and dim != d:
        raise ValueError(f"dim={dim} does not match member dimension {d}")
    if any(m.dim != d for m in members):
        raise ValueError("member statistics have mixed dimensions")
    gram = zeta * np.eye(d)
    count = 0
    for m in members:
        gram += m.gramian
        count += m.count
    return GroupStats(gram, count, zeta)


def _solve(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a^{-1} b for one (d, d) system or a stack, into ``out`` if given: the
    gesv gufunc behind ``np.linalg.solve``, bit for bit, without its wrapper's
    checks and ``errstate``. A 1-D ``b`` is one vector, any other holds
    (..., d, n) right-hand sides. A system the gufunc cannot solve comes back
    NaN-filled after numpy's RuntimeWarning; a NaN first entry raises LinAlgError."""
    vector = b.ndim == 1
    x = (_umath_linalg.solve1 if vector else _umath_linalg.solve)(a, b, signature="dd->d", out=out)
    if a.ndim == 2:     # one matrix fails all its solutions; a float compares fastest
        first = x.item(0)
        failed = first != first
    else:
        failed = np.isnan(x[..., 0] if vector else x[..., 0, 0]).any()
    if failed:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


# resolved once per link and once per (zeta, d), not once per solve
_links = functools.cache(link_callables)


@functools.cache
def _ridge(zeta: float, d: int) -> np.ndarray:
    """zeta * I, shared read-only."""
    ridge = zeta * np.eye(d)
    ridge.flags.writeable = False
    return ridge


def outer_products(feats) -> np.ndarray:
    """Row i holds x_i x_i^T flattened, so a weighted sum of them is one product."""
    return (feats[:, :, None] * feats[:, None, :]).reshape(len(feats), feats.shape[1] ** 2)


def _newton(feats, weights, resp_sums, zeta, link, theta0, tol, max_iter, outer=None):
    """Damped Newton on the penalized score. ``resp_sums`` holds w_i * rbar_i.

    Each point is evaluated once: the accepted candidate's z = F theta and
    mu(z) give both its score and the next Hessian. Products call the
    ndarray ``dot`` method: the BLAS calls of ``@`` without its dispatch.
    """
    d = feats.shape[1]
    outer = outer_products(feats) if outer is None else outer
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
        delta = _solve(ridge + (weights * mu_prime(z, m)).dot(outer).reshape(d, d), g)
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
    return Estimate(theta, gnorm <= tol, iters, gnorm, m)


def solve_mle_stacked(feats, counts, successes, zeta, link, theta0,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                      outer=None) -> Estimate:
    """:func:`solve_mle_weighted` for S problems sharing the catalog, ``zeta``
    and link: ``counts``, ``successes`` are (S, M), ``theta0`` is (S, d), and
    each estimate field gains a leading seed axis. Row s equals the per-seed
    solve bit for bit: stacked ``np.matmul``, :func:`_solve` of the stack and
    ``np.sqrt`` match the per-seed ``dot``, one-system solve and
    ``math.sqrt(g.dot(g))``, and each row takes its own steps and halvings,
    stopping when ``_newton`` would.

    The state is kept in column shape, theta as (S, d, 1) and z, mu(z) as
    (S, M, 1), so every product reads and writes it without reshaping. A
    step is accepted where its score norm is below the old one, one
    comparison: a NaN norm compares false, and an infinite one is never
    below. Only when some row's full step fails do the failed rows halve.
    The rows still iterating form a working set: all rows while every row
    is live, compacted only when some row stops. A row leaves it as soon as
    a step is not accepted, so all of its rows share one iteration count."""
    feats_t, d = feats.T, feats.shape[1]
    outer = outer_products(feats) if outer is None else outer
    (mu, mu_prime), ridge = _links(link), _ridge(zeta, d)

    def score(weights, resp_sums, theta):
        z = np.matmul(feats, theta)
        m = mu(z)
        g = np.matmul(feats_t, resp_sums - weights * m) - zeta * theta
        return z, m, g, np.sqrt(np.matmul(g[:, None, :, 0], g))

    weights, resp_sums = counts[:, :, None], successes[:, :, None]
    theta = np.array(theta0, dtype=float)[:, :, None]
    state = [theta, *score(weights, resp_sums, theta)]
    theta, _, m, _, gnorm = state      # each row's estimate, as it stops
    iters = np.zeros(len(theta), dtype=int)
    live = (gnorm > tol).ravel()
    rows = None     # the working set's rows; None while it holds every row
    if np.count_nonzero(live) < len(live):
        rows = live.nonzero()[0]
        weights, resp_sums = weights[rows], resp_sums[rows]
        state = [a[rows] for a in state]
    n_iter = 0
    while max_iter > 0 and len(state[0]):
        w_theta, w_z, w_m, w_g, w_gnorm = state
        system = np.matmul((weights * mu_prime(w_z, w_m))[:, None, :, 0], outer).reshape(-1, d, d)
        system += ridge     # the Hessian's ridge, added in place
        delta = _solve(system, w_g)
        cand = w_theta + delta
        new = [cand, *score(weights, resp_sums, cand)]
        accepted = new[4] < w_gnorm
        pending = None
        if np.count_nonzero(accepted) < len(accepted):
            pending = (~accepted).ravel().nonzero()[0]
            # the full step is the first of MAX_HALVINGS tries; only failed rows halve
            step = 1.0
            for _ in range(MAX_HALVINGS - 1):
                step *= 0.5
                cand = w_theta[pending] + step * delta[pending]
                tried = [cand, *score(weights[pending], resp_sums[pending], cand)]
                ok = (tried[4] < w_gnorm[pending]).ravel()
                for a, b in zip(new, tried):
                    a[pending[ok]] = b[ok]
                pending = pending[~ok]
                if not pending.size:
                    break
            for a, b in zip(new, state):    # their line search ran out: they stop where they were
                a[pending] = b[pending]
        n_iter += 1
        stop = (new[4] <= tol).ravel()
        if n_iter >= max_iter:
            stop[:] = True
        elif pending is not None:
            stop[pending] = True
        n_stop, state = np.count_nonzero(stop), new
        if not n_stop:
            continue
        if rows is None and n_stop == len(stop):    # every row stops together
            theta, m, gnorm = new[0], new[2], new[4]
            iters[:] = n_iter
        else:
            out = stop if rows is None else rows[stop]
            for a, b in zip((theta, m, gnorm), (new[0], new[2], new[4])):
                a[out] = b[stop]
            iters[out] = n_iter
        if pending is not None:
            iters[pending if rows is None else rows[pending]] = n_iter - 1
        if n_stop == len(stop):
            break
        keep = ~stop
        rows = keep.nonzero()[0] if rows is None else rows[keep]
        weights, resp_sums = weights[keep], resp_sums[keep]
        # rebinding ``new`` too frees the uncompacted arrays now, not in the next iteration
        state = new = [a[keep] for a in new]
    theta, gnorm = theta[..., 0], gnorm.ravel()
    if not np.isfinite(theta[iters > 0]).all():
        raise NumericError("Newton iterate became non-finite")
    return Estimate(theta, gnorm <= tol, iters, gnorm, m[..., 0])


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
                       theta0=None, outer=None) -> Estimate:
    """Penalized MLE from per-model aggregates; unobserved rows add exact zeros.

    ``counts[m]`` observations of model m's feature row with ``successes[m]``
    total payoff is likelihood-equivalent to the raw pair history and keeps
    each Newton pass O(catalog) instead of O(rounds). ``outer`` may hand in
    :func:`outer_products` of ``feats`` when many solves share the catalog.
    """
    feats = np.asarray(feats, dtype=float)
    counts = np.asarray(counts, dtype=float)
    successes = np.asarray(successes, dtype=float)
    if round(float(counts.sum())) != gs.count:
        raise ValueError(f"aggregates hold {counts.sum():.0f} observations but stats count {gs.count}")
    return _newton(feats, counts, successes, gs.zeta, link, theta0, tol, max_iter, outer)


def confidence_width(x: np.ndarray, gs: GroupStats) -> float:
    """The norm sqrt(x^T M^{-1} x) under the regularized group Gramian M."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(x @ _solve(gs.gramian_reg, x)))


def confidence_widths(X: np.ndarray, gs: GroupStats) -> np.ndarray:
    """Row-wise confidence widths for a whole catalog at once. Keep the arithmetic and
    even the operand layout: rounding orders ties (at theta = 0 the canonical rows 0 and 3
    get 0x1.d2cb4d7e37c36p-1 and ...c37p-1; 13 of its 20 widths are distinct), so the
    (d, M) solution gets LAPACK's column-major strides: a C-ordered one changes einsum's bits."""
    X = np.asarray(X, dtype=float)
    solved = _solve(gs.gramian_reg, X.T, out=np.empty(X.shape).T)
    return np.sqrt(np.einsum("ij,ji->i", X, solved))


def confidence_widths_stacked(X: np.ndarray, gramians: np.ndarray) -> np.ndarray:
    """:func:`confidence_widths` under each of an (S, d, d) stack of regularized
    Gramians, row for row to the bit: the solves are written into an (S, M, d)
    C-ordered buffer, so each seed's (d, M) solution has the Fortran strides
    of :func:`confidence_widths`' one."""
    solved = np.empty((len(gramians), *X.shape)).transpose(0, 2, 1)
    _solve(gramians, X.T, out=solved)
    return np.sqrt(np.einsum("ij,sji->si", X, solved))
