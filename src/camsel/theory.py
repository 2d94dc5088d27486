"""Computable constants behind the regret guarantee.

These are pure functions of a parameter bundle: the effective minimum
eigenvalue lambda_tilde, the theoretical exploration widths alpha and beta,
the regret upper-bound curve, and the warm-up round count after which the
grouping is provably correct with probability 1 - delta.

The regret bound reports the bracketed expression (L d / m_mu) sqrt(g K T)
ln T without the absolute constant hidden inside the O(.) statement; the
acceptance checks only use its dominance and shape, never tightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class TheoryParams:
    d: int
    g: int
    K: int
    T: int
    lambda_min: float
    sigma: float
    L: float
    m_mu: float
    delta: float = 0.01
    gamma: float = 0.5
    n_cameras: int = 1

    def __post_init__(self):
        positives = {
            "d": self.d, "g": self.g, "K": self.K, "T": self.T,
            "lambda_min": self.lambda_min, "L": self.L, "m_mu": self.m_mu,
            "gamma": self.gamma, "n_cameras": self.n_cameras,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")


def lambda_tilde(lambda_min: float, sigma: float, K: int) -> float:
    """The integral of (1 - exp(-(lambda - x)^2 / (2 sigma^2)))^K over [0, lambda].

    Adaptive quadrature at absolute tolerance 1e-8; the sigma = 0 limit is
    exactly lambda (the integrand is 1 almost everywhere).
    """
    if lambda_min <= 0:
        raise ValueError(f"lambda_min must be positive, got {lambda_min}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    if sigma == 0.0:
        return float(lambda_min)
    # imported here: scipy.integrate adds a fifth of a second to `import camsel`
    from scipy.integrate import quad

    def integrand(x):
        return (1.0 - math.exp(-((lambda_min - x) ** 2) / (2.0 * sigma * sigma))) ** K

    # The integrand collapses near x = lambda; give quad the transition point.
    knee = max(0.0, lambda_min - 6.0 * sigma)
    points = [knee] if 0.0 < knee < lambda_min else None
    value, _ = quad(integrand, 0.0, lambda_min, epsabs=1e-8, limit=200, points=points)
    return float(value)


def theoretical_alpha(p: TheoryParams) -> float:
    """(1/m_mu) sqrt(8/lambda_tilde + d ln(T/d) + 2 ln(4 g T))."""
    if p.T <= p.d:
        raise ValueError(f"horizon T={p.T} must exceed the dimension d={p.d}")
    lam = lambda_tilde(p.lambda_min, p.sigma, p.K)
    inner = 8.0 / lam + p.d * math.log(p.T / p.d) + 2.0 * math.log(4.0 * p.g * p.T)
    return math.sqrt(inner) / p.m_mu


def theoretical_alpha_t(p: TheoryParams, t: int, delta: float | None = None) -> float:
    """Time-varying width (1/m_mu) sqrt(8/lambda_tilde + d ln(t/d) + 2 ln(1/delta))."""
    if t <= p.d:
        raise ValueError(f"round t={t} must exceed the dimension d={p.d}")
    delta = p.delta if delta is None else delta
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    lam = lambda_tilde(p.lambda_min, p.sigma, p.K)
    inner = 8.0 / lam + p.d * math.log(t / p.d) + 2.0 * math.log(1.0 / delta)
    return math.sqrt(inner) / p.m_mu


def theoretical_beta(p: TheoryParams) -> float:
    """sqrt(32 d / (lambda_tilde m_mu^2))."""
    lam = lambda_tilde(p.lambda_min, p.sigma, p.K)
    return math.sqrt(32.0 * p.d / (lam * p.m_mu * p.m_mu))


def regret_bound(p: TheoryParams, t: int | None = None) -> float:
    """(L d / m_mu) sqrt(g K T) ln T, the bound's bracketed expression."""
    horizon = p.T if t is None else t
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    return (p.L * p.d / p.m_mu) * math.sqrt(p.g * p.K * horizon) * math.log(horizon)


def warmup_bound(p: TheoryParams) -> float:
    """Round count after which grouping is correct with probability 1 - delta."""
    lam = lambda_tilde(p.lambda_min, p.sigma, p.K)
    n = p.n_cameras
    first = 512.0 * p.d / (p.gamma ** 2 * lam) * math.log(n / p.delta)
    second = 256.0 / lam ** 2 * math.log(32.0 * p.d / (lam ** 2 * p.delta))
    return 4.0 * n * max(first, second) + 16.0 * n * math.log(4.0 * n * p.T / p.delta)


def catalog_lambda_min(features: np.ndarray) -> float:
    """Minimum eigenvalue of the catalog's second-moment matrix (1/M) sum x x^T."""
    feats = np.asarray(features, dtype=float)
    second_moment = feats.T @ feats / feats.shape[0]
    return float(np.linalg.eigvalsh(second_moment)[0])


def params_for_world(world, k_max: int, horizon: int, delta: float = 0.01) -> TheoryParams:
    """Bundle world-specific constants: lambda_min comes from the actual catalog."""
    from .core import link_constants

    consts = link_constants(world.link)
    return TheoryParams(
        d=world.dimension,
        g=world.n_groups,
        K=k_max,
        T=horizon,
        lambda_min=catalog_lambda_min(world.features),
        sigma=world.noise_sigma,
        L=consts.lipschitz_L,
        m_mu=consts.m_mu,
        delta=delta,
        gamma=world.dispersion_gamma,
        n_cameras=world.n_cameras,
    )


def theory_report(world, k_max: int, horizon: int, delta: float = 0.01) -> dict:
    """All constants for a world/config pair, in one JSON-friendly block."""
    p = params_for_world(world, k_max, horizon, delta)
    lam = lambda_tilde(p.lambda_min, p.sigma, p.K)
    return {
        "d": p.d,
        "g": p.g,
        "K": p.K,
        "T": p.T,
        "n_cameras": p.n_cameras,
        "gamma": p.gamma,
        "delta": p.delta,
        "lambda_min": p.lambda_min,
        "sigma": p.sigma,
        "lipschitz_L": p.L,
        "m_mu": p.m_mu,
        "lambda_tilde": lam,
        "alpha_theory": theoretical_alpha(p),
        "beta_theory": theoretical_beta(p),
        "regret_bound_at_T": regret_bound(p),
        "warmup_bound": warmup_bound(p),
    }
