"""Link functions and cascade payoff algebra.

Everything here is a pure function over immutable inputs. Scalars and numpy
arrays are both accepted wherever a score ``z`` appears; arrays come back with
the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError

LINK_KINDS = ("sigmoid", "identity", "clipped-linear")


@dataclass(frozen=True)
class LinkFunctionSpec:
    """A closed-form monotone link mapping the score x.theta to a mean payoff.

    ``domain_bound`` is the half-width b of the symmetric interval [-b, b]
    over which the curvature constants (Lipschitz constant and minimum slope)
    are taken.
    """

    kind: str = "sigmoid"
    domain_bound: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "domain_bound", float(self.domain_bound))
        if self.kind not in LINK_KINDS:
            raise ConfigError(f"unknown link kind {self.kind!r}; expected one of {LINK_KINDS}")
        if not np.isfinite(self.domain_bound) or self.domain_bound < 0:
            raise ConfigError(f"domain_bound must be finite and >= 0, got {self.domain_bound}")


@dataclass(frozen=True)
class LinkConstants:
    """Slope bounds of a link over its declared domain interval."""

    lipschitz_L: float
    m_mu: float

    def __post_init__(self):
        if not (0 < self.m_mu <= self.lipschitz_L):
            raise ConfigError(
                f"link constants need 0 < m_mu <= L, got m_mu={self.m_mu}, L={self.lipschitz_L}"
            )


def _check_finite(z):
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("link argument must be finite")
    return arr


def link_eval(spec: LinkFunctionSpec, z):
    """Evaluate mu(z). Sigmoid maps to (0,1); clipped-linear clamps z to [0,1]."""
    out = link_callables(spec)[0](_check_finite(z))
    return float(out) if np.isscalar(z) else out


def link_derivative(spec: LinkFunctionSpec, z):
    """Evaluate mu'(z).

    Clipped-linear returns 0 outside its clip interval, which is why it is
    rejected by :func:`link_constants`.
    """
    out = link_callables(spec)[1](_check_finite(z))
    return float(out) if np.isscalar(z) else out


def link_constants(spec: LinkFunctionSpec) -> LinkConstants:
    """Slope bounds over [-b, b]: L = sup mu', m_mu = inf mu'.

    Closed forms: the sigmoid slope peaks at 0 and decays monotonically in
    |z|, the identity slope is 1 everywhere. Clipped-linear has zero slope on
    part of any symmetric interval and is rejected.
    """
    b = spec.domain_bound
    if spec.kind == "sigmoid":
        s = expit(b)
        return LinkConstants(lipschitz_L=0.25, m_mu=float(s * (1.0 - s)))
    if spec.kind == "identity":
        return LinkConstants(lipschitz_L=1.0, m_mu=1.0)
    raise ConfigError("clipped-linear has zero derivative outside [0, 1]; "
                      "slope constants are undefined for it")


def link_callables(spec: LinkFunctionSpec):
    """Unvalidated (mu, mu_prime) pair for hot loops; callers guarantee
    finite inputs. ``mu_prime(z, m)`` may be handed ``m = mu(z)`` when the
    caller has it, so the sigmoid is not evaluated twice at one point.
    :func:`link_eval` and :func:`link_derivative` add the finiteness check."""
    if spec.kind == "sigmoid":
        mu = expit

        def mu_prime(z, m=None):
            s = expit(z) if m is None else m
            return s * (1.0 - s)
    elif spec.kind == "identity":
        def mu(z):
            return z

        def mu_prime(z, m=None):
            return np.ones_like(z)
    else:
        def mu(z):
            return np.clip(z, 0.0, 1.0)

        def mu_prime(z, m=None):
            return np.where((z >= 0.0) & (z <= 1.0), 1.0, 0.0)
    return mu, mu_prime


def cascade_payoff(payoffs) -> int:
    """Aggregate payoff of a tried sequence: 1 iff any attempt paid off.

    Computed as 1 - prod(1 - r_k); an empty sequence aggregates to 0.
    """
    result = 0
    for r in payoffs:
        if r not in (0, 1):
            raise ValueError(f"payoffs must be binary, got {r!r}")
        result = result or int(r)
    return result


def expected_cascade_payoff(success_probs) -> float:
    """Expected aggregate payoff 1 - prod(1 - p_k) of independent attempts.

    The product is the left fold np.multiply.reduce makes, in one Python pass
    that also range-checks each p_k (NaN fails the check). A list is read as
    it is; anything else is converted to a list of floats first."""
    if not isinstance(success_probs, list):
        success_probs = np.asarray(success_probs, dtype=float).tolist()
    miss = 1.0
    for p in success_probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError("success probabilities must lie in [0, 1]")
        miss *= 1.0 - p
    return 1.0 - miss
