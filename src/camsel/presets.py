"""Reference desk-scale scenario used by the demos and the acceptance suite.

The canonical world is a fixed, hand-laid-out catalog rather than a random
draw, so that every published margin is a property of the artifact instead of
seed luck. Two orthogonal perspective-weight vectors define the groups; the
catalog has, per group, three good models (success 0.70/0.66/0.62), three
shared mid-strength models (~0.55) that are equally tempting for every
camera, four mid-poor and seven deep-poor models. Payoffs are Bernoulli in
the model mean, so the agent's link is correctly specified and the catalog's
success probabilities are exactly the sigmoid values below.
"""

from __future__ import annotations

import numpy as np

from .core import LinkFunctionSpec
from .environment import VisualModel, World, WorldConfig
from .policy import AgentConfig

CANONICAL_SEEDS = tuple(range(10))

# One row per model: score against group A's weights, against group B's, then
# three spectator coordinates that carry no payoff signal (they keep the
# catalog full-rank). sigmoid(score) is the model's success probability for
# cameras of that group.
_CANONICAL_ROWS = (
    # group-A goods: p = (0.700, 0.660, 0.620)
    (0.847, 0.03,  0.18,  0.05,  0.02),
    (0.663, 0.02, -0.16,  0.08, -0.05),
    (0.490, 0.04,  0.10, -0.15,  0.06),
    # group-B goods, mirrored
    (0.03, 0.847,  0.05,  0.18, -0.02),
    (0.02, 0.663,  0.08, -0.16,  0.05),
    (0.04, 0.490, -0.15,  0.10, -0.06),
    # shared mid-strength models: p ~ (0.550, 0.540, 0.530) for both groups
    (0.201, 0.201,  0.12, -0.08,  0.10),
    (0.160, 0.160, -0.10,  0.12, -0.08),
    (0.120, 0.120,  0.08,  0.10, -0.12),
    # mid poors: p ~ 0.39-0.45
    (-0.201, -0.300,  0.15,  0.18, -0.10),
    (-0.300, -0.201, -0.18,  0.15,  0.12),
    (-0.364, -0.250,  0.20, -0.12,  0.15),
    (-0.250, -0.364, -0.12, -0.18, -0.15),
    # deep poors: p ~ 0.28-0.33
    (-0.896, -0.755,  0.05, -0.17,  0.12),
    (-0.747, -0.883, -0.14,  0.09,  0.18),
    (-0.780, -0.718,  0.19,  0.03, -0.07),
    (-0.855, -0.806, -0.06, -0.19,  0.04),
    (-0.713, -0.842,  0.16, -0.02, -0.18),
    (-0.829, -0.731, -0.08,  0.14,  0.06),
    (-0.764, -0.871,  0.02,  0.11, -0.16),
)

_THETA_NORM = 0.95


def canonical_world() -> World:
    d = 5
    thetas = np.zeros((2, d))
    thetas[0, 0] = _THETA_NORM
    thetas[1, 1] = _THETA_NORM
    models = []
    for i, (za, zb, w3, w4, w5) in enumerate(_CANONICAL_ROWS):
        x = np.array([za / _THETA_NORM, zb / _THETA_NORM, w3, w4, w5])
        norm = np.linalg.norm(x)
        if norm > 1.0:
            x = x / norm
        tier = "edge" if i % 2 == 0 else "cloud"
        models.append(VisualModel(
            id=i, features=x, tier=tier,
            bandwidth_cost=round(0.1 + 0.02 * i, 3) if tier == "edge"
            else round(0.5 + 0.02 * i, 3),
            latency_cost=0.05 if tier == "edge" else 0.3))
    return World(
        dimension=d,
        camera_groups=np.array([0] * 4 + [1] * 4),
        group_thetas=thetas,
        catalog=models,
        dispersion_gamma=0.5,
        payoff_mode="bernoulli",
        accuracy_threshold=0.8,
        noise_sigma=0.1,
        link=LinkFunctionSpec(),
    )


def canonical_single_group_world() -> World:
    """The same catalog with every camera in group A; used for the sanity leg
    of the perspective ablation."""
    base = canonical_world()
    return World(
        dimension=base.dimension,
        camera_groups=np.zeros(base.n_cameras, dtype=int),
        group_thetas=base.group_thetas[:1],
        catalog=base.catalog,
        dispersion_gamma=base.dispersion_gamma,
        payoff_mode=base.payoff_mode,
        accuracy_threshold=base.accuracy_threshold,
        noise_sigma=base.noise_sigma,
        link=base.link,
    )


def canonical_agent_config() -> AgentConfig:
    return AgentConfig(alpha=0.25, beta=0.1, zeta=1.0, k_max=3, f_id="f1")


def timing_world_config(n_cameras: int = 308, n_models: int = 17) -> WorldConfig:
    """Generator settings for the large-fleet timing comparison."""
    return WorldConfig(n_groups=4, n_cameras=n_cameras, dimension=5, gamma=0.5,
                       n_models=n_models, payoff_mode="bernoulli")

