"""Worlds, payoffs, and the ground-truth oracle.

A world is a set of cameras partitioned into groups, one perspective-weight
vector per group, and a catalog of candidate models with feature vectors.
The chance that a model satisfies the task for a camera is a monotone link
of the feature/weight inner product. A run draws its camera arrivals
uniformly and each tried model's payoff with its success probability under
the camera's group; its round records show both.
"""

import numpy as np

from camsel import WorldConfig, generate_world, oracle_best_set, run_agent
from camsel.presets import canonical_agent_config, canonical_world

# --- a generated world: everything is drawn from (config, seed) -------------
config = WorldConfig(n_groups=2, n_cameras=8, dimension=5, gamma=0.5, n_models=12)
world = generate_world(config, seed=3)
print(f"generated world: {world.n_cameras} cameras, {world.n_groups} groups, "
      f"{world.n_models} models, payoff mode {world.payoff_mode}")
print("group weight separation:",
      round(float(np.linalg.norm(world.group_thetas[0] - world.group_thetas[1])), 3),
      "(dispersion constant is", world.dispersion_gamma, ")")

# --- the canonical reference world -------------------------------------------
canon = canonical_world()
print("\ncanonical world success probabilities (group A):")
print(" ", np.array2string(canon.success_probs(0), precision=3))
print("canonical world success probabilities (group B):")
print(" ", np.array2string(canon.success_probs(7), precision=3))

# each group prefers a different triple of models
print("\nbest 3 models per group (ties to the lower id):")
print("  group A camera:", oracle_best_set(canon, 0, 3))
print("  group B camera:", oracle_best_set(canon, 7, 3))

# --- what a run draws: arrivals and payoffs, read from its round records -----
records = run_agent(canonical_agent_config(), canon, horizon=2000, seed=0)
print("\nthe first ten camera arrivals:", [r.camera for r in records[:10]])
print("arrivals per camera over 2000 rounds:",
      np.bincount([r.camera for r in records], minlength=canon.n_cameras).tolist())

best = oracle_best_set(canon, 0, 1)[0]
draws = [p for r in records if r.true_group == canon.camera_groups[0]
         for m, p in zip(r.tried_models, r.payoffs) if m == best]
print(f"empirical payoff rate of model {best} on group A's cameras:",
      round(float(np.mean(draws)), 3), f"over {len(draws)} tries",
      " (true", round(float(canon.success_probs(0)[best]), 3), ")")
