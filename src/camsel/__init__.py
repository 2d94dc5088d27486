"""camsel: online visual-model selection over camera fleets, simulated.

A GLM bandit picks inference models per camera with UCB exploration, pools
feedback across cameras grouped by a dynamic graph over their estimated
perspective weights, and escalates through a cascade of models until the task
threshold is met. The harness reproduces regret curves, grouping acceleration,
and the ablation families on synthetic worlds.
"""

from .core import (LinkConstants, LinkFunctionSpec, cascade_payoff,
                   expected_cascade_payoff, link_constants, link_eval)
from .environment import (PerspectiveSchedule, VisualModel, World, WorldConfig,
                          generate_world, load_world, oracle_best_set, save_world)
from .errors import ConfigError, GenerationError, NumericError, ScheduleError
from .estimator import Estimate, GroupStats, solve_mle_weighted
from .grouping import (CameraGraph, DeletionRule, ReconnectPolicy, delete_edges,
                       deletion_threshold, reconnect, set_based_groups)
from .harness import (ExperimentConfig, acceleration_ratio, checkpoints, read_trace,
                      rounds_to_threshold, run_experiment, run_pair, tradeoff_score,
                      write_trace)
from .policy import Agent, AgentConfig, RoundRecord, baseline_greedy, run_agent
from .theory import (TheoryParams, lambda_tilde, regret_bound, theoretical_alpha,
                     theoretical_beta, theory_report, warmup_bound)

__version__ = "0.1.0"
