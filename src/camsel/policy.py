"""The online model-selection agent and its baselines.

One round: receive a camera, look up its inferred group, refit the group's
perspective-weight estimate, rank the catalog by UCB score, try models in
order until one pays off (or the cascade budget runs out), absorb all tried
(feature, payoff) pairs, refresh the camera's own estimate, apply the edge
deletion rule, then maybe reconnect the graph.

Randomness is split into keyed streams so paired variants on the same seed
see the same camera arrivals and the same per-(round, model) payoff draws:
the payoff of model m at round t is 1 iff u[t, m] < p(camera_t, m), with u a
pre-drawn uniform table. Stopping earlier or later in the cascade therefore
never desynchronizes variants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (LinkFunctionSpec, cascade_payoff, expected_cascade_payoff,
                   link_callables)
from .environment import PerspectiveSchedule, World
from .errors import ConfigError
from .estimator import GroupStats, confidence_widths, solve_mle_weighted
from .grouping import (CameraGraph, DeletionRule, ReconnectPolicy, delete_edges,
                       reconnect, set_based_groups)

CASCADE_ORDERS = ("ucb-desc", "tier-then-ucb")
# How cameras share statistics: graph components, from-scratch set-based
# components, every camera alone, or all cameras in one pool.
GROUPINGS = ("graph", "set", "singletons", "pooled")

# Sub-stream tags hung off the run seed.
_ARRIVAL_TAG = 1
_PAYOFF_TAG = 2
_AGENT_TAG = 3
_P0_TAG = 4


def derive_p0(seed: int) -> float:
    """Reproducible stand-in for the algorithm's random p0 in (0, 1)."""
    u = float(np.random.default_rng(np.random.SeedSequence([seed, _P0_TAG])).random())
    return min(max(u, 1e-9), 1.0 - 1e-9)


@dataclass(frozen=True)
class AgentConfig:
    alpha: float = 0.25
    beta: float = 0.1
    zeta: float = 1.0
    p0: float | None = None          # None: derived from the run seed
    k_max: int = 3
    link: LinkFunctionSpec = field(default_factory=LinkFunctionSpec)
    f_id: str = "f1"
    reconnect_mode: str = "whole-graph-reset"
    cascade_order: str = "ucb-desc"
    grouping: str = "graph"
    no_combining: bool = False
    regret_oracle_k: int | None = None   # None: compare against the top-k_max set

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta <= 0 or self.zeta <= 0:
            raise ConfigError("beta and zeta must be positive")
        if self.p0 is not None and not (0.0 < self.p0 < 1.0):
            raise ConfigError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.k_max < 1:
            raise ConfigError("k_max must be at least 1")
        if self.cascade_order not in CASCADE_ORDERS:
            raise ConfigError(f"unknown cascade order {self.cascade_order!r}")
        if self.grouping not in GROUPINGS:
            raise ConfigError(f"unknown grouping {self.grouping!r}; expected one of {GROUPINGS}")
        # Constructed early so invalid ids/modes fail at config time.
        DeletionRule(self.beta, self.f_id)
        ReconnectPolicy(0.5 if self.p0 is None else self.p0, self.reconnect_mode)


@dataclass(frozen=True)
class RoundRecord:
    t: int
    camera: int
    inferred_group: int
    true_group: int
    tried_models: tuple
    payoffs: tuple
    aggregate_payoff: int
    expected_payoff: float
    oracle_expected_payoff: float
    instantaneous_regret: float
    component_count: int
    bandwidth_spent: float
    edges_deleted: int
    graph_reset: bool


@dataclass(frozen=True)
class _Fit:
    """A memoised estimate: whose feedback it fits, the statistics of that
    feedback (``stats.count`` observations), and whether Newton converged."""
    members: np.ndarray
    stats: GroupStats
    theta: np.ndarray
    converged: bool


def catalog_scores(mu, feats: np.ndarray, theta: np.ndarray, gs: GroupStats,
                   alpha: float) -> np.ndarray:
    """Optimistic score mu(x.theta) + alpha * sqrt(x^T M^{-1} x) per catalog row."""
    return mu(feats @ theta) + alpha * confidence_widths(feats, gs)


def plan_cascade(scores: np.ndarray, tier_ranks: np.ndarray, k_max: int, order: str,
                 rng=None, random_after_first: bool = False) -> np.ndarray:
    """Ranked model ids this round commits to trying, best first.

    ``ucb-desc`` sorts by score with (edge tier, lower id) tie-breaks;
    ``tier-then-ucb`` puts all edge models ahead of cloud ones. With
    ``random_after_first`` only the leader keeps its rank and the remaining
    slots are drawn uniformly without replacement.
    """
    n_models = scores.shape[0]
    ids = np.arange(n_models)
    if order == "ucb-desc":
        ranked = np.lexsort((ids, tier_ranks, -scores))
    elif order == "tier-then-ucb":
        ranked = np.lexsort((ids, -scores, tier_ranks))
    else:
        raise ConfigError(f"unknown cascade order {order!r}")
    k = min(k_max, n_models)
    if random_after_first and k > 1:
        if rng is None:
            raise ValueError("random_after_first needs an rng")
        first = ranked[0]
        rest = ids[ids != first]
        tail = rng.choice(rest, size=k - 1, replace=False)
        return np.concatenate(([first], tail))
    return ranked[:k]


def execute_cascade(intended, payoff_source):
    """Try the committed models in order, stopping at the first payoff of 1."""
    tried, payoffs = [], []
    for m in intended:
        r = int(payoff_source(int(m)))
        tried.append(int(m))
        payoffs.append(r)
        if r == 1:
            break
    return tried, payoffs


class _Episode:
    """What a seed fixes before any decision is made: camera arrivals, the
    payoff uniforms, each camera's true group as the schedule moves it, and
    each group's oracle cascade payoff. The agent and the greedy baseline
    build the same episode, so paired variants face the same world."""

    def __init__(self, world: World, horizon: int, seed: int, oracle_k: int,
                 schedule: PerspectiveSchedule | None):
        n, m = world.n_cameras, world.n_models
        self.world = world
        self.arrival = np.random.default_rng(
            np.random.SeedSequence([seed, _ARRIVAL_TAG])).integers(0, n, size=horizon)
        self.payoff_u = np.random.default_rng(
            np.random.SeedSequence([seed, _PAYOFF_TAG])).random((horizon, m))
        self.assignment = world.camera_groups.copy()
        self._bandwidth_costs = world.bandwidth_costs.tolist()
        self.group_probs = np.stack(
            [world.group_success_probs(g) for g in range(world.n_groups)])
        ids = np.arange(m)
        self.oracle_expected = np.array([
            expected_cascade_payoff(p[np.lexsort((ids, -p))[:min(oracle_k, m)]])
            for p in self.group_probs])
        if schedule is not None:
            schedule.validate_against(world)
        self.events = schedule.events if schedule is not None else ()
        self.events_applied = 0     # the assignment changes only when this grows

    def _advance_schedule(self, t: int):
        while self.events_applied < len(self.events) and self.events[self.events_applied][0] <= t:
            _, cam, grp = self.events[self.events_applied]
            self.assignment[cam] = grp
            self.events_applied += 1

    def _record(self, t, camera, label, tried, payoffs, expected, component_count,
                edges_deleted=0, graph_reset=False) -> RoundRecord:
        true_group = int(self.assignment[camera])
        oracle_expected = float(self.oracle_expected[true_group])
        return RoundRecord(
            t=t,
            camera=camera,
            inferred_group=label,
            true_group=true_group,
            tried_models=tuple(tried),
            payoffs=tuple(payoffs),
            aggregate_payoff=cascade_payoff(payoffs),
            expected_payoff=expected,
            oracle_expected_payoff=oracle_expected,
            instantaneous_regret=oracle_expected - expected,
            component_count=component_count,
            bandwidth_spent=float(sum([self._bandwidth_costs[m] for m in tried])),
            edges_deleted=edges_deleted,
            graph_reset=graph_reset,
        )


class Agent(_Episode):
    """Stateful executor of the selection loop over one world and one seed."""

    def __init__(self, config: AgentConfig, world: World, horizon: int, seed: int,
                 schedule: PerspectiveSchedule | None = None):
        if config.k_max > world.n_models:
            raise ConfigError(
                f"k_max={config.k_max} exceeds the catalog size {world.n_models}")
        if config.p0 is None:
            config = replace(config, p0=derive_p0(seed))
        super().__init__(world, horizon, seed, config.regret_oracle_k or config.k_max,
                         schedule)
        self.cfg = config
        self.horizon = horizon
        self.seed = seed
        n, m, d = world.n_cameras, world.n_models, world.dimension
        self.features = world.features
        self._features_t = world.features.T
        self.tier_ranks = (world.tiers == "cloud").astype(int)
        self.rule = DeletionRule(config.beta, config.f_id)
        self.reconnect_policy = ReconnectPolicy(config.p0, config.reconnect_mode)
        self.zeta = config.zeta
        self._eye = config.zeta * np.eye(d)
        self._mu = link_callables(config.link)[0]
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, _AGENT_TAG]))

        # Learner state, all indexed by camera: per-model tries and successes
        # are the whole sufficient statistic; ``counts`` keeps their row sums.
        self.obs_counts = np.zeros((n, m))
        self.obs_success = np.zeros((n, m))
        self.counts = np.zeros(n)
        self.camera_theta = np.zeros((n, d))
        self._theta0 = np.zeros(d)
        self._fits = {}
        self.nonconverged_solves = 0
        self._ids = np.arange(n)
        # one member array per camera, passed to every fit of that camera
        # alone, so a memo hit on it is an identity test
        self._single = [np.array([c]) for c in range(n)]
        self.graph = CameraGraph.complete(n) if config.grouping == "graph" else None
        self._use_partition(
            np.zeros(n, dtype=int) if config.grouping == "pooled" else np.arange(n))
        self._regroup()

        self.time_selection = 0.0
        self.time_grouping = 0.0
        self.time_estimation = 0.0
        self.time_bookkeeping = 0.0

    def inferred_labels(self) -> np.ndarray:
        """This round's partition labels, each block labeled by its smallest member id."""
        return self.labels

    def _regroup(self):
        """Recompute the partition of the graph and set groupings from the
        current graph and camera estimates; the other two never change."""
        if self.cfg.grouping == "set":
            labels = set_based_groups(self.camera_theta, self.counts, self.rule)
        elif self.cfg.grouping == "graph":
            labels = self.graph.component_labels()    # the same array until the graph changes
        else:
            return
        if labels is not self.labels:
            self._use_partition(labels)

    def _use_partition(self, labels: np.ndarray):
        """Adopt a new partition: count its components, drop the member arrays."""
        self.labels = labels
        self._members = {}
        # each block is labeled by its smallest member, which labels itself
        self.component_count = int(np.count_nonzero(labels == self._ids))

    def _members_for(self, camera: int):
        """(inferred label, member ids, component count) for the current round.
        A label's member array is built once per partition."""
        labels = self.labels
        label = int(labels[camera])
        members = self._members.get(label)
        if members is None:
            members = np.flatnonzero(labels == label)
            if members.size == 1:
                members = self._single[label]
            self._members[label] = members
        return label, members, self.component_count

    def _fit(self, label: int, members: np.ndarray):
        """(theta, group stats) of the members' pooled feedback.

        The memo keeps the last fit made under each label. Counts only grow,
        so the same members with the same total count hold the same data and
        a converged fit of it is reused; otherwise the solve warm-starts from
        the label's last theta. That theta is always a converged one (or the
        cold start): a fit that stops short of tolerance is not used, for its
        own round or as a warm start, and the label keeps its last theta.
        """
        single = members.size == 1
        count = int(self.counts[members[0]] if single else self.counts[members].sum())
        last = self._fits.get(label)
        if (last is not None and last.converged and last.stats.count == count
                and (last.members is members or np.array_equal(last.members, members))):
            return last.theta, last.stats
        if single:      # the camera's own rows, read in place
            cg, sg = self.obs_counts[members[0]], self.obs_success[members[0]]
        else:
            cg = self.obs_counts[members].sum(axis=0)
            sg = self.obs_success[members].sum(axis=0)
        feats_t = self._features_t
        gs = GroupStats(gramian_reg=self._eye + (feats_t * cg).dot(self.features),
                        response=feats_t.dot(sg), count=count, zeta=self.zeta)
        start = self._theta0 if last is None else last.theta
        est = solve_mle_weighted(gs, self.cfg.link, self.features, cg, sg, theta0=start)
        theta = est.theta_hat if est.converged else start
        self.nonconverged_solves += not est.converged
        self._fits[label] = _Fit(members, gs, theta, est.converged)
        return theta, gs

    def step(self, t: int) -> RoundRecord:
        """One round. Its clock readings are chained, so the four timer
        buckets together cover the whole round."""
        if t < 1:
            raise ValueError(f"round index must be >= 1, got {t}")
        clock = time.perf_counter
        t0 = clock()
        cfg = self.cfg
        camera = int(self.arrival[t - 1])
        self._advance_schedule(t)

        t1 = clock()
        self.time_bookkeeping += t1 - t0
        label, members, component_count = self._members_for(camera)

        t2 = clock()
        self.time_grouping += t2 - t1
        theta, gs = self._fit(label, members)

        t3 = clock()
        self.time_estimation += t3 - t2
        scores = catalog_scores(self._mu, self.features, theta, gs, cfg.alpha)
        intended = plan_cascade(scores, self.tier_ranks, cfg.k_max, cfg.cascade_order,
                                rng=self.rng, random_after_first=cfg.no_combining)
        u_row = self.payoff_u[t - 1]
        p_row = self.group_probs[self.assignment[camera]]
        tried, payoffs = execute_cascade(intended, lambda m: int(u_row[m] < p_row[m]))

        t4 = clock()
        self.time_selection += t4 - t3
        # at most k_max distinct tries, absorbed one scalar at a time
        tries, wins = self.obs_counts[camera], self.obs_success[camera]
        for m, r in zip(tried, payoffs):
            tries[m] += 1
            wins[m] += r
        self.counts[camera] += len(tried)

        edges_deleted = 0
        graph_reset = False
        t5 = clock()
        self.time_bookkeeping += t5 - t4
        if cfg.grouping in ("graph", "set"):
            self.camera_theta[camera] = self._fit(camera, self._single[camera])[0]
            t6 = clock()
            self.time_estimation += t6 - t5
            if cfg.grouping == "graph":
                before = self.graph.edge_count()
                delete_edges(self.graph, camera, self.camera_theta, self.counts, self.rule)
                after_delete = self.graph.edge_count()
                edges_deleted = before - after_delete
                reconnect(self.graph, self.reconnect_policy, t, self.rng)
                graph_reset = self.graph.edge_count() > after_delete
            self._regroup()
            t5 = clock()
            self.time_grouping += t5 - t6

        record = self._record(t, camera, label, tried, payoffs,
                              expected_cascade_payoff(p_row[intended]), component_count,
                              edges_deleted, graph_reset)
        self.time_bookkeeping += clock() - t5
        return record

    def run(self) -> list[RoundRecord]:
        return [self.step(t) for t in range(1, self.horizon + 1)]


def run_agent(config: AgentConfig, world: World, horizon: int, seed: int,
              schedule: PerspectiveSchedule | None = None) -> list[RoundRecord]:
    """Run one agent for ``horizon`` sequential rounds; horizon 0 is an empty trace."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return Agent(config, world, horizon, seed, schedule).run()


def baseline_greedy(world: World, profile_rounds: int, horizon: int, seed: int,
                    oracle_k: int = 3,
                    schedule: PerspectiveSchedule | None = None) -> list[RoundRecord]:
    """Profile-then-commit baseline.

    Phase 1 cycles through every model on the sampled cameras for
    ``profile_rounds`` rounds; phase 2 plays the single model with the best
    pooled empirical mean for all remaining rounds and all cameras.
    """
    if profile_rounds < 1:
        raise ConfigError(f"profile_rounds must be at least 1, got {profile_rounds}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    m = world.n_models
    ep = _Episode(world, horizon, seed, oracle_k, schedule)
    ids = np.arange(m)
    tries = np.zeros(m)
    wins = np.zeros(m)
    committed = None
    records = []
    for t in range(1, horizon + 1):
        ep._advance_schedule(t)
        camera = int(ep.arrival[t - 1])
        if t <= profile_rounds:
            model = (t - 1) % m
        else:
            if committed is None:
                means = wins / np.maximum(tries, 1.0)
                committed = int(np.lexsort((ids, -means))[0])
            model = committed
        p_row = ep.group_probs[ep.assignment[camera]]
        r = int(ep.payoff_u[t - 1, model] < p_row[model])
        tries[model] += 1
        wins[model] += r
        records.append(ep._record(t, camera, 0, [model], [r], float(p_row[model]), 1))
    return records
