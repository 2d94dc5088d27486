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

import functools
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import LinkFunctionSpec, expected_cascade_payoff, link_callables
from .environment import PerspectiveSchedule, World
from .errors import ConfigError, typed
from .estimator import GroupStats, confidence_widths, outer_products, solve_mle_weighted
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
    cascade_order: str = "ucb-desc"
    grouping: str = "graph"
    no_combining: bool = False

    def __post_init__(self):
        typed("k_max", self.k_max)
        typed("no_combining", self.no_combining, bool, "a bool")
        for name in ("alpha", "beta", "zeta"):
            typed(name, getattr(self, name), numbers.Real, "a real number")
        typed("p0", self.p0, (numbers.Real, type(None)), "a real number or null")
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
        # Constructed early so an invalid deletion function fails at config time.
        DeletionRule(self.beta, self.f_id)


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


@dataclass(slots=True)
class _Block:
    """Everything the agent keeps about one partition block (or one camera
    alone): its members, their pooled tries and successes per model with
    their sum ``count``, and the block's last converged fit
    ``(theta, gs, means)``, made when the count was ``gs.count``. Every
    tries/wins entry is an integer-valued float, so adding a round's tries
    gives the same bits as re-summing the members' rows."""
    members: np.ndarray
    tries: np.ndarray
    wins: np.ndarray
    count: int = 0
    fit: tuple | None = None


def catalog_scores(mu, feats: np.ndarray, theta: np.ndarray, gs: GroupStats,
                   alpha: float) -> np.ndarray:
    """Optimistic score mu(x.theta) + alpha * sqrt(x^T M^{-1} x) per catalog row."""
    return mu(feats.dot(theta)) + alpha * confidence_widths(feats, gs)


@functools.cache
def _arange(n: int) -> np.ndarray:
    """0..n-1, shared read-only."""
    ids = np.arange(n)
    ids.flags.writeable = False
    return ids


def plan_cascade(scores: np.ndarray, tier_ranks: np.ndarray, k_max: int, order: str,
                 rng=None, random_after_first: bool = False) -> np.ndarray:
    """Ranked model ids this round commits to trying, best first.

    ``ucb-desc`` sorts by score with (edge tier, lower id) tie-breaks;
    ``tier-then-ucb`` puts all edge models ahead of cloud ones. With
    ``random_after_first`` only the leader keeps its rank and the remaining
    slots are drawn uniformly without replacement.
    """
    n_models = scores.shape[0]
    ids = _arange(n_models)
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
        m = int(m)
        r = int(payoff_source(m))
        tried.append(m)
        payoffs.append(r)
        if r == 1:
            break
    return tried, payoffs


class _Episode:
    """What a seed fixes before any decision is made: camera arrivals, the
    payoff uniforms, each camera's true group as the schedule moves it, and
    each group's oracle cascade payoff. The agent and the greedy baseline
    build the same episode, so paired variants face the same world. Each
    round writes one row of the episode's round log: the columns from
    ``inferred_groups`` to ``resets``, with tries and payoffs padded by -1."""

    def __init__(self, world: World, horizon: int, seed: int, oracle_k: int,
                 schedule: PerspectiveSchedule | None):
        n, m = world.n_cameras, world.n_models
        self.world = world
        self.arrival = np.random.default_rng(
            np.random.SeedSequence([seed, _ARRIVAL_TAG])).integers(0, n, size=horizon)
        self.payoff_u = np.random.default_rng(
            np.random.SeedSequence([seed, _PAYOFF_TAG])).random((horizon, m))
        self.assignment = world.camera_groups.copy()
        self.group_probs = np.stack(
            [world.group_success_probs(g) for g in range(world.n_groups)])
        self._probs = self.group_probs.tolist()     # read per try, as Python floats
        ids = np.arange(m)
        width = min(oracle_k, m)
        self.oracle_expected = np.array([
            expected_cascade_payoff(p[np.lexsort((ids, -p))[:width]])
            for p in self.group_probs])
        if schedule is not None:
            schedule.validate_against(world)
        self.events = schedule.events if schedule is not None else ()
        self.events_applied = 0     # the assignment changes only when this grows
        self.inferred_groups = np.zeros(horizon, dtype=int)
        self.true_groups = np.zeros(horizon, dtype=int)
        self.tried = np.full((horizon, width), -1)
        self.payoffs = np.full((horizon, width), -1, dtype=np.int8)
        self.expected = np.zeros(horizon)
        self.components = np.zeros(horizon, dtype=int)
        self.edges_deleted = np.zeros(horizon, dtype=int)
        self.resets = np.zeros(horizon, dtype=bool)

    def _advance_schedule(self, t: int):
        while self.events_applied < len(self.events) and self.events[self.events_applied][0] <= t:
            _, cam, grp = self.events[self.events_applied]
            self.assignment[cam] = grp
            self.events_applied += 1

    @functools.cached_property
    def outcome(self) -> tuple:
        """(oracle payoff, regret, bandwidth) of every round, derived from the
        log once every round has run. Each round's bandwidth adds its tried
        models' costs left to right, as a Python sum over them would."""
        oracle = self.oracle_expected[self.true_groups]
        costs = np.append(self.world.bandwidth_costs, 0.0)[self.tried]   # a pad costs 0.0
        return oracle, oracle - self.expected, functools.reduce(np.add, costs.T)

    def records(self) -> list[RoundRecord]:
        """The round log as records, once every round has run."""
        oracle, regret, bandwidth = self.outcome
        rows = zip(self.arrival.tolist(), self.inferred_groups.tolist(),
                   self.true_groups.tolist(), (self.tried >= 0).sum(axis=1).tolist(),
                   self.tried.tolist(), self.payoffs.tolist(), self.expected.tolist(),
                   oracle.tolist(), regret.tolist(), self.components.tolist(),
                   bandwidth.tolist(), self.edges_deleted.tolist(), self.resets.tolist())
        return [RoundRecord(t, camera, label, group, tuple(tried[:n]), tuple(payoffs[:n]),
                            max(payoffs), *rest)
                for t, (camera, label, group, n, tried, payoffs, *rest) in enumerate(rows, 1)]


class Agent(_Episode):
    """Stateful executor of the selection loop over one world and one seed."""

    def __init__(self, config: AgentConfig, world: World, horizon: int, seed: int,
                 schedule: PerspectiveSchedule | None = None):
        if config.k_max > world.n_models:
            raise ConfigError(
                f"k_max={config.k_max} exceeds the catalog size {world.n_models}")
        if config.p0 is None:
            config = replace(config, p0=derive_p0(seed))
        super().__init__(world, horizon, seed, config.k_max, schedule)
        self.cfg = config
        self.horizon = horizon
        self.seed = seed
        n, m, d = world.n_cameras, world.n_models, world.dimension
        self.features = world.features
        self._features_t = world.features.T
        self._outer = outer_products(world.features)
        self.tier_ranks = (world.tiers == "cloud").astype(int)
        self.rule = DeletionRule(config.beta, config.f_id)
        self.reconnect_policy = ReconnectPolicy(config.p0)
        self.zeta = config.zeta
        self._eye = config.zeta * np.eye(d)
        self._mu = link_callables(config.link)[0]
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, _AGENT_TAG]))

        # Learner state, all indexed by camera: per-model tries and successes
        # are the whole sufficient statistic; ``counts`` keeps their row sums.
        self.obs_counts = np.zeros((n, m))
        self.obs_success = np.zeros((n, m))
        self.counts = np.zeros(n)
        # each camera's own block: views of its rows, with the count as an int
        self._own = [_Block(np.array([c]), self.obs_counts[c], self.obs_success[c])
                     for c in range(n)]
        self.camera_theta = np.zeros((n, d))
        self._theta0 = np.zeros(d)
        self._warm = {}         # label -> last converged theta fitted under it
        self.nonconverged_solves = 0
        self._ids = np.arange(n)
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
            if np.array_equal(labels, self.labels):
                self.labels = labels    # the same blocks: keep them
            else:
                self._use_partition(labels)

    def _use_partition(self, labels: np.ndarray):
        """Adopt a new partition: count its components and drop its blocks."""
        self.labels = labels
        self._blocks = {}
        # each block is labeled by its smallest member, which labels itself
        self.component_count = int(np.count_nonzero(labels == self._ids))

    def _members_for(self, camera: int):
        """(inferred label, block) of the camera for the current round. A
        block is built once per partition; a singleton is its camera's own."""
        labels = self.labels
        label = int(labels[camera])
        block = self._blocks.get(label)
        if block is None:
            members = np.flatnonzero(labels == label)
            if members.size == 1:
                block = self._own[label]
            else:
                block = _Block(members, self.obs_counts[members].sum(axis=0),
                               self.obs_success[members].sum(axis=0),
                               int(self.counts[members].sum()))
            self._blocks[label] = block
        return label, block

    def _fit(self, label: int, block: _Block):
        """(theta, group stats, means) of the block's pooled feedback, where
        ``means`` is mu(F theta) as the solve left it, or None.

        A block's members are fixed and its counts only grow, so while its
        count has not moved its last converged fit stands. Otherwise the
        solve warm-starts from the last converged theta fitted under
        ``label`` (the cold start before the first). A fit that stops short
        of tolerance is not used, for its own round or as a warm start: the
        round takes the warm start instead, with no means.
        """
        fit = block.fit
        if fit is not None and fit[1].count == block.count:
            return fit
        tries = block.tries
        gs = GroupStats(gramian_reg=self._eye + (self._features_t * tries).dot(self.features),
                        count=block.count, zeta=self.zeta)
        start = self._warm.get(label, self._theta0)
        est = solve_mle_weighted(gs, self.cfg.link, self.features, tries, block.wins,
                                 theta0=start, outer=self._outer)
        if not est.converged:
            self.nonconverged_solves += 1
            return start, gs, None
        self._warm[label] = est.theta_hat
        block.fit = (est.theta_hat, gs, est.means)
        return block.fit

    def step(self, t: int):
        """One round, written into row ``t - 1`` of the round log. Its clock
        readings are chained, so the four timer buckets together cover the
        whole round."""
        if t < 1:
            raise ValueError(f"round index must be >= 1, got {t}")
        clock = time.perf_counter
        t0 = clock()
        cfg = self.cfg
        i = t - 1
        camera = int(self.arrival[i])
        self._advance_schedule(t)
        group = self.assignment[camera]
        self.true_groups[i] = group

        t1 = clock()
        self.time_bookkeeping += t1 - t0
        label, block = self._members_for(camera)
        self.inferred_groups[i] = label
        self.components[i] = self.component_count

        t2 = clock()
        self.time_grouping += t2 - t1
        theta, gs, means = self._fit(label, block)

        t3 = clock()
        self.time_estimation += t3 - t2
        if means is None:
            means = self._mu(self.features.dot(theta))
        scores = means + cfg.alpha * confidence_widths(self.features, gs)
        intended = plan_cascade(scores, self.tier_ranks, cfg.k_max, cfg.cascade_order,
                                rng=self.rng, random_after_first=cfg.no_combining).tolist()
        u_row = self.payoff_u[i].tolist()
        p_row = self._probs[group]
        tried, payoffs = execute_cascade(intended, lambda m: u_row[m] < p_row[m])

        t4 = clock()
        self.time_selection += t4 - t3
        # at most k_max distinct tries, absorbed one scalar at a time into the
        # camera's own block and, unless it is alone, its partition block
        own = self._own[camera]
        for b in ((own,) if block is own else (own, block)):
            tries, wins = b.tries, b.wins
            for m, r in zip(tried, payoffs):
                tries[m] += 1
                wins[m] += r
            b.count += len(tried)
        self.counts[camera] += len(tried)

        t5 = clock()
        self.time_bookkeeping += t5 - t4
        if cfg.grouping in ("graph", "set"):
            self.camera_theta[camera] = self._fit(camera, own)[0]
            t6 = clock()
            self.time_estimation += t6 - t5
            if cfg.grouping == "graph":
                before = self.graph.edge_count()
                if before:      # an edgeless graph has nothing to delete
                    delete_edges(self.graph, camera, self.camera_theta, self.counts, self.rule)
                after_delete = self.graph.edge_count()
                self.edges_deleted[i] = before - after_delete
                reconnect(self.graph, self.reconnect_policy, t, self.rng)
                self.resets[i] = self.graph.edge_count() > after_delete
            self._regroup()
            t5 = clock()
            self.time_grouping += t5 - t6

        n = len(tried)
        self.tried[i, :n] = tried
        self.payoffs[i, :n] = payoffs
        self.expected[i] = expected_cascade_payoff([p_row[m] for m in intended])
        self.time_bookkeeping += clock() - t5

    def run(self) -> list[RoundRecord]:
        for t in range(1, self.horizon + 1):
            self.step(t)
        return self.records()


def run_agent(config: AgentConfig, world: World, horizon: int, seed: int,
              schedule: PerspectiveSchedule | None = None) -> list[RoundRecord]:
    """Run one agent for ``horizon`` sequential rounds; horizon 0 is an empty trace."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return Agent(config, world, horizon, seed, schedule).run()


def baseline_greedy(world: World, profile_rounds: int, horizon: int, seed: int,
                    oracle_k: int = 3,
                    schedule: PerspectiveSchedule | None = None) -> _Episode:
    """Profile-then-commit baseline; returns its episode, whose round log
    holds one try per round in a single pooled group.

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
    ep.components.fill(1)
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
        group = ep.assignment[camera]
        p = ep._probs[group][model]
        r = int(ep.payoff_u[t - 1, model] < p)
        tries[model] += 1
        wins[model] += r
        ep.true_groups[t - 1] = group
        ep.tried[t - 1, 0] = model
        ep.payoffs[t - 1, 0] = r
        ep.expected[t - 1] = p
    return ep
