"""The online model-selection agent and its baselines.

One round: receive a camera, look up its inferred group, refit the group's
perspective-weight estimate, rank the catalog by UCB score, try models in
order until one pays off (or the cascade budget runs out), absorb all tried
(feature, payoff) pairs, refresh the camera's own estimate, apply the edge
deletion rule, then maybe reconnect the graph.

Randomness is split into keyed streams so paired variants on the same seed
see the same camera arrivals and the same per-(round, model) payoff draws:
the payoff of model m at round t is 1 iff u[t, m] < p(camera_t, m), with u a
uniform table drawn from the seed. A run settles the true partitions its
seeds share once, and each episode its arrivals, true groups and hits, all
before any decision. Stopping earlier or later in the cascade therefore never
desynchronizes variants.
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
from .estimator import (GroupStats, confidence_widths, confidence_widths_stacked,
                        outer_products, solve_mle_stacked, solve_mle_weighted)
from .grouping import (CameraGraph, DeletionRule, ReconnectPolicy, _min_labels, delete_edges,
                       deletion_threshold, reconnect, set_based_groups)

CASCADE_ORDERS = ("ucb-desc", "tier-then-ucb")
# How cameras share statistics: graph components, from-scratch set-based
# components, every camera alone, or all cameras in one pool.
GROUPINGS = ("graph", "set", "singletons", "pooled")

# Per-pair timer buckets, in seconds. The agent's first four cover each of its
# rounds and the greedy baseline's whole run is ``selection``; ``harness`` is
# the rest of the pair's wall time, set-up and the harness's own work included.
TIMING_BUCKETS = ("selection", "grouping", "estimation", "bookkeeping", "harness")

# Sub-stream tags hung off the run seed.
_ARRIVAL_TAG = 1
_PAYOFF_TAG = 2
_AGENT_TAG = 3
_P0_TAG = 4

# The most rows one lockstep chain step stacks. A wider step runs in parts of
# this many rows, which bounds its temporaries (the stacked fit peaks at about
# 2.1 KB a row); rows never interact, so the parts give the same bits. Each
# part pays a visit's fixed cost (about 150 us) once, so the cap keeps parts
# wide: 160 rows is a 20-seed block of the 8-camera canonical world.
ROW_CAP = 160
# The rounds of payoff uniforms an episode draws and compares at a time, so
# its set-up holds the (T, M) hits and one chunk of floats, never T x M floats.
_HIT_ROWS = 1024


def _int_type(top: int) -> np.dtype:
    """The smallest signed integer type holding -1..``top``."""
    return np.min_scalar_type(-top - 1)


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


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel a partition by each block's smallest member id."""
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


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


def _round_log(world: World, horizon: int, width: int, n_seeds: int = 1) -> dict:
    """Each round-log column of ``n_seeds`` seeds, (S, T, ...): a round's
    camera, true group and (M,) payoff hits, settled before any decision,
    then what it did. Each integer column has the smallest signed type that
    holds it; the ``width`` tries and their payoffs are padded by -1."""
    cams, m = _int_type(world.n_cameras), world.n_models
    columns = (("arrival", (), cams, 0), ("true_groups", (), _int_type(world.n_groups), 0),
               ("hits", (m,), bool, 0), ("inferred_groups", (), cams, 0),
               ("tried", (width,), _int_type(m), -1), ("payoffs", (width,), np.int8, -1),
               ("expected", (), float, 0), ("components", (), cams, 0),
               ("edges_deleted", (), cams, 0), ("resets", (), bool, 0), ("correct", (), bool, 0))
    return {name: np.full((n_seeds, horizon, *shape), pad, dtype=dtype)
            for name, shape, dtype, pad in columns}


def _settle(world: World, horizon: int, oracle_k: int,
            schedule: PerspectiveSchedule | None) -> tuple:
    """What every seed of a run shares: each group's success probabilities
    and oracle payoff, the canonically labelled true partitions ``truths``
    and camera-to-group rows ``groups``, one per run of rounds between
    events, and each round's run ``truth_at``."""
    probs = np.stack([world.group_success_probs(g) for g in range(world.n_groups)])
    ids, width = np.arange(world.n_models), min(oracle_k, world.n_models)
    oracle = np.array([expected_cascade_payoff(p[np.lexsort((ids, -p))[:width]]) for p in probs])
    events = () if schedule is None else schedule.events
    if schedule is not None:
        schedule.validate_against(world)
    # a run starts at round 1 and at each later round an event is due
    starts = sorted({1, *(t for t, _, _ in events if 1 < t <= horizon)})
    assignment, groups, applied = world.camera_groups.astype(_int_type(world.n_groups)), [], 0
    truth_at = np.zeros(horizon, dtype=_int_type(len(starts)))
    for run, (start, stop) in enumerate(zip(starts, starts[1:] + [horizon + 1])):
        # the events due by ``start``, in order, so the last writer wins
        while applied < len(events) and events[applied][0] <= start:
            _, cam, grp = events[applied]
            assignment[cam] = grp
            applied += 1
        truth_at[start - 1:stop - 1] = run
        groups.append(assignment.copy())
    groups = np.stack(groups)
    return probs, oracle, np.stack([canonical_labels(g) for g in groups]), truth_at, groups


class _Episode:
    """One seed's run: its ``row`` of a round log, each column an attribute,
    and the ``facts`` of :func:`_settle`, the same objects for every seed.
    It draws its arrivals and gathers its true groups and (T, M) payoff
    hits u < p(true group) into its row before any decision, so paired
    variants face the same world. The loop writes the rest of the row and
    adds to ``timing``, all but ``harness``, and to ``nonconverged_solves``.
    Alone, an episode settles its own facts and takes a one-row log."""

    def __init__(self, world: World, horizon: int, seed: int, oracle_k: int,
                 schedule: PerspectiveSchedule | None, facts: tuple | None = None,
                 row: dict | None = None):
        facts = facts or _settle(world, horizon, oracle_k, schedule)
        row = row or {name: column[0] for name, column in
                      _round_log(world, horizon, min(oracle_k, world.n_models)).items()}
        vars(self).update(row)
        self.world = world
        self.group_probs, self.oracle_expected, self.truths, self.truth_at, groups = facts
        # drawn as int64 and then narrowed: the draws depend on the requested dtype
        self.arrival[:] = np.random.default_rng(np.random.SeedSequence([seed, _ARRIVAL_TAG])
                                                ).integers(0, world.n_cameras, size=horizon)
        self.true_groups[:] = groups[self.truth_at, self.arrival]
        # the uniforms are drawn and compared in row chunks, the same numbers as one draw
        uniforms = np.random.default_rng(np.random.SeedSequence([seed, _PAYOFF_TAG]))
        for lo in range(0, horizon, _HIT_ROWS):
            chunk, rows = self.hits[lo:lo + _HIT_ROWS], self.true_groups[lo:lo + _HIT_ROWS]
            np.less(uniforms.random(chunk.shape), self.group_probs[rows], out=chunk)
        self.timing = dict.fromkeys(TIMING_BUCKETS, 0.0)
        self.nonconverged_solves = 0

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
        self._ids = np.arange(n)
        self.graph = CameraGraph.complete(n) if config.grouping == "graph" else None
        self._use_partition(
            np.zeros(n, dtype=int) if config.grouping == "pooled" else np.arange(n))
        self._regroup()
        self._probs = self.group_probs.tolist()     # read per round, as Python floats
        # the last (partition, truths row) compared, and whether they matched
        self._compared, self._compared_run, self._match = None, None, False

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
        timing = self.timing
        i = t - 1
        camera = int(self.arrival[i])

        t1 = clock()
        timing["bookkeeping"] += t1 - t0
        label, block = self._members_for(camera)
        self.inferred_groups[i] = label
        self.components[i] = self.component_count

        t2 = clock()
        timing["grouping"] += t2 - t1
        theta, gs, means = self._fit(label, block)

        t3 = clock()
        timing["estimation"] += t3 - t2
        if means is None:
            means = self._mu(self.features.dot(theta))
        scores = means + cfg.alpha * confidence_widths(self.features, gs)
        intended = plan_cascade(scores, self.tier_ranks, cfg.k_max, cfg.cascade_order,
                                rng=self.rng, random_after_first=cfg.no_combining).tolist()
        tried, payoffs = execute_cascade(intended, self.hits[i].tolist().__getitem__)

        t4 = clock()
        timing["selection"] += t4 - t3
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
        timing["bookkeeping"] += t5 - t4
        if cfg.grouping in ("graph", "set"):
            self.camera_theta[camera] = self._fit(camera, own)[0]
            t6 = clock()
            timing["estimation"] += t6 - t5
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
            timing["grouping"] += t5 - t6

        n = len(tried)
        self.tried[i, :n] = tried
        self.payoffs[i, :n] = payoffs
        p_row = self._probs[self.true_groups[i]]
        self.expected[i] = expected_cascade_payoff([p_row[m] for m in intended])
        # both partitions name each block by its smallest member; a new partition is
        # a new array, so the comparison is redone only when it or the truth changed
        labels, run = self.inferred_labels(), self.truth_at[i]
        if labels is not self._compared or run != self._compared_run:
            self._compared, self._compared_run = labels, run
            self._match = np.array_equal(labels, self.truths[run])
        self.correct[i] = self._match
        timing["bookkeeping"] += clock() - t5

    def run(self) -> Agent:
        for t in range(1, len(self.arrival) + 1):
            self.step(t)
        return self


def lockstep_ready(config: AgentConfig) -> bool:
    """Whether :func:`run_lockstep` runs this agent: any grouping but ``set``,
    and no rng draws in the cascade."""
    return config.grouping != "set" and not config.no_combining


class _Lockstep:
    """A lockstep run of a block of S seeds: its one round ``log``, whose
    rows are the seeds' episodes, the facts they share, settled once, the
    learner state of every (seat, block) cell, and the one visit step every
    loop takes. A block is the seat's one pool under ``pooled`` and a camera
    otherwise, so a cell is one flat row: its tries, wins and warm start
    and, kept only under ``graph``, its count, refitted estimate and the
    memo of its last converged refit (its means and the count it was made
    at, -1 for none). A graph block fits under its label, the smallest
    member's cell. A call works on rows ``visits`` = (seats, rounds), where
    rounds is one round for every row or one per row. A visit's whole
    ranking goes into the log's tried column, padded by :meth:`finish`; no
    other per-round array is kept, and unconverged fits count per seat."""

    def __init__(self, config: AgentConfig, world: World, horizon: int, seeds, schedule):
        n_seeds, n, m, d = len(seeds), world.n_cameras, world.n_models, world.dimension
        self.cfg, self.seeds, self.k = config, seeds, min(config.k_max, m)
        facts = _settle(world, horizon, config.k_max, schedule)
        self.group_probs, _, self.truths, self.truth_at, _ = facts
        self.log = _round_log(world, horizon, self.k, n_seeds)
        self.episodes = [_Episode(world, horizon, seed, config.k_max, schedule, facts,
                                  {name: column[seat] for name, column in self.log.items()})
                         for seat, seed in enumerate(seeds)]
        self.feats, self.feats_t = world.features, world.features.T
        self.outer, self.eye = outer_products(world.features), config.zeta * np.eye(d)
        self.mu = link_callables(config.link)[0]
        # a visit's sort keys; lexsort is stable, so the last tie-break, the
        # lower id, needs no key. A step ranks up to one row per seed and camera
        tiers = np.broadcast_to((world.tiers == "cloud").astype(int), (n_seeds * n, m))
        self.keys = ((lambda scores: (tiers[:len(scores)], -scores))
                     if config.cascade_order == "ucb-desc"
                     else (lambda scores: (-scores, tiers[:len(scores)])))
        self.seats, self.picks = np.arange(n_seeds), np.arange(self.k)
        self.partition, self.n_blocks = ((np.zeros(n, dtype=int), 1)
                                         if config.grouping == "pooled" else (np.arange(n), n))
        cells = n_seeds * self.n_blocks
        self.tries, self.wins, self.warm = (np.zeros((cells, k)) for k in (m, m, d))
        self.flat_tries, self.flat_wins, self.n_models = self.tries.ravel(), self.wins.ravel(), m
        kept = cells if config.grouping == "graph" else 0
        self.memo_means, self.estimates = np.zeros((kept, m)), np.zeros((kept, d))
        self.counts, self.fitted_at = np.zeros(kept), np.full(kept, -1.0)
        self.unconverged = np.zeros(n_seeds, dtype=int)    # unconverged fits per seat
        self.timing = dict.fromkeys(TIMING_BUCKETS, 0.0)

    def fit(self, visits, tries, wins, start):
        """(theta, means, converged) of one stacked fit of ``visits``.
        A row short of tolerance takes its warm start and mu of it and counts
        as unconverged, as in ``Agent._fit``."""
        est = solve_mle_stacked(self.feats, tries, wins, self.cfg.zeta, self.cfg.link, start,
                                outer=self.outer)
        theta, means, ok = est.theta_hat, est.means, est.converged
        if not ok.all():
            missed = ~ok
            self.unconverged += np.bincount(visits[0][missed], minlength=len(self.seats))
            theta[missed] = start[missed]
            means[missed] = self.mu(np.matmul(self.feats, start[missed][:, :, None])[..., 0])
        return theta, means, ok

    def rank(self, visits, means, tries):
        """(ranked, paid, tries made) of the cascades of ``visits``, scored
        under the stacked Gramians of the fitted blocks' ``tries``."""
        gramians = self.eye + np.matmul(self.feats_t * tries[:, None, :], self.feats)
        scores = means + self.cfg.alpha * confidence_widths_stacked(self.feats, gramians)
        ranked = np.lexsort(self.keys(scores), axis=-1)[:, :self.k]
        seats, at = visits
        paid = self.log["hits"][seats[:, None], at if np.ndim(at) == 0 else at[:, None], ranked]
        n_tried = np.where(paid.any(axis=1), paid.argmax(axis=1) + 1, self.k)
        self.log["tried"][visits] = ranked
        return ranked, paid, n_tried

    def absorb(self, own, ranked, paid, n_tried):
        """Add each row's tries made to the tries and wins of its cell ``own``."""
        taken = self.picks < n_tried[:, None]
        cells = (own[:, None] * self.n_models + ranked)[taken]
        self.flat_tries[cells] += 1.0
        self.flat_wins[cells] += paid[taken]

    def visit(self, visits, own, tries, wins, block, stale):
        """One visit of each row, from cell ``own``, whose block has ``tries``
        and ``wins`` and keeps its warm start in cell ``block``: fit the block
        where it is ``stale`` or ``own``'s memo missed, rank, absorb into
        ``own`` and, under ``graph``, refit ``own`` and memoize a converged
        refit. No cell repeats in one call."""
        clock, timing, graph = time.perf_counter, self.timing, self.cfg.grouping == "graph"
        t0 = clock()
        # only graph refits, so no other grouping has a memo to hit
        miss = stale | (self.fitted_at[own] != self.counts[own]) if graph else None
        if miss is None or miss.all():
            self.warm[block], means, _ = self.fit(visits, tries, wins, self.warm[block])
        else:
            means, miss = self.memo_means[own], np.flatnonzero(miss)
            if miss.size:
                at = block[miss]
                self.warm[at], means[miss], _ = self.fit(
                    tuple(a[miss] if np.ndim(a) else a for a in visits), tries[miss],
                    wins[miss], self.warm[at])

        t1 = clock()
        timing["estimation"] += t1 - t0
        ranked, paid, n_tried = self.rank(visits, means, tries)

        t2 = clock()
        timing["selection"] += t2 - t1
        self.absorb(own, ranked, paid, n_tried)

        t3 = clock()
        timing["bookkeeping"] += t3 - t2
        if graph:
            self.counts[own] += n_tried
            theta, means, ok = self.fit(visits, self.tries[own], self.wins[own], self.warm[own])
            self.warm[own] = self.estimates[own] = theta
            own = own[ok]
            self.fitted_at[own], self.memo_means[own] = self.counts[own], means[ok]
            timing["estimation"] += clock() - t3

    def chains(self, i: int, stop: int):
        """Rounds ``i`` to ``stop - 1`` under ``partition``, which holds
        throughout: each (seat, block) cell's chain of visits reads and writes
        only its own cell, so step k runs the k-th visit of every chain
        longer than k, longest chains first. With one block per seat, step k
        is round ``i + k`` for every seat, passed as one scalar round. A
        step's gathers count as grouping."""
        width, log = stop - i, self.log
        t1 = time.perf_counter()
        blocks = log["inferred_groups"][:, i:stop]
        blocks[:] = self.partition[log["arrival"][:, i:stop]]
        log["components"][:, i:stop] = self.n_blocks
        log["correct"][:, i:stop] = (self.partition == self.truths[self.truth_at[i:stop]]).all(
            axis=1)
        if self.n_blocks == 1:
            self.timing["grouping"] += time.perf_counter() - t1
            for at in range(i, stop):
                self.step(self.seats, self.seats, at)
            return
        # each cell's chain: the rounds of its visits, in order, from ``heads`` on in ``rounds``
        cells = (self.seats[:, None] * self.n_blocks + blocks).ravel().astype(np.int32)
        lengths, rounds = np.bincount(cells), np.argsort(cells, kind="stable")
        del cells       # the steps keep only the S x T rounds, as int32
        rounds %= width
        rounds += i
        rounds = rounds.astype(np.int32)
        chains = np.argsort(-lengths, kind="stable")    # cells, longest chain first
        heads, seats = (np.cumsum(lengths) - lengths)[chains], chains // self.n_blocks
        alive = np.count_nonzero(lengths > np.arange(lengths.max(initial=0))[:, None], axis=1)
        self.timing["grouping"] += time.perf_counter() - t1
        for k, n_alive in enumerate(alive.tolist()):
            self.step(seats[:n_alive], chains[:n_alive], rounds[heads[:n_alive] + k])

    def step(self, seats, cells, at):
        """One chain step: each of ``cells`` visits round ``at`` (one per
        row, or one for all) of its seat, in parts of at most ``ROW_CAP``
        rows. The gathers of its cells' tries and wins count as grouping."""
        clock, timing = time.perf_counter, self.timing
        for lo in range(0, len(cells), ROW_CAP):
            t1 = clock()
            v = cells[lo:lo + ROW_CAP]
            visits = (seats[lo:lo + ROW_CAP], at if np.ndim(at) == 0 else at[lo:lo + ROW_CAP])
            tries, wins = self.tries[v], self.wins[v]
            timing["grouping"] += clock() - t1
            self.visit(visits, v, tries, wins, v, False)

    def finish(self) -> list[_Episode]:
        """Every episode's expected payoffs, payoffs and padding, one
        episode's row at a time, so the temporaries scale with T, not S x T:
        a visit's tries made are its ranking up to its first hit, as in
        :meth:`rank`. Then each episode's solver count, and its timers, the
        loop's divided by S."""
        start, n_seeds = time.perf_counter(), len(self.episodes)
        for ep in self.episodes:
            tried, expected, payoffs = ep.tried, ep.expected, ep.payoffs
            # expected_cascade_payoff's left fold, one column at a time
            expected.fill(1.0)
            for column in tried.T:
                expected *= 1.0 - self.group_probs[ep.true_groups, column]
            np.subtract(1.0, expected, out=expected)
            payoffs[:] = paid = np.take_along_axis(ep.hits, tried, axis=-1)
            # as in rank, the tries made stop at the first hit: a later pick is skipped
            skipped = np.zeros_like(paid)
            np.logical_or.accumulate(paid[:, :-1], axis=-1, out=skipped[:, 1:])
            payoffs[skipped] = tried[skipped] = -1
        self.timing["bookkeeping"] += time.perf_counter() - start
        for ep, missed in zip(self.episodes, self.unconverged.tolist()):
            ep.nonconverged_solves = missed
            ep.timing = {key: value / n_seeds for key, value in self.timing.items()}
        return self.episodes


def run_lockstep(config: AgentConfig, world: World, horizon: int, seeds,
                 schedule: PerspectiveSchedule | None = None) -> list[_Episode]:
    """Run a ``graph``, ``singletons`` or ``pooled`` agent for every seed in
    one lockstep loop; returns each seed's episode, a row of the block's one
    round log, equal to its :class:`Agent`'s bit for bit. The facts the seeds
    share, and so the schedule's events, are settled once for the block.
    Every visit is one :meth:`_Lockstep.visit` over (rows, ...) arrays: the
    visiting cells' block tries, wins and warm start, a stacked fit, widths,
    ranking and cascade, and under ``graph`` the camera refits. ``pooled``
    and ``singletons`` never change their partition, so the whole horizon
    runs as one set of chains: step k takes the k-th visit of every (seed,
    block) chain, which is round k under ``pooled``. Under ``graph`` the
    rounds run one at a time, with every seed's edge deletions and
    reconnections, until every seed's graph is edgeless; the rounds up to
    the next reset then run as chains of (seed, camera) visits."""
    if not lockstep_ready(config) or config.k_max > world.n_models:
        raise ConfigError(f"no lockstep run of {config} over {world.n_models} models")
    ls = _Lockstep(config, world, horizon, seeds, schedule)
    if config.grouping == "graph":
        _graph_rounds(ls, world, horizon)
    else:
        ls.chains(0, horizon)
    return ls.finish()


def _graph_rounds(ls: _Lockstep, world: World, horizon: int):
    """The rounds of graph grouping. Per seed: the adjacency and its edge
    count and the labels, beside ``ls``'s cells. A block's tries are the
    masked sum of its members' rows (integer-valued floats, so exact in any
    order). The fit memo is kept per camera: a multi-camera block's count
    grows each time it is fitted, so only a camera alone, unchanged since its
    last converged refit, reuses a fit. Each seed's reconnect uniforms, one
    per round, are drawn up front from its agent stream.

    A round that starts with every seed's graph edgeless begins a stretch,
    which lasts until the next round at which some seed's graph resets. In a
    stretch every camera is its own block, so it runs as :meth:`_Lockstep.chains`.
    The reset round goes back to the round loop."""
    clock, timing, seats, cfg, log = time.perf_counter, ls.timing, ls.seats, ls.cfg, ls.log
    n, n_seeds = world.n_cameras, len(seats)
    rule, ids = DeletionRule(cfg.beta, cfg.f_id), np.arange(n)
    rounds_sq = np.arange(1, horizon + 1, dtype=float) ** 2
    # one seed at a time, so only one seed's T uniforms are ever held
    resetting = np.empty((n_seeds, horizon), dtype=bool)
    for row, seed in zip(resetting, ls.seeds):
        p0 = derive_p0(seed) if cfg.p0 is None else cfg.p0
        np.less(np.random.default_rng(np.random.SeedSequence([seed, _AGENT_TAG])).random(horizon),
                np.minimum(1.0, p0 / rounds_sq), out=row)
    full = n * (n - 1) // 2
    complete = ~np.eye(n, dtype=bool)
    adj, edges = np.tile(complete, (n_seeds, 1, 1)), np.full(n_seeds, full)
    labels = np.tile(_min_labels(complete), (n_seeds, 1))
    comps = np.count_nonzero(labels == ids, axis=1)
    # the first round from each on at which some seed's edgeless graph resets
    fires = np.where(resetting.any(axis=0) & (full > 0), np.arange(horizon), horizon)
    next_reset = np.minimum.accumulate(fires[::-1])[::-1]
    # ls's cells, seen per seed
    tries, wins = ls.tries.reshape(n_seeds, n, -1), ls.wins.reshape(n_seeds, n, -1)
    counts, estimates = ls.counts.reshape(n_seeds, n), ls.estimates.reshape(n_seeds, n, -1)
    i = 0
    while i < horizon:
        if not edges.any() and next_reset[i] > i:
            ls.chains(i, next_reset[i])
            i = next_reset[i]
            continue
        t1 = clock()
        cam = log["arrival"][:, i]
        label = labels[seats, cam]
        members = labels == label[:, None]
        log["inferred_groups"][:, i], log["components"][:, i] = label, comps
        block = members[:, None, :].astype(float)
        block_tries, block_wins = np.matmul(block, tries)[:, 0], np.matmul(block, wins)[:, 0]
        stale = np.count_nonzero(members, axis=1) > 1
        timing["grouping"] += clock() - t1
        ls.visit((seats, i), seats * n + cam, block_tries, block_wins, seats * n + label, stale)

        t2 = clock()
        live = np.flatnonzero(edges)        # an edgeless graph has nothing to delete
        changed = np.zeros(n_seeds, dtype=bool)
        if live.size:
            at = cam[live]
            nbrs, own = adj[live, at], estimates[live, at]
            dist = np.linalg.norm(estimates[live] - own[:, None, :], axis=-1)
            drop = nbrs & (dist > deletion_threshold(rule, counts[live], counts[live, at][:, None]))
            gone = np.count_nonzero(drop, axis=1)
            adj[live, at] = nbrs & ~drop
            adj[live, :, at] &= ~drop
            edges[live] -= gone
            log["edges_deleted"][live, i] = gone
            changed[live] |= gone > 0
        reset = resetting[:, i] & (edges < full)
        if reset.any():
            adj[reset], edges[reset] = complete, full
            log["resets"][:, i] = reset
        for seat in np.flatnonzero(changed | reset):
            labels[seat] = _min_labels(adj[seat])
            comps[seat] = np.count_nonzero(labels[seat] == ids)

        t3 = clock()
        timing["grouping"] += t3 - t2
        log["correct"][:, i] = (labels == ls.truths[ls.truth_at[i]]).all(axis=1)
        timing["bookkeeping"] += clock() - t3
        i += 1


def run_agent(config: AgentConfig, world: World, horizon: int, seed: int,
              schedule: PerspectiveSchedule | None = None) -> list[RoundRecord]:
    """Run one agent for ``horizon`` sequential rounds; horizon 0 is an empty trace."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return Agent(config, world, horizon, seed, schedule).run().records()


def baseline_greedy(world: World, profile_rounds: int, horizon: int, seed: int,
                    oracle_k: int = 3,
                    schedule: PerspectiveSchedule | None = None) -> _Episode:
    """Profile-then-commit baseline; returns its episode, whose round log
    holds one try per round in one pooled group, all timed as ``selection``.

    Phase 1 cycles through every model on the sampled cameras for
    ``profile_rounds`` rounds; phase 2 plays the single model with the best
    pooled empirical mean for all remaining rounds and all cameras.
    """
    if profile_rounds < 1:
        raise ConfigError(f"profile_rounds must be at least 1, got {profile_rounds}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    start = time.perf_counter()
    m = world.n_models
    ep = _Episode(world, horizon, seed, oracle_k, schedule)
    rounds = np.arange(horizon)
    models = rounds % m
    if horizon > profile_rounds:
        # commit to the best profiled mean, ties to the lower id
        profiled = models[:profile_rounds]
        wins = np.bincount(profiled, ep.hits[rounds[:profile_rounds], profiled], minlength=m)
        means = wins / np.maximum(np.bincount(profiled, minlength=m), 1.0)
        models[profile_rounds:] = np.lexsort((np.arange(m), -means))[0]
    ep.components.fill(1)
    ep.tried[:, 0], ep.payoffs[:, 0] = models, ep.hits[rounds, models]
    ep.expected[:] = ep.group_probs[ep.true_groups, models]
    ep.timing["selection"] = time.perf_counter() - start
    return ep
