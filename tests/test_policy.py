import re
from dataclasses import replace

import numpy as np
import pytest

from camsel.core import LinkFunctionSpec, expected_cascade_payoff, link_callables
from camsel.environment import (PerspectiveSchedule, VisualModel, World, WorldConfig,
                                generate_world, oracle_best_set)
from camsel.errors import ConfigError
from camsel.estimator import GroupStats, aggregate_group
from camsel.harness import canonical_labels
from camsel.policy import (_ARRIVAL_TAG, _PAYOFF_TAG, GROUPINGS, Agent, AgentConfig, _Episode,
                           _int_type, baseline_greedy, catalog_scores, derive_p0,
                           execute_cascade, plan_cascade, run_agent)


def _tiny_world(mus, tiers=None, link="identity"):
    """Catalog with prescribed per-model means under a single camera."""
    tiers = tiers or ["edge"] * len(mus)
    models = [VisualModel(id=i, features=np.array([m, 0.0]), tier=t,
                          bandwidth_cost=0.1, latency_cost=0.1)
              for i, (m, t) in enumerate(zip(mus, tiers))]
    return World(dimension=2, camera_groups=np.array([0]),
                 group_thetas=np.array([[1.0, 0.0]]), catalog=models,
                 dispersion_gamma=0.5, link=LinkFunctionSpec(link))


def test_plan_cascade_orders():
    scores = np.array([0.2, 0.9, 0.5, 0.9])
    tiers = np.array([1, 1, 0, 0])  # 2, 3 are edge
    # ucb-desc: score desc, edge first on ties, then lower id
    assert plan_cascade(scores, tiers, 4, "ucb-desc").tolist() == [3, 1, 2, 0]
    # tier-then-ucb: all edge before cloud, score desc within tier
    assert plan_cascade(scores, tiers, 4, "tier-then-ucb").tolist() == [3, 2, 1, 0]
    assert plan_cascade(scores, tiers, 2, "ucb-desc").tolist() == [3, 1]


def test_plan_cascade_random_tail(rng):
    scores = np.array([0.1, 0.9, 0.5, 0.3])
    tiers = np.zeros(4, dtype=int)
    seen_tails = set()
    for _ in range(40):
        order = plan_cascade(scores, tiers, 3, "ucb-then-random", rng=rng)
        assert order[0] == 1
        assert len(set(order.tolist())) == 3
        seen_tails.add(tuple(order.tolist()[1:]))
    assert len(seen_tails) > 1


def test_execute_cascade_stops_at_first_success():
    tried, payoffs = execute_cascade([4, 2, 7], {4: 0, 2: 1, 7: 1}.__getitem__)
    assert tried == [4, 2]
    assert payoffs == [0, 1]
    tried, payoffs = execute_cascade([4, 2], lambda m: 0)
    assert tried == [4, 2]
    assert payoffs == [0, 0]


def _plan_and_run(world, k_max, payoff_source):
    """Score a tiny world's catalog at the true theta with alpha = 0, then
    plan and run the cascade the way Agent.step does."""
    gs = aggregate_group([], zeta=1.0, dim=2)
    mu = link_callables(world.link)[0]
    scores = catalog_scores(mu, world.features, np.array([1.0, 0.0]), gs, 0.0)
    tiers = (world.tiers == "cloud").astype(int)
    return execute_cascade(plan_cascade(scores, tiers, k_max, "ucb-desc"), payoff_source)


def test_scored_cascade_first_success_and_exhaustion():
    world = _tiny_world([0.9, 0.5, 0.2])
    tried, payoffs = _plan_and_run(world, 3, lambda m: 1)
    assert tried == [0] and payoffs == [1]
    tried, payoffs = _plan_and_run(world, 2, lambda m: 0)
    assert tried == [0, 1] and payoffs == [0, 0]


def test_scored_cascade_tie_break_edge_first():
    world = _tiny_world([0.5, 0.5], tiers=["cloud", "edge"])
    tried, _ = _plan_and_run(world, 1, lambda m: 1)
    assert tried == [1]


def test_cold_start_tries_largest_norm_first(agent_config):
    # theta_hat = 0 at t = 1, so scores collapse to mu(0) + (alpha/sqrt(zeta)) * ||x||
    w = _tiny_world([0.3, 0.8, 0.5], link="sigmoid")
    agent = Agent(agent_config, w, horizon=1, seed=0)
    agent.step(1)
    rec = agent.records()[0]
    norms = np.linalg.norm(w.features, axis=1)
    assert rec.tried_models[0] == int(np.argmax(norms))
    assert rec.inferred_group == 0
    assert rec.component_count == 1


def test_cold_start_spans_all_cameras(world, agent_config):
    agent = Agent(agent_config, world, horizon=1, seed=0)
    assert agent.graph.find_group(0)[1].tolist() == list(range(8))
    agent.step(1)
    rec = agent.records()[0]
    # the round was selected while the complete graph held one component
    assert rec.component_count == 1 and rec.inferred_group == 0


def test_oracle_informed_zero_regret(world, agent_config, monkeypatch):
    cfg = AgentConfig(alpha=0.0, beta=0.1, k_max=3)
    agent = Agent(cfg, world, horizon=300, seed=3)

    def informed(label, block):
        theta = world.group_thetas[world.camera_groups[agent.arrival[agent._t - 1]]]
        return theta, GroupStats(np.eye(5), 0, 1.0), None

    original_step = agent.step

    def step_with_truth(t):
        agent._t = t
        return original_step(t)

    monkeypatch.setattr(agent, "_fit", informed)
    monkeypatch.setattr(agent, "step", step_with_truth)
    for t in range(1, 301):
        agent.step(t)
    for rec in agent.records():
        assert rec.instantaneous_regret == pytest.approx(0.0, abs=1e-12)
        assert rec.tried_models[0] == oracle_best_set(world, rec.camera, 1)[0]


def test_fit_memo_skips_repeats_but_never_reuses_unconverged(world, agent_config,
                                                             monkeypatch):
    import camsel.policy as policy

    real = policy.solve_mle_weighted
    calls = []

    def counted(*args, converged=True, **kwargs):
        calls.append(1)
        return replace(real(*args, **kwargs), converged=converged)

    monkeypatch.setattr(policy, "solve_mle_weighted", counted)
    agent = Agent(agent_config, world, 200, seed=0)
    agent.run()
    assert len(calls) < 400 and agent.nonconverged_solves == 0

    # graph grouping makes a group fit and a camera refit each round
    calls.clear()
    monkeypatch.setattr(policy, "solve_mle_weighted",
                        lambda *args, **kwargs: counted(*args, converged=False, **kwargs))
    agent = Agent(agent_config, world, 200, seed=0)
    agent.run()
    assert len(calls) == 400 and agent.nonconverged_solves == 400


def test_nonconverged_fit_falls_back_to_last_converged_theta(world, agent_config,
                                                             monkeypatch):
    import camsel.policy as policy

    real = policy.solve_mle_weighted
    starts = []          # the warm start of every solve, in call order
    failing = 41         # this solve reports non-convergence with a wild theta

    def flaky(*args, theta0, **kwargs):
        starts.append(np.array(theta0))
        est = real(*args, theta0=theta0, **kwargs)
        if len(starts) == failing:
            return replace(est, theta_hat=est.theta_hat + 5.0, converged=False)
        return est

    monkeypatch.setattr(policy, "solve_mle_weighted", flaky)
    agent = Agent(agent_config, world, 200, seed=0)
    # (label, the label's last converged theta before the call, returned
    # theta and means, its solve or None)
    fits = []
    fit = agent._fit

    def recorded(label, block):
        before, solves = agent._warm.get(label), len(starts)
        theta, gs, means = fit(label, block)
        fits.append((label, before, theta, means, solves if len(starts) > solves else None))
        return theta, gs, means

    monkeypatch.setattr(agent, "_fit", recorded)
    agent.run()
    assert agent.nonconverged_solves == 1

    i = next(k for k, f in enumerate(fits) if f[4] == failing - 1)
    label, before, theta, means, _ = fits[i]
    assert before is not None
    # the failed fit's round uses the label's last converged theta, without
    # the failed solve's means ...
    assert np.array_equal(theta, before) and means is None
    # ... and the label's next fit solves again, warm-started from it
    later = next(f for f in fits[i + 1:] if f[0] == label)
    assert later[4] is not None
    assert np.array_equal(starts[later[4]], before)


def test_determinism_identical_traces(world, agent_config):
    a = run_agent(agent_config, world, 400, seed=5)
    b = run_agent(agent_config, world, 400, seed=5)
    assert a == b
    c = run_agent(agent_config, world, 400, seed=6)
    assert a != c


def test_cascade_prefix_property(world, agent_config):
    for rec in run_agent(agent_config, world, 500, seed=1):
        assert len(rec.tried_models) <= agent_config.k_max
        if 1 in rec.payoffs:
            assert rec.payoffs.index(1) == len(rec.payoffs) - 1
        assert rec.aggregate_payoff == (1 if 1 in rec.payoffs else 0)


def test_counts_bookkeeping(world, agent_config):
    agent = Agent(agent_config, world, 600, seed=2)
    records = agent.run().records()
    assert agent.counts.sum() == sum(len(r.tried_models) for r in records)
    per_camera = np.zeros(world.n_cameras, dtype=int)
    for r in records:
        per_camera[r.camera] += len(r.tried_models)
    assert np.array_equal(per_camera, agent.counts)


def test_regret_nonnegative_and_bandwidth(world, agent_config):
    for rec in run_agent(agent_config, world, 400, seed=7):
        assert rec.instantaneous_regret >= -1e-12
        expected_bw = world.bandwidth_costs[list(rec.tried_models)].sum()
        assert rec.bandwidth_spent == pytest.approx(float(expected_bw))
        assert rec.oracle_expected_payoff >= rec.expected_payoff - 1e-12


def test_horizon_zero_empty_trace(world, agent_config):
    assert run_agent(agent_config, world, 0, seed=0) == []


def test_no_grouping_equals_default_on_single_camera():
    w = generate_world(WorldConfig(n_groups=1, n_cameras=1, dimension=3, gamma=0.3,
                                   n_models=6), seed=4)
    base = AgentConfig()
    default_trace = run_agent(base, w, 300, seed=9)
    solo_trace = run_agent(AgentConfig(grouping="singletons"), w, 300, seed=9)
    for a, b in zip(default_trace, solo_trace):
        assert a.tried_models == b.tried_models
        assert a.payoffs == b.payoffs
        assert a.expected_payoff == b.expected_payoff


def test_ablation_flags_change_grouping_fields(world):
    rec = run_agent(AgentConfig(grouping="singletons"), world, 50, seed=0)[-1]
    assert rec.component_count == world.n_cameras
    assert rec.edges_deleted == 0 and not rec.graph_reset
    rec = run_agent(AgentConfig(grouping="pooled"), world, 50, seed=0)[-1]
    assert rec.component_count == 1 and rec.inferred_group == 0
    with pytest.raises(ConfigError):
        AgentConfig(grouping="clusters")


def test_no_combining_randomizes_tail(world):
    records = run_agent(AgentConfig(cascade_order="ucb-then-random"), world, 400, seed=1)
    default = run_agent(AgentConfig(), world, 400, seed=1)
    # same camera stream, same first picks driven by the same scores
    assert all(a.camera == b.camera for a, b in zip(records, default))
    lengths = {len(r.tried_models) for r in records}
    assert max(lengths) > 1  # the random tail is exercised


def test_set_based_mode_runs(world):
    records = run_agent(AgentConfig(grouping="set"), world, 200, seed=0)
    assert len(records) == 200
    assert all(r.edges_deleted == 0 for r in records)


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_inferred_labels_are_canonical_after_every_step(world, grouping):
    agent = Agent(AgentConfig(grouping=grouping), world, 150, seed=4)
    for t in range(1, 151):
        agent.step(t)
        labels = agent.inferred_labels()
        assert np.array_equal(labels, canonical_labels(labels)), (grouping, t)


def test_schedule_changes_true_group(world, agent_config):
    schedule = PerspectiveSchedule(((50, 0, 1),))
    records = run_agent(agent_config, world, 200, seed=11, schedule=schedule)
    before = [r for r in records if r.camera == 0 and r.t < 50]
    after = [r for r in records if r.camera == 0 and r.t >= 50]
    assert all(r.true_group == 0 for r in before)
    assert all(r.true_group == 1 for r in after)


def test_k_max_validation(world):
    with pytest.raises(ConfigError):
        Agent(AgentConfig(k_max=21), world, 10, seed=0)


def test_p0_derivation_deterministic():
    assert derive_p0(3) == derive_p0(3)
    assert 0.0 < derive_p0(3) < 1.0
    assert derive_p0(3) != derive_p0(4)


def test_agent_config_validation():
    with pytest.raises(ConfigError):
        AgentConfig(p0=1.5)
    with pytest.raises(ConfigError):
        AgentConfig(cascade_order="score-desc")
    with pytest.raises(ConfigError):
        AgentConfig(f_id="f9")
    with pytest.raises(ConfigError):
        AgentConfig(zeta=0.0)


def test_greedy_profile_then_commit():
    # one dominant model: after profiling, greedy must play it everywhere
    w = _tiny_world([0.99, 0.3, 0.2, 0.1])
    records = baseline_greedy(w, profile_rounds=80, horizon=300, seed=0).records()
    profile = records[:80]
    committed = records[80:]
    assert [r.tried_models[0] for r in profile[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert all(r.tried_models == (0,) for r in committed)
    # long-run per-round regret small once committed (oracle is top-3 cascade)
    oracle = records[-1].oracle_expected_payoff
    assert oracle - 0.99 < 0.02


def test_greedy_heterogeneous_regret_floor(world):
    # two groups prefer different models: a single committed model leaves a
    # payoff gap bounded below by the weaker group's loss times its share
    records = baseline_greedy(world, profile_rounds=400, horizon=4000, seed=1).records()
    tail = records[2000:]
    per_round = np.mean([r.instantaneous_regret for r in tail])
    p_a = world.group_success_probs(0)
    p_b = world.group_success_probs(1)
    best_shared = max(min(p_a[m], p_b[m]) for m in range(world.n_models))
    oracle_single = [max(p) for p in (p_a, p_b)]
    floor = 0.5 * min(o - best_shared for o in oracle_single)
    assert per_round >= floor - 1e-9


def test_greedy_never_leaves_profiling_when_profile_exceeds_horizon(world):
    records = baseline_greedy(world, profile_rounds=500, horizon=60, seed=0).records()
    assert len(records) == 60
    assert [r.tried_models[0] for r in records] == [(t - 1) % 20 for t in range(1, 61)]


def _greedy_reference(world, profile_rounds, horizon, seed, events=()):
    """The per-round profile-then-commit loop: it applies the schedule and
    draws each payoff from the seed's uniform table one round at a time.
    Returns each round's (model, payoff, expected payoff bits, true group)."""
    m, assignment, pending = world.n_models, world.camera_groups.copy(), list(events)
    arrival = np.random.default_rng(np.random.SeedSequence([seed, _ARRIVAL_TAG])).integers(
        0, world.n_cameras, size=horizon)
    u = np.random.default_rng(np.random.SeedSequence([seed, _PAYOFF_TAG])).random((horizon, m))
    probs = [world.group_success_probs(g).tolist() for g in range(world.n_groups)]
    ids, tries, wins, committed, rounds = np.arange(m), np.zeros(m), np.zeros(m), None, []
    for t in range(1, horizon + 1):
        while pending and pending[0][0] <= t:
            _, cam, grp = pending.pop(0)
            assignment[cam] = grp
        if t <= profile_rounds:
            model = (t - 1) % m
        else:
            if committed is None:
                means = wins / np.maximum(tries, 1.0)
                committed = int(np.lexsort((ids, -means))[0])
            model = committed
        group = int(assignment[arrival[t - 1]])
        p = probs[group][model]
        r = int(u[t - 1, model] < p)
        tries[model] += 1
        wins[model] += r
        rounds.append((model, r, p.hex(), group))
    return rounds


@pytest.mark.parametrize("case", ["shorter", "equal", "longer", "one-model", "schedule", "empty"])
def test_greedy_equals_the_per_round_loop(world, case):
    # the greedy episode is array operations over the settled hits; the
    # per-round loop it replaced gives the same round log bit for bit
    events = ((30, 0, 1), (150, 5, 0), (150, 6, 0), (400, 1, 1)) if case == "schedule" else ()
    if case == "one-model":
        world = generate_world(WorldConfig(n_models=1), 3)
    profile, horizon = {"shorter": (80, 50), "equal": (80, 80), "empty": (80, 0)}.get(
        case, (80, 300))
    ep = baseline_greedy(world, profile, horizon, seed=2, oracle_k=3,
                         schedule=PerspectiveSchedule(events) if events else None)
    got = [(int(model), int(r), float(p).hex(), int(g)) for model, r, p, g in zip(
        ep.tried[:, 0], ep.payoffs[:, 0], ep.expected, ep.true_groups)]
    assert got == _greedy_reference(world, profile, horizon, 2, events)
    assert (ep.tried[:, 1:] == -1).all() and (ep.payoffs[:, 1:] == -1).all()
    assert ep.tried.shape == (horizon, min(3, world.n_models))
    assert (ep.components == 1).all() and not ep.correct.any()


def test_greedy_validates_profile_rounds(world):
    with pytest.raises(ConfigError):
        baseline_greedy(world, profile_rounds=0, horizon=10, seed=0)


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_cached_members_and_count_match_the_partition(world, grouping):
    from camsel.grouping import _min_labels

    agent = Agent(AgentConfig(grouping=grouping), world, 150, seed=4)
    for t in range(1, 151):
        agent.step(t)
        labels = agent.inferred_labels()
        if grouping == "graph":
            assert np.array_equal(labels, _min_labels(agent.graph.adj)), t
        assert agent.component_count == np.unique(labels).size
        for camera in range(world.n_cameras):
            label, block = agent._members_for(camera)
            assert label == labels[camera]
            assert np.array_equal(block.members, np.flatnonzero(labels == label))
            assert agent._blocks[label] is block


def _assert_totals_match_rows(agent, where):
    """Every block's totals equal its members' summed rows, a singleton's
    block is its camera's own, and each camera's own block holds its rows."""
    for label, block in agent._blocks.items():
        members = block.members
        assert np.array_equal(members, np.flatnonzero(agent.labels == label)), where
        assert np.array_equal(block.tries, agent.obs_counts[members].sum(axis=0)), where
        assert np.array_equal(block.wins, agent.obs_success[members].sum(axis=0)), where
        assert block.count == int(agent.counts[members].sum()), where
        assert type(block.count) is int, where
        if members.size == 1:
            assert block is agent._own[label], where
    for camera, own in enumerate(agent._own):
        assert own.members.tolist() == [camera], where
        assert np.shares_memory(own.tries, agent.obs_counts[camera]), where
        assert np.shares_memory(own.wins, agent.obs_success[camera]), where
        assert own.count == agent.counts[camera], where
        assert type(own.count) is int, where


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("p0", [None, 1.0 - 1e-9])
def test_block_totals_match_the_members_rows(world, grouping, p0):
    # schedule events move two cameras; p0 near 1 resets the graph at t = 1
    schedule = PerspectiveSchedule(((40, 0, 1), (90, 5, 0)))
    agent = Agent(AgentConfig(grouping=grouping, p0=p0), world, 200, seed=4,
                  schedule=schedule)
    for t in range(1, 201):
        agent.step(t)
        _assert_totals_match_rows(agent, (grouping, t))
        if t == 1 and grouping == "graph" and p0 is not None:
            assert agent.resets[0]
    # both moves show: the truth changes at rounds 40 and 90
    moved = world.camera_groups.copy()
    moved[[0, 5]] = 1, 0
    assert agent.truth_at[[38, 39, 88, 89]].tolist() == [0, 1, 1, 2]
    assert np.array_equal(agent.truths[2], canonical_labels(moved))


@pytest.mark.parametrize("grouping", ["graph", "set"])
def test_unchanged_partition_keeps_members_and_totals(world, grouping):
    # p0 near 1: early resets restore a graph that is still complete
    agent = Agent(AgentConfig(grouping=grouping, p0=1.0 - 1e-9), world, 300, seed=4)
    kept = 0
    for t in range(1, 301):
        labels, blocks = agent.labels, dict(agent._blocks)
        agent.step(t)
        if agent.labels is not labels and np.array_equal(agent.labels, labels):
            kept += 1
            for label, block in blocks.items():
                assert agent._blocks[label] is block, (t, label)
        _assert_totals_match_rows(agent, t)
    assert kept > 0
    # a recomputed partition with the same labels keeps every cached block
    for camera in range(world.n_cameras):
        agent._members_for(camera)
    blocks = dict(agent._blocks)
    if grouping == "graph":
        agent.graph._invalidate()
    agent._regroup()
    recomputed = agent.graph.component_labels() if grouping == "graph" else agent.labels
    assert agent.labels is recomputed
    assert agent._blocks.keys() == blocks.keys()
    assert all(agent._blocks[label] is blocks[label] for label in blocks)


def test_round_scores_are_the_catalog_scores_of_its_fit(world, agent_config, monkeypatch):
    """The means a solve returns stand in for mu(F theta) bit for bit, and
    only when the round's theta is that solve's converged estimate."""
    import camsel.policy as policy

    real_solve, real_plan = policy.solve_mle_weighted, policy.plan_cascade
    solves, events = [], []

    def flaky(*args, **kwargs):
        est = real_solve(*args, **kwargs)
        solves.append(est)
        if len(solves) % 7 == 0:
            return replace(est, theta_hat=est.theta_hat + 5.0, converged=False)
        return est

    def plan(scores, *args, **kwargs):
        events.append(("plan", scores))
        return real_plan(scores, *args, **kwargs)

    monkeypatch.setattr(policy, "solve_mle_weighted", flaky)
    monkeypatch.setattr(policy, "plan_cascade", plan)
    agent = Agent(agent_config, world, 200, seed=0)
    fit = agent._fit

    def recorded(label, block):
        theta, gs, means = fit(label, block)
        events.append(("fit", theta, gs))
        return theta, gs, means

    monkeypatch.setattr(agent, "_fit", recorded)
    agent.run()
    assert agent.nonconverged_solves > 0 and len(solves) < 400
    planned = 0
    for before, event in zip(events, events[1:]):
        if event[0] == "plan":
            _, theta, gs = before
            assert np.array_equal(
                event[1], catalog_scores(agent._mu, world.features, theta, gs, agent.cfg.alpha))
            planned += 1
    assert planned == 200


def test_singleton_fit_is_never_solved_again_on_unchanged_data(monkeypatch):
    """A camera alone in its block and the camera's own refit share one
    block, so the converged fit of its unchanged feedback is reused: no
    solve ever repeats a camera's own rows at a count already solved."""
    import camsel.policy as policy
    from camsel.presets import canonical_agent_config, canonical_world

    real = policy.solve_mle_weighted
    agent = Agent(replace(canonical_agent_config(), grouping="set"), canonical_world(),
                  300, seed=0)
    solved, repeats = set(), []

    def recorded(gs, link, feats, counts, *args, **kwargs):
        est = real(gs, link, feats, counts, *args, **kwargs)
        # a fit of one camera's feedback reads that camera's own rows
        own = [c for c, row in enumerate(agent.obs_counts) if np.shares_memory(counts, row)]
        if own:
            key = (own[0], gs.count)     # a camera's count fixes its data
            if key in solved:
                repeats.append(key)
            if est.converged:
                solved.add(key)
        return est

    monkeypatch.setattr(policy, "solve_mle_weighted", recorded)
    agent.run()
    assert len(solved) > 100 and agent.nonconverged_solves == 0
    assert repeats == []


_LOG_COLUMNS = ("arrival", "inferred_groups", "true_groups", "tried", "payoffs", "expected",
                "components", "edges_deleted", "resets", "correct")


def _assert_same_episodes(lockstep, agents):
    assert len(lockstep) == len(agents)
    for ours, theirs in zip(lockstep, agents):
        for name in _LOG_COLUMNS:
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert ours.nonconverged_solves == theirs.nonconverged_solves
        assert ours.records() == theirs.records()


@pytest.mark.parametrize("grouping", ["pooled", "singletons", "graph", "set"])
@pytest.mark.parametrize("order", ["ucb-desc", "tier-then-ucb"])
def test_lockstep_episodes_equal_agents(world, agent_config, grouping, order):
    import camsel.policy as policy

    cfg = replace(agent_config, grouping=grouping, cascade_order=order)
    schedule = PerspectiveSchedule(((50, 0, 1), (120, 5, 0), (120, 0, 0)))
    seeds = (4, 0, 9, 2, 7)
    _assert_same_episodes(policy.run_lockstep(cfg, world, 200, seeds, schedule),
                          [Agent(cfg, world, 200, seed, schedule).run() for seed in seeds])


def test_lockstep_runs_every_grouping_under_every_cascade_order(world, agent_config):
    """The random cascade tail runs in lockstep under every grouping, k = 1
    (no tail drawn) and k = M included, and equals the per-seed agents'."""
    import camsel.policy as policy

    schedule, seeds = PerspectiveSchedule(((50, 0, 1), (120, 5, 0))), (4, 0, 9)
    for grouping in ("graph", "set", "pooled", "singletons"):
        for k_max in (1, 3, world.n_models):
            cfg = replace(agent_config, grouping=grouping, cascade_order="ucb-then-random",
                          k_max=k_max)
            _assert_same_episodes(policy.run_lockstep(cfg, world, 150, seeds, schedule),
                                  [Agent(cfg, world, 150, seed, schedule).run() for seed in seeds])


@pytest.mark.parametrize("grouping", ["pooled", "singletons"])
def test_lockstep_forced_nonconvergence_matches_agent(world, agent_config, monkeypatch,
                                                      grouping):
    """No world makes a fit stop short of tolerance, so chosen (seed, round)
    fits are made to report it, in the stacked solve and in the per-seed one:
    each such round ranks by its warm start, which stays as it was. Every
    visit is fitted once; under ``singletons`` seed 0's first visits of three
    cameras (rounds 1, 2 and 10) share the first chain step."""
    import camsel.policy as policy

    seeds, horizon = (0, 1, 2, 3), 60
    forced = {(0, 1), (0, 2), (1, 30), (1, 31), (2, 59), (3, 60)} | {(s, 10) for s in seeds}
    cfg = replace(agent_config, grouping=grouping)
    real_stacked, real_fit = policy.solve_mle_stacked, policy._Lockstep.fit
    real_weighted = policy.solve_mle_weighted
    fitted, stop = [], []

    def fit(self, visits, *args):
        keys = [(seeds[seat], i + 1)
                for seat, i in zip(*(a.tolist() for a in np.broadcast_arrays(*visits)))]
        fitted.append(keys)
        stop[:] = [key in forced for key in keys]
        return real_fit(self, visits, *args)

    def stacked(*args, **kwargs):
        est = real_stacked(*args, **kwargs)
        return replace(est, converged=est.converged & ~np.array(stop))

    monkeypatch.setattr(policy._Lockstep, "fit", fit)
    monkeypatch.setattr(policy, "solve_mle_stacked", stacked)
    episodes = policy.run_lockstep(cfg, world, horizon, seeds)
    assert sorted(key for keys in fitted for key in keys) == sorted(
        (seed, t) for seed in seeds for t in range(1, horizon + 1))
    shared = max(sum(seed == 0 and (seed, t) in forced for seed, t in keys) for keys in fitted)
    assert shared == (3 if grouping == "singletons" else 1)
    agents = []
    for seed in seeds:
        calls = []

        def weighted(*args, seed=seed, calls=calls, **kwargs):
            calls.append(None)      # one fit per round: no block's count stands still
            est = real_weighted(*args, **kwargs)
            return replace(est, converged=False) if (seed, len(calls)) in forced else est

        monkeypatch.setattr(policy, "solve_mle_weighted", weighted)
        agents.append(Agent(cfg, world, horizon, seed).run())
        assert len(calls) == horizon
    assert [a.nonconverged_solves for a in agents] == [3, 3, 2, 2]
    _assert_same_episodes(episodes, agents)


def _forced_lockstep(monkeypatch, cfg, world, horizon, seeds, forced):
    """(episodes, made) of a lockstep run whose chosen (seed, round, kind)
    fits report non-convergence. Each fit and ranking names its rows' (seat,
    round) visits; a visit's block fit comes before its ranking, and covers
    only the visits whose block needs a solve, its camera refit after. Each
    forced fit made is listed as (key, fit call, whether in a stretch)."""
    import camsel.policy as policy

    state, made = {"ranked": False, "calls": 0}, []
    real_stacked, real_fit, real_rank = (policy.solve_mle_stacked, policy._Lockstep.fit,
                                         policy._Lockstep.rank)

    def rank(self, visits, *args):
        state["ranked"] = True
        return real_rank(self, visits, *args)

    def fit(self, visits, *args):
        kind = "camera" if state["ranked"] else "block"
        rows = zip(*(a.tolist() for a in np.broadcast_arrays(*visits)))
        keys = [(seeds[seat], i + 1, kind) for seat, i in rows]
        state["ranked"], state["stop"] = False, [key in forced for key in keys]
        state["calls"] += 1
        stretch = np.ndim(visits[1]) > 0
        made.extend((key, state["calls"], stretch) for key in keys if key in forced)
        return real_fit(self, visits, *args)

    def stacked(*args, **kwargs):
        est = real_stacked(*args, **kwargs)
        return replace(est, converged=est.converged & ~np.array(state["stop"]))

    monkeypatch.setattr(policy._Lockstep, "rank", rank)
    monkeypatch.setattr(policy._Lockstep, "fit", fit)
    monkeypatch.setattr(policy, "solve_mle_stacked", stacked)
    episodes = policy.run_lockstep(cfg, world, horizon, seeds)
    monkeypatch.undo()
    return episodes, made


def _forced_agents(monkeypatch, cfg, world, horizon, seeds, forced):
    """(agents, made) of per-seed agents whose chosen (seed, round, kind) fits
    report non-convergence: an agent's first fit in a round is its block's
    (maybe a memo hit), the second its camera's."""
    import camsel.policy as policy

    state, made = {}, []
    real_step, real_agent_fit, real_weighted = Agent.step, Agent._fit, policy.solve_mle_weighted

    def step(self, t):
        state["round"], state["fits"] = t, 0
        return real_step(self, t)

    def agent_fit(self, label, block):
        state["fits"] += 1
        return real_agent_fit(self, label, block)

    def weighted(*args, **kwargs):
        est = real_weighted(*args, **kwargs)
        key = (state["seed"], state["round"], "block" if state["fits"] == 1 else "camera")
        if key not in forced:
            return est
        made.append(key)
        return replace(est, converged=False)

    monkeypatch.setattr(Agent, "step", step)
    monkeypatch.setattr(Agent, "_fit", agent_fit)
    monkeypatch.setattr(policy, "solve_mle_weighted", weighted)
    agents = []
    for seed in seeds:
        state["seed"] = seed
        agents.append(Agent(cfg, world, horizon, seed).run())
    monkeypatch.undo()
    return agents, made


def test_graph_lockstep_forced_nonconvergence_matches_agent(world, agent_config, monkeypatch):
    """Chosen (seed, round) block fits and camera refits are made to report
    non-convergence, in the stacked solves and in the matching per-seed ones,
    in the round loop and in edgeless stretches alike."""
    seeds, horizon = (0, 1, 2, 3), 120
    forced = {(seed, t, kind) for seed in seeds for kind in ("block", "camera")
              for t in (1, 2, 5 + seed, 30, 31, 77, 120)}
    episodes, stacked = _forced_lockstep(monkeypatch, agent_config, world, horizon, seeds,
                                         forced)
    agents, made = _forced_agents(monkeypatch, agent_config, world, horizon, seeds, forced)
    kinds = [kind for _, _, kind in made]
    assert kinds.count("block") >= 8 and kinds.count("camera") == 4 * 7, made
    assert sum(a.nonconverged_solves for a in agents) == len(made)
    assert sorted(key for key, _, _ in stacked) == sorted(made)
    # rounds 77 and 120 fall in a stretch: its memo-miss block fits and its refits
    assert {kind for (_, t, kind), _, stretch in stacked if stretch} == {"block", "camera"}
    _assert_same_episodes(episodes, agents)


def test_set_lockstep_forced_nonconvergence_matches_agent(world, agent_config, monkeypatch):
    """Under ``set``, chosen (seed, round) block fits and camera refits
    report non-convergence in the stacked solves and in the matching
    per-seed ones; an unconverged refit leaves the camera its warm start,
    which the round's from-scratch partition then reads."""
    cfg = replace(agent_config, grouping="set")
    seeds, horizon = (0, 1, 2), 90
    forced = {(seed, t, kind) for seed in seeds for kind in ("block", "camera")
              for t in (1, 2, 5 + seed, 40, 41, 90)}
    episodes, stacked = _forced_lockstep(monkeypatch, cfg, world, horizon, seeds, forced)
    agents, made = _forced_agents(monkeypatch, cfg, world, horizon, seeds, forced)
    kinds = [kind for _, _, kind in made]
    assert kinds.count("block") >= 3 and kinds.count("camera") == 3 * 6, made
    assert sum(a.nonconverged_solves for a in agents) == len(made)
    assert sorted(key for key, _, _ in stacked) == sorted(made)
    assert not any(stretch for _, _, stretch in stacked)
    _assert_same_episodes(episodes, agents)


def test_graph_stretch_counts_each_unconverged_visit_of_a_seed(world, agent_config,
                                                               monkeypatch):
    """Two cameras of one seed whose refits fail in the same stretch step
    count twice, as in the seed's agent."""
    import camsel.policy as policy

    seeds, horizon, steps = (0, 1), 120, []
    real_rank = policy._Lockstep.rank

    def rank(self, visits, *args):
        if np.ndim(visits[1]):
            steps.append(list(zip(*(a.tolist() for a in visits))))
        return real_rank(self, visits, *args)

    monkeypatch.setattr(policy._Lockstep, "rank", rank)
    policy.run_lockstep(agent_config, world, horizon, seeds)
    monkeypatch.undo()
    step = next(visits for visits in reversed(steps)
                if sum(seat == 0 for seat, _ in visits) >= 2)
    forced = set(sorted((seeds[0], i + 1, "camera") for seat, i in step if seat == 0)[:2])
    episodes, stacked = _forced_lockstep(monkeypatch, agent_config, world, horizon, seeds,
                                         forced)
    agents, made = _forced_agents(monkeypatch, agent_config, world, horizon, seeds, forced)
    assert len(stacked) == 2 and stacked[0][1] == stacked[1][1] and stacked[0][2]
    assert sorted(made) == sorted(forced)
    assert [a.nonconverged_solves for a in agents] == [2, 0]
    _assert_same_episodes(episodes, agents)


def _stretch_rows(monkeypatch, cfg, world, horizon, seeds):
    """(episodes, pattern, visits) of a lockstep run: the pattern holds one
    letter per ranking of the round loop, ``l``, and one per chain step,
    ``s``, however many parts the step runs in; ``visits`` counts the visits
    of chain steps. A chain step may pass one scalar round for all its rows,
    as a loop round does, so steps are told apart by ``_Lockstep.step``."""
    import camsel.policy as policy

    letters, rows, depth = [], [0], [0]
    real_rank, real_step = policy._Lockstep.rank, policy._Lockstep.step

    def step(self, seats, *args):
        letters.append("s")
        rows[0] += len(seats)
        depth[0] += 1
        try:
            return real_step(self, seats, *args)
        finally:
            depth[0] -= 1

    def rank(self, visits, *args):
        if not depth[0]:
            letters.append("l")
        return real_rank(self, visits, *args)

    monkeypatch.setattr(policy._Lockstep, "rank", rank)
    monkeypatch.setattr(policy._Lockstep, "step", step)
    episodes = policy.run_lockstep(cfg, world, horizon, seeds)
    monkeypatch.undo()
    return episodes, "".join(letters), rows[0]


def test_graph_reset_after_edgeless_rounds_leaves_and_reenters_a_stretch(world, agent_config,
                                                                          monkeypatch):
    # with p0 near 1, seed 22 resets at round 117, after every graph went edgeless
    cfg, seeds, horizon = replace(agent_config, p0=0.99), (20, 21, 22, 23), 200
    episodes, pattern, _ = _stretch_rows(monkeypatch, cfg, world, horizon, seeds)
    assert re.fullmatch("l+s+l+s+", pattern), pattern
    assert episodes[2].resets[116] and episodes[2].edges_deleted[117:].sum() > 0
    _assert_same_episodes(episodes, [Agent(cfg, world, horizon, seed).run() for seed in seeds])


@pytest.mark.parametrize("grouping", ["singletons", "pooled"])
def test_fixed_partitions_run_as_chains(world, agent_config, monkeypatch, grouping):
    """A partition that never changes runs its whole horizon as chain steps:
    ``singletons`` in as many as its longest (seed, camera) chain, ``pooled``
    in T steps of S rows (one chain per seed, so no step has more)."""
    cfg, seeds, horizon = replace(agent_config, grouping=grouping), tuple(range(10)), 300
    episodes, pattern, rows = _stretch_rows(monkeypatch, cfg, world, horizon, seeds)
    longest = (max(np.bincount(ep.arrival).max() for ep in episodes)
               if grouping == "singletons" else horizon)
    assert pattern == "s" * longest and rows == len(seeds) * horizon
    _assert_same_episodes(episodes, [Agent(cfg, world, horizon, seed).run() for seed in seeds])


@pytest.mark.parametrize("grouping", ["singletons", "pooled", "graph"])
def test_steps_wider_than_the_row_cap_run_in_parts(world, agent_config, monkeypatch, grouping):
    """A chain step of more than ``ROW_CAP`` rows runs as consecutive parts
    of at most that many rows, with the same episodes as per-seed agents."""
    import camsel.policy as policy

    cfg, seeds, horizon = replace(agent_config, grouping=grouping), (5, 1, 8, 3, 6), 150
    steps, open_step = [], [None]
    real_rank, real_step = policy._Lockstep.rank, policy._Lockstep.step

    def step(self, seats, *args):
        steps.append((len(seats), []))      # the step's width and its parts' widths
        open_step[0] = steps[-1][1]
        try:
            return real_step(self, seats, *args)
        finally:
            open_step[0] = None

    def rank(self, visits, *args):
        if open_step[0] is not None:
            open_step[0].append(len(visits[0]))
        return real_rank(self, visits, *args)

    monkeypatch.setattr(policy, "ROW_CAP", 3)
    monkeypatch.setattr(policy._Lockstep, "rank", rank)
    monkeypatch.setattr(policy._Lockstep, "step", step)
    episodes = policy.run_lockstep(cfg, world, horizon, seeds)
    monkeypatch.undo()
    # under graph the round loop ranks one row per seed, uncapped
    assert all(parts == [3] * (width // 3) + [width % 3] * (width % 3 > 0)
               for width, parts in steps)
    assert max(width for width, _ in steps) > 3
    _assert_same_episodes(episodes, [Agent(cfg, world, horizon, seed).run() for seed in seeds])


def test_canonical_block_runs_most_visits_in_stretches(world, agent_config, monkeypatch):
    # the canonical sweep's 40 seeds: the last graph goes edgeless by round 28
    seeds, horizon = tuple(range(320, 360)), 300
    _, pattern, rows = _stretch_rows(monkeypatch, agent_config, world, horizon, seeds)
    assert rows >= 0.9 * len(seeds) * horizon and pattern.count("s") < 60, pattern


def test_block_episodes_are_rows_of_one_round_log(world, agent_config, monkeypatch):
    """A block's episodes are rows of its one round log and share one set of
    settled facts, settled once per block; before any round each row equals
    a lone episode's columns, in values and type."""
    import camsel.policy as policy

    seeds, horizon = (3, 4, 9), 2 * policy._HIT_ROWS + 5
    # an event at round 1, two in one round and one past the horizon
    schedule = PerspectiveSchedule(((1, 0, 1), (40, 2, 1), (40, 0, 0), (horizon + 1, 3, 1)))
    ls = policy._Lockstep(agent_config, world, horizon, seeds, schedule)
    first = ls.episodes[0]
    assert first.truth_at.tolist() == [0] * 39 + [1] * (horizon - 39)
    for seat, (seed, ep) in enumerate(zip(seeds, ls.episodes)):
        alone = _Episode(world, horizon, seed, agent_config.k_max, schedule)
        for name, column in ls.log.items():
            ours, theirs = getattr(ep, name), getattr(alone, name)
            assert ours.base is column and np.shares_memory(ours, column[seat]), name
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
        assert ep.truths is first.truths and ep.truth_at is first.truth_at
        assert np.array_equal(ep.truths, alone.truths)
        assert np.array_equal(ep.truth_at, alone.truth_at)
        moved = (ep.arrival == 0) & (np.arange(horizon) < 39)
        assert moved.any() and (ep.true_groups[moved] == 1).all()
    assert set(ls.log) >= set(_LOG_COLUMNS) | {"hits"}
    settled, real_settle = [], policy._settle

    def settle(*args):
        settled.append(args)
        return real_settle(*args)

    monkeypatch.setattr(policy, "_settle", settle)
    for grouping in ("pooled", "singletons", "graph"):
        policy.run_lockstep(replace(agent_config, grouping=grouping), world, 60, seeds, schedule)
        assert len(settled) == 1, grouping
        settled.clear()


def test_round_log_integer_columns_take_the_smallest_signed_type(agent_config):
    assert [_int_type(top) for top in (0, 127, 128, 32767, 32768)] == [
        np.int8, np.int8, np.int16, np.int16, np.int32]
    columns = ("arrival", "true_groups", "truth_at", "inferred_groups", "tried", "components",
               "edges_deleted")
    horizon = 400
    for n_cameras, m, cams in ((8, 20, np.int8), (130, 200, np.int16)):
        world = generate_world(WorldConfig(n_groups=2, n_cameras=n_cameras, dimension=3,
                                           n_models=m), 1)
        agent = Agent(agent_config, world, horizon, 7)
        assert [getattr(agent, name).dtype for name in columns] == [
            cams, np.int8, np.int8, cams, _int_type(m), cams, cams]
        # the camera draws are the int64 draws, narrowed
        arrival = np.random.default_rng(np.random.SeedSequence([7, _ARRIVAL_TAG])).integers(
            0, n_cameras, size=horizon)
        assert np.array_equal(agent.arrival, arrival)
        assert (agent.arrival > 127).any() == (n_cameras > 128)


class _FirstVisit(Exception):
    pass


def test_graph_loop_holds_no_seed_by_round_float_table(world, agent_config):
    """At T = 20,000 a graph block's set-up derives each seed's reset rounds
    from its T uniforms one seed at a time: from the start of the set-up to
    the first visit, neither the traced peak nor what stays allocated
    reaches half of one (S, T) float64 table beyond the block's round log."""
    import tracemalloc

    import camsel.policy as policy

    seeds, horizon = tuple(range(40)), 20_000
    held = []

    def visit(*args):
        held.append(tracemalloc.get_traced_memory())
        raise _FirstVisit

    tracemalloc.start()
    try:
        ls = policy._Lockstep(agent_config, world, horizon, seeds, None)
        ls.visit = visit
        with pytest.raises(_FirstVisit):
            policy._graph_rounds(ls, world, horizon)
    finally:
        tracemalloc.stop()
    (current, peak), = held
    table, log = len(seeds) * horizon * 8, sum(column.nbytes for column in ls.log.values())
    assert current - log < table / 2 and peak - log < table / 2, (current, peak, log)


@pytest.mark.parametrize("grouping", ["pooled", "graph"])
def test_finish_temporaries_scale_with_the_horizon_not_the_block(world, agent_config,
                                                                 grouping):
    """``_Lockstep.finish`` folds and gathers one episode at a time: its
    traced peak stays below one (S, T) float64 table, and its episodes
    equal the per-seed agents'."""
    import tracemalloc

    import camsel.policy as policy

    cfg, seeds, horizon = replace(agent_config, grouping=grouping), tuple(range(40)), 300
    ls = policy._Lockstep(cfg, world, horizon, seeds, None)
    if grouping == "graph":
        policy._graph_rounds(ls, world, horizon)
    else:
        ls.chains(0, horizon)
    tracemalloc.start()
    try:
        episodes = ls.finish()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(seeds) * horizon * 8, peak
    _assert_same_episodes(episodes[:3], [Agent(cfg, world, horizon, seed).run()
                                         for seed in seeds[:3]])
