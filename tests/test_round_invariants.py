"""Invariants every round record keeps, over small generated worlds.

Hypothesis draws worlds with both links and both payoff modes, zeta, k_max
from 1 to M (M = 1 and N = 1 included), d from 2, a perspective schedule and
each variant, and runs one short pair twice with a trace file each time. On
the same worlds, a lockstep block of seeds equals the per-seed agents.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsel.core import LinkFunctionSpec, expected_cascade_payoff
from camsel.environment import PAYOFF_MODES, PerspectiveSchedule, WorldConfig, generate_world
from camsel.harness import VARIANTS, read_trace, run_pair
from camsel.policy import CASCADE_ORDERS, Agent, AgentConfig, run_lockstep


@st.composite
def pairs(draw):
    """(seed, world, agent, horizon, schedule events) of one pair."""
    link = LinkFunctionSpec(draw(st.sampled_from(("sigmoid", "clipped-linear"))))
    n_groups = draw(st.integers(1, 3))
    n_cameras = draw(st.integers(n_groups, 6))
    n_models = draw(st.integers(1, 6))
    world = generate_world(WorldConfig(
        n_groups=n_groups, n_cameras=n_cameras, dimension=draw(st.integers(2, 4)),
        gamma=0.2, n_models=n_models, payoff_mode=draw(st.sampled_from(PAYOFF_MODES)),
        accuracy_threshold=0.6, link=link), draw(st.integers(0, 99)))
    agent = AgentConfig(alpha=draw(st.sampled_from((0.0, 0.25, 1.0))),
                        zeta=draw(st.sampled_from((0.1, 1.0, 5.0))),
                        k_max=draw(st.sampled_from((1, n_models)) | st.integers(1, n_models)),
                        link=link)
    horizon = draw(st.integers(1, 60))
    events = tuple(sorted(draw(st.lists(
        st.tuples(st.integers(1, horizon), st.integers(0, n_cameras - 1),
                  st.integers(0, n_groups - 1)), max_size=2))))
    return draw(st.integers(0, 999)), world, agent, horizon, events


def _assert_record_invariants(records, variant, world, agent, events):
    costs = world.bandwidth_costs.tolist()
    k = 1 if variant == "greedy" else min(agent.k_max, world.n_models)
    assignment = world.camera_groups.copy()
    applied = 0
    for t, r in enumerate(records, 1):
        while applied < len(events) and events[applied][0] <= t:
            assignment[events[applied][1]] = events[applied][2]
            applied += 1
        where = (variant, t)
        assert r.t == t, where
        assert r.true_group == assignment[r.camera], where
        tried, payoffs = r.tried_models, r.payoffs
        assert 1 <= len(tried) <= k and len(payoffs) == len(tried), where
        assert len(set(tried)) == len(tried), where
        assert set(payoffs) <= {0, 1}, where
        # the cascade stops at its first success, or runs out of budget
        assert 1 not in payoffs[:-1], where
        assert payoffs[-1] == 1 or len(tried) == k, where
        assert r.aggregate_payoff == int(any(payoffs)), where
        assert r.instantaneous_regret == r.oracle_expected_payoff - r.expected_payoff, where
        assert r.bandwidth_spent == sum([costs[m] for m in tried]), where
        probs = np.sort(world.group_success_probs(r.true_group))[::-1]
        assert r.oracle_expected_payoff == pytest.approx(
            expected_cascade_payoff(probs[:min(agent.k_max, world.n_models)]), abs=1e-12)
        assert r.instantaneous_regret >= -1e-12, where


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(pair=pairs())
def test_every_round_record_keeps_its_invariants(variant, pair):
    seed, world, agent, horizon, events = pair
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.csv" for i in range(2)]
        for path in paths:
            result = run_pair(variant, seed, world, agent, horizon, schedule_events=events,
                              greedy_profile_rounds=7, trace_path=path, keep_records=True)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert read_trace(paths[0]) == result.records
    assert len(result.records) == horizon
    assert result.cum_regret.tolist() == np.cumsum(
        [r.instantaneous_regret for r in result.records]).tolist()
    _assert_record_invariants(result.records, variant, world, agent, events)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=pairs(), grouping=st.sampled_from(("graph", "set", "pooled", "singletons")),
       order=st.sampled_from(CASCADE_ORDERS),
       seeds=st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
def test_lockstep_block_equals_per_seed_agents(pair, grouping, order, seeds):
    _, world, agent, horizon, events = pair
    cfg = replace(agent, grouping=grouping, cascade_order=order)
    schedule = PerspectiveSchedule(events) if events else None
    episodes = run_lockstep(cfg, world, horizon, seeds, schedule)
    for seed, ours in zip(seeds, episodes, strict=True):
        theirs = Agent(cfg, world, horizon, seed, schedule).run()
        for name in ("arrival", "true_groups", "hits", "inferred_groups", "tried", "payoffs",
                     "expected", "components", "edges_deleted", "resets", "correct"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (seed, name)
        assert ours.nonconverged_solves == theirs.nonconverged_solves, seed
