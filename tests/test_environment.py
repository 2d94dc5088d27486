import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from camsel.core import LinkFunctionSpec, expected_cascade_payoff, link_eval
from camsel.environment import (PerspectiveSchedule, VisualModel, World, WorldConfig,
                                generate_world, load_world, oracle_best_set, oracle_ranking,
                                save_world, world_from_dict, world_to_dict)
from camsel.errors import ConfigError, GenerationError, ScheduleError
from camsel.policy import _HIT_ROWS, _PAYOFF_TAG, _Episode, _settle, canonical_labels


def test_generate_single_group_trivial_dispersion():
    w = generate_world(WorldConfig(n_groups=1, n_cameras=4, dimension=3, gamma=0.5,
                                   n_models=5), seed=7)
    assert w.n_groups == 1
    assert np.all(w.camera_groups == 0)


def test_generate_two_groups_balanced_blocks():
    w = generate_world(WorldConfig(n_groups=2, n_cameras=8, dimension=5, gamma=0.5,
                                   n_models=6), seed=1)
    assert np.linalg.norm(w.group_thetas[0] - w.group_thetas[1]) >= 0.5
    assert np.all(w.camera_groups[:4] == 0)
    assert np.all(w.camera_groups[4:] == 1)


def test_generate_infeasible_gamma_errors():
    with pytest.raises(GenerationError):
        generate_world(WorldConfig(n_groups=3, n_cameras=3, dimension=2, gamma=2.5,
                                   n_models=3), seed=0)


def test_generate_exhaustion_errors(monkeypatch):
    import camsel.environment as environment

    monkeypatch.setattr(environment, "MAX_REDRAWS", 50)
    cfg = WorldConfig(n_groups=6, n_cameras=6, dimension=2, gamma=1.9, n_models=3)
    with pytest.raises(GenerationError, match="after 50 attempts"):
        generate_world(cfg, seed=0)


def test_generate_determinism():
    cfg = WorldConfig(n_groups=2, n_cameras=6, dimension=4, gamma=0.4, n_models=10)
    w1, w2 = generate_world(cfg, 3), generate_world(cfg, 3)
    assert np.array_equal(w1.group_thetas, w2.group_thetas)
    assert np.array_equal(w1.features, w2.features)
    w3 = generate_world(cfg, 4)
    assert not np.array_equal(w1.group_thetas, w3.group_thetas)


def test_generated_norms_and_dispersion():
    for seed in range(5):
        w = generate_world(WorldConfig(n_groups=3, n_cameras=9, dimension=5,
                                       gamma=0.4, n_models=12), seed)
        assert np.linalg.norm(w.group_thetas, axis=1).max() <= 1 + 1e-12
        assert np.linalg.norm(w.features, axis=1).max() <= 1 + 1e-12
        dists = [np.linalg.norm(w.group_thetas[a] - w.group_thetas[b])
                 for a, b in itertools.combinations(range(3), 2)]
        assert min(dists) >= 0.4


def test_unit_norm_features_flag():
    cfg = WorldConfig(n_groups=1, n_cameras=2, dimension=4, gamma=0.3, n_models=8,
                      unit_norm_features=True)
    w = generate_world(cfg, 5)
    assert np.allclose(np.linalg.norm(w.features, axis=1), 1.0)


def test_visual_model_scales_oversized_features():
    m = VisualModel(id=0, features=np.array([3.0, 4.0]))
    assert np.linalg.norm(m.features) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        VisualModel(id=0, features=np.array([1.0, 0.0]), tier="fog")


def _one_model_world(theta, **kwargs):
    """One camera, one model with features (1, 0), one group weighted by ``theta``."""
    return World(dimension=2, camera_groups=np.array([0]), group_thetas=np.array([theta]),
                 catalog=[VisualModel(id=0, features=np.array([1.0, 0.0]))],
                 dispersion_gamma=0.5, **kwargs)


# the arrivals and payoff hits a run draws: each episode's, before any decision


def test_sample_camera_uniform(world):
    n = 100_000
    counts = np.bincount(_Episode(world, n, 42, 3, None).arrival, minlength=world.n_cameras)
    # binomial 4-sigma bound at p = 1/8
    sigma = np.sqrt(n * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - n / 8) < 4 * sigma)


def test_sample_camera_singleton():
    w = generate_world(WorldConfig(n_groups=1, n_cameras=1, dimension=3, gamma=0.3,
                                   n_models=3), 0)
    assert (_Episode(w, 20, 42, 3, None).arrival == 0).all()


def test_sample_camera_deterministic(world):
    a, b = (_Episode(world, 50, 9, 3, None) for _ in range(2))
    assert np.array_equal(a.arrival, b.arrival) and np.array_equal(a.hits, b.hits)


def test_sample_payoff_certain_identity_link():
    w = _one_model_world([1.0, 0.0], link=LinkFunctionSpec("identity"))
    assert w.success_probs(0)[0] == 1.0
    assert _Episode(w, 50, 0, 1, None).hits.all()


def test_sample_payoff_bernoulli_mean():
    w = _one_model_world([0.0, 1.0])    # x.theta = 0 -> p = 0.5
    n = 100_000
    mean = _Episode(w, n, 42, 1, None).hits.mean()
    assert abs(mean - 0.5) < 4 * np.sqrt(0.25 / n)


def test_sample_payoff_thresholded_noiseless():
    w = _one_model_world([1.0, 0.0], payoff_mode="thresholded-gaussian",
                         accuracy_threshold=0.6, noise_sigma=0.0)
    # mu = sigmoid(1) = 0.731 >= 0.6
    assert w.success_probs(0)[0] == 1.0
    assert _Episode(w, 20, 0, 1, None).hits.all()


def test_thresholded_success_prob_is_gaussian_tail():
    from scipy.special import ndtr

    w = _one_model_world([1.0, 0.0], payoff_mode="thresholded-gaussian",
                         accuracy_threshold=0.6, noise_sigma=0.1)
    mu = link_eval(w.link, 1.0)
    assert w.success_probs(0)[0] == pytest.approx(float(ndtr((mu - 0.6) / 0.1)))


def _episode(world, schedule):
    """A 300-round episode at seed 0."""
    return _Episode(world, 300, 0, 3, schedule)


def _assignment_at(world, events, t):
    """Each camera's true group at round ``t``: every event due by then, in order."""
    assignment = world.camera_groups.copy()
    for due, cam, grp in events:
        if due <= t:
            assignment[cam] = grp
    return assignment


def _settled(world, events, horizon=300, seed=0):
    """An episode at ``seed``, after checking round by round that its true
    groups, true partitions and payoff hits replay the schedule and the
    seed's uniform table."""
    ep = _Episode(world, horizon, seed, 3, PerspectiveSchedule(events))
    u = np.random.default_rng(np.random.SeedSequence([seed, _PAYOFF_TAG])).random(
        (horizon, world.n_models))
    for t in range(1, horizon + 1):
        assignment = _assignment_at(world, events, t)
        group = assignment[ep.arrival[t - 1]]
        assert ep.true_groups[t - 1] == group, t
        assert np.array_equal(ep.truths[ep.truth_at[t - 1]], canonical_labels(assignment)), t
        assert np.array_equal(ep.hits[t - 1], u[t - 1] < world.group_success_probs(group)), t
    return ep


def test_perspective_shift_semantics(world):
    ep = _settled(world, ((100, 2, 1),))
    before, after = ep.truths[ep.truth_at[98]], ep.truths[ep.truth_at[99]]
    assert before[2] == before[0] != before[4]      # round 99: camera 2 still in group 0
    assert after[2] == after[4] != after[0]         # round 100: camera 2 moved to group 1
    visits = np.flatnonzero(ep.arrival == 2)
    assert (ep.true_groups[visits[visits < 99]] == 0).all() and (visits < 99).any()
    assert (ep.true_groups[visits[visits >= 99]] == 1).all() and (visits >= 99).any()
    assert world.camera_groups[2] == 0  # original untouched


def test_perspective_shift_empty_and_last_writer(world):
    for schedule in (PerspectiveSchedule(()), None):
        ep = _episode(world, schedule)
        assert np.array_equal(ep.truths, [canonical_labels(world.camera_groups)])
        assert not ep.truth_at.any()
        assert np.array_equal(ep.true_groups, world.camera_groups[ep.arrival])
    ep = _settled(world, ((100, 2, 1), (200, 2, 0)))
    assert ep.truths[ep.truth_at[149]][2] == ep.truths[ep.truth_at[149]][4]
    assert np.array_equal(ep.truths[ep.truth_at[299]], canonical_labels(world.camera_groups))
    # two moves of one camera in one round: the later one holds from that round
    ep = _settled(world, ((100, 2, 1), (100, 2, 0)))
    assert np.array_equal(ep.truths[ep.truth_at[99]], canonical_labels(world.camera_groups))


def test_event_at_round_one_holds_from_the_first_round(world):
    ep = _settled(world, ((1, 2, 1),))
    assert len(ep.truths) == 1 and not ep.truth_at.any()
    assert ep.truths[0][2] == ep.truths[0][4] != ep.truths[0][0]
    assert (ep.true_groups[ep.arrival == 2] == 1).all()


def test_events_after_the_horizon_never_apply(world):
    ep = _settled(world, ((300, 2, 1), (301, 3, 1)))
    assert len(ep.truths) == 2 and ep.truth_at.tolist() == [0] * 299 + [1]
    assert ep.truths[1][2] == ep.truths[1][4] and ep.truths[1][3] == ep.truths[1][0]
    ep = _settled(world, ((301, 2, 1),))
    assert np.array_equal(ep.truths, [canonical_labels(world.camera_groups)])


def test_hits_drawn_in_chunks_equal_one_draw(world):
    # a horizon of two full chunks and a part, with a move in the second chunk
    horizon = 2 * _HIT_ROWS + 7
    ep = _Episode(world, horizon, 5, 3, PerspectiveSchedule(((_HIT_ROWS + 3, 0, 1),)))
    u = np.random.default_rng(np.random.SeedSequence([5, _PAYOFF_TAG])).random(
        (horizon, world.n_models))
    assert np.array_equal(ep.hits, u < ep.group_probs[ep.true_groups])
    assert len(ep.truths) == 2


def test_schedule_validation(world):
    with pytest.raises(ScheduleError):
        PerspectiveSchedule(((200, 0, 1), (100, 1, 0)))  # unsorted
    with pytest.raises(ScheduleError):
        _episode(world, PerspectiveSchedule(((1, 99, 0),)))
    with pytest.raises(ScheduleError):
        _episode(world, PerspectiveSchedule(((1, 0, 9),)))


def test_oracle_best_set_examples():
    # catalog with mu values (0.2, 0.9, 0.5) via identity link
    feats = [np.array([0.2, 0.0]), np.array([0.9, 0.0]), np.array([0.5, 0.0])]
    w = World(dimension=2, camera_groups=np.array([0]),
              group_thetas=np.array([[1.0, 0.0]]),
              catalog=[VisualModel(id=i, features=f) for i, f in enumerate(feats)],
              dispersion_gamma=0.5, link=LinkFunctionSpec("identity"))
    assert oracle_best_set(w, 0, 1) == [1]
    assert oracle_best_set(w, 0, 2) == [1, 2]
    assert oracle_best_set(w, 0, 3) == [1, 2, 0]


def test_oracle_best_set_matches_exhaustive(world):
    probs = world.success_probs(0)
    for k in range(1, 5):
        best = oracle_best_set(world, 0, k)
        best_val = expected_cascade_payoff(probs[best])
        for combo in itertools.combinations(range(8), k):
            assert best_val >= expected_cascade_payoff(probs[list(combo)]) - 1e-12


def test_oracle_best_set_tie_break():
    feats = [np.array([0.5, 0.0]), np.array([0.5, 0.0]), np.array([0.9, 0.0])]
    w = World(dimension=2, camera_groups=np.array([0]),
              group_thetas=np.array([[1.0, 0.0]]),
              catalog=[VisualModel(id=i, features=f) for i, f in enumerate(feats)],
              dispersion_gamma=0.5, link=LinkFunctionSpec("identity"))
    assert oracle_best_set(w, 0, 2) == [2, 0]


def test_settled_oracle_payoffs_are_the_oracle_rankings_top_k(world):
    """Every run's regret is measured against ``_settle``'s oracle payoffs:
    each group's the expected cascade payoff of its first k models by
    ``oracle_ranking``, which ``oracle_best_set`` returns too."""
    feats = [np.array([0.5, 0.0]), np.array([0.5, 0.0]), np.array([0.9, 0.0]),
             np.array([0.2, 0.0])]
    tie = World(dimension=2, camera_groups=np.array([0]),
                group_thetas=np.array([[1.0, 0.0]]),
                catalog=[VisualModel(id=i, features=f) for i, f in enumerate(feats)],
                dispersion_gamma=0.5, link=LinkFunctionSpec("identity"))
    gaussian = generate_world(WorldConfig(n_groups=3, n_cameras=6, dimension=4, gamma=0.3,
                                          n_models=9, payoff_mode="thresholded-gaussian",
                                          accuracy_threshold=0.6), 2)
    assert oracle_ranking(tie.group_success_probs(0)).tolist() == [2, 0, 1, 3]
    for w in (world, tie, gaussian):
        for k in (1, 2, 3, w.n_models):
            oracle = _settle(w, 10, k, None)[1]
            assert oracle.shape == (w.n_groups,)
            for g in range(w.n_groups):
                probs = w.group_success_probs(g)
                assert oracle[g] == expected_cascade_payoff(probs[oracle_ranking(probs)[:k]])
                camera = int(np.flatnonzero(w.camera_groups == g)[0])
                assert oracle[g] == expected_cascade_payoff(probs[oracle_best_set(w, camera, k)])


def test_world_file_round_trip(world, tmp_path):
    path = tmp_path / "world.json"
    save_world(world, path)
    again = load_world(path)
    assert world_to_dict(again) == world_to_dict(world)


def test_world_file_link_is_read_whole(world):
    data = world_to_dict(replace(world, link=LinkFunctionSpec("clipped-linear", 3)))
    assert data["link"] == {"kind": "clipped-linear", "domain_bound": 3.0}
    assert world_from_dict(data).link == LinkFunctionSpec("clipped-linear", 3.0)
    del data["link"]
    assert world_from_dict(data).link == LinkFunctionSpec()
    data["link"] = {"kind": "sigmoid", "bound": 3}
    with pytest.raises(ConfigError, match="world file: .*bound"):
        world_from_dict(data)


def test_bernoulli_world_needs_success_probabilities_in_unit_interval():
    cfg = WorldConfig(n_groups=2, n_cameras=4, dimension=3, gamma=0.4, n_models=6,
                      link=LinkFunctionSpec("identity"))
    with pytest.raises(ConfigError, match=r"group 0: the identity link gives success "
                                          r"probabilities in \[-0\.9.*outside \[0, 1\]"):
        generate_world(cfg, seed=1)
    # the same scores pass through Phi under thresholded-Gaussian payoffs
    world = generate_world(replace(cfg, payoff_mode="thresholded-gaussian"), seed=1)
    with pytest.raises(ConfigError, match="group 0: the identity link"):
        replace(world, payoff_mode="bernoulli")


def test_world_loader_diagnostics(tmp_path, world):
    data = world_to_dict(world)
    bad = json.loads(json.dumps(data))
    bad["models"][3]["features"] = [2.0] * world.dimension
    with pytest.raises(ConfigError, match=r"models\[3\]"):
        world_from_dict(bad)

    bad = json.loads(json.dumps(data))
    bad["cameras"][1]["group"] = 7
    with pytest.raises(ConfigError, match=r"cameras\[1\]"):
        world_from_dict(bad)

    bad = json.loads(json.dumps(data))
    del bad["gamma"]
    with pytest.raises(ConfigError, match="gamma"):
        world_from_dict(bad)

    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError, match="line 1"):
        load_world(path)

    bad = json.loads(json.dumps(data))
    bad["groups"] = 5
    with pytest.raises(ConfigError, match="groups: expected a list"):
        world_from_dict(bad)

    bad = json.loads(json.dumps(data))
    bad["models"][0] = 7
    with pytest.raises(ConfigError, match=r"models\[0\]: expected an object"):
        world_from_dict(bad)


def test_world_validates_dispersion():
    thetas = np.array([[0.5, 0.0], [0.45, 0.0]])
    with pytest.raises(ConfigError, match="dispersion"):
        World(dimension=2, camera_groups=np.array([0, 1]), group_thetas=thetas,
              catalog=[VisualModel(id=0, features=np.array([1.0, 0.0]))],
              dispersion_gamma=0.5)
