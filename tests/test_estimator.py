import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dgesv

import camsel.estimator as estimator
import camsel.policy as policy
from camsel.core import LINK_KINDS, LinkFunctionSpec, link_callables, link_eval
from camsel.estimator import (DEFAULT_MAX_ITER, DEFAULT_TOL, MAX_HALVINGS, GroupStats,
                              _newton, _solve, confidence_widths, confidence_widths_stacked,
                              outer_products, solve_mle_stacked, solve_mle_weighted)
from camsel.policy import Agent, catalog_scores

SIGMOID = LinkFunctionSpec("sigmoid")
IDENTITY = LinkFunctionSpec("identity")
SIGMOID_MU = link_callables(SIGMOID)[0]


def _group_of(X, zeta=1.0):
    """The regularized Gramian of a raw history X, one row per observation."""
    return GroupStats(zeta * np.eye(X.shape[1]) + X.T @ X, len(X), zeta)


def _random_instance(rng, d, n, link=SIGMOID):
    theta = rng.standard_normal(d)
    theta /= max(1.0, np.linalg.norm(theta))
    X = rng.standard_normal((n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
    probs = link_eval(link, X @ theta)
    r = (rng.random(n) < probs).astype(float)
    return theta, X, r


def test_identity_link_equals_ridge(rng):
    for _ in range(50):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(5, 60))
        _, X, r = _random_instance(rng, d, n, IDENTITY)
        gs = _group_of(X, zeta=1.0)
        est = solve_mle_weighted(gs, IDENTITY, X, np.ones(len(X)), r)
        ridge = np.linalg.solve(np.eye(d) + X.T @ X, X.T @ r)
        assert est.converged
        assert np.max(np.abs(est.theta_hat - ridge)) < 1e-10


def test_zero_observations_cold_start(rng):
    # an empty history, and a catalog whose every model has zero tries, both
    # stand at theta = 0 with no Newton step
    empty = solve_mle_weighted(GroupStats(np.eye(4), 0, 1.0), SIGMOID, np.zeros((0, 4)),
                               np.zeros(0), np.zeros(0))
    feats = rng.standard_normal((6, 4))
    untried = solve_mle_weighted(GroupStats(np.eye(4), 0, 1.0), SIGMOID, feats, np.zeros(6),
                                 np.zeros(6))
    for est in (empty, untried):
        assert est.converged
        assert est.iterations == 0
        assert np.array_equal(est.theta_hat, np.zeros(4))


def test_history_consistency_enforced(rng):
    feats = rng.standard_normal((6, 3))
    tries = rng.integers(1, 10, 6).astype(float)
    wins = np.floor(rng.random(6) * (tries + 1))
    n = int(tries.sum())
    gramian = np.eye(3) + (feats.T * tries) @ feats
    for off in (-1, 1):
        with pytest.raises(ValueError, match="aggregates hold"):
            solve_mle_weighted(GroupStats(gramian, n + off, 1.0), SIGMOID, feats, tries, wins)
    assert solve_mle_weighted(GroupStats(gramian, n, 1.0), SIGMOID, feats, tries, wins).converged


def test_sigmoid_mle_matches_grid_oracle(rng):
    # 2-d penalized log-likelihood grid search at resolution 1e-3 over [-1, 1]^2
    theta_true = np.array([0.6, -0.4])
    X = rng.standard_normal((50, 2))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
    r = (rng.random(50) < link_eval(SIGMOID, X @ theta_true)).astype(float)
    gs = _group_of(X)
    est = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
    assert est.converged

    axis = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
    best_val, best_theta = -np.inf, None
    chunk = 4000
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    thetas = np.column_stack([grid_a.ravel(), grid_b.ravel()])
    for i in range(0, thetas.shape[0], chunk):
        block = thetas[i:i + chunk]
        Z = X @ block.T
        loglik = (r[:, None] * Z - np.logaddexp(0.0, Z)).sum(axis=0) \
            - 0.5 * 1.0 * (block ** 2).sum(axis=1)
        j = int(np.argmax(loglik))
        if loglik[j] > best_val:
            best_val, best_theta = float(loglik[j]), block[j]
    assert np.max(np.abs(est.theta_hat - best_theta)) < 2e-3


def test_newton_convergence_random_instances(rng):
    # spec asks 1,000 instances at gradient tolerance 1e-8; full count lives in
    # the acceptance suite, a sample here keeps the unit run quick
    for _ in range(150):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(1, 500))
        _, X, r = _random_instance(rng, d, n)
        gs = _group_of(X)
        est = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
        assert est.converged
        assert est.gradient_norm < 1e-8
        assert est.iterations <= 100


def test_score_at_solution(rng):
    for _ in range(30):
        _, X, r = _random_instance(rng, 4, 80)
        gs = _group_of(X)
        est = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
        score = X.T @ (r - link_eval(SIGMOID, X @ est.theta_hat)) - est.theta_hat
        assert np.linalg.norm(score) <= 1e-8


def test_weighted_solve_equals_raw(rng):
    feats = rng.standard_normal((6, 3))
    feats /= np.maximum(1.0, np.linalg.norm(feats, axis=1, keepdims=True))
    counts = rng.integers(0, 30, 6)
    succ = np.array([rng.integers(0, c + 1) for c in counts], dtype=float)
    rows, resp = [], []
    for m in range(6):
        for j in range(int(counts[m])):
            rows.append(feats[m])
            resp.append(1.0 if j < succ[m] else 0.0)
    X, r = np.array(rows), np.array(resp)
    gs = _group_of(X)
    raw = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
    agg = solve_mle_weighted(gs, SIGMOID, feats, counts.astype(float), succ)
    assert np.max(np.abs(raw.theta_hat - agg.theta_hat)) < 1e-7


def test_warm_start_converges_faster(rng):
    _, X, r = _random_instance(rng, 5, 200)
    gs = _group_of(X)
    cold = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
    warm = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r, theta0=cold.theta_hat)
    assert warm.converged
    assert warm.iterations == 0


def test_confidence_width_isotropic():
    gs = GroupStats(4.0 * np.eye(3), 0, 4.0)
    x = np.array([1.0, 0.0, 0.0])
    assert confidence_widths(x[None], gs) == pytest.approx([0.5])  # 1/sqrt(zeta)


def test_confidence_width_sherman_morrison():
    # M = I + x x^T with unit x gives width(x) = 1/sqrt(2)
    x = np.array([1.0, 0.0])
    gs = _group_of(x[None])
    assert confidence_widths(x[None], gs) == pytest.approx([1 / np.sqrt(2)], abs=1e-12)


def test_confidence_width_homogeneity(rng):
    _, X, r = _random_instance(rng, 4, 30)
    gs = _group_of(X)
    x = rng.standard_normal(4)
    width, scaled = confidence_widths(np.stack([x, 3.0 * x]), gs)
    assert scaled == pytest.approx(3.0 * width)


def test_widths_shrink_under_updates(rng):
    d = 4
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    history = np.tile(x, (10, 1))
    widths = [confidence_widths(x[None], _group_of(history[:k]))[0] for k in range(10)]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    # an orthogonal update direction never increases the width either
    y = np.zeros(d)
    y[0], x0 = 1.0, np.zeros(d)
    x0[1] = 1.0
    before = confidence_widths(y[None], _group_of(history))[0]
    after = confidence_widths(y[None], _group_of(np.vstack([history, x0])))[0]
    assert after <= before + 1e-12


def test_ucb_score_cold_start():
    gs = GroupStats(np.eye(2), 0, 1.0)
    catalog = np.array([[1.0, 0.0], [0.0, 0.0]])
    theta = np.zeros(2)
    assert catalog_scores(SIGMOID_MU, catalog, theta, gs, 0.25) == pytest.approx([0.75, 0.5])
    assert catalog_scores(SIGMOID_MU, catalog, theta, gs, 0.0) == pytest.approx([0.5, 0.5])
    assert catalog_scores(SIGMOID_MU, catalog[1:], theta, gs, 5.0) == pytest.approx([0.5])


def test_ucb_scores_vectorized_consistent(rng):
    _, X, r = _random_instance(rng, 3, 40)
    gs = _group_of(X)
    est = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
    catalog = rng.standard_normal((7, 3))
    batch = catalog_scores(SIGMOID_MU, catalog, est.theta_hat, gs, 0.25)
    # each row's width sqrt(x^T M^{-1} x), written plainly
    widths = [float(np.sqrt(x @ np.linalg.solve(gs.gramian_reg, x))) for x in catalog]
    single = [link_eval(SIGMOID, float(x @ est.theta_hat)) + 0.25 * w
              for x, w in zip(catalog, widths)]
    assert np.allclose(batch, single)
    assert confidence_widths(catalog, gs) == pytest.approx(widths)


def test_argmax_invariance(rng):
    for _ in range(20):
        _, X, r = _random_instance(rng, 3, 40)
        gs = _group_of(X)
        est = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
        catalog = rng.standard_normal((9, 3))
        scores = catalog_scores(SIGMOID_MU, catalog, est.theta_hat, gs, 0.25)
        assert np.argmax(scores) == np.argmax(2.5 * scores)
        assert np.argmax(scores) == np.argmax(scores + 0.7)


def test_estimation_consistency(rng):
    # 5,000 continuous noisy observations (sigma = 0.1) from a fixed theta*;
    # binary feedback at this dimension cannot pin theta to a 0.1 ball, so the
    # consistency check uses the quasi-likelihood path with gaussian noise
    hits = 0
    for trial in range(100):
        trial_rng = np.random.default_rng(1000 + trial)
        theta = trial_rng.standard_normal(5)
        theta /= max(1.0, np.linalg.norm(theta))
        X = trial_rng.standard_normal((5000, 5))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
        r = link_eval(SIGMOID, X @ theta) + 0.1 * trial_rng.standard_normal(5000)
        gs = _group_of(X)
        est = solve_mle_weighted(gs, SIGMOID, X, np.ones(len(X)), r)
        if est.converged and np.linalg.norm(est.theta_hat - theta) < 0.1:
            hits += 1
    assert hits >= 95


def _reference_newton(feats, weights, resp_sums, zeta, link, theta0, tol=1e-8, max_iter=100):
    """The damped Newton loop written plainly: np.linalg.solve, the score and
    the slope each recomputed from theta."""
    mu, mu_prime = link_callables(link)
    theta = np.zeros(feats.shape[1]) if theta0 is None else np.array(theta0, dtype=float)

    def score(th):
        return feats.T @ (resp_sums - weights * mu(feats @ th)) - zeta * th

    g = score(theta)
    gnorm = np.linalg.norm(g)
    iters = 0
    while gnorm > tol and iters < max_iter:
        hess = zeta * np.eye(theta.size) + \
            (feats * (weights * mu_prime(feats @ theta))[:, None]).T @ feats
        delta = np.linalg.solve(hess, g)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            cand = theta + step * delta
            gn = np.linalg.norm(score(cand))
            if np.isfinite(gn) and gn < gnorm:
                break
            step *= 0.5
        else:
            break
        theta, g, gnorm = cand, score(cand), gn
        iters += 1
    return theta, iters, gnorm <= tol


@pytest.mark.parametrize("kind", ["sigmoid", "identity", "clipped-linear"])
def test_lapack_newton_and_widths_match_reference(rng, kind):
    link = LinkFunctionSpec(kind)
    iterated = 0
    for _ in range(40):
        feats = rng.random((20, 5)) / 2.0
        counts = rng.integers(0, 15, 20).astype(float)
        succ = np.floor(rng.random(20) * (counts + 1))
        gs = GroupStats(np.eye(5) + (feats.T * counts) @ feats, int(counts.sum()), 1.0)
        mask = counts > 0
        cold = solve_mle_weighted(gs, link, feats, counts, succ)
        for theta0 in (None, cold.theta_hat + rng.normal(0.0, 0.3, 5)):
            est = solve_mle_weighted(gs, link, feats, counts, succ, theta0=theta0)
            theta, iters, converged = _reference_newton(
                feats[mask], counts[mask], succ[mask], 1.0, link, theta0)
            assert (est.iterations, est.converged) == (iters, converged)
            assert np.max(np.abs(est.theta_hat - theta)) <= 1e-12
            iterated += iters > 0
        reference = np.sqrt(np.einsum("ij,ji->i", feats, np.linalg.solve(gs.gramian_reg, feats.T)))
        assert np.max(np.abs(confidence_widths(feats, gs) - reference)) <= 1e-12
    assert iterated >= 40


def _warns_invalid_solve():
    """numpy's warning before a singular solve raises, which the test then owns."""
    return pytest.warns(RuntimeWarning, match="invalid value encountered in solve")


def test_singular_systems_raise():
    gs = GroupStats(np.zeros((2, 2)), 0, 1.0)
    with _warns_invalid_solve(), pytest.raises(np.linalg.LinAlgError):
        confidence_widths(np.eye(2), gs)
    with _warns_invalid_solve(), pytest.raises(np.linalg.LinAlgError):
        _solve(gs.gramian_reg, np.ones(2))
    # zeta = 0 and one observed row leave the Newton system rank one
    unpenalized = GroupStats(np.zeros((2, 2)), 1, 0.0)
    with _warns_invalid_solve(), pytest.raises(np.linalg.LinAlgError):
        solve_mle_weighted(unpenalized, IDENTITY, np.array([[1.0, 0.0]]), np.ones(1),
                           np.ones(1))


def _matmul_newton(feats, weights, resp_sums, zeta, link, theta0):
    """The same damped Newton written with ``@``, link_callables, zeta * I and
    the rows' outer products (by einsum) resolved on every call and
    theta + step * delta for every step; also counts the step halvings."""
    d = feats.shape[1]
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    mu, mu_prime = link_callables(link)
    ridge = zeta * np.eye(d)
    outer = np.einsum("ij,ik->ijk", feats, feats).reshape(-1, d * d)
    z = feats @ theta
    m = mu(z)
    g = feats.T @ (resp_sums - weights * m) - zeta * theta
    gnorm = math.sqrt(g.dot(g))
    iters = halvings = 0
    while gnorm > DEFAULT_TOL and iters < DEFAULT_MAX_ITER:
        slope = weights * mu_prime(z, m)
        _, _, delta, info = dgesv(ridge + (slope @ outer).reshape(d, d), g)
        assert info == 0
        step = 1.0
        for _ in range(MAX_HALVINGS):
            cand = theta + step * delta
            z_new = feats @ cand
            m_new = mu(z_new)
            g_new = feats.T @ (resp_sums - weights * m_new) - zeta * cand
            gn = math.sqrt(g_new.dot(g_new))
            if math.isfinite(gn) and gn < gnorm:
                break
            step *= 0.5
            halvings += 1
        else:
            break
        theta, z, m, g, gnorm = cand, z_new, m_new, g_new, gn
        iters += 1
    return theta, iters, gnorm, halvings


def _assert_bit_identical(feats, counts, succ, zeta, link, theta0):
    """_newton on every row, observed or not, equals the ``@`` loop under ==;
    returns the iterations and the step halvings."""
    args = (feats, counts, succ, zeta, link, theta0)
    est = _newton(*args, DEFAULT_TOL, DEFAULT_MAX_ITER)
    theta, iters, gnorm, halvings = _matmul_newton(*args)
    assert np.array_equal(est.theta_hat, theta)
    assert (est.iterations, est.gradient_norm) == (iters, gnorm)
    return iters, halvings


@pytest.mark.parametrize("grouping", ["graph", "set", "pooled"])
def test_newton_bit_identical_on_agent_problems(world, agent_config, monkeypatch, grouping):
    problems = []
    real = policy.solve_mle_weighted

    def captured(gs, link, feats, counts, successes, theta0=None, outer=None):
        problems.append((feats, counts.copy(), successes.copy(), gs.zeta, link,
                         np.array(theta0)))
        return real(gs, link, feats, counts, successes, theta0=theta0, outer=outer)

    monkeypatch.setattr(policy, "solve_mle_weighted", captured)
    Agent(replace(agent_config, grouping=grouping), world, 300, seed=0).run()
    assert len(problems) >= 300
    iterations = sum(_assert_bit_identical(*problem)[0] for problem in problems)
    assert iterations >= 2 * len(problems)


@st.composite
def _newton_problems(draw):
    m, d = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    feats = draw(arrays(np.float64, (m, d), elements=st.floats(-1.0, 1.0)))
    counts = draw(arrays(np.float64, m, elements=st.integers(0, 15).map(float)))
    frac = draw(arrays(np.float64, m, elements=st.floats(0.0, 1.0)))
    succ = np.minimum(np.floor(frac * (counts + 1.0)), counts)
    # far starts make the full Newton step overshoot, forcing halvings
    theta0 = draw(st.none() | arrays(np.float64, d, elements=st.floats(-30.0, 30.0)))
    zeta = draw(st.sampled_from([0.25, 1.0, 3.0]))
    return feats, counts, succ, zeta, theta0


def _far_start_problem():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 15, 20).astype(float)
    return (rng.uniform(-1.0, 1.0, (20, 5)), counts, np.floor(rng.random(20) * (counts + 1.0)),
            1.0, rng.uniform(-20.0, 20.0, 5))


_FAR = _far_start_problem()


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(LINK_KINDS), problem=_newton_problems())
@example(kind="sigmoid", problem=_FAR)
@example(kind="clipped-linear", problem=_FAR)
def test_newton_bit_identical_on_drawn_problems(kind, problem):
    feats, counts, succ, zeta, theta0 = problem
    _assert_bit_identical(feats, counts, succ, zeta, LinkFunctionSpec(kind), theta0)


@st.composite
def _stacked_problems(draw):
    """S problems over one catalog, zeta and link, each with its own counts,
    successes and start, some of them far enough to force step halvings."""
    feats, _, _, zeta, _ = draw(_newton_problems())
    m, d = feats.shape
    seeds = draw(st.integers(1, 6))
    counts = draw(arrays(np.float64, (seeds, m), elements=st.integers(0, 15).map(float)))
    frac = draw(arrays(np.float64, (seeds, m), elements=st.floats(0.0, 1.0)))
    succ = np.minimum(np.floor(frac * (counts + 1.0)), counts)
    theta0 = draw(arrays(np.float64, (seeds, d), elements=st.floats(-30.0, 30.0)))
    return feats, counts, succ, zeta, theta0


def _far_starts():
    """Eight far starts on a 12 x 5 catalog at zeta 0.25, found by search:
    under clipped-linear one row's line search runs out."""
    rng = np.random.default_rng(905)
    m, d = rng.integers(1, 21), rng.integers(1, 6)
    feats = rng.uniform(-1.0, 1.0, (m, d))
    counts = rng.integers(0, 16, (8, m)).astype(float)
    succ = np.minimum(np.floor(rng.random((8, m)) * (counts + 1.0)), counts)
    zeta = [0.25, 1.0, 3.0][rng.integers(3)]
    return feats, counts, succ, zeta, rng.uniform(-30.0, 30.0, (8, d))


_FAR_STARTS = _far_starts()


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(LINK_KINDS), problem=_stacked_problems())
@example(kind="sigmoid", problem=_FAR_STARTS)
@example(kind="clipped-linear", problem=_FAR_STARTS)
def test_stacked_newton_matches_per_seed_newton_row_by_row(kind, problem):
    feats, counts, succ, zeta, theta0 = problem
    link = LinkFunctionSpec(kind)
    stacked = solve_mle_stacked(feats, counts, succ, zeta, link, theta0)
    for s in range(len(counts)):
        est = _newton(feats, counts[s], succ[s], zeta, link, theta0[s], DEFAULT_TOL,
                      DEFAULT_MAX_ITER)
        assert np.array_equal(stacked.theta_hat[s], est.theta_hat)
        assert np.array_equal(stacked.means[s], est.means)
        assert (bool(stacked.converged[s]), int(stacked.iterations[s]),
                float(stacked.gradient_norm[s])) == (est.converged, est.iterations,
                                                     est.gradient_norm)


@pytest.mark.parametrize("kind", ["sigmoid", "clipped-linear"])
def test_stacked_far_starts_halve_and_stop_short(kind):
    # the example above takes step halvings on its rows; under clipped-linear
    # some rows also run out of halvings and stop short of tolerance
    feats, counts, succ, zeta, theta0 = _FAR_STARTS
    link = LinkFunctionSpec(kind)
    halvings = [_assert_bit_identical(feats, c, s, zeta, link, t)[1]
                for c, s, t in zip(counts, succ, theta0)]
    assert sum(h > 0 for h in halvings) >= 2
    if kind == "clipped-linear":
        assert not solve_mle_stacked(feats, counts, succ, zeta, link, theta0).converged.all()


@pytest.mark.parametrize("kind", ["sigmoid", "clipped-linear"])
def test_far_start_example_halves_steps(kind):
    feats, counts, succ, zeta, theta0 = _FAR
    assert _assert_bit_identical(feats, counts, succ, zeta, LinkFunctionSpec(kind), theta0)[1] > 0


@pytest.mark.parametrize("kind", LINK_KINDS)
def test_solve_returns_the_means_of_its_estimate(world, rng, kind):
    # the agent ranks by these means, so they must be mu(F theta_hat) to the bit
    link = LinkFunctionSpec(kind)
    mu = link_callables(link)[0]
    feats = world.features
    outer = outer_products(feats)
    for _ in range(30):
        counts = rng.integers(0, 15, feats.shape[0]).astype(float)
        counts[rng.random(feats.shape[0]) < 0.5] = 0.0
        succ = np.floor(rng.random(feats.shape[0]) * (counts + 1.0))
        gs = GroupStats(np.eye(5) + (feats.T * counts) @ feats, int(counts.sum()), 1.0)
        cold = solve_mle_weighted(gs, link, feats, counts, succ, outer=outer)
        for theta0 in (None, cold.theta_hat, cold.theta_hat + rng.normal(0.0, 0.3, 5)):
            est = solve_mle_weighted(gs, link, feats, counts, succ, theta0=theta0, outer=outer)
            assert np.array_equal(est.means, mu(feats.dot(est.theta_hat)))
            bare = solve_mle_weighted(gs, link, feats, counts, succ, theta0=theta0)
            assert np.array_equal(bare.theta_hat, est.theta_hat)


def test_seed_stacked_products_and_solves_match_per_seed_calls(world, rng):
    """A Newton stacked over a leading seed axis reproduces the per-seed one
    bit for bit only through these calls: stacked matmul and solve equal the
    per-seed dot and gesv, while the 2-D product ``slopes @ P`` does not."""
    feats = world.features
    d = feats.shape[1]
    outer = outer_products(feats)
    seeds = 40
    for _ in range(25):
        slopes = rng.random((seeds, feats.shape[0])) * rng.integers(0, 15, (seeds, 1))
        thetas = rng.normal(0.0, 1.0, (seeds, d))
        resid = rng.normal(0.0, 3.0, (seeds, feats.shape[0]))
        hess = np.matmul(slopes[:, None, :], outer)[:, 0]
        z = np.matmul(feats, thetas[:, :, None])[..., 0]
        g = np.matmul(feats.T, resid[:, :, None])[..., 0]
        systems = np.eye(d) + hess.reshape(seeds, d, d)
        deltas = np.linalg.solve(systems, g[:, :, None])[..., 0]
        widths = confidence_widths_stacked(feats, systems)
        for s in range(seeds):
            assert np.array_equal(hess[s], slopes[s].dot(outer))
            assert np.array_equal(z[s], feats.dot(thetas[s]))
            assert np.array_equal(g[s], feats.T.dot(resid[s]))
            assert np.array_equal(deltas[s], dgesv(systems[s], g[s])[2])
            assert np.array_equal(widths[s], confidence_widths(feats, GroupStats(systems[s], 0,
                                                                                1.0)))


def _assert_rows_match_newton(feats, counts, succ, zeta, link, theta0, max_iter=DEFAULT_MAX_ITER):
    """The stacked solve equals the per-seed Newton on every row; returns it."""
    stacked = solve_mle_stacked(feats, counts, succ, zeta, link, theta0, max_iter=max_iter)
    for s in range(len(counts)):
        est = _newton(feats, counts[s], succ[s], zeta, link, theta0[s], DEFAULT_TOL, max_iter)
        assert np.array_equal(stacked.theta_hat[s], est.theta_hat)
        assert np.array_equal(stacked.means[s], est.means)
        assert (bool(stacked.converged[s]), int(stacked.iterations[s]),
                float(stacked.gradient_norm[s])) == (est.converged, est.iterations,
                                                     est.gradient_norm)
    return stacked


def _agent_like_stack(world, rng, seeds=8):
    counts = rng.integers(0, 15, (seeds, world.n_models)).astype(float)
    succ = np.floor(rng.random(counts.shape) * (counts + 1.0))
    return world.features, counts, succ, 1.0, rng.normal(0.0, 0.5, (seeds, world.dimension))


@pytest.mark.parametrize("kind", LINK_KINDS)
@pytest.mark.parametrize("max_iter", [0, 1])
def test_stacked_newton_with_zero_or_one_iteration(world, rng, kind, max_iter):
    # max_iter 0 returns every start as it is; max_iter 1 stops every live row after one step
    for idle in (False, True):
        feats, counts, succ, zeta, theta0 = _agent_like_stack(world, rng)
        if idle:    # a row with no data sits at tolerance at theta = 0
            counts[0] = succ[0] = theta0[0] = 0.0
        stacked = _assert_rows_match_newton(feats, counts, succ, zeta, LinkFunctionSpec(kind),
                                            theta0, max_iter)
        assert stacked.iterations.max() == max_iter and stacked.iterations[0] == (
            0 if idle else max_iter)
        if max_iter == 0:
            assert np.array_equal(stacked.theta_hat, theta0)


@pytest.mark.parametrize("kind", LINK_KINDS)
def test_stacked_newton_from_the_optimum_takes_no_step(world, rng, kind):
    feats, counts, succ, zeta, theta0 = _agent_like_stack(world, rng)
    link = LinkFunctionSpec(kind)
    optimum = solve_mle_stacked(feats, counts, succ, zeta, link, theta0)
    assert optimum.converged.all() and optimum.iterations.min() > 0
    again = _assert_rows_match_newton(feats, counts, succ, zeta, link, optimum.theta_hat)
    assert not again.iterations.any() and again.converged.all()
    assert np.array_equal(again.theta_hat, optimum.theta_hat)


@pytest.mark.parametrize("kind", LINK_KINDS)
def test_stacked_newton_on_a_single_row(world, rng, kind):
    for _ in range(10):
        feats, counts, succ, zeta, theta0 = _agent_like_stack(world, rng, seeds=1)
        _assert_rows_match_newton(feats, counts, succ, zeta, LinkFunctionSpec(kind), theta0)
    # a far start: the single row halves its steps
    feats, counts, succ, zeta, theta0 = _FAR_STARTS
    _assert_rows_match_newton(feats, counts[:1], succ[:1], zeta, SIGMOID, theta0[:1])


@pytest.mark.parametrize("kind", LINK_KINDS)
def test_stacked_newton_rows_that_stop_together(world, rng, kind):
    # copies of one problem stop at one iteration, so no row leaves the working set early
    feats, counts, succ, zeta, theta0 = _agent_like_stack(world, rng, seeds=1)
    counts, succ, theta0 = (np.repeat(a, 6, axis=0) for a in (counts, succ, theta0))
    stacked = _assert_rows_match_newton(feats, counts, succ, zeta, LinkFunctionSpec(kind), theta0)
    assert stacked.iterations.min() == stacked.iterations.max() > 0


def test_stacked_newton_leaves_a_nan_start_where_it_is(world, rng):
    # a NaN starting norm is not above tolerance, so its row stops before a step,
    # as the per-seed Newton's loop never starts; the other rows run as alone
    feats, counts, succ, zeta, theta0 = _agent_like_stack(world, rng, seeds=4)
    theta0[1] = np.nan
    stacked = solve_mle_stacked(feats, counts, succ, zeta, SIGMOID, theta0)
    assert stacked.iterations[1] == 0 and not stacked.converged[1]
    assert np.isnan(stacked.theta_hat[1]).all() and np.isnan(stacked.gradient_norm[1])
    rest = [0, 2, 3]
    alone = _assert_rows_match_newton(feats, counts[rest], succ[rest], zeta, SIGMOID, theta0[rest])
    assert np.array_equal(stacked.theta_hat[rest], alone.theta_hat)
    assert np.array_equal(stacked.iterations[rest], alone.iterations) and alone.iterations.all()


def test_stacked_solve_equals_numpy_solve_and_raises_on_singular(rng):
    d, m = 5, 20
    for seeds in (1, 3, 40):
        half = rng.normal(size=(seeds, d, d))
        systems = np.eye(d) + np.matmul(half, half.transpose(0, 2, 1))
        for rhs in (rng.normal(size=(seeds, d, 1)), rng.normal(size=(seeds, d, m)),
                    rng.normal(size=(d, m))):
            assert np.array_equal(_solve(systems, rhs), np.linalg.solve(systems, rhs))
        out = np.empty((seeds, m, d)).transpose(0, 2, 1)
        rhs = rng.normal(size=(d, m))
        assert _solve(systems, rhs, out=out) is out
        assert np.array_equal(out, np.linalg.solve(systems, rhs))
    singular = np.stack([np.eye(d), np.zeros((d, d))])
    with _warns_invalid_solve(), pytest.raises(np.linalg.LinAlgError):
        _solve(singular, np.ones((2, d, 1)))


def _spd_systems(rng, d, count):
    """``count`` ridge-regularised Gramians zeta * I + F^T F, as the agent solves."""
    feats = rng.normal(size=(count, 3 * d, d)) * rng.integers(0, 4, (count, 1, 1))
    zetas = rng.choice([0.1, 1.0, 5.0], count)[:, None, None]
    return zetas * np.eye(d) + np.matmul(feats.transpose(0, 2, 1), feats)


def _old_widths(X, gramian):
    """The widths as scipy's dgesv and einsum computed them."""
    return np.sqrt(np.einsum("ij,ji->i", X, dgesv(gramian, X.T)[2]))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_solve_equals_dgesv_on_random_ridge_systems(rng, d):
    """Up to d = 5, every dimension the digested worlds use, scipy's separately
    bundled LAPACK gives numpy's bits; from d = 6 on it differs on some systems."""
    for a in _spd_systems(rng, d, 40):
        for b in (rng.normal(size=d), rng.normal(size=(d, 20)), rng.normal(size=(20, d)).T):
            assert np.array_equal(_solve(a, b), dgesv(a, b)[2])
        X = rng.normal(size=(20, d))
        assert np.array_equal(confidence_widths(X, GroupStats(a, 0, 1.0)), _old_widths(X, a))


def test_solve_equals_dgesv_on_an_agents_systems(world, agent_config, monkeypatch):
    """Every system a graph agent solves, Newton steps and widths alike,
    equals dgesv's solution, and its widths the dgesv formula's; none warns."""
    calls, real = [], estimator._solve

    def recorded(a, b, out=None):
        x = real(a, b, out)
        calls.append((a.copy(), b.copy(), x.copy()))
        return x

    monkeypatch.setattr(estimator, "_solve", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Agent(agent_config, world, 300, 5).run()
    monkeypatch.undo()
    vectors = [c for c in calls if c[1].ndim == 1]
    assert len(vectors) > 300 and len(calls) - len(vectors) == 300
    for a, b, x in calls:
        assert np.array_equal(x, dgesv(a, b)[2])
        if b.ndim == 2:
            assert np.array_equal(confidence_widths(b.T, GroupStats(a, 0, 1.0)),
                                  _old_widths(b.T, a))


def test_singular_inputs_raise_after_numpys_warning(rng):
    d = 3
    singular = np.zeros((d, d))
    stack = np.stack([np.eye(d), singular, 2.0 * np.eye(d)])
    cases = [(singular, np.ones(d), None), (singular, np.ones((d, 4)), None),
             (singular, np.ones((d, 4)), np.empty((4, d)).T), (stack, np.ones((3, d, 1)), None),
             (stack, np.ones((d, 4)), np.empty((3, 4, d)).transpose(0, 2, 1))]
    for a, b, out in cases:
        with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError):
            _solve(a, b, out)
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError):
        confidence_widths_stacked(np.ones((4, d)), stack)


@pytest.mark.parametrize("d", [6, 8])
def test_stacked_and_single_solves_agree_beyond_five_dimensions(rng, d):
    """The engine's stacked fits and widths equal the per-seed ones bit for bit
    at dimensions where scipy's dgesv and numpy's gesv give different bits."""
    feats = rng.normal(size=(12, d)) / math.sqrt(d)
    counts = rng.integers(0, 15, (10, 12)).astype(float)
    succ = np.floor(rng.random(counts.shape) * (counts + 1.0))
    _assert_rows_match_newton(feats, counts, succ, 1.0, SIGMOID, rng.normal(0.0, 0.5, (10, d)))
    gramians = _spd_systems(rng, d, 40)
    widths = confidence_widths_stacked(feats, gramians)
    for s, gramian in enumerate(gramians):
        assert np.array_equal(widths[s], confidence_widths(feats, GroupStats(gramian, 0, 1.0)))
