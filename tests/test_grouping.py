import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from camsel.errors import ConfigError
from camsel.grouping import (F_FUNCTIONS, CameraGraph, DeletionRule, ReconnectPolicy,
                             _min_labels, delete_edges, deletion_threshold, reconnect,
                             set_based_groups)

RULE = DeletionRule(beta=0.1, f_id="f1")


def _bfs_component(adj, start):
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for nbr in np.flatnonzero(adj[node]):
            if nbr not in seen:
                seen.add(int(nbr))
                frontier.append(int(nbr))
    return sorted(seen)


def _reference_labels(adj):
    """scipy's connected components, each relabeled by its smallest member."""
    _, raw = connected_components(adj, directed=False)
    mins = np.full(raw.max() + 1, adj.shape[0])
    np.minimum.at(mins, raw, np.arange(adj.shape[0]))
    return mins[raw]


def test_init_graph():
    g = CameraGraph.complete(1)
    assert g.edge_count() == 0
    assert g.component_count() == 1
    g4 = CameraGraph.complete(4)
    assert g4.edge_count() == 6
    assert g4.component_count() == 1
    with pytest.raises(ConfigError):
        CameraGraph.complete(0)


def test_complete_graph_paper_scale():
    assert CameraGraph.complete(308).edge_count() == 47_278  # n(n-1)/2


def test_find_group_against_bfs_oracle():
    g = CameraGraph(4)
    g.adj[0, 1] = g.adj[1, 0] = True
    g.adj[1, 2] = g.adj[2, 1] = True
    g._invalidate()
    label, members = g.find_group(2)
    assert label == 0
    assert members.tolist() == _bfs_component(g.adj, 2) == [0, 1, 2]
    label3, members3 = g.find_group(3)
    assert label3 == 3
    assert members3.tolist() == [3]
    assert g.component_count() == 2


def test_find_group_complete_and_edgeless():
    comp = CameraGraph.complete(5)
    assert comp.find_group(3)[1].tolist() == [0, 1, 2, 3, 4]
    edgeless = CameraGraph(5)
    assert edgeless.find_group(3)[1].tolist() == [3]
    with pytest.raises(ValueError):
        edgeless.find_group(9)


def test_deletion_threshold_values():
    assert deletion_threshold(RULE, 0, 0) == pytest.approx(0.2)
    assert deletion_threshold(DeletionRule(1.0, "f3"), 3, 8) == pytest.approx(0.5 + 1 / 3)
    e = np.e - 1.0
    assert deletion_threshold(DeletionRule(1.0, "f1"), e, e) == pytest.approx(
        1.7155277699214136, abs=1e-12)
    assert deletion_threshold(RULE, 100, 100) == pytest.approx(0.04715729111897445)


def test_f_function_shapes():
    xs = np.array([0.0, 1.0, 5.0, 50.0, 500.0])
    for fid in ("f1", "f2", "f3", "f4"):
        vals = F_FUNCTIONS[fid](xs)
        assert np.all(np.diff(vals) < 0), fid
    for fid in ("f5", "f6"):
        vals = F_FUNCTIONS[fid](xs)
        assert np.all(np.diff(vals) > 0), fid
    with pytest.raises(ConfigError):
        DeletionRule(0.1, "f7")
    with pytest.raises(ConfigError):
        DeletionRule(0.0, "f1")


def test_delete_edges_cases(rng):
    # identical estimates: nothing deleted
    g = CameraGraph.complete(4)
    est = np.tile(rng.standard_normal(3), (4, 1))
    counts = np.array([5, 5, 5, 5])
    delete_edges(g, 0, est, counts, RULE)
    assert g.edge_count() == 6

    # opposite estimates at distance 2, counts 100: threshold ~ 0.047 -> deleted
    g2 = CameraGraph.complete(2)
    est2 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    delete_edges(g2, 0, est2, np.array([100, 100]), RULE)
    assert g2.edge_count() == 0

    # cold start: distance 0.15 below threshold 0.2 -> kept
    g3 = CameraGraph.complete(2)
    est3 = np.array([[0.15, 0.0], [0.0, 0.0]])
    delete_edges(g3, 0, est3, np.array([0, 0]), RULE)
    assert g3.edge_count() == 1


def test_delete_edges_only_touches_incident_edges():
    g = CameraGraph.complete(3)
    est = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 0.0]])
    delete_edges(g, 0, est, np.array([50, 50, 50]), RULE)
    assert not g.adj[0, 1] and not g.adj[0, 2]
    assert g.adj[1, 2]  # not examined


def test_delete_edges_validates_inputs():
    g = CameraGraph.complete(3)
    with pytest.raises(ValueError, match="estimate"):
        delete_edges(g, 0, np.zeros((2, 2)), np.zeros(3), RULE)


def test_delete_never_adds_and_reconnect_never_removes(rng):
    g = CameraGraph.complete(6)
    est = rng.standard_normal((6, 2))
    counts = rng.integers(0, 50, 6)
    for cam in range(6):
        before = g.edge_count()
        delete_edges(g, cam, est, counts, DeletionRule(0.05, "f2"))
        assert g.edge_count() <= before
    policy = ReconnectPolicy(p0=0.9)
    before = g.edge_count()
    reconnect(g, policy, 1, rng)
    assert g.edge_count() >= before


def test_component_count_monotonicity(rng):
    g = CameraGraph.complete(6)
    est = rng.standard_normal((6, 3)) * 3
    counts = np.full(6, 200)
    prev = g.component_count()
    for cam in range(6):
        delete_edges(g, cam, est, counts, RULE)
        cur = g.component_count()
        assert cur >= prev
        prev = cur
    policy = ReconnectPolicy(p0=0.999)
    prev = g.component_count()
    for t in (1, 1, 1):
        reconnect(g, policy, t, rng)
        cur = g.component_count()
        assert cur <= prev
        prev = cur


def test_reconnect_whole_graph_reset():
    g = CameraGraph(4)

    class AlwaysLow:
        def random(self, *a):
            return 0.0
    reconnect(g, ReconnectPolicy(p0=0.5), 1, AlwaysLow())
    assert g.edge_count() == 6  # p_1 = p0 = 0.5 > 0 -> reset fired


def test_reconnect_rare_at_late_rounds(rng):
    # p_t = 0.5 / 1000^2 = 5e-7; over 10,000 trials expect ~0 resets
    policy = ReconnectPolicy(p0=0.5)
    resets = 0
    for _ in range(10_000):
        g = CameraGraph(3)
        reconnect(g, policy, 1000, rng)
        resets += g.edge_count() > 0
    assert resets <= 1


def test_reconnect_probability_clamped():
    policy = ReconnectPolicy(p0=0.7)
    assert policy.probability(1) == 0.7
    assert policy.probability(1000) == pytest.approx(7e-7)
    with pytest.raises(ConfigError):
        ReconnectPolicy(p0=1.5)


def test_set_based_groups_basic(rng):
    est = np.tile(rng.standard_normal(3), (5, 1))
    labels = set_based_groups(est, np.full(5, 10), RULE)
    assert np.all(labels == 0)

    # two clusters separated by distance 2 with thresholds below 0.5
    est2 = np.vstack([np.tile([1.0, 0.0], (3, 1)), np.tile([-1.0, 0.0], (3, 1))])
    labels2 = set_based_groups(est2, np.full(6, 100), RULE)
    assert labels2.tolist() == [0, 0, 0, 3, 3, 3]

    single = set_based_groups(np.zeros((1, 2)), np.zeros(1), RULE)
    assert single.tolist() == [0]


def test_set_based_groups_needs_one_count_per_camera():
    est = np.zeros((5, 2))
    for counts in (np.array([10]), np.zeros(4), np.zeros(6), np.zeros((5, 1))):
        with pytest.raises(ValueError, match="one count for each of 5 cameras"):
            set_based_groups(est, counts, RULE)


def test_set_based_matches_pairwise_oracle(rng):
    est = rng.standard_normal((7, 3))
    counts = rng.integers(0, 80, 7)
    labels = set_based_groups(est, counts, RULE)
    adj = np.zeros((7, 7), dtype=bool)
    for a in range(7):
        for b in range(7):
            if a != b:
                thr = deletion_threshold(RULE, counts[a], counts[b])
                adj[a, b] = np.linalg.norm(est[a] - est[b]) <= thr
    g = CameraGraph(7, adj)
    assert np.array_equal(labels, g.component_labels())


def test_set_based_groups_row_blocks_equal_one_pass(rng, monkeypatch):
    """Row blocks give the one-pass adjacency bit for bit, over one block and
    over many, and a call's only N x N float array is its Gram matrix."""
    import tracemalloc

    import camsel.grouping as grouping

    seen, f = [], F_FUNCTIONS[RULE.f_id]
    monkeypatch.setattr(grouping, "_min_labels",
                        lambda adj: seen.append(adj.copy()) or _min_labels(adj))
    for n in (1, 27, 308, 1100):
        est, counts = rng.standard_normal((n, 5)) * 0.05, rng.integers(0, 400, n).astype(float)
        sq = np.sum(est ** 2, axis=1)
        d2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * (est @ est.T), 0.0, None)
        for fixed in (None, 0.1):
            thr = RULE.beta * (f(counts)[:, None] + f(counts)[None, :]) if fixed is None else fixed
            expected = d2 <= thr * thr
            np.fill_diagonal(expected, False)
            seen.clear()
            set_based_groups(est, counts, RULE, fixed)
            assert np.array_equal(seen[0], expected), (n, fixed)
            if n >= 308:    # some pairs joined and some split, so a wrong block shows
                assert 0 < np.count_nonzero(expected) < n * (n - 1)
    monkeypatch.undo()
    est, counts = rng.standard_normal((308, 5)), rng.integers(0, 50, 308).astype(float)
    tracemalloc.start()
    try:
        set_based_groups(est, counts, RULE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 308 * 308 * 8


def test_soundness_constructed_estimates(rng):
    # ground truth dispersion gamma, estimates inside gamma/4 balls, fixed
    # gamma/2 threshold: exact recovery
    gamma = 0.5
    centers = np.array([[0.9, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.9]])
    assignment = np.array([0, 0, 1, 1, 1, 2, 2, 0])
    for _ in range(20):
        noise = rng.standard_normal((8, 3))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        radii = rng.random(8) * (gamma / 4) * 0.999
        est = centers[assignment] + noise * radii[:, None]
        labels = set_based_groups(est, np.zeros(8), RULE, fixed_threshold=gamma / 2)
        expected = np.array([0, 0, 2, 2, 2, 5, 5, 0])
        assert np.array_equal(labels, expected)


def test_graph_refines_set_partition(rng):
    # one delete pass per camera on frozen estimates: the graph partition
    # refines (or equals) the set-based partition on the same inputs
    est = rng.standard_normal((8, 3)) * 1.5
    counts = rng.integers(0, 60, 8)
    g = CameraGraph.complete(8)
    for cam in range(8):
        delete_edges(g, cam, est, counts, RULE)
    graph_labels = g.component_labels()
    set_labels = set_based_groups(est, counts, RULE)
    # refinement: members of one graph component share a set-based component
    for lab in np.unique(graph_labels):
        members = np.flatnonzero(graph_labels == lab)
        assert np.unique(set_labels[members]).size == 1


@st.composite
def _adjacencies(draw):
    """Symmetric adjacencies of random density and of the shapes where a
    breadth-first search does the most work, with camera ids shuffled."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "path", "pairs", "complete", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    adj = np.zeros((n, n), dtype=bool)
    if shape == "random":
        adj = rng.random((n, n)) < draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    elif shape == "path":
        adj[np.arange(n - 1), np.arange(1, n)] = True
    elif shape == "pairs":
        adj[np.arange(0, n - 1, 2), np.arange(1, n, 2)] = True
    elif shape == "complete":
        adj[:] = True
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    perm = rng.permutation(n) if draw(st.booleans()) else np.arange(n)
    return adj[np.ix_(perm, perm)]


@settings(max_examples=300, deadline=None)
@given(adj=_adjacencies())
def test_min_labels_match_scipy_components(adj):
    assert np.array_equal(_min_labels(adj), _reference_labels(adj))


def test_graph_adjacency_validation():
    with pytest.raises(ValueError):
        CameraGraph(3, np.array([[0, 1], [1, 0]], dtype=bool))
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        CameraGraph(3, asym)


_GRAPH_OPS = st.lists(st.one_of(
    st.tuples(st.just("remove"), st.integers(0, 7), st.lists(st.integers(0, 7), max_size=6)),
    st.tuples(st.just("reconnect"), st.integers(1, 3), st.integers(0, 2 ** 16)),
    st.tuples(st.just("reset")),
), max_size=30)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), ops=_GRAPH_OPS)
def test_kept_edge_count_and_labels_track_adjacency(n, ops):
    g = CameraGraph.complete(n)
    assert np.array_equal(g.component_labels(), _reference_labels(g.adj))
    policy = ReconnectPolicy(0.9)
    for op in ops:
        if op[0] == "remove":
            g.remove_edges(op[1] % n, np.array([c % n for c in op[2]], dtype=int))
        elif op[0] == "reconnect":
            reconnect(g, policy, op[1], np.random.default_rng(op[2]))
        else:
            g.reset_complete()
        assert g.edge_count() == int(g.adj.sum()) // 2
        assert np.array_equal(g.component_labels(), _reference_labels(g.adj))
