import importlib.util
import sys
from pathlib import Path

from camsel.harness import VARIANTS, variant_agent_config

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "record_digest.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tool():
    return _load("record_digest", TOOL)


def test_digest_covers_every_variant_and_repeats(capsys):
    tool = _load_tool()
    outputs = []
    for _ in range(2):
        assert tool.main(["--horizon", "30"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    # hashes every variant's correct flags, the schedule pairs and both fleets
    assert lines[-1] == [
        "overall", "9b2b1ac263349863cf971b867af6356bca9b11baf78f338dd6674e660594815f"]
    names = [name for name, _ in lines]
    assert len(names) == len(set(names)) == 13 * 10 + 3 + 4 + 3 + 1
    assert {name.split("/")[0] for name in names[:130]} == set(VARIANTS)
    assert names[-1] == "overall"
    assert all(len(digest) == 64 for _, digest in lines)
    # each variant's seeds give different digests
    for variant in VARIANTS:
        assert len({digest for name, digest in lines
                    if name.startswith(variant + "/")}) == 10, variant


def test_bench_pairs_are_the_canonical_workloads_pairs():
    tool = _load_tool()
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS
    expected = [(w.variant, seed, w.horizon)
                for w in (workloads["canonical-sweep"], workloads["canonical-pooled"])
                for workload_seed in range(10) for seed in w.run_seeds(workload_seed)]
    listed = list(tool.bench_pairs())
    names = [name for name, _ in listed]
    assert len(listed) == len(set(names)) == 800
    assert [(v, seed, horizon) for _, (v, seed, _, _, horizon, _) in listed] == expected
    assert {v for _, (v, *_rest) in listed} == {"default", "no-perspective"}
    assert names[0] == "bench/default/seed0" and names[-1] == "bench/no-perspective/seed399"
    assert all(events == () for _, (*_rest, events) in listed)


def test_shape_pairs_cover_links_payoffs_and_shapes():
    listed = list(_load_tool().shape_pairs())
    names = [name for name, _ in listed]
    assert 36 <= len(listed) == len(set(names)) <= 44
    runs = [(variant, world, variant_agent_config(agent, variant) if variant != "greedy"
             else agent, horizon, events)
            for _, (variant, _seed, world, agent, horizon, events) in listed]
    assert all(horizon <= 500 for *_, horizon, _ in runs)
    # both valid links under both payoff modes, for the world and the agent
    assert {(w.link.kind, w.payoff_mode) for _, w, *_ in runs} == {
        (link, mode) for link in ("sigmoid", "clipped-linear")
        for mode in ("bernoulli", "thresholded-gaussian")}
    assert all(a.link == w.link for _, w, a, *_ in runs)
    zetas = {a.zeta for _, _, a, *_ in runs}
    assert {0.1, 5.0} <= zetas
    assert any(a.k_max == 1 and w.n_models > 1 for _, w, a, *_ in runs)
    assert any(a.k_max == w.n_models > 1 for _, w, a, *_ in runs)
    assert any(w.n_models == 1 for _, w, *_ in runs)
    assert any(w.n_cameras == 1 for _, w, *_ in runs)
    assert any(w.dimension == 2 for _, w, *_ in runs)
    # one camera moved twice inside the horizon
    assert any(len(events) == 2 and events[0][1] == events[1][1]
               and max(t for t, _, _ in events) < horizon
               for *_, horizon, events in runs)
    assert {a.cascade_order for v, _, a, *_ in runs if v != "greedy"} == {
        "ucb-desc", "tier-then-ucb"}
    assert {v for v, *_ in runs} >= {"default", "set-based", "greedy"}


def test_shape_digests_are_pinned(capsys):
    # the clipped-linear link, Gaussian payoffs, k_max = M and the other
    # shapes the canonical golden table never reaches, fingerprinted bit for bit
    assert _load_tool().main(["--shapes"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "overall edf2eaecff79e2aabe952e2b39191e576b82a34456f89ac5df602729cd2296a4")
