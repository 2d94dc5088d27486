import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from camsel.environment import save_world
from camsel.harness import (VARIANTS, ExperimentConfig, run_block, run_experiment, run_pair,
                            variant_agent_config)

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "record_digest.py"
# the variants a sweep runs in lockstep blocks on every shape's world
LOCKSTEP_VARIANTS = ("no-perspective", "no-grouping", "default", "tier-first", "set-based")


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


def test_blocks_mode_prints_the_default_lines(capsys, monkeypatch):
    # --blocks runs each agent variant's seeds in one block of the engine
    import camsel.harness as harness

    tool, blocks, run_block = _load_tool(), [], harness.run_block

    def counted(variant, seeds, *args, **kwargs):
        blocks.append((variant, len(seeds)))
        return run_block(variant, seeds, *args, **kwargs)

    monkeypatch.setattr(harness, "run_block", counted)
    assert tool.main(["--horizon", "30", "--blocks"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "overall 9b2b1ac263349863cf971b867af6356bca9b11baf78f338dd6674e660594815f")
    # the canonical variants' ten seeds, the schedule's agent pairs and both fleets' seeds
    blocked = [v for v in VARIANTS if v != "greedy"]
    assert len(blocked) == 12 and {"no-combining", "set-based"} <= set(blocked)
    assert blocks == [(v, 10) for v in blocked] + [("default", 1), ("set-based", 1),
                                                   ("default", 4), ("set-based", 3)]


def test_blocks_mode_with_shapes_prints_the_shapes_lines(capsys, monkeypatch):
    # each shape's pairs of one variant form a block: default, tier-first and
    # set-based run in the engine, greedy through run_pair
    import camsel.harness as harness

    tool, blocks, run_block = _load_tool(), [], harness.run_block

    def counted(variant, seeds, *args, **kwargs):
        blocks.append((variant, len(seeds)))
        return run_block(variant, seeds, *args, **kwargs)

    monkeypatch.setattr(harness, "run_block", counted)
    assert tool.main(["--blocks", "--shapes"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "overall edf2eaecff79e2aabe952e2b39191e576b82a34456f89ac5df602729cd2296a4")
    assert blocks == [(v, 1) for _ in tool.SHAPES for v in ("default", "tier-first", "set-based")]


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


@pytest.mark.parametrize("workers", [1, 2])
def test_blocked_lockstep_pairs_equal_run_pair_on_every_shape(tmp_path, workers):
    # the digest tool runs every pair through run_pair; a sweep runs the
    # lockstep variants in blocks of seeds, one block per worker, and writes
    # each block's trace files together
    tool = _load_tool()
    shapes = {name.split("/")[1]: args for name, args in tool.shape_pairs()}
    assert len(shapes) == len(tool.SHAPES)
    seeds, reference_trace = (0, 1, 2, 3), tmp_path / "pair.csv"
    for shape, (_, _, world, agent, _, events) in shapes.items():
        save_world(world, tmp_path / f"{shape}.json")
        for horizon in (0, 1, 300):
            out = tmp_path / f"{shape}-{horizon}"
            cfg = ExperimentConfig(agent=agent, world=None,
                                   world_path=str(tmp_path / f"{shape}.json"),
                                   variants=LOCKSTEP_VARIANTS, horizon=horizon, seeds=seeds,
                                   schedule_events=events, workers=workers, output_dir=str(out))
            result = run_experiment(cfg, keep_records=True)
            assert len(result.runs) == 4 * len(LOCKSTEP_VARIANTS), (shape, result.summary)
            for (variant, seed), run in result.runs.items():
                where = (shape, variant, seed, horizon)
                reference = run_pair(variant, seed, result.world, agent, horizon,
                                     schedule_events=events, trace_path=reference_trace,
                                     keep_records=True)
                assert tool.result_digest(run) == tool.result_digest(reference), where
                trace = (out / variant / f"{seed}.csv").read_bytes()
                assert trace == reference_trace.read_bytes(), where
                assert trace.count(b"\n") == horizon + 2, where     # T = 0: the header alone


def _bench_blocks_digest(variant):
    """The overall digest of the 400 ``--bench`` pairs of ``variant``, run in
    ten 40-seed blocks, hashed in order."""
    tool = _load_tool()
    listed = [(name, args) for name, args in tool.bench_pairs() if args[0] == variant]
    assert len(listed) == 400
    overall = hashlib.sha256()
    for start in range(0, len(listed), 40):
        block = listed[start:start + 40]
        variant, _, world, agent, horizon, events = block[0][1]
        results = run_block(variant, [args[1] for _, args in block], world, agent, horizon,
                            events, keep_records=True)
        for (name, _), result in zip(block, results):
            overall.update(f"{name} {tool.result_digest(result)}\n".encode())
    return overall.hexdigest()


def test_bench_pooled_pairs_in_blocks_are_pinned():
    # the lines run_pair gives the 400 no-perspective --bench pairs
    assert _bench_blocks_digest("no-perspective") == (
        "d12e70be1566162f8e36d8d61537b1f6e282828850ebc62b6348a477ea861356")


def test_bench_default_pairs_in_blocks_are_pinned():
    # the lines run_pair gives the 400 default --bench pairs
    assert _bench_blocks_digest("default") == (
        "0ab4691d7b9c81ba2e89a0bba43e6316cd041841bbc2556da242af84d4f43b26")


def test_long_default_block_equals_run_pair():
    # at T = 2,000 almost every round of a canonical default block runs in an
    # edgeless stretch, one chain of visits per (seed, camera)
    from camsel.presets import canonical_agent_config, canonical_world

    tool, world, agent = _load_tool(), canonical_world(), canonical_agent_config()
    seeds, horizon = tuple(range(10)), 2000
    results = run_block("default", seeds, world, agent, horizon, keep_records=True)
    for seed, result in zip(seeds, results):
        reference = run_pair("default", seed, world, agent, horizon, keep_records=True)
        assert tool.result_digest(result) == tool.result_digest(reference), seed


def test_blocked_deletion_functions_equal_run_pair_on_the_canonical_world(tmp_path):
    # criterion 4's sweep: f1..f6 on the canonical world at T = 850, in blocks of five
    from camsel.presets import canonical_agent_config, canonical_world

    tool, agent = _load_tool(), canonical_agent_config()
    save_world(canonical_world(), tmp_path / "world.json")
    variants, horizon = ("f1", "f2", "f3", "f4", "f5", "f6"), 850
    cfg = ExperimentConfig(agent=agent, world=None, world_path=str(tmp_path / "world.json"),
                           variants=variants, horizon=horizon, seeds=tuple(range(10)), workers=2)
    result = run_experiment(cfg, keep_records=True)
    assert len(result.runs) == 60, result.summary
    for (variant, seed), run in result.runs.items():
        reference = run_pair(variant, seed, result.world, agent, horizon, keep_records=True)
        assert tool.result_digest(run) == tool.result_digest(reference), (variant, seed)
