import csv
import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from camsel.environment import WorldConfig, save_world
from camsel.errors import ConfigError
from camsel.harness import (TIMING_BUCKETS, TRACE_HEADER, TRACE_SCHEMA_VERSION,
                            ExperimentConfig, RunResult, acceleration_ratio,
                            canonical_labels, checkpoints, read_trace,
                            rounds_to_threshold, run_experiment, run_pair,
                            tradeoff_score, write_trace)
from camsel.policy import AgentConfig
from camsel.presets import canonical_world


def _cfg(**kw):
    base = dict(agent=AgentConfig(), world=WorldConfig(n_groups=2, n_cameras=4,
                                                       dimension=3, gamma=0.4,
                                                       n_models=6),
                world_seed=1, variants=("default",), horizon=10, seeds=(0,))
    base.update(kw)
    return ExperimentConfig(**base)


def test_smallest_run(tmp_path):
    cfg = _cfg(output_dir=str(tmp_path))
    result = run_experiment(cfg)
    trace = read_trace(tmp_path / "default" / "0.csv")
    assert len(trace) == 10
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["checkpoints"] == [10]
    assert len(summary["variants"]["default"]["cum_regret_mean"]) == 1
    assert summary["variants"]["default"]["nonconverged_solves"] == [0]
    assert set(summary["variants"]["default"]["timing_seconds"]) == \
        set(TIMING_BUCKETS) | {"wall"}


def test_paired_streams_across_variants():
    cfg = _cfg(variants=("default", "no-combining", "greedy"), horizon=300,
               seeds=(0, 1))
    result = run_experiment(cfg, keep_records=True)
    for seed in (0, 1):
        cameras = {v: [r.camera for r in result.runs[(v, seed)].records]
                   for v in cfg.variants}
        assert cameras["default"] == cameras["no-combining"] == cameras["greedy"]


def test_paired_payoffs_keyed_by_round_and_model():
    cfg = _cfg(variants=("default", "no-combining"), horizon=400, seeds=(3,))
    result = run_experiment(cfg, keep_records=True)
    a = result.runs[("default", 3)].records
    b = result.runs[("no-combining", 3)].records
    for ra, rb in zip(a, b):
        outcomes_a = dict(zip(ra.tried_models, ra.payoffs))
        outcomes_b = dict(zip(rb.tried_models, rb.payoffs))
        shared = set(outcomes_a) & set(outcomes_b)
        for m in shared:
            assert outcomes_a[m] == outcomes_b[m]


def test_aggregation_matches_recomputation(tmp_path):
    cfg = _cfg(variants=("default",), horizon=250, seeds=(0, 1, 2),
               output_dir=str(tmp_path))
    result = run_experiment(cfg)
    summary = result.summary
    marks = summary["checkpoints"]
    curves = []
    for seed in (0, 1, 2):
        trace = read_trace(tmp_path / "default" / f"{seed}.csv")
        cum = np.cumsum([r.instantaneous_regret for r in trace])
        curves.append([cum[m - 1] for m in marks])
    recomputed_mean = np.mean(curves, axis=0)
    assert np.allclose(summary["variants"]["default"]["cum_regret_mean"],
                       recomputed_mean, atol=1e-12)
    recomputed_se = np.std(curves, axis=0, ddof=1) / np.sqrt(3)
    assert np.allclose(summary["variants"]["default"]["cum_regret_se"],
                       recomputed_se, atol=1e-12)


def test_cumulative_regret_curves_nondecreasing():
    cfg = _cfg(horizon=300)
    result = run_experiment(cfg)
    run = result.runs[("default", 0)]
    assert np.all(np.diff(run.cum_regret) >= -1e-12)


def test_rounds_to_threshold_cases():
    flat = np.full(50, 0.9)
    assert rounds_to_threshold(flat, 0.8, 10) == 10
    assert rounds_to_threshold(flat, 1.01, 10) is None
    step_trace = np.concatenate([np.full(100, 0.5), np.full(100, 0.9)])
    got = rounds_to_threshold(step_trace, 0.8, 20)
    # sliding-window oracle
    expected = None
    for t in range(20, 201):
        if step_trace[t - 20:t].mean() >= 0.8:
            expected = t
            break
    assert got == expected and 101 <= got <= 120
    assert rounds_to_threshold(np.full(5, 1.0), 0.5, 10) is None  # window incomplete
    with pytest.raises(ValueError):
        rounds_to_threshold(flat, 0.8, 0)


def test_acceleration_ratio():
    assert acceleration_ratio(3000, 1000) == pytest.approx(3.0)
    assert acceleration_ratio(200, 200) == 1.0
    assert acceleration_ratio(None, 100) is None
    assert acceleration_ratio(100, None) is None


def test_tradeoff_score():
    assert tradeoff_score(1.0, 0.0, 0.5) == 1.0
    assert tradeoff_score(0.9, 0.4, 0.5) == pytest.approx(0.7)
    assert tradeoff_score(0.6, 0.8, 0.0) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        tradeoff_score(1.2, 0.0, 0.5)


def test_checkpoints():
    assert checkpoints(20_000) == [100, 200, 500, 1000, 2000, 5000, 10_000, 20_000]
    assert checkpoints(850) == [100, 200, 500, 850]
    assert checkpoints(50) == [50]
    assert checkpoints(100) == [100]
    marks = checkpoints(123_456)
    assert marks == sorted(set(marks))
    assert marks[-1] == 123_456


def test_trace_round_trip(tmp_path, world):
    from camsel.policy import run_agent

    records = run_agent(AgentConfig(), world, 50, seed=0)
    path = tmp_path / "trace.csv"
    write_trace(path, records)
    header = path.read_text().splitlines()
    assert header[0] == "# schema_version=1"
    assert header[1].startswith("t,camera,inferred_group")
    again = read_trace(path)
    assert len(again) == 50
    for a, b in zip(records, again):
        assert a.tried_models == b.tried_models
        assert a.payoffs == b.payoffs
        assert a.expected_payoff == b.expected_payoff  # repr round-trips exactly
        assert a.graph_reset == b.graph_reset


def test_records_are_built_only_for_traces_and_keep_records(tmp_path, world, monkeypatch):
    import camsel.policy as policy

    built = []
    original = policy.RoundRecord

    def counted(*args, **kwargs):
        built.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(policy, "RoundRecord", counted)
    agent = AgentConfig()
    res = run_pair("no-perspective", 0, world, agent, 80)
    assert res.records is None and res.cum_regret.size == 80 and built == []
    # a trace file is written from the round log, without records
    res = run_pair("no-perspective", 0, world, agent, 80, trace_path=tmp_path / "np.csv")
    assert res.records is None and built == []
    for variant in ("default", "greedy"):
        path = tmp_path / f"{variant}.csv"
        res = run_pair(variant, 0, world, agent, 80, greedy_profile_rounds=20,
                       trace_path=path, keep_records=True)
        assert res.records == read_trace(path), variant
        inst = [r.instantaneous_regret for r in res.records]
        assert res.inst_regret.tolist() == inst
        assert res.cum_regret.tolist() == np.cumsum(inst).tolist()
        assert res.expected.tolist() == [r.expected_payoff for r in res.records]
        assert res.components.tolist() == [r.component_count for r in res.records]
        assert res.total_bandwidth == sum(r.bandwidth_spent for r in res.records)


def _csv_writer_trace(path, records):
    """The trace writer as it was when rows went through ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema_version={TRACE_SCHEMA_VERSION}\n")
        fh.write(TRACE_HEADER + "\n")
        writer = csv.writer(fh)
        cum = 0.0
        for r in records:
            cum += r.instantaneous_regret
            writer.writerow([
                r.t, r.camera, r.inferred_group, r.true_group,
                ";".join(str(m) for m in r.tried_models),
                ";".join(str(p) for p in r.payoffs),
                r.aggregate_payoff,
                repr(float(r.expected_payoff)),
                repr(float(r.oracle_expected_payoff)),
                repr(float(r.instantaneous_regret)),
                repr(float(cum)),
                r.component_count,
                repr(float(r.bandwidth_spent)),
                r.edges_deleted,
                int(r.graph_reset),
            ])


def test_trace_bytes_match_csv_writer(tmp_path, world):
    from dataclasses import replace

    from camsel.policy import run_agent

    records = run_agent(AgentConfig(), world, 120, seed=3)
    # numpy scalars, a long cascade, both reset values, an empty cascade
    records[5] = replace(records[5], tried_models=(4, 0, 11), payoffs=(0, 0, 1),
                         expected_payoff=np.float64(0.1), graph_reset=True,
                         instantaneous_regret=np.float64(1e-17), camera=np.int64(7),
                         bandwidth_spent=np.float32(2.5), edges_deleted=np.int64(3))
    records[6] = replace(records[6], tried_models=(), payoffs=(), graph_reset=False)
    assert any(len(r.tried_models) > 1 for r in records[7:])
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_trace(ours, records)
    _csv_writer_trace(theirs, records)
    assert ours.read_bytes() == theirs.read_bytes()
    assert b"\r\n" in ours.read_bytes() and b"np." not in ours.read_bytes()


def test_trace_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# schema_version=99\nwhatever\n")
    with pytest.raises(ConfigError):
        read_trace(path)


def _twenty_round_trace(tmp_path, world, agent_config):
    path = tmp_path / "trace.csv"
    run_pair("default", 0, world, agent_config, 20, trace_path=path)
    return path, path.read_bytes()


@pytest.mark.parametrize("cut", [40, 3])
def test_trace_with_a_truncated_last_row_names_its_line(tmp_path, world, agent_config, cut):
    # cut 40 bytes: the row loses its last fields; cut 3: its last field is empty
    path, data = _twenty_round_trace(tmp_path, world, agent_config)
    path.write_bytes(data[:-cut])
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 22: ")):
        read_trace(path)


def test_trace_row_with_an_extra_field_names_its_line(tmp_path, world, agent_config):
    path, data = _twenty_round_trace(tmp_path, world, agent_config)
    lines = data.split(b"\n")
    lines[4] = lines[4].replace(b"\r", b",7\r")      # the third row, on line 5
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 5: 16 fields, expected 15")):
        read_trace(path)


def test_failed_pair_recorded_not_fatal(monkeypatch, tmp_path):
    cfg = _cfg(variants=("default", "greedy"), seeds=(0,), horizon=20,
               greedy_profile_rounds=5, output_dir=str(tmp_path))

    import camsel.harness as harness

    original = harness.baseline_greedy

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "baseline_greedy", boom)
    result = run_experiment(cfg)
    assert ("default", 0) in result.runs
    assert ("greedy", 0) not in result.runs
    message = result.summary["variants"]["greedy"]["failed"]["0"]
    assert message.startswith("RuntimeError: synthetic failure (at ")
    assert message.endswith(" in boom)") and "test_harness.py:" in message
    monkeypatch.setattr(harness, "baseline_greedy", original)


def test_failed_pair_message_names_every_frame_below_run_pair(monkeypatch):
    import camsel.policy as policy

    def broken_widths(*args, **kwargs):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(policy, "confidence_widths", broken_widths)
    result = run_experiment(_cfg())
    message = result.summary["variants"]["default"]["failed"]["0"]
    assert message.startswith("FloatingPointError: synthetic failure (at ")
    frames = message[message.index("(at ") + 4:-1].split(" > ")
    names = [frame.rsplit(" in ", 1)[1] for frame in frames]
    assert names[0] == "run_pair" and "step" in names and names[-1] == "broken_widths"
    assert "harness.py:" in frames[0] and "test_harness.py:" in frames[-1]


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="variant"):
        _cfg(variants=("defualt",))


def test_tier_first_variant():
    from camsel.harness import variant_agent_config

    cfg = variant_agent_config(AgentConfig(), "tier-first")
    assert cfg.cascade_order == "tier-then-ucb"
    result = run_experiment(_cfg(variants=("tier-first",), horizon=40),
                            keep_records=True)
    records = result.runs[("tier-first", 0)].records
    assert len(records) == 40


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(seeds=())
    with pytest.raises(ConfigError):
        _cfg(window=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(agent=AgentConfig(), world=None, world_path=None)


@pytest.mark.parametrize("variant", ["default", "set-based"])
def test_correct_column_matches_hand_stepped_agent(variant):
    from dataclasses import replace

    from camsel.environment import PerspectiveSchedule
    from camsel.harness import variant_agent_config
    from camsel.policy import Agent
    from camsel.presets import canonical_agent_config

    # Every camera starts in group A and camera 0 moves to B at t = 100; at
    # beta = 1 both groupings match the true partition before and after the
    # move on seed 0, so the column holds both values.
    events = ((100, 0, 1), (200, 5, 0))
    world = replace(canonical_world(), camera_groups=np.zeros(8, dtype=int))
    base = replace(canonical_agent_config(), beta=1.0)
    res = run_pair(variant, 0, world, base, 300, schedule_events=events)
    agent = Agent(variant_agent_config(base, variant), world, 300, 0,
                  PerspectiveSchedule(events))
    expected, assignment = [], world.camera_groups.copy()
    for t in range(1, 301):
        agent.step(t)
        for due, cam, grp in events:      # the truth at round t, from the events
            if due == t:
                assignment[cam] = grp
        expected.append(np.array_equal(canonical_labels(agent.inferred_labels()),
                                       canonical_labels(assignment)))
    assert res.correct.tolist() == agent.correct.tolist() == expected
    assert any(expected[:99]) and any(expected[100:])
    # the greedy baseline infers no partition, so it never matches the truth
    greedy = run_pair("greedy", 0, world, base, 300, schedule_events=events)
    assert greedy.correct.tolist() == [False] * 300


def test_canonical_labels():
    assert canonical_labels(np.array([2, 2, 0, 0, 5])).tolist() == [0, 0, 2, 2, 4]
    assert canonical_labels(np.array([1, 1, 1])).tolist() == [0, 0, 0]


def test_parallel_workers_match_sequential(tmp_path):
    # set-based and greedy split their four seeds into two jobs, as default does
    base = _cfg(variants=("default", "set-based", "greedy"), horizon=150, seeds=(0, 1, 2, 3))
    seq = run_experiment(base)
    par = run_experiment(ExperimentConfig(
        agent=base.agent, world=base.world, world_seed=base.world_seed,
        variants=base.variants, horizon=base.horizon, seeds=base.seeds, workers=2))
    for variant in base.variants:
        assert seq.summary["variants"][variant]["cum_regret_mean"] == \
            par.summary["variants"][variant]["cum_regret_mean"], variant


def test_schedule_passes_through():
    cfg = _cfg(horizon=60, schedule_events=((30, 0, 1),))
    result = run_experiment(cfg, keep_records=True)
    records = result.runs[("default", 0)].records
    for r in records:
        if r.camera == 0 and r.t >= 30:
            assert r.true_group == 1


def test_timing_buckets_add_up_to_wall(world, agent_config):
    run_pair("default", 0, world, agent_config, 5)    # first-call costs
    timed = wall = 0.0
    # a preemption that lands between two timers counts only in the wall;
    # summed over five runs, one such stall weighs a fifth as much
    for _ in range(5):
        timing = run_pair("default", 0, world, agent_config, 300).timing
        run_timed = sum(timing[key] for key in TIMING_BUCKETS)
        assert run_timed <= timing["wall"], timing
        timed, wall = timed + run_timed, wall + timing["wall"]
    assert timed >= 0.95 * wall, (timed, wall)


def test_greedy_timing_buckets_add_up_to_wall(world, agent_config):
    run_pair("greedy", 0, world, agent_config, 5)
    timed = wall = 0.0
    for _ in range(5):
        timing = run_pair("greedy", 0, world, agent_config, 300).timing
        assert timing["selection"] > 0.0 and timing["harness"] > 0.0, timing
        assert timing["grouping"] == timing["estimation"] == timing["bookkeeping"] == 0.0
        run_timed = sum(timing[key] for key in TIMING_BUCKETS)
        assert run_timed <= timing["wall"], timing
        timed, wall = timed + run_timed, wall + timing["wall"]
    assert timed >= 0.95 * wall, (timed, wall)


@pytest.mark.parametrize("variant", ["default", "set-based", "greedy"])
def test_timing_buckets_sum_to_wall_exactly(world, agent_config, variant):
    timing = run_pair(variant, 0, world, agent_config, 200).timing
    assert all(timing[key] >= 0.0 for key in TIMING_BUCKETS), timing
    assert abs(sum(timing[key] for key in TIMING_BUCKETS) - timing["wall"]) <= 1e-9, timing
    if variant == "greedy":
        assert timing["grouping"] == timing["estimation"] == timing["bookkeeping"] == 0.0


def test_progress_logged_once_per_pair(monkeypatch, caplog, tmp_path):
    import camsel.harness as harness

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "baseline_greedy", boom)
    cfg = _cfg(variants=("default", "greedy"), seeds=(0, 1), horizon=20,
               greedy_profile_rounds=5, output_dir=str(tmp_path))
    with caplog.at_level(logging.INFO, logger="camsel.harness"):
        result = run_experiment(cfg)
    lines = [r for r in caplog.records if r.name == "camsel.harness"]
    assert [r.levelno for r in lines] == [logging.INFO] * 4
    messages = [r.getMessage() for r in lines]
    for seed, message in zip((0, 1), messages[:2]):
        run = result.runs[("default", seed)]
        assert message == (f"pair default seed {seed} finished in "
                           f"{run.timing['wall']:.3f} s, final regret {float(run.cum_regret[-1])!r}")
    for seed, message in zip((0, 1), messages[2:]):
        assert message.startswith(f"pair greedy seed {seed} failed: RuntimeError: "
                                  "synthetic failure (at ")


def _canonical_cfg(tmp_path, world, agent_config, **kw):
    """An experiment on the canonical world, read back from a world file."""
    path = tmp_path / "world.json"
    save_world(world, path)
    return ExperimentConfig(agent=agent_config, world=None, world_path=str(path), **kw)


@pytest.mark.parametrize("variant", ["default", "no-perspective", "set-based"])
def test_agent_timers_leave_under_a_tenth_of_the_wall_to_the_harness(world, agent_config,
                                                                     variant):
    # harness is the rest of the wall, so only this bound shows whether the
    # agent's own four timers cover its rounds
    timing = run_pair(variant, 0, world, agent_config, 2000).timing
    assert timing["harness"] / timing["wall"] < 0.1, timing


def test_blocked_pairs_share_their_block_timers_and_wall(tmp_path, world, agent_config):
    cfg = _canonical_cfg(tmp_path, world, agent_config, variants=("no-perspective", "default"),
                         horizon=2000, seeds=tuple(range(10)))
    runs = run_experiment(cfg).runs
    assert len(runs) == 20
    for (variant, _), run in runs.items():
        timing = run.timing
        assert all(timing[key] >= 0.0 for key in TIMING_BUCKETS), timing
        assert abs(sum(timing[key] for key in TIMING_BUCKETS) - timing["wall"]) <= 1e-9, timing
        assert timing["harness"] / timing["wall"] < 0.1, timing
        assert timing == runs[(variant, 0)].timing


def test_failed_block_reruns_its_pairs_alone(monkeypatch, tmp_path, world, agent_config):
    import camsel.harness as harness

    def broken_engine(*args, **kwargs):
        raise RuntimeError("engine failure")

    real_agent = harness.Agent

    def agent_failing_seed_2(config, world, horizon, seed, schedule=None):
        if seed == 2:
            raise FloatingPointError("synthetic failure")
        return real_agent(config, world, horizon, seed, schedule)

    monkeypatch.setattr(harness, "run_lockstep", broken_engine)
    monkeypatch.setattr(harness, "Agent", agent_failing_seed_2)
    variants = ("no-perspective", "default")
    cfg = _canonical_cfg(tmp_path, world, agent_config, variants=variants,
                         horizon=100, seeds=(0, 1, 2, 3))
    result = run_experiment(cfg, keep_records=True)
    monkeypatch.undo()
    for variant in variants:
        failed = result.summary["variants"][variant]["failed"]
        assert list(failed) == ["2"]
        message = failed["2"]
        assert message.startswith("FloatingPointError: synthetic failure (at ")
        frames = message[message.index("(at ") + 4:-1].split(" > ")
        assert [frame.rsplit(" in ", 1)[1] for frame in frames] == ["run_pair",
                                                                    "agent_failing_seed_2"]
        assert result.summary["variants"][variant]["seeds"] == [0, 1, 3]
        for seed in (0, 1, 3):
            ours = result.runs[(variant, seed)]
            theirs = run_pair(variant, seed, result.world, agent_config, 100,
                              keep_records=True)
            assert ours.records == theirs.records
            assert ours.correct.tolist() == theirs.correct.tolist()
            assert ours.nonconverged_solves == theirs.nonconverged_solves


@pytest.mark.parametrize("workers", [1, 2])
def test_unwritable_trace_path_fails_only_its_own_pair(tmp_path, world, agent_config, workers):
    # a block writes its traces together; one that cannot be written fails its
    # block, whose pairs then rerun alone, so only that pair fails; a greedy
    # job of several seeds runs pair by pair, so it fails only that pair too
    out, variants = tmp_path / "out", ("default", "set-based", "greedy")
    for variant in variants:
        (out / variant / "2.csv").mkdir(parents=True)
    cfg = _canonical_cfg(tmp_path, world, agent_config, variants=variants, horizon=100,
                         seeds=(0, 1, 2, 3), workers=workers, output_dir=str(out))
    summary = run_experiment(cfg).summary
    for variant in variants:
        block = summary["variants"][variant]
        assert list(block["failed"]) == ["2"] and "2.csv" in block["failed"]["2"], variant
        assert block["seeds"] == [0, 1, 3], variant
        for seed in (0, 1, 3):
            run_pair(variant, seed, world, agent_config, 100, trace_path=tmp_path / "pair.csv")
            assert (out / variant / f"{seed}.csv").read_bytes() == \
                (tmp_path / "pair.csv").read_bytes(), (variant, seed)


def test_runs_never_load_scipy_linalg_and_one_process_never_loads_a_pool():
    """Each step prints the watched modules loaded so far: on a Bernoulli
    world no step loads any ``scipy`` module, and only the 2-worker sweep
    loads the process pool. A thresholded-Gaussian world loads
    ``scipy.special`` at its first success probabilities, which equal
    ``ndtr`` of ``expit``'s means bit for bit."""
    code = """
import sys
from dataclasses import replace
def loaded():
    print([m for m in sys.modules if m.partition('.')[0] == 'scipy'
           or m == 'concurrent.futures.process'])
import camsel
from camsel.environment import WorldConfig, generate_world
from camsel.harness import ExperimentConfig, run_block, run_experiment, run_pair
from camsel.presets import canonical_agent_config, canonical_world
loaded()
world, agent = canonical_world(), canonical_agent_config()
run_pair('default', 0, world, agent, 20)
loaded()
run_block('default', (0, 1, 2), world, agent, 20)
loaded()
cfg = ExperimentConfig(agent=agent, world=WorldConfig(n_groups=2, n_cameras=4, dimension=3,
                                                      n_models=6),
                       variants=('default', 'greedy'), seeds=(0, 1, 2), horizon=20)
run_experiment(cfg)
loaded()
run_experiment(replace(cfg, workers=2))
loaded()
gauss = generate_world(WorldConfig(payoff_mode='thresholded-gaussian'), 0)
print('scipy.special' in sys.modules)
probs = gauss.group_success_probs(1)
print('scipy.special' in sys.modules)
from scipy.special import expit, ndtr
mu = expit(gauss.features @ gauss.group_thetas[1])
print(probs.tobytes() == ndtr((mu - gauss.accuracy_threshold) / gauss.noise_sigma).tobytes())
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == (["[]"] * 4 + ["['concurrent.futures.process']"]
                                       + ["False", "True", "True"])
