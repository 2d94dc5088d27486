import json
import logging
from dataclasses import asdict, fields

import pytest

from camsel.cli import main
from camsel.config import KNOWN_PATHS, load_config, parse_override
from camsel.core import LinkFunctionSpec
from camsel.environment import WorldConfig, generate_world, load_world, world_to_dict
from camsel.errors import ConfigError
from camsel.policy import AgentConfig
from camsel.presets import canonical_agent_config


def _write_config(tmp_path, **extra):
    data = {
        "world": {"n_groups": 2, "n_cameras": 4, "dimension": 3, "gamma": 0.4,
                  "n_models": 6},
        "world_seed": 1,
        "experiment": {"horizon": 30, "seeds": [0], "variants": ["default"]},
    }
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_gen_world_round_trip(tmp_path):
    out = tmp_path / "world.json"
    code = main(["gen-world", "--groups", "2", "--cameras", "8", "--dim", "5",
                 "--gamma", "0.5", "--models", "20", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    world = load_world(out)
    assert world.n_cameras == 8 and world.n_models == 20
    # reloading produces an identical serialization
    assert world_to_dict(load_world(out)) == world_to_dict(world)


@pytest.mark.parametrize("case", ["defaults", "every-flag"])
def test_gen_world_flags_set_world_config_fields(tmp_path, case):
    flags, fields_set, seed = [], {}, 0
    if case == "every-flag":
        flags = ["--groups", "3", "--cameras", "9", "--dim", "4", "--gamma", "0.3",
                 "--models", "11", "--seed", "5", "--unit-norm",
                 "--payoff-mode", "thresholded-gaussian", "--threshold", "0.7", "--sigma", "0.2"]
        fields_set = dict(n_groups=3, n_cameras=9, dimension=4, gamma=0.3, n_models=11,
                          unit_norm_features=True, payoff_mode="thresholded-gaussian",
                          accuracy_threshold=0.7, noise_sigma=0.2)
        seed = 5
    out = tmp_path / "world.json"
    assert main(["--quiet", "gen-world", *flags, "--out", str(out)]) == 0
    # a flag left out keeps WorldConfig's default
    expected = generate_world(WorldConfig(**fields_set), seed)
    assert json.loads(out.read_text()) == world_to_dict(expected)


def test_run_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["--quiet", "run", "--config", str(cfg), "--output-dir", str(out_dir)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["horizon"] == 30
    assert (out_dir / "run" / "default" / "0.csv").exists()
    assert (out_dir / "run" / "summary.json").exists()


def test_run_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"world": {"n_groups": "two"}}')
    code = main(["--quiet", "run", "--config", str(bad),
                 "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"wrold": {}}')
    code = main(["--quiet", "run", "--config", str(bad),
                 "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert "wrold" in capsys.readouterr().err


def test_runtime_error_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, world_path=str(tmp_path / "missing.json"))
    data = json.loads(cfg.read_text())
    del data["world"]
    cfg.write_text(json.dumps(data))
    code = main(["--quiet", "run", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2


def test_failed_pairs_exit_2_with_partial_summary(tmp_path, capsys, monkeypatch):
    from camsel import policy

    def boom(self, t):
        raise RuntimeError(f"synthetic failure at round {t}")

    monkeypatch.setattr(policy.Agent, "step", boom)
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "o"
    code = main(["--quiet", "run", "--config", str(cfg), "--seeds", "0,1",
                 "--output-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    failed = summary["variants"]["default"]["failed"]
    assert set(failed) == {"0", "1"}
    assert all("RuntimeError: synthetic failure at round 1" in msg for msg in failed.values())
    assert "2 pair(s) failed" in captured.err
    written = json.loads((out_dir / "run" / "summary.json").read_text())
    assert written["variants"]["default"]["failed"] == failed


def test_override_applies(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["--quiet", "run", "--config", str(cfg),
                 "--set", "agent.alpha=0.5", "--set", "experiment.horizon=12",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["horizon"] == 12


# a misspelling, then the keys that were removed from the schema
@pytest.mark.parametrize("item", ["agent.alhpa=0.5", "agent.reconnect_mode=per-edge",
                                  "agent.regret_oracle_k=2", "experiment.eta=0.5",
                                  "world.edge_fraction=0.5"])
@pytest.mark.parametrize("given_by", ["set", "file"])
def test_override_unknown_key_rejected(tmp_path, capsys, item, given_by):
    path, value = item.split("=")
    section, key = path.split(".")
    if given_by == "set":
        cfg = _write_config(tmp_path)
        extra = ["--set", item]
    else:
        data = json.loads(_write_config(tmp_path).read_text())
        data.setdefault(section, {})[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        extra = []
    code = main(["--quiet", "run", "--config", str(cfg), *extra,
                 "--output-dir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert (path if given_by == "set" else f"{section}: unknown key(s) ['{key}']") in err


# values a config file must give with their JSON types: none is coerced; a
# section of None is the top level
MISTYPED = [("experiment", "variants", "no-grouping"), ("experiment", "seeds", 3),
            ("experiment", "seeds", "12"), ("experiment", "horizon", 30.7),
            ("experiment", "horizon", True), ("experiment", "target", "0.8"),
            ("experiment", "workers", "2"), ("experiment", "output_dir", 4),
            ("agent", "k_max", 2.5), ("agent", "no_combining", "false"),
            ("agent", "alpha", "0.25"), ("agent", "p0", True),
            ("world", "n_cameras", 4.5), ("world", "group_sizes", [2.5, 2]),
            ("world", "unit_norm_features", "false"), ("world", "gamma", None),
            (None, "world_path", 4)]


@pytest.mark.parametrize("section,key,value", MISTYPED,
                         ids=[f"{key}-{value}" for _, key, value in MISTYPED])
def test_mistyped_experiment_values_exit_1(tmp_path, capsys, section, key, value):
    data = json.loads(_write_config(tmp_path).read_text())
    if section is None:
        del data["world"]
        data[key] = value
    else:
        data.setdefault(section, {})[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    out_dir = tmp_path / "o"
    code = main(["--quiet", "run", "--config", str(cfg), "--output-dir", str(out_dir)])
    assert code == 1
    assert f"config error: {key}: expected " in capsys.readouterr().err
    assert not (out_dir / "run" / "summary.json").exists()


def test_known_paths_name_every_dataclass_field():
    for section, cls in (("world", WorldConfig), ("agent", AgentConfig)):
        assert {f"{section}.{f.name}" for f in fields(cls)} <= KNOWN_PATHS
        assert {f"{section}.link.{f.name}" for f in fields(LinkFunctionSpec)} <= KNOWN_PATHS
    assert len(KNOWN_PATHS) == 41


def test_agent_section_written_by_asdict_loads_back_equal(tmp_path):
    agent = canonical_agent_config()
    cfg = load_config(_write_config(tmp_path, agent=asdict(agent)))
    assert cfg.agent == agent
    cfg = load_config(_write_config(tmp_path, agent={"link": None}))
    assert cfg.agent.link == LinkFunctionSpec()


def test_bernoulli_world_with_link_outside_unit_interval_exits_1(tmp_path, capsys):
    identity = {"kind": "identity"}
    cfg = _write_config(tmp_path, agent={"link": identity})
    data = json.loads(cfg.read_text())
    data["world"]["link"] = identity
    cfg.write_text(json.dumps(data))
    out_dir = tmp_path / "o"
    code = main(["--quiet", "run", "--config", str(cfg), "--output-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: group 0: the identity link gives success probabilities" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["run-seeds", "world-seed", "gen-world"])
def test_negative_seeds_exit_1(tmp_path, capsys, case):
    cfg = _write_config(tmp_path)
    out_dir, world_file = tmp_path / "o", tmp_path / "w.json"
    if case == "gen-world":
        argv, message = ["gen-world", "--seed", "-1", "-o", str(world_file)], "world_seed"
    else:
        given = ["--seeds=-1"] if case == "run-seeds" else ["--set", "world_seed=-3"]
        argv = ["run", "--config", str(cfg), *given, "--output-dir", str(out_dir)]
        message = "seeds" if case == "run-seeds" else "world_seed"
    assert main(["--quiet", *argv]) == 1
    assert f"config error: {message} must be nonnegative" in capsys.readouterr().err
    assert not out_dir.exists() and not world_file.exists()


@pytest.mark.parametrize("variants", [["default", "greedy"], ["greedy"]])
def test_k_max_beyond_the_catalog_exits_1_unless_greedy_only(tmp_path, capsys, variants):
    cfg = _write_config(tmp_path, experiment={"horizon": 5, "seeds": [0], "variants": variants})
    out_dir = tmp_path / "o"
    code = main(["--quiet", "run", "--config", str(cfg), "--set", "world.n_models=2",
                 "--output-dir", str(out_dir)])
    summary = out_dir / "run" / "summary.json"
    if variants == ["greedy"]:
        # greedy's oracle cascade is min(k_max, M) wide, so it runs
        assert code == 0 and summary.exists()
    else:
        assert code == 1
        assert "config error: k_max=3 exceeds the catalog size 2" in capsys.readouterr().err
        assert not summary.exists()


def test_theory_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["--quiet", "theory", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "o")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda_tilde"] > 0
    assert report["alpha_theory"] > 0


def test_ablate_deletion_table(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "o"
    code = main(["--quiet", "ablate-deletion", "--config", str(cfg),
                 "--seeds", "0,1", "--output-dir", str(out_dir)])
    assert code == 0
    table = (out_dir / "ablate-deletion" / "deletion_ablation.csv").read_text().splitlines()
    # the horizon is lifted to cover every checkpoint of the ablation table
    assert table[0] == "f_id,r15,r50,r200,r850"
    assert len(table) == 7
    # recompute one cell from the raw traces
    from camsel.harness import read_trace

    cell = float(table[1].split(",")[1])  # f1 at r15
    vals = []
    for seed in (0, 1):
        trace = read_trace(out_dir / "ablate-deletion" / "f1" / f"{seed}.csv")
        vals.append(sum(r.instantaneous_regret for r in trace[:15]))
    assert cell == pytest.approx(sum(vals) / 2, abs=1e-4)


def test_ablate_grouping_and_combining(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "o"
    assert main(["--quiet", "ablate-grouping", "--config", str(cfg),
                 "--horizon", "40", "--output-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "ablate-grouping" / "grouping_ablation.json").read_text())
    assert "grouping_seconds" in payload
    capsys.readouterr()
    assert main(["--quiet", "ablate-combining", "--config", str(cfg),
                 "--horizon", "40", "--output-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "ablate-combining" / "combining_ablation.json").read_text())
    assert "trailing_payoff_with" in payload


def _ablate_grouping_ratios(tmp_path, monkeypatch, failing=None):
    """(exit code, payload) of ablate-grouping on a one-group world where
    grouping pays off, with the ``default`` pair at seed ``failing`` made to fail."""
    import camsel.harness as harness

    real = harness.run_pair

    def run_pair(variant, seed, *args, **kwargs):
        if (variant, seed) == ("default", failing):
            raise RuntimeError("synthetic failure")
        return real(variant, seed, *args, **kwargs)

    monkeypatch.setattr(harness, "run_pair", run_pair)
    cfg = _write_config(
        tmp_path, world={"n_groups": 1, "n_cameras": 8, "dimension": 3, "n_models": 10},
        world_seed=2, agent={"beta": 10},
        experiment={"horizon": 800, "seeds": [0, 1, 2, 3], "target": 0.9, "window": 50})
    out_dir = tmp_path / f"o{failing}"
    code = main(["--quiet", "ablate-grouping", "--config", str(cfg),
                 "--output-dir", str(out_dir)])
    return code, json.loads((out_dir / "ablate-grouping" / "grouping_ablation.json").read_text())


def test_ablate_grouping_pairs_variants_by_seed(tmp_path, capsys, monkeypatch):
    code, full = _ablate_grouping_ratios(tmp_path, monkeypatch)
    assert code == 0
    assert full["acceleration_ratios"] == pytest.approx([14.74, None, 3.4, None], abs=0.01)
    # a failed pair drops its seed and leaves every other seed's ratio alone
    code, partial = _ablate_grouping_ratios(tmp_path, monkeypatch, failing=0)
    assert code == 2
    assert partial["acceleration_ratios"] == full["acceleration_ratios"][1:]
    assert partial["median_acceleration"] == pytest.approx(3.4, abs=0.01)
    assert (full["seeds"], partial["seeds"]) == ([0, 1, 2, 3], [1, 2, 3])


@pytest.mark.parametrize("case", ["file-seeds", "file-variants", "flag-seeds"])
def test_repeated_seeds_or_variants_exit_1(tmp_path, capsys, case):
    experiment = {"horizon": 30, "seeds": [0], "variants": ["default"]}
    extra = []
    if case == "file-seeds":
        experiment["seeds"] = [0, 0, 1]
    elif case == "file-variants":
        experiment["variants"] = ["default", "greedy", "default"]
    else:
        extra = ["--seeds", "0,0"]
    cfg = _write_config(tmp_path, experiment=experiment)
    out_dir = tmp_path / "o"
    code = main(["--quiet", "run", "--config", str(cfg), *extra, "--output-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("variants repeat ['default']" if case == "file-variants"
            else "seeds repeat [0]") in err
    assert not (out_dir / "run" / "summary.json").exists()


def test_ablate_perspective_and_compare_greedy(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "o"
    assert main(["--quiet", "ablate-perspective", "--config", str(cfg),
                 "--horizon", "40", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "ablate-perspective" / "perspective_ablation.json").exists()
    capsys.readouterr()
    assert main(["--quiet", "compare-greedy", "--config", str(cfg),
                 "--horizon", "40", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "compare-greedy" / "greedy_comparison.json").exists()


def test_compare_greedy_writes_bandwidth_means(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "o"
    assert main(["--quiet", "compare-greedy", "--config", str(cfg), "--seeds", "0,1",
                 "--horizon", "40", "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    report = out_dir / "compare-greedy" / "greedy_comparison.json"
    payload = json.loads(report.read_text())
    summary = json.loads((out_dir / "compare-greedy" / "summary.json").read_text())
    for variant in ("default", "greedy"):
        per_seed = summary["variants"][variant]["total_bandwidth"]
        assert len(per_seed) == 2
        assert payload[f"mean_bandwidth_{variant}"] == pytest.approx(sum(per_seed) / 2)
    # no finished seed: None, as for the trailing-payoff means
    import camsel.harness as harness

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "baseline_greedy", boom)
    assert main(["--quiet", "compare-greedy", "--config", str(cfg), "--seeds", "0,1",
                 "--horizon", "40", "--output-dir", str(out_dir)]) == 2
    payload = json.loads(report.read_text())
    assert payload["mean_bandwidth_greedy"] is None
    assert isinstance(payload["mean_bandwidth_default"], float)


def test_seed_range_syntax(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["--quiet", "run", "--config", str(cfg), "--seeds", "0..2",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seeds"] == [0, 1, 2]


@pytest.mark.parametrize("spec", ["a,b", "0..", "1..x"])
def test_malformed_seeds_exit_1(tmp_path, capsys, spec):
    cfg = _write_config(tmp_path)
    code = main(["--quiet", "run", "--config", str(cfg), "--seeds", spec,
                 "--output-dir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--seeds" in err and "'0..9'" in err


def test_output_dir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAMSEL_OUTPUT_DIR", str(tmp_path / "envout"))
    cfg = _write_config(tmp_path)
    assert main(["--quiet", "run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "run" / "summary.json").exists()


def test_json_logs_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["--json-logs", "run", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "o")])
    assert code == 0
    err = capsys.readouterr().err
    for line in err.splitlines():
        if line.strip():
            json.loads(line)


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    assert cfg.agent.alpha == 0.25
    assert cfg.agent.beta == 0.1
    assert cfg.agent.zeta == 1.0
    assert cfg.agent.k_max == 3
    assert cfg.agent.f_id == "f1"
    assert cfg.agent.p0 is None  # derived from the run seed at bind time
    assert cfg.window == 200


def test_parse_override():
    assert parse_override("agent.alpha=0.5") == ("agent.alpha", 0.5)
    assert parse_override("agent.f_id=f3") == ("agent.f_id", "f3")
    assert parse_override('experiment.variants=["default","greedy"]') == (
        "experiment.variants", ["default", "greedy"])
    with pytest.raises(ConfigError):
        parse_override("agent.alpha")
    with pytest.raises(ConfigError):
        parse_override("agent.gamma=1")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_json_logs_carry_one_progress_line_per_pair(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    outputs = {}
    for flag in ("--quiet", "--json-logs"):
        out_dir = tmp_path / flag.strip("-")
        code = main([flag, "run", "--config", str(cfg), "--seeds", "0,1",
                     "--output-dir", str(out_dir)])
        assert code == 0
        outputs[flag] = (out_dir / "run", capsys.readouterr().err)
    records = [json.loads(line) for line in outputs["--json-logs"][1].splitlines()]
    progress = [r for r in records if r["name"] == "camsel.harness"]
    assert [r["level"] for r in progress] == ["INFO", "INFO"]
    for seed, record in zip((0, 1), progress):
        assert record["message"].startswith(f"pair default seed {seed} finished in ")
        assert ", final regret " in record["message"]
    assert outputs["--quiet"][1] == ""
    # the log adds nothing to the files: traces byte-identical, the summary
    # equal apart from its timings
    quiet, logged = outputs["--quiet"][0], outputs["--json-logs"][0]
    for seed in (0, 1):
        assert (quiet / "default" / f"{seed}.csv").read_bytes() == \
            (logged / "default" / f"{seed}.csv").read_bytes()
    summaries = [json.loads((d / "summary.json").read_text()) for d in (quiet, logged)]
    for summary in summaries:
        summary["variants"]["default"].pop("timing_seconds")
    assert summaries[0] == summaries[1]


def test_main_restores_the_root_log_handlers(tmp_path, capsys):
    root = logging.getLogger()
    before = (root.handlers[:], root.level)
    cfg = _write_config(tmp_path)
    for run in range(2):
        code = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / str(run))])
        assert code == 0
        assert (root.handlers, root.level) == before
    err = capsys.readouterr().err
    # each run logged its pair to the stderr of its own call, and nothing was
    # written through a handler a call left behind
    assert err.count("pair default seed 0 finished") == 2
    assert "Logging error" not in err
