"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps camsel's public callables by name and reads
``solve_mle_weighted``'s positional arguments. A rename or a changed call
would otherwise surface only when the benchmark runs; here it fails a test.
"""

import importlib.util
from pathlib import Path

from camsel import harness, policy
from camsel.environment import save_world
from camsel.grouping import CameraGraph
from camsel.harness import ExperimentConfig, run_experiment
from camsel.presets import canonical_agent_config, canonical_world

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_restores(tmp_path):
    world_path = tmp_path / "world.json"
    save_world(canonical_world(), world_path)
    cfg = ExperimentConfig(agent=canonical_agent_config(), world=None,
                           world_path=str(world_path), variants=("default", "set-based"),
                           horizon=20, seeds=(0,))
    namespaces = (vars(harness), vars(policy), vars(policy.Agent), vars(CameraGraph))
    before = [dict(ns) for ns in namespaces]

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert [dict(ns) for ns in namespaces] != before
        result = run_experiment(cfg, keep_records=True)
    finally:
        tracer.restore()

    assert [dict(ns) for ns in namespaces] == before
    assert all(not block["failed"] for block in result.summary["variants"].values())
    names = {span[0] for span in tracer.spans}
    assert {"estimator.solve", "policy.step", "harness.run_pair"} <= names
    assert sum(1 for span in tracer.spans if span[0] == "policy.step") == 40
    # one solve record per span means the positional arguments were read
    assert len(tracer.solves) == sum(1 for span in tracer.spans if span[0] == "estimator.solve")
