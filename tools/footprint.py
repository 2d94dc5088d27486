"""Print what each run stage costs a fresh interpreter: wall time, peak memory, modules.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/footprint.py [--horizon 300] [--json]

Each stage runs in its own fresh interpreter, started with this file's
interpreter and environment:

- ``import``: ``import camsel``;
- ``agent``: one ``default`` pair through ``harness.run_pair`` on the
  canonical world (run seed 0);
- ``block``: one 40-seed ``default`` lockstep block through
  ``harness.run_block`` (run seeds 0..39);
- ``sweep``: a 2-worker ``run_experiment`` of ``default`` over run seeds
  0..39 with trace files, as the canonical-sweep benchmark workload runs it,
  in a temporary directory.

For each stage it prints ``wall_s``, the stage process's wall seconds from
before camsel is imported to the end of its stage; ``maxrss_mb``, its
``ru_maxrss``; ``children_mb``, the largest ``ru_maxrss`` of its reaped child
processes (the sweep's pool workers; 0 for the others); and which of
``scipy``, ``scipy.special``, ``scipy.linalg``, ``scipy.integrate`` and
``concurrent.futures.process`` the stage process has loaded. The figures
depend on the machine and its load.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

START = time.perf_counter()

STAGES = ("import", "agent", "block", "sweep")
WATCHED = ("scipy", "scipy.special", "scipy.linalg", "scipy.integrate",
           "concurrent.futures.process")
SEEDS = 40


def run_stage(stage: str, horizon: int):
    """Run one stage in this process."""
    import camsel  # noqa: F401

    if stage == "import":
        return
    from camsel.harness import ExperimentConfig, run_block, run_experiment, run_pair
    from camsel.presets import canonical_agent_config, canonical_world

    world, agent = canonical_world(), canonical_agent_config()
    if stage == "agent":
        run_pair("default", 0, world, agent, horizon)
    elif stage == "block":
        run_block("default", tuple(range(SEEDS)), world, agent, horizon)
    else:
        import tempfile
        from pathlib import Path

        from camsel.environment import save_world

        with tempfile.TemporaryDirectory() as tmp:
            save_world(world, Path(tmp) / "world.json")
            run_experiment(ExperimentConfig(agent=agent, world=None,
                                            world_path=str(Path(tmp) / "world.json"),
                                            seeds=tuple(range(SEEDS)), horizon=horizon,
                                            output_dir=str(Path(tmp) / "out"), workers=2))


def stage_report(stage: str, horizon: int) -> dict:
    """Run one stage here and report its figures."""
    run_stage(stage, horizon)
    wall = time.perf_counter() - START
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall_s": round(wall, 3), "maxrss_mb": round(own / 1024, 1),
            "children_mb": round(children / 1024, 1),
            "loaded": [name for name in WATCHED if name in sys.modules]}


def measure(stage: str, horizon: int) -> dict:
    """The figures of one stage, run in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, "--stage", stage, "--horizon", str(horizon)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=300,
                        help="rounds per seed of the run stages (default 300)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--stage", choices=STAGES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.horizon < 1:
        parser.error("horizon must be positive")
    if args.stage:      # a stage's own interpreter
        print(json.dumps(stage_report(args.stage, args.horizon)))
        return 0
    report = {stage: measure(stage, args.horizon) for stage in STAGES}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{'stage':<8}{'wall_s':>9}{'maxrss_mb':>11}{'children_mb':>13}  loaded")
    for stage, row in report.items():
        print(f"{stage:<8}{row['wall_s']:>9}{row['maxrss_mb']:>11}{row['children_mb']:>13}  "
              + (", ".join(row["loaded"]) or "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
