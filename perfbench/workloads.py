"""The benchmark's four workloads and the inputs each one hands to camsel.

A workload fixes the world, the agent variant, the horizon, the number of
paired run seeds and the worker count. The workload seed picks which block
of consecutive run seeds is used; the program only ever sees the config file
and world file written here.

Sizing (measured on a 2-core VM):
- Canonical regret varies across run seeds with a coefficient of variation
  of about 0.32 at T = 200 and 0.45 at T = 1000 for ``default``. With 40
  pairs at T = 300 the spread of ``regret_final`` across ten workload seeds
  (quartile distance over median) measured 0.03-0.15; 10 pairs at T = 1000
  would put it near 0.19.
- Regret on generated N = 308 fleets ranges from 8.7 to 21.8 across world
  seeds 0..9, so the fleet world is pinned to seed 11 (the world of
  acceptance criterion 11) and only the run seeds follow the workload seed.
- Graph-grouping work depends on the run seeds: with 8 pairs x T = 200 the
  per-sweep rate varied by 23% (quartile spread over median) across workload
  seeds even with the sweeps interleaved; 4 pairs x T = 500 cut that to 12%.
- Each sweep takes about 2-4 s, so a run's median covers several sweeps.

BENCHMARK.json lists only the two canonical workloads; the fleet ones run the
same way but their throughput did not hold a bound across seeds on a shared
machine (see layers.json).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

FLEET_WORLD_SEED = 11
FLEET_CAMERAS = 308


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    world: str          # "canonical" or "fleet"
    horizon: int
    pairs: int          # consecutive run seeds per sweep
    workers: int
    traces: bool        # write per-pair trace files and summary.json

    def run_seeds(self, seed: int) -> list[int]:
        base = self.pairs * seed
        return list(range(base, base + self.pairs))

    @property
    def rounds(self) -> int:
        return self.pairs * self.horizon


WORKLOADS = {w.name: w for w in (
    Workload("canonical-sweep", "default", "canonical", 300, 40, 2, True),
    Workload("canonical-pooled", "no-perspective", "canonical", 300, 40, 1, False),
    Workload("fleet-graph", "default", "fleet", 500, 4, 1, False),
    Workload("fleet-set", "set-based", "fleet", 80, 3, 1, False),
)}


def build_world(workload: Workload):
    from camsel.environment import generate_world
    from camsel.presets import canonical_world, timing_world_config

    if workload.world == "canonical":
        return canonical_world()
    return generate_world(timing_world_config(FLEET_CAMERAS), FLEET_WORLD_SEED)


def write_config(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the experiment config for one run; the world file it names is
    written by :func:`setup`."""
    from camsel.presets import canonical_agent_config

    data = {
        "schema_version": 1,
        "world_path": str(out_dir / "world.json"),
        "agent": asdict(canonical_agent_config()),
        "experiment": {
            "variants": [workload.variant],
            "horizon": workload.horizon,
            "seeds": workload.run_seeds(seed),
            "workers": workload.workers,
            "output_dir": str(out_dir / "traces") if workload.traces else None,
        },
    }
    path = out_dir / "config.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def setup(workload: Workload, config_path: Path, build=None, save=None, load=None):
    """Build and save the world, then parse the config: the work between
    process start and the first pair. The callables can be swapped for
    traced ones."""
    from camsel.config import load_config
    from camsel.environment import save_world

    build = build or build_world
    save = save or save_world
    load = load or load_config
    world = build(workload)
    save(world, config_path.parent / "world.json")
    return load(config_path)
