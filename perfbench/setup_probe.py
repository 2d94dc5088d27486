"""One cold set-up in a fresh interpreter, timed by the parent.

Usage: setup_probe.py <workload> <config.json>

Imports camsel, builds and saves the workload's world, parses the config and
loads the world file back, which is everything ``run_experiment`` needs
before its first pair starts. Prints the monotonic clock when done; the
parent subtracts its own reading taken just before starting this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from camsel.harness import resolve_world  # noqa: E402

cfg = workloads.setup(workloads.WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
resolve_world(cfg)
print(time.perf_counter())
