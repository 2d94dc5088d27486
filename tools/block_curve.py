"""Print the lockstep engine's block-size curve against per-seed agents.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/block_curve.py [--sizes 1 2 5 20 40] [--horizon 300]
        [--groupings pooled singletons graph set] [--repeats 5] [--json]

For each grouping and block size S, on the canonical world and run seeds
320, 321, ..., it measures one ``run_lockstep`` block of S seeds and the same
S seeds run one ``Agent`` at a time:

- ``lockstep`` and ``agents``: rounds (S x horizon) per CPU second
  (``time.process_time``), the fastest of ``--repeats`` runs of each, taken
  in turn after one untimed run of each, and their ratio ``speedup``;
- ``calls/step``: cProfile's total function calls of one block over its
  stacked steps (its ``_Lockstep.rank`` calls: one per round-loop round or
  chain-step part), and ``calls/round`` of the agents over their rounds;
- ``fits/round``: the rows of one block's stacked fits
  (``solve_mle_stacked``) per seed-round, and ``rows/fit`` per stacked
  call; ``solves/round``: the agents' ``solve_mle_weighted`` calls per
  round. The block fits exactly the rows the agents solve, so the first and
  the last agree; these come from one more run of each, so the wrappers
  that count them add no calls to the profiles;
- ``peak_mb``: the tracemalloc peak of one block, after a warm-up block.

``--json`` prints the same figures as one JSON object keyed by grouping and
S. The figures are in-process and depend on the machine and its load.
``speedup`` divides two timings taken in turn, so it is steadier than the
rates themselves; to compare two checkouts, run the command against each
(``PYTHONPATH`` at its ``src/``) in turn, several times.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
import tracemalloc
from dataclasses import replace

FIRST_SEED = 320


def _cpu_seconds(runs, repeats: int) -> list[float]:
    """The fastest of ``repeats`` timings of each of ``runs``, taken in
    turn, so that a change in the machine's load falls on all of them. Each
    run is made once untimed first, so no timing holds a one-time warm-up."""
    for run in runs:
        run()
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            start = time.process_time()
            run()
            best[i] = min(best[i], time.process_time() - start)
    return best


def _profiled(run):
    """(total calls, calls of the engine's ``rank``) of one profiled ``run()``."""
    profile = cProfile.Profile()
    profile.runcall(run)
    stats = pstats.Stats(profile).stats
    ranks = sum(calls for (path, _, name), (_, calls, *_) in stats.items()
                if name == "rank" and path.endswith("policy.py"))
    return sum(calls for _, calls, *_ in stats.values()), ranks


def _fit_work(run) -> tuple[int, int, int]:
    """(stacked fit calls, their rows, per-seed solves) of one ``run()``,
    counted by wrapping the two solvers that ``camsel.policy`` calls."""
    import camsel.policy as policy

    work = [0, 0, 0]
    stacked, weighted = policy.solve_mle_stacked, policy.solve_mle_weighted

    def counted_stacked(feats, counts, *args, **kwargs):
        work[0] += 1
        work[1] += len(counts)
        return stacked(feats, counts, *args, **kwargs)

    def counted_weighted(*args, **kwargs):
        work[2] += 1
        return weighted(*args, **kwargs)

    policy.solve_mle_stacked, policy.solve_mle_weighted = counted_stacked, counted_weighted
    try:
        run()
    finally:
        policy.solve_mle_stacked, policy.solve_mle_weighted = stacked, weighted
    return tuple(work)


def _peak_mb(run) -> float:
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(grouping: str, size: int, horizon: int, repeats: int) -> dict:
    """The curve's figures for one grouping and block size."""
    from camsel.policy import Agent, run_lockstep
    from camsel.presets import canonical_agent_config, canonical_world

    world = canonical_world()
    cfg = replace(canonical_agent_config(), grouping=grouping)
    seeds = tuple(range(FIRST_SEED, FIRST_SEED + size))

    def block():
        run_lockstep(cfg, world, horizon, seeds)

    def agents():
        for seed in seeds:
            Agent(cfg, world, horizon, seed).run()

    rounds = size * horizon
    lockstep_s, agents_s = _cpu_seconds((block, agents), repeats)
    calls, steps = _profiled(block)
    agent_calls, _ = _profiled(agents)
    fits, rows, _ = _fit_work(block)
    solves = _fit_work(agents)[2]
    return {
        "lockstep": round(rounds / lockstep_s),
        "agents": round(rounds / agents_s),
        "speedup": round(agents_s / lockstep_s, 2),
        "steps": steps,
        "calls/step": round(calls / max(steps, 1), 1),
        "calls/round": round(agent_calls / rounds, 1),
        "fits/round": round(rows / rounds, 3),
        "rows/fit": round(rows / max(fits, 1), 2),
        "solves/round": round(solves / rounds, 3),
        "peak_mb": round(_peak_mb(block), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 5, 20, 40],
                        help="block sizes S (default 1 2 5 20 40)")
    parser.add_argument("--horizon", type=int, default=300, help="rounds per seed (default 300)")
    parser.add_argument("--groupings", nargs="+", default=["pooled", "singletons", "graph", "set"],
                        choices=["pooled", "singletons", "graph", "set"])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per figure, the fastest kept (default 5)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.horizon < 1 or args.repeats < 1:
        parser.error("sizes, horizon and repeats must be positive")
    curve = {grouping: {size: measure(grouping, size, args.horizon, args.repeats)
                        for size in args.sizes} for grouping in args.groupings}
    if args.json:
        print(json.dumps(curve, indent=1))
        return 0
    columns = ("lockstep", "agents", "speedup", "steps", "calls/step", "calls/round",
               "fits/round", "rows/fit", "solves/round", "peak_mb")
    print(f"{'grouping':<11}{'S':>4}" + "".join(f"{c:>13}" for c in columns))
    for grouping, rows in curve.items():
        for size, row in rows.items():
            print(f"{grouping:<11}{size:>4}" + "".join(f"{row[c]:>13}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
