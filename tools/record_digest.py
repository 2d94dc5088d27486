"""Fingerprint what camsel computes, pair by pair, to check a change is exact.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/record_digest.py [--horizon 2000] > digests.txt
    PYTHONPATH=src python3 tools/record_digest.py --bench > bench-digests.txt
    PYTHONPATH=src python3 tools/record_digest.py --shapes > shape-digests.txt
    PYTHONPATH=src python3 tools/record_digest.py --blocks [--horizon 2000 | --bench | --shapes] > digests.txt

Each line names one (variant, seed) pair and the sha256 of its round records
(``dataclasses.astuple``, every float by its exact bits), its per-round
``correct`` flags and its ``nonconverged_solves``; the last line hashes all
of them in order. The pairs are every variant on the canonical world at
seeds 0..9 and ``--horizon`` rounds; ``default``, ``greedy`` and
``set-based`` at seed 3 with two perspective shifts; the N = 308 fleet with
``default`` at seeds 0..3 (T = 500) and ``set-based`` at seeds 0..2
(T = 80). ``--bench`` fingerprints instead the 800 pairs the benchmark's
canonical workloads may run (``perfbench/workloads.py``): ``default`` and
``no-perspective`` on the canonical world at T = 300 and run seeds 0..399,
the seeds of workload seeds 0..9. ``--shapes`` fingerprints instead 40 short
pairs on small generated worlds that the canonical pairs never reach: the
clipped-linear link, thresholded-Gaussian payoffs, zeta 0.1 and 5, k_max 1
and k_max = M, M = 1, N = 1, d = 2, one camera moved twice, and the
``tier-first`` cascade order (see ``SHAPES``). Run it with ``PYTHONPATH``
pointing at each checkout's ``src/`` and compare the outputs: equal lines
mean bit-identical records.

Every pair runs through ``camsel.harness.run_pair``, the per-seed agent. A
sweep runs every agent variant in blocks of seeds through ``run_block``, the
lockstep engine, instead. ``--blocks`` fingerprints the chosen mode's pairs
that way: consecutive pairs of one agent variant that differ only in the
seed (same world, agent config, horizon and schedule) run as one block, and
only ``greedy`` runs through ``run_pair`` as before. Its lines must equal the
chosen mode's without it. ``tests/test_record_digest.py`` also pins that
blocks give these same digests: ``no-perspective``, ``no-grouping``,
``default``, ``tier-first`` and ``set-based`` on every shape, both
``--bench`` variants, and ``f1``..``f6`` on the canonical world.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import numbers
import sys

import numpy as np

SCHEDULE = ((500, 0, 1), (1000, 5, 0))
FLEET_GRAPH = ("default", range(4), 500)
FLEET_SET = ("set-based", range(3), 80)
BENCH = (("default", "no-perspective"), range(400), 300)

# (name, WorldConfig fields, AgentConfig fields, schedule events) of each
# shape: fields not named keep the small base world's and agent's values
CLIPPED = {"kind": "clipped-linear"}
GAUSSIAN = {"payoff_mode": "thresholded-gaussian", "accuracy_threshold": 0.6}
SHAPES = (
    ("sigmoid-bernoulli", {}, {}, ()),
    ("clipped-bernoulli", {"link": CLIPPED}, {"link": CLIPPED}, ()),
    ("sigmoid-gaussian", GAUSSIAN, {}, ()),
    ("clipped-gaussian", {**GAUSSIAN, "link": CLIPPED}, {"link": CLIPPED}, ()),
    ("zeta0.1", {}, {"zeta": 0.1}, ()),
    ("zeta5", {}, {"zeta": 5.0}, ()),
    ("kmax1", {}, {"k_max": 1}, ()),
    ("kmaxM", {}, {"k_max": 8}, ()),
    ("models1", {"n_models": 1}, {"k_max": 1}, ()),
    ("cameras1", {"n_groups": 1, "n_cameras": 1}, {}, ()),
    ("dim2", {"dimension": 2}, {}, ()),
    ("moved-twice", {}, {}, ((100, 0, 1), (250, 0, 0))),
)
SHAPE_BASE_WORLD = {"n_groups": 2, "n_cameras": 6, "dimension": 3, "gamma": 0.4, "n_models": 8}
SHAPE_VARIANTS = ("default", "tier-first", "set-based")
SHAPE_GREEDY = ("sigmoid-bernoulli", "clipped-bernoulli", "sigmoid-gaussian", "clipped-gaussian")
SHAPE_WORLD_SEED, SHAPE_RUN_SEED, SHAPE_HORIZON = 1, 0, 500


def _canonical(value):
    """A repr-stable form: floats by their hex bits, numpy scalars as Python ones."""
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return repr(value)


def result_digest(result) -> str:
    h = hashlib.sha256()
    for record in result.records:
        h.update(repr(_canonical(dataclasses.astuple(record))).encode())
    h.update(np.asarray(result.correct, dtype=bool).tobytes())
    h.update(str(int(result.nonconverged_solves)).encode())
    return h.hexdigest()


def pairs(horizon: int):
    """(name, run_pair arguments) of every fingerprinted pair, in order."""
    from camsel.environment import generate_world
    from camsel.harness import VARIANTS
    from camsel.presets import canonical_agent_config, canonical_world, timing_world_config

    agent = canonical_agent_config()
    world = canonical_world()
    for variant in VARIANTS:
        for seed in range(10):
            yield f"{variant}/seed{seed}", (variant, seed, world, agent, horizon, ())
    for variant in ("default", "greedy", "set-based"):
        yield f"schedule/{variant}/seed3", (variant, 3, world, agent, horizon, SCHEDULE)
    fleet = generate_world(timing_world_config(308), 11)
    for name, (variant, seeds, fleet_horizon) in (("fleet-graph", FLEET_GRAPH),
                                                  ("fleet-set", FLEET_SET)):
        for seed in seeds:
            yield f"{name}/seed{seed}", (variant, seed, fleet, agent, fleet_horizon, ())


def bench_pairs():
    """(name, run_pair arguments) of every pair the canonical workloads run."""
    from camsel.presets import canonical_agent_config, canonical_world

    agent = canonical_agent_config()
    world = canonical_world()
    variants, seeds, horizon = BENCH
    for variant in variants:
        for seed in seeds:
            yield f"bench/{variant}/seed{seed}", (variant, seed, world, agent, horizon, ())


def shape_pairs():
    """(name, run_pair arguments) of every shape pair, in order."""
    from camsel.core import LinkFunctionSpec
    from camsel.environment import WorldConfig, generate_world
    from camsel.policy import AgentConfig

    def built(fields):
        return {k: LinkFunctionSpec(**v) if k == "link" else v for k, v in fields.items()}

    for shape, world_fields, agent_fields, events in SHAPES:
        world = generate_world(WorldConfig(**{**SHAPE_BASE_WORLD, **built(world_fields)}),
                               SHAPE_WORLD_SEED)
        agent = AgentConfig(**built(agent_fields))
        variants = SHAPE_VARIANTS + (("greedy",) if shape in SHAPE_GREEDY else ())
        for variant in variants:
            yield (f"shapes/{shape}/{variant}",
                   (variant, SHAPE_RUN_SEED, world, agent, SHAPE_HORIZON, events))


def _runs(chosen):
    """The chosen pairs in runs of consecutive pairs that differ only in the
    seed: the same variant, world object, agent config, horizon and schedule."""
    run = []
    for pair in chosen:
        if run:
            (variant, _, world, *rest), (other, _, other_world, *other_rest) = run[0][1], pair[1]
            if not (variant == other and world is other_world and rest == other_rest):
                yield run
                run = []
        run.append(pair)
    if run:
        yield run


def results(chosen, blocks: bool = False):
    """(name, result) of every chosen pair, in order. With ``blocks``, each
    run of pairs that differ only in the seed runs as one ``run_block`` when
    its variant is an agent's."""
    from camsel.harness import run_block, run_pair

    for group in _runs(chosen):
        variant, _, world, agent, horizon, events = group[0][1]
        if blocks and variant != "greedy":
            seeds = [seed for _, (_, seed, *_rest) in group]
            yield from zip([name for name, _ in group],
                           run_block(variant, seeds, world, agent, horizon, events,
                                     keep_records=True))
            continue
        for name, (variant, seed, world, agent, horizon, events) in group:
            yield name, run_pair(variant, seed, world, agent, horizon, schedule_events=events,
                                 keep_records=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=2000,
                        help="rounds of each canonical pair (default 2000)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--bench", action="store_true",
                      help="fingerprint the benchmark's 800 canonical pairs instead")
    mode.add_argument("--shapes", action="store_true",
                      help="fingerprint the 40 pairs on small generated worlds instead")
    parser.add_argument("--blocks", action="store_true",
                        help="run the pairs of agent variants in blocks of seeds")
    args = parser.parse_args(argv)

    overall = hashlib.sha256()
    chosen = (bench_pairs() if args.bench else shape_pairs() if args.shapes
              else pairs(args.horizon))
    for name, result in results(chosen, args.blocks):
        digest = result_digest(result)
        overall.update(f"{name} {digest}\n".encode())
        print(name, digest)
    print("overall", overall.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
