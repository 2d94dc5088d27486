"""Experiment orchestration: multi-seed paired runs, metrics, trace files.

Variants sharing a seed consume identical camera-arrival and payoff streams
(the streams are keyed by seed, round, and model inside the policy), so every
ablation delta is a paired comparison. Each (variant, seed) pair runs
independently; failures abort only that pair and are recorded in the summary.

Every variant's seeds split into ``min(workers, seeds)`` contiguous spans,
one job each. A span of two or more seeds of an agent variant runs as one
block through ``run_block``, one lockstep loop holding S x T x M bools of
payoff hits, with ``run_pair``'s results bit for bit; one seed, ``greedy``
and each seed of a block that raises run pair by pair through ``run_pair``.
The loop runs each (seed, block) chain of visits on its own rows:
``no-grouping`` and ``no-perspective`` for the whole horizon, graph grouping
once every seed's graph in a block is edgeless and until the next graph
reset; ``set-based`` runs round by round (see ``policy.run_lockstep``). A
blocked pair's timer buckets and wall are the block's divided by S;
``harness`` is the rest of that share. A block's trace files are written in
one pass over its episodes' round logs (``write_traces``), which formats
each column's distinct values once; ``run_pair`` writes the one-trace case,
and a pair builds ``RoundRecord``s only for ``keep_records``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import numbers
import time
import traceback
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .environment import PerspectiveSchedule, World, WorldConfig, generate_world, load_world
from .errors import ConfigError, typed
from .policy import (TIMING_BUCKETS, Agent, AgentConfig, RoundRecord, baseline_greedy,
                     canonical_labels,  # noqa: F401 - canonical_labels is re-exported
                     run_lockstep)

log = logging.getLogger(__name__)

TRACE_SCHEMA_VERSION = 1
SUMMARY_SCHEMA_VERSION = 1

TRACE_HEADER = ("t,camera,inferred_group,true_group,tried_models,payoffs,aggregate,"
                "expected,oracle_expected,inst_regret,cum_regret,components,bandwidth,"
                "edges_deleted,reset")

AGENT_VARIANTS = {
    "default": {},
    "no-grouping": {"grouping": "singletons"},
    "no-perspective": {"grouping": "pooled"},
    "no-combining": {"cascade_order": "ucb-then-random"},
    "set-based": {"grouping": "set"},
    "tier-first": {"cascade_order": "tier-then-ucb"},
    "f1": {"f_id": "f1"},
    "f2": {"f_id": "f2"},
    "f3": {"f_id": "f3"},
    "f4": {"f_id": "f4"},
    "f5": {"f_id": "f5"},
    "f6": {"f_id": "f6"},
}

VARIANTS = tuple(AGENT_VARIANTS) + ("greedy",)


@dataclass(frozen=True)
class ExperimentConfig:
    agent: AgentConfig = field(default_factory=AgentConfig)
    world: WorldConfig | None = field(default_factory=WorldConfig)
    world_path: str | None = None
    world_seed: int = 0
    variants: tuple = ("default",)
    horizon: int = 1000
    seeds: tuple = (0,)
    window: int = 200
    target: float = 0.8
    greedy_profile_rounds: int = 200
    schedule_events: tuple = ()
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        put("variants", tuple(typed("variants", self.variants, (list, tuple), "a list")))
        seeds = typed("seeds", self.seeds, (list, tuple), "a list")
        put("seeds", tuple(int(typed("seeds", s)) for s in seeds))
        for name in ("world_seed", "horizon", "window", "workers", "greedy_profile_rounds"):
            put(name, int(typed(name, getattr(self, name))))
        put("target", float(typed("target", self.target, numbers.Real, "a real number")))
        for name in ("world_path", "output_dir"):
            typed(name, getattr(self, name), (str, type(None)), "a string")
        put("schedule_events", tuple(tuple(int(typed("schedule", v)) for v in (t, cam, grp))
                                     for t, cam, grp in self.schedule_events))
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if not self.variants:
            raise ConfigError("need at least one variant")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {sorted(VARIANTS)}")
        for name, values in (("seeds", self.seeds), ("variants", self.variants)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} repeat {repeated}; each pair runs once")
        if self.horizon < 0:
            raise ConfigError("horizon must be nonnegative")
        if self.window < 1:
            raise ConfigError("window must be at least 1")
        if (self.world is None) == (self.world_path is None):
            raise ConfigError("exactly one of world / world_path must be set")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.greedy_profile_rounds < 1:
            raise ConfigError("greedy_profile_rounds must be at least 1")


def variant_agent_config(base: AgentConfig, variant: str) -> AgentConfig:
    if variant not in AGENT_VARIANTS:
        raise ConfigError(f"{variant!r} is not an agent variant")
    return replace(base, **AGENT_VARIANTS[variant])


def resolve_world(cfg: ExperimentConfig) -> World:
    if cfg.world_path is not None:
        return load_world(cfg.world_path)
    return generate_world(cfg.world, cfg.world_seed)


# ---------------------------------------------------------------------------
# Single (variant, seed) runs

@dataclass
class RunResult:
    variant: str
    seed: int
    expected: np.ndarray        # per-round expected payoff of the committed cascade
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    components: np.ndarray
    correct: np.ndarray         # partition equals ground truth, per round
    total_bandwidth: float
    timing: dict
    records: list | None = None
    nonconverged_solves: int = 0    # Newton fits that stopped short of tolerance


def run_pair(variant: str, seed: int, world: World, base_agent: AgentConfig,
             horizon: int, schedule_events=(), greedy_profile_rounds: int = 200,
             trace_path=None, keep_records: bool = False) -> RunResult:
    """Run one (variant, seed) pair and optionally write its trace file."""
    schedule = PerspectiveSchedule(schedule_events) if schedule_events else None
    started = time.perf_counter()
    if variant == "greedy":
        episode = baseline_greedy(world, greedy_profile_rounds, horizon, seed,
                                  oracle_k=min(base_agent.k_max, world.n_models),
                                  schedule=schedule)
    else:
        episode = Agent(variant_agent_config(base_agent, variant), world, horizon, seed,
                        schedule).run()
    wall = time.perf_counter() - started
    if trace_path is not None:
        write_traces([trace_path], [episode])
    return _pair_result(variant, seed, episode, wall, keep_records)


def run_block(variant: str, seeds, world: World, base_agent: AgentConfig, horizon: int,
              schedule_events=(), trace_paths=None, keep_records: bool = False) -> list:
    """``run_pair`` for a block of seeds of an agent variant, in one round
    loop; each pair's buckets and wall are the block's over S."""
    schedule = PerspectiveSchedule(schedule_events) if schedule_events else None
    started = time.perf_counter()
    episodes = run_lockstep(variant_agent_config(base_agent, variant), world, horizon, seeds,
                            schedule)
    wall = (time.perf_counter() - started) / len(seeds)
    if trace_paths is not None:
        write_traces(trace_paths, episodes)
    return [_pair_result(variant, seed, episode, wall, keep_records)
            for seed, episode in zip(seeds, episodes)]


def _pair_result(variant, seed, episode, wall, keep_records) -> RunResult:
    """A pair's result from its finished episode."""
    # the episode's harness bucket is 0, so the five buckets sum to the wall time
    timing = dict(episode.timing, wall=wall, harness=wall - sum(episode.timing.values()))
    _, inst, bandwidth = episode.outcome
    return RunResult(variant=variant, seed=seed, expected=episode.expected, inst_regret=inst,
                     cum_regret=np.cumsum(inst), components=episode.components,
                     correct=episode.correct, timing=timing,
                     nonconverged_solves=episode.nonconverged_solves,
                     total_bandwidth=float(sum(bandwidth.tolist())),  # not the pairwise .sum()
                     records=episode.records() if keep_records else None)


def _run_pair_job(args):
    try:
        return run_pair(*args), None
    except Exception as exc:  # noqa: BLE001 - a failed pair must not kill the sweep
        variant, seed = args[0], args[1]
        frames = traceback.extract_tb(exc.__traceback__)[1:]    # run_pair down to the raise
        where = " > ".join(f"{f.filename}:{f.lineno} in {f.name}" for f in frames)
        return RunResult(variant, seed, np.zeros(0), np.zeros(0), np.zeros(0),
                         np.zeros(0, dtype=int), np.zeros(0, dtype=bool), 0.0, {}), \
            f"{type(exc).__name__}: {exc} (at {where})"


def _run_job(job):
    """(result, error) of each pair of one job, in seed order: two or more
    seeds of an agent variant run as one block, else pair by pair. A block
    that raises reruns its pairs alone, so a failure aborts only its pair."""
    variant, seeds, world, agent, horizon, events, profile_rounds, paths, keep = job
    if len(seeds) > 1 and variant in AGENT_VARIANTS:
        try:
            return [(result, None) for result in
                    run_block(variant, seeds, world, agent, horizon, events, paths, keep)]
        except Exception as exc:  # noqa: BLE001 - the pairs rerun alone
            log.warning("block %s seeds %d..%d failed (%s: %s); rerunning its pairs alone",
                        variant, seeds[0], seeds[-1], type(exc).__name__, exc, exc_info=True)
    return [_run_pair_job((variant, seed, world, agent, horizon, events, profile_rounds, path,
                           keep)) for seed, path in zip(seeds, paths or itertools.repeat(None))]


# ---------------------------------------------------------------------------
# Metrics

def rounds_to_threshold(trace, target: float, window: int):
    """Smallest t whose trailing ``window``-round mean expected payoff reaches
    ``target``; None when it never does (windows start once complete)."""
    if window < 1:
        raise ValueError("window must be at least 1")
    values = np.asarray(trace, dtype=float)
    if values.size < window:
        return None
    sums = np.cumsum(values)
    windowed = sums[window - 1:].copy()
    windowed[1:] -= sums[:-window]
    hits = np.flatnonzero(windowed >= target * window - 1e-12)
    return int(hits[0] + window) if hits.size else None


def acceleration_ratio(rounds_without, rounds_with):
    """rounds-to-target ratio without/with grouping; None unless both reached it."""
    if rounds_without is None or rounds_with is None:
        return None
    return float(rounds_without) / float(rounds_with)


def tradeoff_score(mean_accuracy: float, mean_bandwidth: float, eta: float) -> float:
    """Accuracy-vs-cost score a - eta * b over normalized inputs."""
    if not (0.0 <= mean_accuracy <= 1.0 and 0.0 <= mean_bandwidth <= 1.0):
        raise ValueError("accuracy and bandwidth must be normalized to [0, 1]")
    return mean_accuracy - eta * mean_bandwidth


def checkpoints(horizon: int) -> list[int]:
    """Geometric round marks 100, 200, 500, 1000, ... capped by the horizon."""
    if horizon < 1:
        return []
    marks = []
    scale = 100
    while scale <= horizon:
        for mult in (1, 2, 5):
            mark = mult * scale
            if mark <= horizon:
                marks.append(mark)
        scale *= 10
    if not marks or marks[-1] != horizon:
        marks.append(horizon)
    return marks


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# Trace and summary files

def _joined(padded) -> tuple:
    """(codes, (dtype, text of each code)) of each row's entries before its
    -1 padding, joined by ';', in (S, T, k) ``padded``: one integer code per
    row, renumbered after each entry so that it stays below S * T."""
    padded = np.asarray(padded, dtype=np.int64)
    rows = padded.reshape(-1, padded.shape[-1])
    code, base = np.zeros(len(rows), dtype=np.int64), rows.max(initial=0) + 2
    for column in rows.T:
        code = np.unique(code * base + column + 1, return_inverse=True)[1].reshape(-1)
    first = np.zeros(code.max(initial=-1) + 1, dtype=np.int64)
    first[code] = np.arange(len(rows))          # a row of each code
    texts = [";".join(str(v) for v in row if v >= 0) for row in rows[first].tolist()]
    return code.reshape(padded.shape[:-1]), (np.int64, texts.__getitem__)


def _write_traces(paths, t, camera, inferred, true, tried, payoffs, aggregate, expected,
                  oracle, regret, components, bandwidth, edges, reset):
    """Write one trace file per path from its row of each (S, T) column, in
    header order (``tried`` and ``payoffs`` (S, T, k), padded by -1). Each
    column's distinct values get their text once, in a table indexed by codes
    of the smallest integer type that fits: ``str`` of an integer, the
    ';'-join of a cascade, ``repr`` of a float bit pattern, which round-trips
    it exactly. ``cum_regret`` is ``np.cumsum`` of the regret, a left-to-right
    running sum. Each file's rows are joined from lookups into those tables,
    one file at a time, and end in CRLF, as the csv module's excel dialect does."""
    regret, ints, floats = np.asarray(regret, dtype=float), (np.int64, str), (float, repr)
    columns = ((t, ints), (camera, ints), (inferred, ints), (true, ints), _joined(tried),
               _joined(payoffs), (aggregate, ints), (expected, floats), (oracle, floats),
               (regret, floats), (np.cumsum(regret, axis=-1), floats), (components, ints),
               (bandwidth, floats), (edges, ints), (reset, ints))
    tables, codes = [], []
    for column, (dtype, text) in columns:
        keys = np.asarray(column, dtype=dtype)
        distinct, inverse = np.unique(keys.view(np.int64), return_inverse=True)
        codes.append(inverse.reshape(keys.shape).astype(np.min_scalar_type(len(distinct))))
        tables.append(np.array(list(map(text, distinct.view(dtype).tolist())), dtype=object))
    for s, path in enumerate(paths):
        lookups = (table[code[s]].tolist() for table, code in zip(tables, codes))
        rows = "\r\n".join([*map(",".join, zip(*lookups)), ""])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# schema_version={TRACE_SCHEMA_VERSION}\n{TRACE_HEADER}\n{rows}")


def write_trace(path, records):
    """Write the trace file of round records (their fields are the header's but cum_regret)."""
    columns = [[getattr(r, f.name) for r in records] for f in fields(RoundRecord)]
    width = max([1, *map(len, columns[4] + columns[5])])
    columns[4:6] = (np.reshape([[*v, *[-1] * (width - len(v))] for v in cascades], (-1, width))
                    for cascades in columns[4:6])
    _write_traces([path], *([column] for column in columns))


def write_traces(paths, episodes):
    """Write each finished episode's trace file straight from its round log,
    formatting the block's columns together."""
    log = lambda name: [getattr(ep, name) for ep in episodes]  # noqa: E731
    oracle, regret, bandwidth = zip(*(ep.outcome for ep in episodes))
    _write_traces(paths, [np.arange(1, len(regret[0]) + 1)] * len(regret),
                  *map(log, ("arrival", "inferred_groups", "true_groups", "tried", "payoffs")),
                  [ep.payoffs.max(axis=1, initial=-1) for ep in episodes], log("expected"),
                  oracle, regret, log("components"), bandwidth, log("edges_deleted"),
                  log("resets"))


def read_trace(path) -> list[RoundRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# schema_version="):
            raise ConfigError(f"{path}: missing schema_version line")
        version = int(first.split("=", 1)[1])
        if version != TRACE_SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported trace schema_version {version}")
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ConfigError(f"{path}: unexpected trace header")
        reader, width = csv.reader(fh), len(TRACE_HEADER.split(","))
        for row in reader:     # a row cut short or run long names its line
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} fields, expected {width}")
                records.append(RoundRecord(
                    t=int(row[0]), camera=int(row[1]), inferred_group=int(row[2]),
                    true_group=int(row[3]),
                    tried_models=tuple(int(v) for v in row[4].split(";") if v),
                    payoffs=tuple(int(v) for v in row[5].split(";") if v),
                    aggregate_payoff=int(row[6]), expected_payoff=float(row[7]),
                    oracle_expected_payoff=float(row[8]), instantaneous_regret=float(row[9]),
                    component_count=int(row[11]), bandwidth_spent=float(row[12]),
                    edges_deleted=int(row[13]), graph_reset=bool(int(row[14]))))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {reader.line_num + 2}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# The experiment driver

@dataclass
class ExperimentResult:
    summary: dict
    runs: dict                   # (variant, seed) -> RunResult
    world: World


def _collect(outcomes):
    """(runs, errors) keyed by (variant, seed) from each job's outcomes, logging
    one line per pair as its outcome comes in (in job order)."""
    runs, errors = {}, {}
    for result, error in itertools.chain.from_iterable(outcomes):
        key = (result.variant, result.seed)
        if error is None:
            runs[key] = result
            regret = float(result.cum_regret[-1]) if result.cum_regret.size else 0.0
            log.info("pair %s seed %d finished in %.3f s, final regret %r",
                     result.variant, result.seed, result.timing["wall"], regret)
        else:
            errors[key] = error
            log.info("pair %s seed %d failed: %s", result.variant, result.seed, error)
    return runs, errors


def run_experiment(cfg: ExperimentConfig, keep_records: bool = False) -> ExperimentResult:
    """Run every (variant, seed) pair, write traces and an aggregate summary."""
    world = resolve_world(cfg)
    if cfg.schedule_events:
        PerspectiveSchedule(cfg.schedule_events).validate_against(world)
    if cfg.agent.k_max > world.n_models and any(v in AGENT_VARIANTS for v in cfg.variants):
        raise ConfigError(f"k_max={cfg.agent.k_max} exceeds the catalog size {world.n_models}")
    out_dir = None
    if cfg.output_dir is not None:
        from pathlib import Path

        out_dir = Path(cfg.output_dir)
        for variant in cfg.variants:
            (out_dir / variant).mkdir(parents=True, exist_ok=True)

    jobs = []
    for variant in cfg.variants:
        for span in np.array_split(cfg.seeds, min(cfg.workers, len(cfg.seeds))):
            seeds = tuple(span.tolist())
            paths = tuple(str(out_dir / variant / f"{seed}.csv") for seed in seeds) \
                if out_dir else None
            jobs.append((variant, seeds, world, cfg.agent, cfg.horizon, cfg.schedule_events,
                         cfg.greedy_profile_rounds, paths, keep_records))

    if cfg.workers > 1 and len(jobs) > 1:
        # imported here, so a run without a pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            runs, errors = _collect(pool.map(_run_job, jobs))
    else:
        runs, errors = _collect(map(_run_job, jobs))

    marks = checkpoints(cfg.horizon)
    variants_block = {}
    for variant in cfg.variants:
        ok = [runs[(variant, s)] for s in cfg.seeds if (variant, s) in runs]
        block = {
            "seeds": [s for s in cfg.seeds if (variant, s) in runs],
            "failed": {str(s): errors[(variant, s)] for s in cfg.seeds
                       if (variant, s) in errors},
        }
        if ok:
            curves = np.stack([r.cum_regret[np.array(marks) - 1] for r in ok]) \
                if marks else np.zeros((len(ok), 0))
            means, ses = [], []
            for j in range(curves.shape[1]):
                mn, se = _mean_se(curves[:, j])
                means.append(mn)
                ses.append(se)
            trailing = [float(r.expected[-cfg.window:].mean()) if r.expected.size >= 1
                        else None for r in ok]
            rtt = [rounds_to_threshold(r.expected, cfg.target, cfg.window) for r in ok]
            correct_rounds = []
            for r in ok:
                hits = np.flatnonzero(r.correct)
                correct_rounds.append(int(hits[0] + 1) if hits.size else None)
            block.update({
                "cum_regret_mean": means,
                "cum_regret_se": ses,
                "final_trailing_payoff": trailing,
                "rounds_to_threshold": rtt,
                "grouping_correct_round": correct_rounds,
                "total_bandwidth": [r.total_bandwidth for r in ok],
                "nonconverged_solves": [r.nonconverged_solves for r in ok],
                "timing_seconds": {
                    key: float(np.mean([r.timing.get(key, 0.0) for r in ok]))
                    for key in TIMING_BUCKETS + ("wall",)
                },
            })
        variants_block[variant] = block

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "horizon": cfg.horizon,
        "window": cfg.window,
        "target": cfg.target,
        "seeds": list(cfg.seeds),
        "checkpoints": marks,
        "world": {"cameras": world.n_cameras, "groups": world.n_groups,
                  "models": world.n_models, "dimension": world.dimension,
                  "payoff_mode": world.payoff_mode},
        "variants": variants_block,
    }
    if out_dir is not None:
        with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return ExperimentResult(summary=summary, runs=runs, world=world)
