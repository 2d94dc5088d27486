"""Experiment orchestration: multi-seed paired runs, metrics, trace files.

Variants sharing a seed consume identical camera-arrival and payoff streams
(the streams are keyed by seed, round, and model inside the policy), so every
ablation delta is a paired comparison. Each (variant, seed) pair runs
independently; failures abort only that pair and are recorded in the summary.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import numbers
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .environment import PerspectiveSchedule, World, WorldConfig, generate_world, load_world
from .errors import ConfigError, typed
from .policy import (TIMING_BUCKETS, Agent, AgentConfig, RoundRecord, baseline_greedy,
                     canonical_labels)  # noqa: F401 - canonical_labels is re-exported

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
    "no-combining": {"no_combining": True},
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
    # the episode's harness bucket is 0, so the five buckets sum to the wall time
    timing = dict(episode.timing, wall=wall, harness=wall - sum(episode.timing.values()))
    _, inst, bandwidth = episode.outcome
    records = episode.records() if trace_path is not None or keep_records else None
    if trace_path is not None:
        write_trace(trace_path, records)
    return RunResult(variant=variant, seed=seed, expected=episode.expected, inst_regret=inst,
                     cum_regret=np.cumsum(inst), components=episode.components,
                     correct=episode.correct, timing=timing,
                     nonconverged_solves=episode.nonconverged_solves,
                     total_bandwidth=float(sum(bandwidth.tolist())),  # not the pairwise .sum()
                     records=records if keep_records else None)


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

def write_trace(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema_version={TRACE_SCHEMA_VERSION}\n")
        fh.write(TRACE_HEADER + "\n")
        cum = 0.0
        for r in records:
            cum += r.instantaneous_regret
            # repr round-trips floats exactly, so trace files support
            # bit-level recomputation of every summary statistic; data rows
            # end in \r\n, as the csv module's excel dialect writes them
            fh.write(
                f"{r.t},{r.camera},{r.inferred_group},{r.true_group},"
                f"{';'.join(map(str, r.tried_models))},{';'.join(map(str, r.payoffs))},"
                f"{r.aggregate_payoff},{float(r.expected_payoff)!r},"
                f"{float(r.oracle_expected_payoff)!r},{float(r.instantaneous_regret)!r},"
                f"{float(cum)!r},{r.component_count},{float(r.bandwidth_spent)!r},"
                f"{r.edges_deleted},{int(r.graph_reset)}\r\n")


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
        for row in csv.reader(fh):
            records.append(RoundRecord(
                t=int(row[0]), camera=int(row[1]), inferred_group=int(row[2]),
                true_group=int(row[3]),
                tried_models=tuple(int(v) for v in row[4].split(";") if v),
                payoffs=tuple(int(v) for v in row[5].split(";") if v),
                aggregate_payoff=int(row[6]), expected_payoff=float(row[7]),
                oracle_expected_payoff=float(row[8]), instantaneous_regret=float(row[9]),
                component_count=int(row[11]), bandwidth_spent=float(row[12]),
                edges_deleted=int(row[13]), graph_reset=bool(int(row[14]))))
    return records


# ---------------------------------------------------------------------------
# The experiment driver

@dataclass
class ExperimentResult:
    summary: dict
    runs: dict                   # (variant, seed) -> RunResult
    world: World


def _collect(outcomes):
    """(runs, errors) keyed by (variant, seed), logging one line per pair as
    its outcome comes in (in job order)."""
    runs, errors = {}, {}
    for result, error in outcomes:
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
        for seed in cfg.seeds:
            trace_path = str(out_dir / variant / f"{seed}.csv") if out_dir else None
            jobs.append((variant, seed, world, cfg.agent, cfg.horizon,
                         cfg.schedule_events, cfg.greedy_profile_rounds,
                         trace_path, keep_records))

    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            runs, errors = _collect(pool.map(_run_pair_job, jobs))
    else:
        runs, errors = _collect(map(_run_pair_job, jobs))

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
