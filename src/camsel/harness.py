"""Experiment orchestration: multi-seed paired runs, metrics, trace files.

Variants sharing a seed consume identical camera-arrival and payoff streams
(the streams are keyed by seed, round, and model inside the policy), so every
ablation delta is a paired comparison. Each (variant, seed) pair runs
independently; failures abort only that pair and are recorded in the summary.
"""

from __future__ import annotations

import csv
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .environment import PerspectiveSchedule, World, WorldConfig, generate_world, load_world
from .errors import ConfigError
from .policy import Agent, AgentConfig, RoundRecord, baseline_greedy

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

# Per-pair timer buckets, in seconds. The agent's four cover each of its
# rounds; ``harness`` covers run_pair's own work, the agent's set-up and the
# per-round check against the truth. Together they cover the pair's wall time
# but for the calls between them. The greedy baseline is not timed.
TIMING_BUCKETS = ("selection", "grouping", "estimation", "bookkeeping", "harness")


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
    eta: float = 0.5
    greedy_profile_rounds: int = 200
    schedule_events: tuple = ()
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "schedule_events",
                           tuple((int(a), int(b), int(c)) for a, b, c in self.schedule_events))
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not self.variants:
            raise ConfigError("need at least one variant")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {sorted(VARIANTS)}")
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


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel a partition by each block's smallest member id."""
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


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


def _records_arrays(records):
    expected = np.array([r.expected_payoff for r in records])
    inst = np.array([r.instantaneous_regret for r in records])
    comps = np.array([r.component_count for r in records], dtype=int)
    bandwidth = float(sum(r.bandwidth_spent for r in records))
    return expected, inst, np.cumsum(inst), comps, bandwidth


def run_pair(variant: str, seed: int, world: World, base_agent: AgentConfig,
             horizon: int, schedule_events=(), greedy_profile_rounds: int = 200,
             trace_path=None, keep_records: bool = False) -> RunResult:
    """Run one (variant, seed) pair and optionally write its trace file."""
    schedule = PerspectiveSchedule(schedule_events) if schedule_events else None
    wall = time.perf_counter()
    if variant == "greedy":
        oracle_k = base_agent.regret_oracle_k or base_agent.k_max
        records = baseline_greedy(world, greedy_profile_rounds, horizon, seed,
                                  oracle_k=min(oracle_k, world.n_models), schedule=schedule)
        correct = np.zeros(horizon, dtype=bool)
        timing = dict.fromkeys(TIMING_BUCKETS, 0.0)
        nonconverged = 0
    else:
        agent = Agent(variant_agent_config(base_agent, variant), world, horizon, seed, schedule)
        records = []
        correct = np.zeros(horizon, dtype=bool)
        truth, truth_events, inferred, match = None, -1, None, False
        clock = time.perf_counter
        harness_s = clock() - wall
        for t in range(1, horizon + 1):
            record = agent.step(t)
            stepped = clock()
            records.append(record)
            if agent.events_applied != truth_events:
                truth = canonical_labels(agent.assignment)
                truth_events, inferred = agent.events_applied, None
            # a new partition is a new array, so the comparison is redone only
            # when the partition or the truth changed; inferred labels already
            # name each block by its smallest member
            labels = agent.inferred_labels()
            if labels is not inferred:
                inferred, match = labels, np.array_equal(labels, truth)
            correct[t - 1] = match
            harness_s += clock() - stepped
        timing = {"selection": agent.time_selection, "grouping": agent.time_grouping,
                  "estimation": agent.time_estimation, "bookkeeping": agent.time_bookkeeping,
                  "harness": harness_s}
        nonconverged = agent.nonconverged_solves
    timing["wall"] = time.perf_counter() - wall
    expected, inst, cum, comps, bandwidth = _records_arrays(records)
    if trace_path is not None:
        write_trace(trace_path, records)
    return RunResult(variant=variant, seed=seed, expected=expected, inst_regret=inst,
                     cum_regret=cum, components=comps, correct=correct,
                     total_bandwidth=bandwidth, timing=timing,
                     records=records if keep_records else None,
                     nonconverged_solves=nonconverged)


def _run_pair_job(args):
    try:
        return run_pair(*args), None
    except Exception as exc:  # noqa: BLE001 - a failed pair must not kill the sweep
        variant, seed = args[0], args[1]
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return RunResult(variant, seed, np.zeros(0), np.zeros(0), np.zeros(0),
                         np.zeros(0, dtype=int), np.zeros(0, dtype=bool), 0.0, {}), \
            f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno} in {where.name})"


# ---------------------------------------------------------------------------
# Metrics

def _expected_array(trace) -> np.ndarray:
    if isinstance(trace, np.ndarray):
        return trace
    if trace and isinstance(trace[0], RoundRecord):
        return np.array([r.expected_payoff for r in trace])
    return np.asarray(trace, dtype=float)


def rounds_to_threshold(trace, target: float, window: int):
    """Smallest t whose trailing ``window``-round mean expected payoff reaches
    ``target``; None when it never does (windows start once complete)."""
    if window < 1:
        raise ValueError("window must be at least 1")
    values = _expected_array(trace)
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
        writer = csv.writer(fh)
        cum = 0.0
        for r in records:
            cum += r.instantaneous_regret
            # repr round-trips floats exactly, so trace files support
            # bit-level recomputation of every summary statistic
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


def run_experiment(cfg: ExperimentConfig, keep_records: bool = False) -> ExperimentResult:
    """Run every (variant, seed) pair, write traces and an aggregate summary."""
    world = resolve_world(cfg)
    if cfg.schedule_events:
        PerspectiveSchedule(cfg.schedule_events).validate_against(world)
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
            outcomes = list(pool.map(_run_pair_job, jobs))
    else:
        outcomes = [_run_pair_job(job) for job in jobs]

    runs = {}
    errors = {}
    for (result, error) in outcomes:
        if error is None:
            runs[(result.variant, result.seed)] = result
        else:
            errors[(result.variant, result.seed)] = error

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
        "eta": cfg.eta,
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
