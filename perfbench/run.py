"""camsel benchmark: paired-seed sweeps through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload canonical-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload's sweep (``camsel.config.load_config`` then
``camsel.harness.run_experiment``) for ``--seconds`` seconds after a short
warm-up and reports the end-to-end metrics: rounds per kernel (the median
rounds per second over the timed sweeps times the median duration of a
fixed calibration kernel run between them), the median of five cold set-ups
in fresh interpreters, peak RSS and the final regret. The raw rounds per
second is printed beside them. ``--trace 1`` alternates
untraced and traced single-process sweeps, with spans recorded by wrappers
installed from this directory (see ``tracing.py``), and reports the
per-layer metrics of the last traced sweep.

Both modes run the correctness gate and fail with exit code 1 when it finds
a problem. Every run records its environment as an ``env`` line and in
``.perfbench-out/<workload>-seed<seed>-trace<t>/result.json``. The last line
of standard output is the JSON result.
"""

import os

BLAS_BEFORE = os.environ.get("OPENBLAS_NUM_THREADS")
# Two pool workers with OpenBLAS's default of one thread per core would
# oversubscribe the cores; pinned before numpy loads, inherited by children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUP_PROBES = 5
GATE_PAIRS = 2          # pairs re-run under tracing by a --trace 0 run
REGRET_TOL = 1e-9
# Printed beside the declared metrics. The set-based grouping metrics are
# left out of BENCHMARK.json because no listed workload runs that grouping.
UNBOUNDED_UNITS = {"rounds_per_s": "rounds/s", "kernel_s": "s", "pair_fail_ratio": "ratio",
                   "grouping.set_based.count": "count", "grouping.set_based.per_round": "1/round",
                   "grouping.set_based.self_s": "s", "grouping.set_based.us_p50": "us",
                   "grouping.set_based.us_p99": "us"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_camsel():
    """Import camsel from this checkout's ``src/`` or exit with an error."""
    try:
        import camsel
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import camsel from {SRC}: {exc}")
    if Path(camsel.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: camsel was imported from {camsel.__file__}, not {SRC}")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "command": [sys.executable] + sys.argv,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS_pinned_by_benchmark": True,
        "OPENBLAS_NUM_THREADS_before": BLAS_BEFORE,
    }


def kernel_seconds():
    """Wall time of a fixed kernel of small numpy calls and Python loops that
    does not touch camsel.

    Other tenants of a shared machine slow the canonical sweeps and this
    kernel together, over seconds and over minutes; rounds per sweep second
    times kernel seconds, each a median over one run, cancels most of that
    drift. The fleet sweeps, dominated by dense 308 x 308 array and graph
    work, do not track it (see layers.json).
    """
    import numpy as np
    from scipy.special import expit

    feats = np.random.default_rng(0).random((20, 5))
    hess = np.eye(5) * 2.0 + 0.1
    theta = np.zeros(5)
    start = time.perf_counter()
    for _ in range(2000):
        z = feats @ theta
        grad = feats.T @ (expit(z) - 0.5) - theta
        theta = theta + 0.01 * np.linalg.solve(hess, grad)
        order = np.lexsort((np.arange(20), -z))
        total = 0
        for j in range(20):
            total += int(order[j])
    return time.perf_counter() - start


def timed_sweep(cfg, **kwargs):
    from camsel.harness import run_experiment

    start = time.perf_counter()
    result = run_experiment(cfg, **kwargs)
    return result, time.perf_counter() - start


def warm_up(cfg):
    """Run one pair per worker so that lazy imports and first calls finish
    before timing; returns (pairs attempted, pairs failed)."""
    result, _ = timed_sweep(replace(cfg, seeds=cfg.seeds[:cfg.workers], output_dir=None))
    return cfg.workers, failures(result)


def final_regret(result, variant):
    return result.summary["variants"][variant]["cum_regret_mean"][-1]


def failures(result):
    return sum(len(block["failed"]) for block in result.summary["variants"].values())


def traced_sweep(tracer, cfg):
    from camsel.harness import run_experiment

    tracer.install()
    try:
        start = time.perf_counter()
        result = tracer.wrap("harness.run_experiment", run_experiment)(cfg, keep_records=True)
        return result, time.perf_counter() - start
    finally:
        tracer.restore()


def gate(cfg, untraced, traced, trace_dir):
    """Problems found comparing an untraced sweep with a traced re-run of some
    or all of its pairs; an empty list means the outputs are correct."""
    import numpy as np
    from camsel.harness import read_trace

    problems = []
    for label, result in (("untraced", untraced), ("traced", traced)):
        for variant, block in result.summary["variants"].items():
            for seed, error in block["failed"].items():
                problems.append(f"{label} pair ({variant}, {seed}) failed: {error}")
    if problems:
        return problems
    variant = cfg.variants[0]
    sums = []
    for seed in cfg.seeds:
        if trace_dir is not None:
            records = read_trace(trace_dir / f"{seed}.csv")
            inst = np.array([r.instantaneous_regret for r in records])
            twin = traced.runs.get((variant, seed))
            if twin is not None and records != twin.records:
                problems.append(f"trace file of seed {seed} differs from the traced run's records")
        else:
            inst = untraced.runs[(variant, seed)].inst_regret
        sums.append(np.cumsum(inst)[-1])
    summary_regret = final_regret(untraced, variant)
    from_traces = float(np.mean(sums))
    if abs(summary_regret - from_traces) > REGRET_TOL * max(1.0, abs(from_traces)):
        problems.append(f"summary cum_regret_mean at the horizon {summary_regret!r} != "
                        f"{from_traces!r} summed from per-round regret")
    for key, twin in traced.runs.items():
        plain = untraced.runs[key].cum_regret[-1]
        if twin.cum_regret[-1] != plain:
            problems.append(f"pair {key}: traced final regret {twin.cum_regret[-1]!r} != "
                            f"untraced {plain!r}")
    return problems


def setup_seconds(workload, config_path):
    """Median wall of cold set-ups, each in a fresh interpreter."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(probe), workload.name, str(config_path)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(times), times


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_untraced(args, workload, out_dir):
    """End-to-end metrics: timed sweeps, then set-up probes, then the gate."""
    config_path = out_dir / "config.json"
    cfg = workloads.setup(workload, config_path)
    attempted, failed = warm_up(cfg)
    walls, regrets, kernels = [], set(), [kernel_seconds()]
    deadline = time.perf_counter() + args.seconds
    # Stop before a sweep that would end past the deadline, but time at least three.
    while len(walls) < 3 or time.perf_counter() + statistics.median(walls) <= deadline:
        result, wall = timed_sweep(cfg)
        walls.append(wall)
        kernels.append(kernel_seconds())
        regrets.add(final_regret(result, workload.variant))
        attempted += workload.pairs
        failed += failures(result)
    rss = peak_rss_mb()                                # before any probe child exits
    setup, setup_all = setup_seconds(workload, config_path)

    gate_cfg = replace(cfg, seeds=cfg.seeds[:GATE_PAIRS], workers=1, output_dir=None)
    traced, _ = traced_sweep(Tracer(), gate_cfg)
    attempted += len(gate_cfg.seeds)
    failed += failures(traced)
    trace_dir = Path(cfg.output_dir) / workload.variant if workload.traces else None
    problems = gate(cfg, result, traced, trace_dir)
    if len(regrets) > 1:
        problems.append(f"final regret differs between identical sweeps: {sorted(regrets)}")

    rates = [workload.rounds / w for w in walls]
    kernel = statistics.median(kernels)
    values = {
        "rounds_per_kernel": statistics.median(rates) * kernel,
        "rounds_per_s": statistics.median(rates),
        "kernel_s": kernel,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "regret_final": final_regret(result, workload.variant),
    }
    lo, _, hi = statistics.quantiles(rates, n=4)
    notes = {
        "rounds_per_kernel": "rounds_per_s x kernel_s",
        "rounds_per_s": f"median of {len(rates)} timed sweeps of {workload.rounds} rounds "
                        f"({workload.pairs} pairs x T={workload.horizon}); "
                        f"p25 {lo:.1f}, p75 {hi:.1f}",
        "kernel_s": f"median of {len(kernels)} kernel runs around the sweeps",
        "setup_s": f"median of {SETUP_PROBES} cold set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setup_all),
        "peak_rss_mb": "max ru_maxrss of this process and its reaped pool workers",
        "regret_final": f"mean cumulative regret at T={workload.horizon} "
                        f"over {workload.pairs} pairs",
    }
    return values, notes, attempted, failed, problems


def run_traced(args, workload, out_dir):
    """Per-layer metrics: one untraced sweep as configured (pool efficiency,
    trace files), then untraced and traced single-process sweeps."""
    from camsel.config import load_config
    from camsel.environment import save_world
    from camsel.harness import read_trace

    setup_tracer = Tracer()
    cfg = workloads.setup(workload, out_dir / "config.json",
                          build=setup_tracer.wrap("environment.world", workloads.build_world),
                          save=setup_tracer.wrap("environment.world", save_world),
                          load=setup_tracer.wrap("config.load", load_config))

    attempted, failed = warm_up(cfg)
    sweep, sweep_wall = timed_sweep(cfg)
    pair_wall = sum(r.timing["wall"] for r in sweep.runs.values())
    attempted += workload.pairs
    failed += failures(sweep)

    # Untraced and traced single-process sweeps alternate, so that both
    # medians see the same machine load; the last traced sweep gives the spans.
    single = replace(cfg, workers=1,
                     output_dir=str(out_dir / "single") if workload.traces else None)
    traced_cfg = replace(single, output_dir=str(out_dir / "traced") if workload.traces else None)
    untraced_walls, traced_walls = [], []
    deadline = time.perf_counter() + args.seconds / 2
    while len(traced_walls) < 2 or time.perf_counter() < deadline:
        result, wall = timed_sweep(single)
        untraced_walls.append(wall)
        tracer = Tracer()
        tracer.spans.extend(setup_tracer.spans)
        traced, wall = traced_sweep(tracer, traced_cfg)
        traced_walls.append(wall)
        attempted += 2 * workload.pairs
        failed += failures(result) + failures(traced)
    untraced_rate = workload.rounds / statistics.median(untraced_walls)
    traced_rate = workload.rounds / statistics.median(traced_walls)
    tracer.write(out_dir / "spans.csv")

    trace_dir = Path(cfg.output_dir) / workload.variant if workload.traces else None
    read_s, trace_bytes = 0.0, 0
    if trace_dir is not None:
        start = time.perf_counter()
        for seed in cfg.seeds:
            read_trace(trace_dir / f"{seed}.csv")
        read_s = time.perf_counter() - start
        trace_bytes = sum(p.stat().st_size for p in trace_dir.glob("*.csv"))
    problems = gate(cfg, sweep, traced, trace_dir)

    records = [r for run in traced.runs.values() for r in run.records]
    values = layer_metrics(tracer, records, workload.rounds)
    world = sweep.world
    values.update({
        "harness.read_trace.s": read_s,
        "harness.trace_mb": trace_bytes / 1e6,
        "harness.pool.workers": cfg.workers,
        "harness.pool.pair_wall_s": pair_wall,
        "harness.pool.sweep_s": sweep_wall,
        "harness.pool.efficiency": pair_wall / (cfg.workers * sweep_wall),
        "environment.payoff_table_mb": workload.horizon * world.n_models * 8 / 1e6,
        "trace.rounds_per_s": traced_rate,
        "trace.untraced_rounds_per_s": untraced_rate,
        "trace.overhead": 1.0 - traced_rate / untraced_rate,
    })
    notes = {
        "environment.payoff_table_mb": "computed as T x M x 8 bytes per pair, not measured",
        "trace.rounds_per_s": f"median of {len(traced_walls)} traced sweeps, alternated "
                              "with the untraced ones",
        "trace.untraced_rounds_per_s": f"median of {len(untraced_walls)} untraced "
                                       "single-process sweeps",
        "harness.pool.efficiency": "sum of pair wall / (workers x sweep wall), untraced sweep",
        "trace.coverage": "share of pair wall in spans below harness.run_pair",
    }
    # Compared with the ROADMAP baseline in layers.json.
    crosscheck = {
        "solves_per_round": values["estimator.solve.per_round"],
        "newton_iterations_median": values["estimator.solve.iters_p50"],
        "nonconverged": values["estimator.solve.nonconverged"],
        "us_per_round_single_process": 1e6 / untraced_rate,
        "grouping_ms_per_round": 1e3 * values["grouping.self_s"] / workload.rounds,
    }
    print("perfbench crosscheck " + json.dumps(crosscheck))
    return values, notes, attempted, failed, problems


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_camsel()
    workload = workloads.WORKLOADS[args.workload]

    out_dir = ROOT / ".perfbench-out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workloads.write_config(workload, args.seed, out_dir)
    run = run_traced if args.trace else run_untraced
    values, notes, attempted, failed, problems = run(args, workload, out_dir)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    # Not bounded: raw wall rate and kernel time vary with the machine's load,
    # and any failed pair already fails the run.
    values["pair_fail_ratio"] = failed / attempted
    notes["pair_fail_ratio"] = f"{failed} failed of {attempted} pairs attempted"
    shown = dict(metrics, **{name: {"value": values[name], "unit": unit}
                             for name, unit in UNBOUNDED_UNITS.items() if name in values})
    env = environment(args)
    print("perfbench env " + json.dumps(env))
    for name, metric in shown.items():
        note = notes.get(name)
        print(f"perfbench metric {name} = {metric['value']!r} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    for problem in problems:
        print(f"perfbench GATE FAILED: {problem}", file=sys.stderr)
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (out_dir / "result.json").write_text(
        json.dumps({"env": env, "notes": notes, "problems": problems, "shown": shown, **result},
                   indent=2) + "\n",
        encoding="utf-8")
    if result["correct"]:
        for sub in ("traces", "single", "traced"):   # trace files, kept only on failure
            shutil.rmtree(out_dir / sub, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
