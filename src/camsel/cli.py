"""Command-line entry point: one subcommand per experiment family.

Exit codes: 0 success, 1 configuration error, 2 runtime error or a sweep in
which any (variant, seed) pair failed. Outputs land under the output
directory as ``{subcommand}/{variant}/{seed}.csv`` traces next to a
``summary.json``; the deletion ablation adds its checkpoint table.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import load_config
from .environment import (PAYOFF_MODES, WorldConfig, generate_world, load_world, save_world,
                          world_to_dict)
from .errors import ConfigError
from .harness import ExperimentConfig, acceleration_ratio, run_experiment
from .theory import theory_report

log = logging.getLogger("camsel")

DELETION_CHECKPOINTS = (15, 50, 200, 850)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _JsonFormatter(logging.Formatter):
    def format(self, record):
        return json.dumps({"level": record.levelname, "name": record.name,
                           "message": record.getMessage()})


def _setup_logging(quiet: bool, json_logs: bool):
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonFormatter() if json_logs
                         else logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(logging.WARNING if quiet else logging.INFO)


def _parse_seeds(spec: str):
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(s) for s in spec.split(",") if s)
    except ValueError:
        raise ConfigError(f"--seeds {spec!r}: expected a list '0,1,2' or a range '0..9'") from None


def _add_common(parser):
    parser.add_argument("--config", help="experiment config file (JSON)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--output-dir", default=None,
                        help="output root (default: $CAMSEL_OUTPUT_DIR or ./camsel-out)")
    parser.add_argument("--seeds", default=None, help="seed list '0,1,2' or range '0..9'")
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)


def _experiment_config(args, subcommand: str, variants=None) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config(args.config, args.overrides)
    else:
        from .config import apply_overrides, config_from_dict

        cfg = config_from_dict(apply_overrides({}, args.overrides))
    if args.seeds is not None:
        cfg = replace(cfg, seeds=_parse_seeds(args.seeds))
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if variants is not None:
        cfg = replace(cfg, variants=tuple(variants))
    root = args.output_dir or cfg.output_dir or os.environ.get("CAMSEL_OUTPUT_DIR", "camsel-out")
    cfg = replace(cfg, output_dir=str(Path(root) / subcommand))
    return cfg


def _report(result, path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    log.info("wrote %s", path)


def _trailing(summary: dict, variant: str):
    vals = summary["variants"][variant].get("final_trailing_payoff") or []
    return [v for v in vals if v is not None]


def _mean(values):
    """The mean over the finished seeds, or None when none finished."""
    return float(np.mean(values)) if values else None


def _sweep_exit_code(cmd):
    """Wrap a pair-running subcommand: it reports whatever finished, then the
    exit code is 2 when any (variant, seed) pair failed."""
    def run(args) -> int:
        result = cmd(args)
        failed = [f"{variant} seed {seed}: {error}"
                  for variant, block in result.summary["variants"].items()
                  for seed, error in block["failed"].items()]
        if failed:
            log.error("%d pair(s) failed: %s", len(failed), "; ".join(failed))
            return 2
        return 0
    return run


def _cmd_run(args):
    cfg = _experiment_config(args, "run")
    result = run_experiment(cfg)
    log.info("run finished: %d variants x %d seeds", len(cfg.variants), len(cfg.seeds))
    print(json.dumps(result.summary, indent=2))
    return result


def _cmd_ablate_deletion(args):
    variants = ("f1", "f2", "f3", "f4", "f5", "f6")
    cfg = _experiment_config(args, "ablate-deletion", variants)
    if cfg.horizon < max(DELETION_CHECKPOINTS):
        cfg = replace(cfg, horizon=max(DELETION_CHECKPOINTS))
    result = run_experiment(cfg)
    marks = [m for m in DELETION_CHECKPOINTS if m <= cfg.horizon]
    out = Path(cfg.output_dir) / "deletion_ablation.csv"
    lines = ["f_id," + ",".join(f"r{m}" for m in marks)]
    for variant in variants:
        curves = [result.runs[(variant, s)].cum_regret for s in cfg.seeds
                  if (variant, s) in result.runs]
        if curves:
            mean_at = [float(np.mean([c[m - 1] for c in curves])) for m in marks]
            lines.append(variant + "," + ",".join(f"{v:.6g}" for v in mean_at))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %s", out)
    print("\n".join(lines))
    return result


def _cmd_ablate_grouping(args):
    cfg = _experiment_config(args, "ablate-grouping", ("default", "no-grouping", "set-based"))
    result = run_experiment(cfg)
    s = result.summary["variants"]
    # each variant lists only the seeds it finished: pair them by seed
    with_g, without_g = (dict(zip(s[v]["seeds"], s[v].get("rounds_to_threshold", [])))
                         for v in ("default", "no-grouping"))
    seeds = [seed for seed in with_g if seed in without_g]
    ratios = [acceleration_ratio(without_g[seed], with_g[seed]) for seed in seeds]
    reached = [r for r in ratios if r is not None]
    payload = {
        "target": cfg.target,
        "window": cfg.window,
        "seeds": seeds,
        "acceleration_ratios": ratios,
        "median_acceleration": float(np.median(reached)) if reached else None,
        "grouping_seconds": {
            "graph": s["default"].get("timing_seconds", {}).get("grouping"),
            "set": s["set-based"].get("timing_seconds", {}).get("grouping"),
        },
    }
    _report(result, Path(cfg.output_dir) / "grouping_ablation.json", payload)
    print(json.dumps(payload, indent=2))
    return result


def _cmd_ablate_combining(args):
    cfg = _experiment_config(args, "ablate-combining", ("default", "no-combining"))
    result = run_experiment(cfg)
    with_c = _trailing(result.summary, "default")
    without_c = _trailing(result.summary, "no-combining")
    payload = {
        "trailing_payoff_with": with_c,
        "trailing_payoff_without": without_c,
        "mean_gap": float(np.mean(with_c) - np.mean(without_c)) if with_c and without_c else None,
    }
    _report(result, Path(cfg.output_dir) / "combining_ablation.json", payload)
    print(json.dumps(payload, indent=2))
    return result


def _cmd_ablate_perspective(args):
    cfg = _experiment_config(args, "ablate-perspective",
                             ("default", "no-perspective", "greedy"))
    result = run_experiment(cfg)
    payload = {
        "trailing_payoff_with": _trailing(result.summary, "default"),
        "trailing_payoff_without": _trailing(result.summary, "no-perspective"),
        "trailing_payoff_greedy": _trailing(result.summary, "greedy"),
    }
    for key in ("with", "without", "greedy"):
        payload[f"mean_{key}"] = _mean(payload[f"trailing_payoff_{key}"])
    _report(result, Path(cfg.output_dir) / "perspective_ablation.json", payload)
    print(json.dumps(payload, indent=2))
    return result


def _cmd_compare_greedy(args):
    cfg = _experiment_config(args, "compare-greedy", ("default", "greedy"))
    result = run_experiment(cfg)
    s = result.summary["variants"]
    payload = {
        "trailing_payoff_default": _trailing(result.summary, "default"),
        "trailing_payoff_greedy": _trailing(result.summary, "greedy"),
        "mean_bandwidth_default": _mean(s["default"].get("total_bandwidth")),
        "mean_bandwidth_greedy": _mean(s["greedy"].get("total_bandwidth")),
    }
    _report(result, Path(cfg.output_dir) / "greedy_comparison.json", payload)
    print(json.dumps(payload, indent=2))
    return result


def _cmd_theory(args) -> int:
    cfg = _experiment_config(args, "theory")
    from .harness import resolve_world

    world = resolve_world(cfg)
    report = theory_report(world, k_max=cfg.agent.k_max, horizon=max(cfg.horizon, world.dimension + 1))
    print(json.dumps(report, indent=2))
    return 0


def _cmd_gen_world(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(WorldConfig) if hasattr(args, f.name)}
    world = generate_world(WorldConfig(**given), args.seed)
    save_world(world, args.out)
    reloaded = load_world(args.out)
    if world_to_dict(reloaded) != world_to_dict(world):
        raise RuntimeError("generated world did not survive a save/load round trip")
    log.info("wrote %s (%d cameras, %d groups, %d models)",
             args.out, world.n_cameras, world.n_groups, world.n_models)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="camsel", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="log warnings only")
    parser.add_argument("--json-logs", action="store_true", help="emit JSON log lines")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, fn in (("run", _sweep_exit_code(_cmd_run)),
                     ("ablate-deletion", _sweep_exit_code(_cmd_ablate_deletion)),
                     ("ablate-grouping", _sweep_exit_code(_cmd_ablate_grouping)),
                     ("ablate-combining", _sweep_exit_code(_cmd_ablate_combining)),
                     ("ablate-perspective", _sweep_exit_code(_cmd_ablate_perspective)),
                     ("compare-greedy", _sweep_exit_code(_cmd_compare_greedy)),
                     ("theory", _cmd_theory)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)

    # each world flag given sets the WorldConfig field it names; one left out keeps its default
    g = sub.add_parser("gen-world", argument_default=argparse.SUPPRESS)
    for flag, name, kind in (("--groups", "n_groups", int), ("--cameras", "n_cameras", int),
                             ("--dim", "dimension", int), ("--gamma", "gamma", float),
                             ("--models", "n_models", int),
                             ("--threshold", "accuracy_threshold", float),
                             ("--sigma", "noise_sigma", float)):
        g.add_argument(flag, dest=name, type=kind)
    g.add_argument("--unit-norm", dest="unit_norm_features", action="store_true")
    g.add_argument("--payoff-mode", dest="payoff_mode", choices=PAYOFF_MODES)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", "-o", required=True)
    g.set_defaults(func=_cmd_gen_world)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level     # restored on return
    try:
        args = parser.parse_args(argv)
        _setup_logging(args.quiet, args.json_logs)
        return args.func(args)
    except SystemExit as exc:     # --help and friends
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
