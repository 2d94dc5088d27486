"""Per-layer spans recorded from outside camsel.

The tracer replaces the public callables each layer exposes, at the names the
calling modules look them up by, with wrappers that record a span: name,
start, end, parent span, pair id and round index. Spans stay in memory until
the run ends. Nothing under ``src/`` is changed; :meth:`Tracer.restore` puts
every original back.

A layer's self time is its span duration minus the time its direct child
spans cover. Spans are strictly nested because the traced run is one
single-threaded process.
"""

from __future__ import annotations

import csv
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, pair, round)
        self.solves = []         # (iterations, converged, repeats an earlier input)
        self.pair = -1
        self.round = 0
        self._stack = []
        self._seen = set()
        self._patches = []

    def wrap(self, name, fn, enter=None, leave=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pair, self.round)
            if leave is not None:
                leave(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, enter=None, leave=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, enter, leave))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # hooks ---------------------------------------------------------------

    def _start_pair(self, args):
        self.pair += 1
        self.round = 0
        self._seen = set()

    def _start_round(self, args):
        self.round += 1

    def _solved(self, args, est):
        # args: (group stats, link, features, counts, successes)
        key = args[3].tobytes() + args[4].tobytes()
        repeat = key in self._seen
        self._seen.add(key)
        self.solves.append((est.iterations, est.converged, repeat))

    def install(self):
        """Wrap every traced callable of the sweep path."""
        from camsel import harness, policy
        from camsel.grouping import CameraGraph

        self.patch(harness, "run_pair", "harness.run_pair", enter=self._start_pair)
        self.patch(harness, "canonical_labels", "harness.canonical_labels")
        self.patch(harness, "write_trace", "harness.write_trace")
        self.patch(harness, "load_world", "environment.world")
        self.patch(policy.Agent, "__init__", "policy.init")
        self.patch(policy.Agent, "step", "policy.step", enter=self._start_round)
        self.patch(policy.Agent, "inferred_labels", "policy.inferred_labels")
        self.patch(policy, "solve_mle_weighted", "estimator.solve", leave=self._solved)
        self.patch(policy, "confidence_widths", "estimator.widths")
        self.patch(policy, "plan_cascade", "policy.cascade")
        self.patch(policy, "execute_cascade", "policy.cascade")
        self.patch(policy, "expected_cascade_payoff", "core.expected_payoff")
        self.patch(policy, "delete_edges", "grouping.delete_edges")
        self.patch(policy, "reconnect", "grouping.reconnect")
        self.patch(policy, "set_based_groups", "grouping.set_based")
        self.patch(CameraGraph, "find_group", "grouping.find_group")
        self.patch(CameraGraph, "component_labels", "grouping.labels")

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent", "pair", "round"))
            for i, span in enumerate(self.spans):
                writer.writerow((i,) + span)


class SpanTable:
    """Column view of finished spans with self times."""

    def __init__(self, spans):
        self.name = np.array([s[0] for s in spans], dtype=object)
        start = np.array([s[1] for s in spans])
        self.dur = np.array([s[2] for s in spans]) - start
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.pair = np.array([s[4] for s in spans], dtype=np.int64)
        self.round = np.array([s[5] for s in spans], dtype=np.int64)
        covered = np.zeros(len(spans))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered

    def mask(self, *names):
        return np.isin(self.name, names)

    def count(self, name) -> int:
        return int(self.mask(name).sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def total_s(self, *names) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def us(self, name, q) -> float:
        d = self.dur[self.mask(name)]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    def per_round_us(self, name, q) -> float:
        """Percentile over rounds of the summed duration of ``name`` spans."""
        m = self.mask(name)
        if not m.any():
            return 0.0
        keys = self.pair[m] * (1 << 32) + self.round[m]
        _, inverse = np.unique(keys, return_inverse=True)
        return float(np.percentile(np.bincount(inverse, weights=self.dur[m]), q) * 1e6)


def layer_metrics(tracer: Tracer, records: list, rounds: int) -> dict:
    """Per-layer metrics of one traced sweep. ``records`` are all its rounds."""
    t = SpanTable(tracer.spans)
    solves = np.array(tracer.solves, dtype=float).reshape(-1, 3)
    n_solves = solves.shape[0]
    pair_mask = t.mask("harness.run_pair")
    pair_wall = float(t.dur[pair_mask].sum())
    below_root = float(pair_wall - t.self_time[pair_mask].sum())
    grouping = ("grouping.find_group", "grouping.labels", "grouping.delete_edges",
                "grouping.reconnect", "grouping.set_based", "policy.inferred_labels")
    return {
        "estimator.solve.count": n_solves,
        "estimator.solve.per_round": n_solves / rounds,
        "estimator.solve.self_s": t.self_s("estimator.solve"),
        "estimator.solve.us_p50": t.us("estimator.solve", 50),
        "estimator.solve.us_p99": t.us("estimator.solve", 99),
        "estimator.solve.iters_mean": float(solves[:, 0].mean()) if n_solves else 0.0,
        "estimator.solve.iters_p50": float(np.median(solves[:, 0])) if n_solves else 0.0,
        "estimator.solve.nonconverged": int(n_solves - solves[:, 1].sum()),
        "estimator.solve.repeat_ratio": float(solves[:, 2].mean()) if n_solves else 0.0,
        "estimator.widths.self_s": t.self_s("estimator.widths"),
        "estimator.widths.us_p50": t.us("estimator.widths", 50),
        "policy.step.us_p50": t.us("policy.step", 50),
        "policy.step.us_p99": t.us("policy.step", 99),
        "policy.step.self_s": t.self_s("policy.step"),
        "policy.cascade.self_s": t.self_s("policy.cascade"),
        "policy.cascade.us_p50": t.per_round_us("policy.cascade", 50),
        "policy.cascade.tries_per_round": sum(len(r.tried_models) for r in records) / rounds,
        "policy.init_s": t.total_s("policy.init"),
        "policy.inferred_labels.self_s": t.self_s("policy.inferred_labels"),
        "grouping.find_group.self_s": t.self_s("grouping.find_group"),
        "grouping.labels.count": t.count("grouping.labels"),
        "grouping.labels.self_s": t.self_s("grouping.labels"),
        "grouping.labels.us_p99": t.us("grouping.labels", 99),
        "grouping.delete_edges.self_s": t.self_s("grouping.delete_edges"),
        "grouping.delete_edges.us_p50": t.us("grouping.delete_edges", 50),
        "grouping.reconnect.self_s": t.self_s("grouping.reconnect"),
        "grouping.set_based.count": t.count("grouping.set_based"),
        "grouping.set_based.per_round": t.count("grouping.set_based") / rounds,
        "grouping.set_based.self_s": t.self_s("grouping.set_based"),
        "grouping.set_based.us_p50": t.us("grouping.set_based", 50),
        "grouping.set_based.us_p99": t.us("grouping.set_based", 99),
        "grouping.self_s": t.self_s(*grouping),
        "grouping.edges_deleted": sum(r.edges_deleted for r in records),
        "grouping.resets": sum(int(r.graph_reset) for r in records),
        "grouping.components_mean": float(np.mean([r.component_count for r in records])),
        "core.expected_payoff.self_s": t.self_s("core.expected_payoff"),
        "harness.bookkeeping.self_s": t.self_s("harness.run_pair"),
        "harness.canonical_labels.per_round": t.count("harness.canonical_labels") / rounds,
        "harness.canonical_labels.self_s": t.self_s("harness.canonical_labels"),
        "harness.write_trace.s": t.total_s("harness.write_trace"),
        "harness.summary_s": t.self_s("harness.run_experiment"),
        "environment.world_s": t.total_s("environment.world"),
        "config.load_s": t.total_s("config.load"),
        "trace.rounds": rounds,
        "trace.spans": len(tracer.spans),
        "trace.pair_wall_s": pair_wall,
        "trace.coverage": below_root / pair_wall if pair_wall else 0.0,
    }
