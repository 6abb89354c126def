"""In-memory spans and counts around the calls into each ``hgm`` layer.

Spans are recorded only in the traced run. Each wrapper replaces a name where
its caller looks it up (a module attribute, or a method on the class), so
the program under test is not edited. A span is ``[name, start, end,
parent]`` plus the tracer's own bookkeeping time spent inside it; a layer's
self time is its span minus its child spans and that bookkeeping.

Scalar queries (``FunctionOracle.__call__``) are not wrapped per call; they
are counted from ``query_count`` deltas.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from hgm import grid, oracles, tester, walks

NAME, START, END, PARENT, BOOKKEEPING = range(5)


def _walk_counts(counts, args, kwargs, result, before):
    shape, X, lengths = args[0], args[1], args[2]
    selected = int(np.minimum(np.asarray(lengths, dtype=np.int64), shape.d).sum())
    counts["walks.sample_walk_batch.coords_selected"] += selected
    counts["walks.sample_walk_batch.coords_moved"] += int((result != X).sum())


def _eval_counts(counts, args, kwargs, result, before):
    counts["grid.eval_many.points"] += len(args[1])


def _tester_counts(counts, args, kwargs, result, before):
    counts["tester.trials"] += result.trials
    counts["tester.queries"] += result.total_queries


def _full_counts(counts, args, kwargs, result, before):
    if not result.fallback:
        counts["tester.run_full_tester.rounds"] += result.outer_reps


def _query_count(args, kwargs):
    return args[0].query_count


def _fallback_counts(counts, args, kwargs, result, before):
    counts["tester.line_tester_fallback.queries"] += args[0].query_count - before


def _distance_counts(counts, args, kwargs, result, before):
    counts["oracles.matching_size"] += result.matching_size


# (owner, attribute, span name, counter, pre-call hook)
TARGETS = (
    (walks, "sample_walk_batch", "walks.sample_walk_batch", _walk_counts, None),
    (walks, "exact_pmf", "walks.exact_pmf", None, None),
    (grid.FunctionOracle, "eval_many", "grid.eval_many", _eval_counts, None),
    (tester, "sample_subgrid", "grid.sample_subgrid", None, None),
    (tester, "restrict_to_subgrid", "grid.restrict_to_subgrid", None, None),
    (tester, "substream", "rng.substream", None, None),
    (tester, "run_tester", "tester.run_tester", _tester_counts, None),
    (tester, "_run_batch", "tester._run_batch", None, None),
    (tester, "run_full_tester", "tester.run_full_tester", _full_counts, None),
    (tester, "line_tester_fallback", "tester.line_tester_fallback", _fallback_counts, _query_count),
    (tester, "exact_reject_prob", "tester.exact_reject_prob", None, None),
    (oracles, "distance_to_monotonicity", "oracles.distance_to_monotonicity", _distance_counts, None),
    (oracles, "tabulate", "grid.tabulate", None, None),
    (oracles, "_distance_flow", "oracles._distance_flow", None, None),
    (oracles, "_distance_small", "oracles._distance_small", None, None),
    (oracles, "_upset_repair", "oracles._upset_repair", None, None),
    (oracles, "maximum_flow", "oracles.maximum_flow", None, None),
    (oracles, "breadth_first_order", "oracles.breadth_first_order", None, None),
)

# Per-layer metrics of the traced run's result line, with units. Every
# workload reports every one of them, so one rule picks them: a time must
# differ between runs, and a count or ratio must repeat exactly for a given
# seed and seconds. A time of a layer that a workload never reaches would
# read exactly 0 on every run of it, so the result line has only the times of
# the modules every workload reaches (walks, grid, tester); the times of
# single functions, of oracles and of rng are in DETAIL_METRICS. A count or
# ratio of an unreached layer is an exact 0, as valid a reading as any other.
LAYER_METRICS = {
    "walks.self_s": "s",
    "grid.self_s": "s",
    "tester.self_s": "s",
    "walks.sample_walk_batch.calls": "count",
    "walks.sample_walk_batch.coords_selected": "count",
    "walks.sample_walk_batch.move_ratio": "ratio",
    "walks.exact_pmf.calls": "count",
    "grid.eval_many.calls": "count",
    "grid.eval_many.points": "count",
    "tester.run_tester.calls": "count",
    "tester.run_full_tester.rounds": "count",
    "tester.line_tester_fallback.queries": "count",
    "tester._run_batch.calls": "count",
    "tester.queries_per_trial": "queries/trial",
    "rng.substream.calls": "count",
    "oracles.matching_size": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}

# The per-function breakdown that the traced run prints and writes out.
DETAIL_METRICS = {
    "walks.sample_walk_batch.self_s": "s",
    "walks.sample_walk_batch.ns_per_selected_coord": "ns",
    "walks.exact_pmf.self_s": "s",
    "tester.exact_reject_prob.self_s": "s",
    "grid.eval_many.self_s": "s",
    "grid.eval_many.ns_per_point": "ns",
    "grid.sample_subgrid.self_s": "s",
    "grid.restrict_to_subgrid.self_s": "s",
    "grid.tabulate.self_s": "s",
    "tester.run_tester.self_s": "s",
    "tester.run_full_tester.self_s": "s",
    "tester.line_tester_fallback.self_s": "s",
    "tester._run_batch.self_s": "s",
    "rng.substream.self_s": "s",
    "oracles.self_s": "s",
    "oracles.distance_to_monotonicity.self_s": "s",
    "oracles._distance_flow.self_s": "s",
    "oracles.maximum_flow.self_s": "s",
    "oracles.breadth_first_order.self_s": "s",
    "oracles._upset_repair.self_s": "s",
    "oracles._distance_small.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, count, before in TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count, before))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, count, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            pre = before(args, kwargs) if before else None
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[END] = perf_counter()
                stack.pop()
            if count:
                count(tracer.counts, args, kwargs, result, pre)
            if parent >= 0:
                tracer.spans[parent][BOOKKEEPING] += perf_counter() - end
            return result

        return wrapper

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (number of calls, total self seconds)."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += s[END] - s[START] - children[i] - s[BOOKKEEPING]
        return calls, self_s

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS and DETAIL_METRICS."""
        calls, self_s = self.self_times()
        modules: defaultdict[str, float] = defaultdict(float)
        for name, t in self_s.items():
            modules[name.split(".")[0]] += t
        c = self.counts
        m: dict[str, float] = {}
        for name in (*LAYER_METRICS, *DETAIL_METRICS):
            layer, _, what = name.rpartition(".")
            if what == "self_s" and "." not in layer:
                m[name] = modules[layer]
            elif what == "calls":
                m[name] = calls[layer]
            elif what == "self_s":
                m[name] = self_s[layer]
            else:
                m[name] = c[name]
        m["walks.sample_walk_batch.ns_per_selected_coord"] = _ratio(
            1e9 * self_s["walks.sample_walk_batch"], c["walks.sample_walk_batch.coords_selected"])
        m["walks.sample_walk_batch.move_ratio"] = _ratio(
            c["walks.sample_walk_batch.coords_moved"], c["walks.sample_walk_batch.coords_selected"])
        m["grid.eval_many.ns_per_point"] = _ratio(1e9 * self_s["grid.eval_many"], c["grid.eval_many.points"])
        m["tester.queries_per_trial"] = _ratio(c["tester.queries"], c["tester.trials"])
        m["trace.untraced_s"] = untraced_s
        m["trace.traced_s"] = traced_s
        m["trace.overhead_s"] = traced_s - untraced_s
        return m

    def dump(self) -> dict:
        return {
            "spans": [s[:4] for s in self.spans],
            "counts": dict(self.counts),
        }


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 where the workload never reaches the layer."""
    return a / b if b else 0.0
