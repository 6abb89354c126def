"""The benchmark's workloads and the inputs they draw from the seed.

Each workload is a closed loop with one client: it runs *rounds*, and a
round is a fixed sequence of calls into the public ``hgm`` API whose inputs
come from ``(workload seed, round, call)``. Rounds always complete, so every
run sees the same mix of calls, and a run's metrics do not depend on where
the clock stopped.

Families whose output is hashed from a family seed (``surface``,
``random_balanced``) draw that seed from a fixed pool, so reference values
recorded in ``reference.json`` cover every input a run can draw.
"""

from __future__ import annotations

import os
import zlib
from fractions import Fraction
from time import perf_counter

import numpy as np

from hgm import oracles, tester
from hgm.grid import FamilySpec, GridShape, make_family, restrict_to_subgrid, sample_subgrid

import checks

MONOTONE = ("dictator", "majority_threshold")
DICTATORS = ("dictator", "anti_dictator")
HASHED = ("surface", "random_balanced")
FAMILY_SEEDS = tuple(range(8))


def family(fam: str, n: int, d: int, param=None):
    """Build a family; ``param`` is the coordinate of a dictator or the seed
    of a hashed family."""
    if fam in DICTATORS:
        spec = FamilySpec(fam, dim=param or 1)
    elif fam in HASHED:
        spec = FamilySpec(fam, seed=param or 0)
    else:
        spec = FamilySpec(fam)
    return make_family(spec, GridShape(n, d))


def draw_param(fam: str, d: int, rng):
    if fam in DICTATORS:
        return 1 + int(rng.integers(d))
    if fam in HASHED:
        return FAMILY_SEEDS[int(rng.integers(len(FAMILY_SEEDS)))]
    return None


def instance_key(fam: str, n: int, d: int, param=None) -> str:
    """Key of a reference value. Dictator reject rates do not depend on the
    coordinate (the walk treats coordinates alike), so their key omits it."""
    key = f"{fam}/{n}/{d}"
    return key + f"/seed={param}" if fam in HASHED else key


def seed_of(rng) -> int:
    return int(rng.integers(2**63))


_PROBE_RNG = np.random.default_rng(0)
_PROBE_ROWS = _PROBE_RNG.random((512, 64))


def speed_probe() -> float:
    """Seconds for a fixed mix of pure-Python and numpy work (about 25 ms on
    a 2-vCPU Xeon VM).

    The CPU speed of a shared VM can drift by tens of percent over minutes,
    and scalar Python code and numpy code slow down together. The probe does
    not depend on hgm, so timings scaled by it compare across runs."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i % 7
    for _ in range(24):
        _PROBE_RNG.integers(1, 9, size=(512, 64))
        _PROBE_ROWS.argsort(axis=1)
    return perf_counter() - t0


class Context:
    """State of one benchmark run: inputs, timings and check counts."""

    def __init__(self, seed: int, reference: dict, checker: checks.Checker):
        self.seed = seed
        self.reference = reference
        self.checker = checker
        self.tracer = None
        # (seconds, throughput items, counts toward latency) per timed call
        self.samples: list[tuple[float, int, bool]] = []
        self.info: dict[str, float] = {}
        # Speed-probe times, taken between timed calls every probe_every s.
        self.probe_every: float | None = None
        self.probes: list[float] = []
        self._last_probe = 0.0

    def rng(self, *tags) -> np.random.Generator:
        words = [self.seed & 0xFFFFFFFFFFFFFFFF]
        for t in tags:
            words.append(zlib.crc32(t.encode()) if isinstance(t, str) else int(t))
        return np.random.default_rng(np.random.SeedSequence(words))

    def timed(self, items: int, latency: bool, fn, *args, **kwargs):
        """Time one call; only these calls are traced."""
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            if self.tracer is not None:
                self.tracer.enabled = False
            self.samples.append((end - t0, items, latency))
            if self.probe_every is not None and end - self._last_probe >= self.probe_every:
                self.probe()

    def probe(self) -> None:
        self.probes.append(speed_probe())
        self._last_probe = perf_counter()


class Workload:
    name = ""
    # The workload's own names for work_per_s and the latency metrics, and
    # what they count.
    work_name = ""
    throughput_item = ""
    latency_name = ""
    latency_call = ""
    calls_per_round = 1  # latency samples per round
    min_rounds = 1  # enough latency samples for the tail percentile
    round_s = 1.0  # rough round time; sizes the traced run

    def setup(self, ctx: Context) -> None:
        """Build inputs and make one small call of each kind (warm-up)."""

    def run_round(self, ctx: Context, r: int) -> None:
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        """Checks made once per run, after the measured rounds."""

    @property
    def tail_percentile(self) -> int:
        """The highest percentile with at least ten samples beyond it at the
        minimum sample count. Fixed per workload, so runs stay comparable."""
        samples = self.calls_per_round * self.min_rounds
        return max(p for p in (50, 75, 90, 95, 99) if samples * (100 - p) >= 1000)


class TesterWorkload(Workload):
    work_name = "trials_per_s"
    throughput_item = "trials"
    latency_name = "run_tester"
    latency_call = "run_tester call"

    def __init__(self, name, cells, trials, min_rounds, round_s):
        self.name = name
        self.cells = cells
        self.trials = trials
        self.calls_per_round = len(cells)
        self.min_rounds = min_rounds
        self.round_s = round_s

    def setup(self, ctx):
        for fam, n, d in self.cells:
            f = family(fam, n, d)
            tester.run_tester(f, tester.TesterConfig(shape=f.shape, trials=64))

    def run_round(self, ctx, r):
        for i, (fam, n, d) in enumerate(self.cells):
            rng = ctx.rng(r, i)
            param = draw_param(fam, d, rng)
            f = family(fam, n, d, param)
            cfg = tester.TesterConfig(shape=f.shape, trials=self.trials, seed=seed_of(rng))
            report = ctx.timed(self.trials, True, tester.run_tester, f, cfg)
            check_report(ctx, f, fam, instance_key(fam, n, d, param), report)


def check_report(ctx, f, fam, key, report) -> None:
    ck = ctx.checker
    ck.record(f"report {key}", checks.report_problems(report))
    for _, _, _, u, v in report.witnesses:
        ck.record(f"witness {key}", checks.witness_problems(f, u, v))
    if fam in MONOTONE:
        ck.record(f"one-sided {key}", checks.monotone_problems(report.rejections))
    else:
        ck.record(f"reject rate {key}", checks.rate_problems(report, ctx.reference["rates"][key]))


class TesterHighD(TesterWorkload):
    THREADS_CELL = ("anti_dictator", 8, 64)
    THREADS_TRIALS = 4096
    THREADS_BATCH = 1024

    def finish(self, ctx):
        """The same report at HGM_THREADS=1 and 2; the 2-thread rate is
        informational only."""
        fam, n, d = self.THREADS_CELL
        rng = ctx.rng("threads")
        param = draw_param(fam, d, rng)
        f = family(fam, n, d, param)
        cfg = tester.TesterConfig(
            shape=f.shape,
            trials=self.THREADS_TRIALS,
            seed=seed_of(rng),
            batch_size=self.THREADS_BATCH,
        )
        reports = {}
        try:
            for threads in (1, 2):
                os.environ["HGM_THREADS"] = str(threads)
                t0 = perf_counter()
                reports[threads] = tester.run_tester(f, cfg)
                ctx.info[f"threads{threads}_trials_per_s"] = cfg.trials / (perf_counter() - t0)
        finally:
            os.environ["HGM_THREADS"] = "1"
        check_report(ctx, f, fam, instance_key(fam, n, d, param), reports[1])
        ctx.checker.record("thread determinism", checks.same_report_problems(reports[1], reports[2]))


class FullAccept(Workload):
    name = "full-accept"
    work_name = "decisions_per_s"
    throughput_item = "decisions"
    latency_name = "decision"
    latency_call = "run_full_tester decision"
    # A round sorted by time: many small run_tester calls (reduction at
    # d=16), the reduction at d=64, then the fallback at d=64. So the median
    # is the d=64 reduction and the p75 tail a fallback decision, each inside
    # its group rather than on a boundary between two.
    CASES = (
        ("majority_threshold", 8, 16, 0.9),
        ("dictator", 8, 64, 0.9),
        ("majority_threshold", 8, 64, 0.1),
    )
    calls_per_round = len(CASES)
    min_rounds = 14
    round_s = 1.1

    def setup(self, ctx):
        tester.run_full_tester(family("majority_threshold", 8, 16), 0.9)
        tester.run_full_tester(family("dictator", 8, 4), 0.4)  # fallback

    def run_round(self, ctx, r):
        for i, (fam, n, d, eps) in enumerate(self.CASES):
            rng = ctx.rng(r, i)
            f = family(fam, n, d, draw_param(fam, d, rng))
            before = f.query_count
            result = ctx.timed(1, True, tester.run_full_tester, f, eps, seed=seed_of(rng))
            ctx.checker.record(
                f"decision {fam}/{n}/{d} eps={eps}",
                checks.full_result_problems(f, result, f.query_count - before, eps < d**-0.5),
            )


class OracleExact(Workload):
    name = "oracle-exact"
    work_name = "distance_points_per_s"
    throughput_item = "grid points"
    latency_name = "exact_prob"
    latency_call = "exact_reject_prob call"
    # Max-flow time differs by up to 30% between instances of one family, so
    # every run uses the same distance instances (family seed 0) and every
    # round makes one exact call per pool instance; the seed picks the
    # subgrid restrictions and the order of the exact calls.
    DISTANCE_CELLS = (("surface", 8, 6), ("random_balanced", 16, 4))
    RESTRICTIONS = 8  # per round, of the random_balanced (16,4) instance
    SUBGRID_K = 4  # 4^4 = 256 points, within the Hopcroft-Karp range
    EXACT_POOL = tuple(
        [("surface", 4, 3, s) for s in FAMILY_SEEDS]
        + [("random_balanced", 4, 3, s) for s in FAMILY_SEEDS]
        + [("anti_dictator", 4, 3, i) for i in (1, 2, 3)]
        + [("majority_threshold", 4, 3, None)]
    )
    calls_per_round = len(EXACT_POOL)
    min_rounds = 2
    round_s = 10.0

    def setup(self, ctx):
        f = family("random_balanced", 4, 2)
        oracles.distance_to_monotonicity(f)
        oracles.distance_to_monotonicity(f, force_method="dag_flow")
        g = family("anti_dictator", 2, 2)
        tester.exact_reject_prob(g, tester.TesterConfig(shape=g.shape, trials=1))

    def run_round(self, ctx, r):
        ck = ctx.checker
        rng = ctx.rng(r)
        for fam, n, d in self.DISTANCE_CELLS:
            f = family(fam, n, d)
            key = instance_key(fam, n, d, 0)
            result = ctx.timed(f.shape.num_points, False, oracles.distance_to_monotonicity, f)
            ck.record(f"distance {key}", checks.distance_problems(
                result, Fraction(ctx.reference["distances"][key])))
            ck.record(f"repair {key}", checks.repair_problems(f, result))
        for j in range(self.RESTRICTIONS):
            fT = restrict_to_subgrid(f, sample_subgrid(f.shape, self.SUBGRID_K, rng))
            points = fT.shape.num_points
            hk = ctx.timed(points, False, oracles.distance_to_monotonicity, fT)
            ck.record("repair restriction", checks.repair_problems(fT, hk))
            if j == 0:
                flow = ctx.timed(points, False, oracles.distance_to_monotonicity, fT,
                                 force_method="dag_flow")
                ck.record("hopcroft_karp = dag_flow", checks.agreement_problems(hk, flow))
                ck.record("repair restriction", checks.repair_problems(fT, flow))
        for i in rng.permutation(len(self.EXACT_POOL)):
            fam, n, d, param = self.EXACT_POOL[i]
            f = family(fam, n, d, param)
            cfg = tester.TesterConfig(shape=f.shape, trials=1)
            value = ctx.timed(0, True, tester.exact_reject_prob, f, cfg)
            key = exact_key(fam, n, d, param)
            ck.record(f"exact {key}", checks.exact_problems(value, ctx.reference["exact"][key]))


def exact_key(fam, n, d, param) -> str:
    return f"{fam}/{n}/{d}/{param}"


WORKLOADS = {
    w.name: w
    for w in (
        TesterHighD(
            "tester-highd",
            cells=(("anti_dictator", 8, 64), ("anti_dictator", 8, 256), ("anti_dictator", 64, 64)),
            trials=1024,
            min_rounds=14,
            round_s=0.65,
        ),
        # Two random_balanced calls per round put the median in the middle
        # of the surface calls instead of on a boundary between cells.
        TesterWorkload(
            "tester-lowd",
            cells=(
                ("surface", 8, 4),
                ("random_balanced", 64, 4),
                ("random_balanced", 64, 4),
                ("anti_dictator", 8, 16),
                ("majority_threshold", 8, 16),
            ),
            trials=2048,
            min_rounds=40,
            round_s=0.15,
        ),
        FullAccept(),
        OracleExact(),
    )
}
