"""Output checks for the benchmark.

Every check returns a list of problems (empty when the output is right), and
:class:`Checker` counts one attempted operation per check call. The checks
use only the public ``hgm`` API plus their own numpy code, so a defect in the
code under test cannot also hide itself here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hgm.grid import tabulate

QUERIES_PER_TRIAL = 16

# Half-width of the accepted reject-rate band, in standard errors of the
# difference between a run's rate and the reference rate. At 6 SE a correct
# program fails a check with probability about 2e-9.
RATE_BAND_SE = 6.0

EXACT_TOLERANCE = 1e-12

KEEP_MESSAGES = 20  # failure messages a Checker keeps for printing


class Checker:
    """Counts checked operations and failed ones; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < KEEP_MESSAGES:
                self.messages.append(f"{what}: {'; '.join(problems)}")
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def report_problems(report) -> list[str]:
    """Query accounting and per-tau bookkeeping of a ``TesterReport``."""
    out = []
    if report.total_queries != QUERIES_PER_TRIAL * report.trials:
        out.append(
            f"total_queries {report.total_queries} != 16 x {report.trials} trials"
        )
    tau_trials = sum(t for t, _ in report.per_tau.values())
    if tau_trials != report.trials:
        out.append(f"per-tau trials sum to {tau_trials}, not {report.trials}")
    tau_rejections = sum(r for _, r in report.per_tau.values())
    if tau_rejections != report.rejections:
        out.append(f"per-tau rejections sum to {tau_rejections}, not {report.rejections}")
    if sum(report.per_step.values()) != report.rejections:
        out.append("per-step rejections do not sum to the rejection count")
    return out


def witness_problems(f, u, v) -> list[str]:
    """A witness must be a violated comparable pair, re-checked by two fresh
    queries on a worker oracle (so the caller's query count is untouched)."""
    shape = f.shape
    if not (shape.contains(u) and shape.contains(v)):
        return [f"witness {u} -> {v} leaves [{shape.n}]^{shape.d}"]
    out = []
    if any(a > b for a, b in zip(u, v)):
        out.append(f"witness {u} is not below {v}")
    fresh = f.spawn_worker()
    fu, fv = fresh(u), fresh(v)
    if (fu, fv) != (1, 0):
        out.append(f"witness values f(u)={fu}, f(v)={fv}, expected 1 and 0")
    return out


def monotone_problems(rejections: int) -> list[str]:
    """The tester is one-sided: a monotone input is never rejected."""
    if rejections:
        return [f"monotone input rejected {rejections} time(s)"]
    return []


def rate_problems(report, reference: dict) -> list[str]:
    """The reject rate lies within RATE_BAND_SE standard errors of a reference
    rate measured with many more trials. The band depends only on the rate's
    distribution, so a kernel that changes the random stream still passes."""
    p = reference["rate"]
    se = math.sqrt(p * (1 - p) * (1 / report.trials + 1 / reference["trials"]))
    if abs(report.reject_rate - p) > RATE_BAND_SE * se:
        return [
            f"reject rate {report.reject_rate:.5f} outside {p:.5f} +- "
            f"{RATE_BAND_SE:g} x {se:.5f}"
        ]
    return []


def distance_problems(result, reference: Fraction) -> list[str]:
    if result.distance != reference:
        return [f"distance {result.distance} != reference {reference}"]
    return []


def is_monotone_table(bits: np.ndarray, n: int, d: int) -> bool:
    table = np.asarray(bits, dtype=np.int8).reshape((n,) * d)
    return all(bool((np.diff(table, axis=a) >= 0).all()) for a in range(d))


def repair_problems(f, result) -> list[str]:
    """Flipping f on ``repair_indices`` must give a monotone table, and the
    repair size must equal the matching size and the distance numerator."""
    out = []
    repair = np.asarray(result.repair_indices, dtype=np.int64)
    if len(repair) != result.matching_size:
        out.append(f"{len(repair)} repair indices != matching size {result.matching_size}")
    if result.distance != Fraction(result.matching_size, f.shape.num_points):
        out.append(f"distance {result.distance} != matching size / points")
    bits = tabulate(f).bits.astype(np.int8)
    if len(np.unique(repair)) != len(repair) or (
        len(repair) and not 0 <= repair.min() <= repair.max() < len(bits)
    ):
        out.append("repair indices are not distinct grid indices")
        return out
    bits[repair] ^= 1
    if not is_monotone_table(bits, f.shape.n, f.shape.d):
        out.append("flipping the repair indices leaves a non-monotone table")
    return out


def agreement_problems(a, b) -> list[str]:
    """Two distance methods on one instance give one distance."""
    if a.distance != b.distance or a.matching_size != b.matching_size:
        return [f"{a.method} gives {a.distance}, {b.method} gives {b.distance}"]
    return []


def exact_problems(value: float, reference: float) -> list[str]:
    if not abs(value - reference) <= EXACT_TOLERANCE:
        return [f"exact reject prob {value!r} != reference {reference!r}"]
    return []


def full_result_problems(f, result, queries_charged: int, fallback: bool) -> list[str]:
    """A full-tester decision on a monotone input: accepted, by the expected
    path, with its query total accounted for. The fallback queries f itself;
    domain reduction queries restrictions of f, which read f without
    charging it, so there the total must be 16 x rounds x trials."""
    out = []
    if not result.accepted:
        out.append("monotone input rejected")
        if result.witness is not None:
            out.extend(witness_problems(f, *result.witness))
    if result.fallback != fallback:
        out.append(f"fallback={result.fallback}, expected {fallback}")
    if fallback and queries_charged != result.total_queries:
        out.append(f"oracle charged {queries_charged} queries, result says {result.total_queries}")
    if not fallback and result.accepted:
        expected = QUERIES_PER_TRIAL * result.outer_reps * result.inner_trials
        if result.total_queries != expected:
            out.append(f"total_queries {result.total_queries} != 16 x rounds x trials = {expected}")
    return out


def same_report_problems(a, b) -> list[str]:
    """Reports must not depend on the worker thread count."""
    if a != b:
        return ["reports differ between HGM_THREADS=1 and HGM_THREADS=2"]
    return []
