"""The path/shift monotonicity tester, its exact-rejection oracle, and the
domain-reduction wrapper.

One trial draws a walk length tau = 2^p and runs four sub-tests, each at
lengths tau-1 and tau:

  * up_path              x uniform, y ~ up-walk(x, l)
  * down_path            y uniform, x ~ down-walk(y, l)
  * up_path_down_shift   x uniform, y ~ up-walk(x, l), s ~ down-shift(x, tau-1),
                         test (x-s, y-s)
  * down_path_up_shift   y uniform, x ~ down-walk(y, l), s ~ up-shift(y, tau-1),
                         test (x+s, y+s)

A pair (u, v) with u <= v is violated when f(u)=1 > f(v)=0; the tester is
one-sided because every rejection carries such a witness.

The multi-trial driver is vectorized in fixed-size batches whose randomness
is keyed by (seed, batch index), so reports are bit-identical regardless of
how many worker threads process the batches. A batch is walk-major: the
twelve walks of a trial (``WALKS``) are stacked and walked in place by the
walk step every walk sampler runs, the pairs are read off their endpoints,
and the batch returns count arrays (trials and rejections per schedule
entry, first rejections per step) that ``run_tester`` sums.

The exact per-trial rejection probability (``exact_reject_prob``) integrates
a trial over all its randomness by a tensor contraction: once its subsets
are fixed, a pair is a product over coordinates, so the sub-tests are
passes of per-coordinate n x n matrices over the truth table, in
O(d m m' n^(d+1)) time for walk and shift lengths m, m'. Two stacked passes
(``STACKS``) run them: one over the two sub-tests without a shift, one over
the two with one. Its junta form (``exact_reject_prob_junta``) contracts
over the k coordinates f depends on and weights the rest in closed form,
by exact binomial ratios rounded once and cached per (d, k, schedule), so
it reaches any d. Both read the sub-tests from ``SUBTESTS``, as the driver
does; the tests check them against an independent anchor-by-anchor
enumeration of the walk pmfs.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import walks
from .errors import BudgetError, ConfigError
from .grid import (
    FunctionOracle,
    GridShape,
    KeptBuffer,
    Point,
    restrict_to_subgrid,
    sample_subgrid,
    tabulate,
)
from .rng import substream
from .stats import wilson_interval


class SubTest(NamedTuple):
    """A sub-test as data: the direction of the path walk from the anchor and
    of the shift walk (None for no shift). The anchor is the path's start, so
    it is the tested pair's low end under an up path and its high end under
    a down path."""

    path: str
    shift: Optional[str]


# _run_batch and the exact contraction (_pair_laws, STACKS) both read this table.
SUBTESTS = {
    "up_path": SubTest("up", None),
    "down_path": SubTest("down", None),
    "up_path_down_shift": SubTest("up", "down"),
    "down_path_up_shift": SubTest("down", "up"),
}
STEPS = tuple(SUBTESTS)

# A trial's eight tested pairs in trial order: each step at length tau - 1,
# then tau.
PAIRS = tuple((step, kind) for step in STEPS for kind in (0, 1))

# A trial's twelve walks, (direction, role, pair): up paths, up shifts, down
# paths, down shifts, each in PAIRS order. A pair has one path walk and at
# most one shift walk.
WALKS = tuple(
    (direction, role, p)
    for direction in ("up", "down")
    for role in ("path", "shift")
    for p, (step, _) in enumerate(PAIRS)
    if getattr(SUBTESTS[step], role) == direction
)


# _run_batch's tables: each walk's pair, what it adds to tau - 1 to get its
# length (a shift adds 0), the number of up walks, whether each pair's
# anchor is its low end, and per step its first pair with that pair's path
# walk and shift walk (None without one). A step's two pairs are adjacent in
# PAIRS and their walks in WALKS, so the pairs are assembled two at a time.
WALK_PAIR = np.array([p for _, _, p in WALKS])
WALK_KIND = np.array([PAIRS[p][1] if role == "path" else 0 for _, role, p in WALKS])
UP_WALKS = sum(direction == "up" for direction, _, _ in WALKS)
ANCHOR_LOW = np.array([SUBTESTS[step].path == "up" for step, _ in PAIRS])[:, None]
STEP_BLOCKS = tuple(
    (p, WALKS.index((sub.path, "path", p)),
     WALKS.index((sub.shift, "shift", p)) if sub.shift else None)
    for p, sub in ((2 * i, SUBTESTS[step]) for i, step in enumerate(STEPS))
)

DEFAULT_BATCH = 8192
# Pairs per fallback chunk; larger chunks raise the fallback's peak memory.
FALLBACK_CHUNK = 1024


def default_tau_schedule(d: int) -> Tuple[int, ...]:
    p_max = math.ceil(math.log2(d)) if d > 1 else 0
    return tuple(2**p for p in range(p_max + 1))


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _normalize_schedule(schedule: Sequence[int]) -> Tuple[int, ...]:
    """The schedule as a tuple of Python ints, from any sequence of
    integers; ConfigError unless it is a non-empty sequence of powers of
    two."""
    try:
        taus = tuple(_integer(t, "tau schedule entry") for t in schedule)
    except TypeError:
        raise ConfigError(f"tau schedule must be a sequence of integers, got {schedule!r}") from None
    if not taus:
        raise ConfigError("tau schedule must not be empty")
    for t in taus:
        if t < 1 or t & (t - 1):
            raise ConfigError(f"tau schedule entry {t} is not a power of two")
    return taus


def worker_count() -> int:
    env = os.environ.get("HGM_THREADS")
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError as e:
        raise ConfigError(f"HGM_THREADS must be an integer, got {env!r}") from e
    if threads < 1:
        raise ConfigError(f"HGM_THREADS must be at least 1, got {env!r}")
    return threads


@dataclass(frozen=True)
class TesterConfig:
    shape: GridShape
    trials: int
    seed: int = 0
    tau_schedule: Optional[Tuple[int, ...]] = None
    batch_size: int = DEFAULT_BATCH
    max_witnesses: int = 8

    def __post_init__(self):
        for name in ("trials", "batch_size", "max_witnesses"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.max_witnesses < 0:
            raise ConfigError("max_witnesses must be non-negative")
        if self.tau_schedule is not None:
            object.__setattr__(self, "tau_schedule", _normalize_schedule(self.tau_schedule))

    @property
    def schedule(self) -> Tuple[int, ...]:
        if self.tau_schedule is not None:
            return self.tau_schedule
        return default_tau_schedule(self.shape.d)


@dataclass
class TesterReport:
    trials: int
    rejections: int
    reject_rate: float
    wilson_ci_95: Tuple[float, float]
    per_tau: Dict[int, Tuple[int, int]]  # tau -> (trials, rejections)
    per_step: Dict[str, int]  # first-rejecting-step attribution
    total_queries: int
    witnesses: List[Tuple[int, str, int, Point, Point]]  # (trial, step, length, u, v)
    seed: int


# ---------------------------------------------------------------------------
# Vectorized multi-trial driver
# ---------------------------------------------------------------------------


# The batch buffer each thread keeps between calls; a batch that needs more
# than grid.BUFFER_CAP bytes allocates its own and keeps nothing.
_KEPT = KeptBuffer()


def _run_batch(f: FunctionOracle, cfg: TesterConfig, batch_index: int, count: int):
    """One deterministic batch of count trials: trials and rejections per
    schedule index, first rejections per step, queries spent, and the first
    cfg.max_witnesses witnesses.

    All randomness comes from (seed, "batch", batch_index), so the result is
    independent of which thread runs it. The batch is walk-major: one draw
    for the eight pairs' anchors; the twelve walks, stacked in WALKS order
    as copies of their pairs' anchors, up walks first, walked in place by
    one :func:`hgm.walks.walk_rows` call, the step that
    :func:`hgm.walks.sample_walk_batch` runs; then the pairs, a step
    (STEP_BLOCKS) at a time. An unshifted pair's moved point is its path
    endpoint P. A shifted pair's is P - A + W for anchor A and shift
    endpoint W, which becomes its anchor: X0 - S = W and Y0 - S = W +
    (Y0 - X0) for the shift S. Points keep the anchors' narrow dtype (int8
    up to n = 64) from the draw to the oracle reads.

    The (walks or pairs, N, d) arrays live in one byte buffer that the
    thread keeps between calls (``_KEPT``, a :class:`~hgm.grid.KeptBuffer`),
    so a steady stream of batches does not return them to the allocator and
    fault them in again: the stack, then a region that holds the selection
    mask and, once the walk step has indexed it, the moved points. A batch
    needing more than grid.BUFFER_CAP bytes (24 N d of int8 points) keeps
    nothing there. With HGM_THREADS > 1 the pool's threads draw their own
    buffers, which end with the call, and the calling thread drops its own
    and its selected-entry buffer (``walks._SELECTED``) too. Nothing
    returned references the buffers.
    """
    shape = cfg.shape
    n, d, N = shape.n, shape.d, count
    rng = substream(cfg.seed, "batch", batch_index)
    schedule = np.asarray(cfg.schedule, dtype=np.int64)
    which = rng.integers(0, len(schedule), size=N)
    taus = schedule[which]
    anchors = walks.sample_points_batch(shape, len(PAIRS) * N, rng).reshape(len(PAIRS), N, d)
    dtype, block = anchors.dtype, N * d

    nbytes = block * dtype.itemsize
    buf = _KEPT.take(len(WALKS) * nbytes + max(len(WALKS) * block, len(PAIRS) * nbytes))
    stack = buf[: len(WALKS) * nbytes].view(dtype).reshape(len(WALKS), N, d)
    # mode="clip" writes into out directly, where "raise" would buffer it.
    np.take(anchors.reshape(len(PAIRS), block), WALK_PAIR, axis=0,
            out=stack.reshape(len(WALKS), block), mode="clip")
    region = buf[len(WALKS) * nbytes :]
    mask = region[: len(WALKS) * block].view(bool).reshape(-1, d)
    lengths = (taus - 1 + WALK_KIND[:, None]).reshape(-1)
    walks.walk_rows(n, stack.reshape(-1, d), lengths, UP_WALKS * N, rng, mask)
    moved = region[: len(PAIRS) * nbytes].view(dtype).reshape(len(PAIRS), N, d)
    for p, w, s in STEP_BLOCKS:
        if s is None:
            moved[p : p + 2] = stack[w : w + 2]
        else:
            np.subtract(stack[w : w + 2], anchors[p : p + 2], out=moved[p : p + 2])
            moved[p : p + 2] += stack[s : s + 2]
            anchors[p : p + 2] = stack[s : s + 2]

    worker = f.spawn_worker()
    f_anchor = worker.eval_many(anchors.reshape(-1, d)).reshape(len(PAIRS), N)
    f_moved = worker.eval_many(moved.reshape(-1, d)).reshape(len(PAIRS), N)
    viol = np.where(ANCHOR_LOW, f_anchor > f_moved, f_moved > f_anchor)  # (pairs, N)
    rejected = viol.any(axis=0)
    first = np.argmax(viol, axis=0)  # index of first rejecting pair
    witnesses = []
    for row in np.flatnonzero(rejected)[: cfg.max_witnesses]:
        pi = int(first[row])
        step, kind = PAIRS[pi]
        low, high = anchors[pi, row], moved[pi, row]
        if not ANCHOR_LOW[pi, 0]:
            low, high = high, low
        witnesses.append(
            (
                batch_index * cfg.batch_size + int(row),
                step,
                int(taus[row]) - 1 + kind,
                tuple(low.tolist()),
                tuple(high.tolist()),
            )
        )
    _KEPT.keep(buf)
    return (
        np.bincount(which, minlength=len(schedule)),
        np.bincount(which[rejected], minlength=len(schedule)),
        # PAIRS is step-major, two lengths per step.
        np.bincount(first[rejected] // 2, minlength=len(STEPS)),
        worker.query_count,
        witnesses,
    )


def run_tester(f: FunctionOracle, cfg: TesterConfig) -> TesterReport:
    """Aggregate cfg.trials independent trials; deterministic given (seed, cfg)."""
    if f.shape != cfg.shape:
        raise ConfigError("oracle shape does not match config shape")
    sizes = [min(cfg.batch_size, cfg.trials - s) for s in range(0, cfg.trials, cfg.batch_size)]
    args = (repeat(f), repeat(cfg), range(len(sizes)), sizes)
    threads = worker_count()
    if threads > 1:
        # The calling thread's batch and selected-entry buffers would idle
        # while the pool's threads draw their own.
        _KEPT.buffer = walks._SELECTED.buffer = None
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_batch, *args))
    else:
        results = list(map(_run_batch, *args))
    *counts, witnesses = zip(*results)
    tau_trials, tau_rejections, step_rejections, queries = map(sum, counts)
    f.query_count += queries
    # A tau that the schedule repeats gets the sum of its entries.
    schedule = np.asarray(cfg.schedule)
    per_tau = {
        int(t): (int(tau_trials[schedule == t].sum()), int(tau_rejections[schedule == t].sum()))
        for t in cfg.schedule
    }
    rejections = int(tau_rejections.sum())
    return TesterReport(
        trials=cfg.trials,
        rejections=rejections,
        reject_rate=rejections / cfg.trials,
        wilson_ci_95=wilson_interval(rejections, cfg.trials),
        per_tau=per_tau,
        per_step=dict(zip(STEPS, step_rejections.tolist())),
        total_queries=queries,
        # Batch order, so deterministic.
        witnesses=[w for batch in witnesses for w in batch][: cfg.max_witnesses],
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Exact per-trial rejection probability, by per-coordinate tensor contraction
# ---------------------------------------------------------------------------


def _pair_laws(n: int, step: str) -> np.ndarray:
    """laws[a, b, low, high]: the joint law of one coordinate of the step's
    tested pair (low, high), for a uniform anchor coordinate, where a says
    whether the coordinate is in the path's subset and b whether it is in
    the shift's.

    With path endpoint p and shift endpoint w of anchor x, the pair is
    (w, p - x + w) under an up path and (p - x + w, w) under a down path; a
    coordinate outside a subset keeps the anchor's value. So
    laws[a, b][w, h] = sum_x Pa[x, x + h - w] Sb[x, w] / n, where Pa is the
    path's one-step matrix or the identity, and Sb the shift's.

    Off its diagonal the path's one-step matrix P is Toeplitz (P[x, x + e]
    = gap_law[e mod n] for every x that keeps x + e in [0, n)), so the sum
    over x of a move by e = h - w != 0 is P[w, h] times the column sum of
    Sb over those x: x < n - e for an up move, x >= -e for a down move, read
    from Sb's cumulative column sums. The diagonal carries the lazy mass,
    sum_x Sb[x, w] P[x, x]. O(n^2) time and memory.
    """
    sub = SUBTESTS[step]
    up = sub.path == "up"
    P = walks.one_step(n, sub.path)
    lazy = np.diag(P)
    moves = P - np.diag(lazy)
    w = np.arange(n)[:, None]
    e = np.arange(n)[None, :] - w  # e[w, h] = h - w
    # The x that a move by e keeps in [0, n) are [lo, hi). Where moves is 0
    # (on the diagonal and against the walk) any in-range column will do.
    lo, hi = (0, np.clip(n - e, 0, n)) if up else (np.clip(-e, 0, n), n)
    eye = np.eye(n)
    laws = np.empty((2, 2, n, n))
    for b, shift in enumerate((eye, walks.one_step(n, sub.shift) if sub.shift else eye)):
        # cum[m, w] = sum over x < m of shift[x, w].
        cum = np.zeros((n + 1, n))
        np.cumsum(shift, axis=0, out=cum[1:])
        law = moves * (cum[hi, w] - cum[lo, w])
        law.flat[:: n + 1] = shift.T @ lazy
        laws[0, b] = np.diag(cum[n])  # no path move: h = w
        laws[1, b] = law if up else law.T
    laws /= n
    return laws


# The exact contraction's two stacks: the steps without a shift, which
# keep one shift coefficient, then the steps with one.
STACKS = tuple(
    tuple(step for step in STEPS if bool(SUBTESTS[step].shift) == shifted)
    for shifted in (False, True)
)
# Each pair's step, by its index in the stacks' order.
PAIR_STACKED = np.array([sum(STACKS, ()).index(step) for step, _ in PAIRS])


@lru_cache(maxsize=None)
def _stack_laws(n: int, stack: int) -> np.ndarray:
    """The _pair_laws of STACKS[stack]'s steps, stacked, read-only."""
    laws = np.stack([_pair_laws(n, step) for step in STACKS[stack]])
    laws.flags.writeable = False
    return laws


def _coefficient_counts(k: int, schedule: Tuple[int, ...]) -> Tuple[int, int]:
    """(J, J'): the path and shift coefficients the contraction keeps, the
    largest path and shift subset sizes capped at k, plus one."""
    top = max(schedule)
    return min(top, k) + 1, min(top - 1, k) + 1


@lru_cache(maxsize=64)
def _pair_weights(d: int, k: int, schedule: Tuple[int, ...]) -> np.ndarray:
    """weights[t, p, j, j']: the weight of coefficient (j, j') in pair p's
    rejection probability at schedule[t], 0 outside its (j, j') range;
    (len(schedule), 8, J, J'), read-only.

    The weight is C(d-k, m-j) C(d-k, m'-j') / (C(d, m) C(d, m')), with
    C(d-k, m-j) / C(d, m) = C(m, j) C(d-m, k-j) / (C(k, j) C(d, k)), both
    sides the hypergeometric Pr[|S & K| = j] for a uniform m-subset S and a
    fixed k-subset K, over C(k, j): the same Fraction from binomials whose
    lower index is at most k, where C(d, m) has thousands of digits at
    d = 4096. Each is rounded once, from its exact Fraction, and each
    distinct (m, m') is computed once.
    """
    J, Jp = _coefficient_counts(k, schedule)
    denom = math.comb(d, k) ** 2
    blocks = {}
    weights = np.zeros((len(schedule), len(PAIRS), J, Jp))
    for t, tau in enumerate(schedule):
        for p, (step, kind) in enumerate(PAIRS):
            m = min(tau - 1 + kind, d)
            mp = min(tau - 1, d) if SUBTESTS[step].shift else 0
            if (m, mp) not in blocks:
                block = blocks[m, mp] = np.zeros((J, Jp))
                for j in range(max(0, m - (d - k)), min(m, J - 1) + 1):
                    for jp in range(max(0, mp - (d - k)), min(mp, Jp - 1) + 1):
                        block[j, jp] = float(Fraction(
                            math.comb(m, j) * math.comb(d - m, k - j)
                            * math.comb(mp, jp) * math.comb(d - mp, k - jp),
                            math.comb(k, j) * math.comb(k, jp) * denom))
            weights[t, p] = blocks[m, mp]
    weights.flags.writeable = False
    return weights


def _contract_stack(F: np.ndarray, n: int, k: int, stack: int, J: int, Jp: int) -> np.ndarray:
    """W[s, j, j'] = F . (coefficient (j, j') of the product applied to
    1 - F) for each step s of STACKS[stack]: one stacked pass."""
    A = np.zeros((len(STACKS[stack]), J, Jp, F.size))
    A[:, 0, 0] = 1.0 - F
    walks.contract_axes(A, _stack_laws(n, stack), k)
    return A @ F


def exact_pair_probs(
    core: FunctionOracle,
    d: int,
    schedule: Sequence[int],
    budget: int = walks.DEFAULT_PMF_BUDGET,
) -> Dict[int, Tuple[float, ...]]:
    """tau -> rejection probability of each of a trial's eight pairs, in PAIRS
    order, for f(x) = core(x_1, ..., x_k) on [n]^d (k = core.shape.d <= d).

    Once its two coordinate subsets are fixed, a pair is a product over
    coordinates, so a step's rejection probability at path length l and shift
    length l' is F . W[m, m'] G / (C(d, m) C(d, m')), with F the truth table,
    G = 1 - F, m = min(l, d), m' = min(l', d) (0 without a shift) and
    W[j, j'] the coefficient of t^j s^j' of
    prod_i (M00 + t M10 + s M01 + t s M11), Mab = _pair_laws acting on axis
    i. Two stacked passes (:func:`hgm.walks.contract_axes`), one over the
    two steps without a shift and one over the two with one (STACKS), apply
    the product to G axis by axis and keep every coefficient the schedule
    needs. Every Mab sums to 1, so the d - k coordinates f ignores
    contribute (1 + t)^(d-k) (1 + s)^(d-k): the passes run over the core's
    k axes only, and coefficient (j, j') is weighted by
    C(d-k, m-j) C(d-k, m'-j') / (C(d, m) C(d, m')), rounded once from an
    exact ratio because the binomials overflow a float near d = 1024. The
    weights are cached per (d, k, schedule) (:func:`_pair_weights`), and a
    pair's probability is the correctly rounded sum (math.fsum) of its
    weighted coefficients.

    Cost O(k m m' n^(k+1)) time and 2 n^k (m+1) (m'+1) floats, the shifted
    stack, m and m' capped at k; BudgetError when that count exceeds
    budget. Reads core through an uncharged truth table. d and the
    schedule's entries must be integers (ConfigError otherwise).
    """
    schedule = _normalize_schedule(schedule)
    d = _integer(d, "dimension")
    n, k = core.shape.n, core.shape.d
    if d < k:
        raise ConfigError(f"dimension {d} is below the core's {k}")
    J, Jp = _coefficient_counts(k, schedule)
    size = len(STACKS[1]) * core.shape.num_points * J * Jp
    if size > budget:
        raise BudgetError(
            f"exact contraction needs {size} floats ({len(STACKS[1])} stacked steps"
            f" of {core.shape.num_points} x {J} x {Jp}), over the budget of {budget}"
        )
    F = tabulate(core).bits.astype(np.float64).reshape(-1)
    # W[s, j, j'] for every step in stack order; the unshifted steps fill
    # column 0, where their weights are, and the rest of their rows is 0.
    W = np.zeros((len(STEPS), J, Jp))
    W[: len(STACKS[0]), :, :1] = _contract_stack(F, n, k, 0, J, 1)
    W[len(STACKS[0]) :] = _contract_stack(F, n, k, 1, J, Jp)
    terms = W[PAIR_STACKED] * _pair_weights(d, k, schedule)
    probs = list(map(math.fsum, terms.reshape(len(schedule) * len(PAIRS), -1).tolist()))
    return {
        tau: tuple(probs[t * len(PAIRS) : (t + 1) * len(PAIRS)])
        for t, tau in enumerate(schedule)
    }


def exact_reject_prob_junta(
    core: FunctionOracle,
    d: int,
    schedule: Sequence[int],
    budget: int = walks.DEFAULT_PMF_BUDGET,
) -> float:
    """Exact per-trial rejection probability of f(x) = core(x_1, ..., x_k) on
    [n]^d: the mean over the schedule's entries of 1 - prod over the eight
    pairs of (1 - p_pair), from :func:`exact_pair_probs`."""
    schedule = _normalize_schedule(schedule)
    probs = exact_pair_probs(core, d, schedule, budget)
    per_tau = [1.0 - math.prod(1.0 - p for p in probs[tau]) for tau in schedule]
    return math.fsum(per_tau) / len(schedule)


def exact_reject_prob(
    f: FunctionOracle, cfg: TesterConfig, budget: int = walks.DEFAULT_PMF_BUDGET
) -> float:
    """Exact per-trial rejection probability: :func:`exact_reject_prob_junta`
    with f as its own d-coordinate core."""
    return exact_reject_prob_junta(f, f.shape.d, cfg.schedule, budget)


# ---------------------------------------------------------------------------
# Full tester: fallback + domain reduction
# ---------------------------------------------------------------------------


@dataclass
class FullTesterResult:
    accepted: bool
    witness: Optional[Tuple[Point, Point]]
    fallback: bool
    k: Optional[int] = None
    k_formula: Optional[float] = None
    outer_reps: int = 0
    inner_trials: int = 0
    total_queries: int = 0
    pairs: int = 0  # pairs the fallback drew, up to the end of its last chunk


def line_tester_fallback(f: FunctionOracle, eps: float, rng) -> FullTesterResult:
    """Fallback pair tester for the eps < 1/sqrt(d) regime (own construction,
    not from the walk analysis): up to ceil(8 d log n / eps) pairs, each a
    uniform point and its length-1 up-walk (one uniform coordinate resampled
    through the dyadic-interval kernel, kept only if it moved up); reject on
    any violated pair. One-sided by construction.

    Pairs are drawn in chunks of FALLBACK_CHUNK. A chunk draws its points
    (:func:`hgm.walks.sample_points_batch`), one uniform coordinate per
    point, and one kernel move per point from that coordinate's value; only
    the pairs whose move went up are built and evaluated together, so every
    evaluated pair is charged to f, including those after the first
    violation in its chunk. The witness is the chunk's first violated pair.
    From d = 17 these are the draws that a length-1
    :func:`hgm.walks.sample_walk_batch` makes (Floyd's algorithm at k = 1
    is one bounded draw per row), so the results equal its; at d <= 16
    that call reads its coordinate from the mask table instead.
    """
    shape = f.shape
    if not 0 < eps < 1:
        raise ConfigError("eps must be in (0,1)")
    num_pairs = math.ceil(8 * shape.d * max(1, shape.log_n) / eps)
    worker = f.spawn_worker()
    witness = None
    pairs = 0
    for start in range(0, num_pairs, FALLBACK_CHUNK):
        count = min(FALLBACK_CHUNK, num_pairs - start)
        pairs += count
        X = walks.sample_points_batch(shape, count, rng)
        coord = rng.integers(0, shape.d, size=count)
        u = X[np.arange(count), coord]
        c = walks.sample_line_kernel(shape.n, u, rng)
        moved = np.flatnonzero(c > u)  # an up-walk that draws below u stays put
        X = X[moved]
        Y = X.copy()
        Y[np.arange(moved.size), coord[moved]] = c[moved]
        violated = np.flatnonzero(worker.eval_many(X) > worker.eval_many(Y))
        if violated.size:
            row = violated[0]
            witness = (tuple(X[row].tolist()), tuple(Y[row].tolist()))
            break
    f.query_count += worker.query_count
    return FullTesterResult(
        witness is None, witness, True, total_queries=worker.query_count, pairs=pairs
    )


def choose_subgrid_size(shape: GridShape, eps: float) -> Tuple[int, float]:
    """Side length for domain reduction: the eighth-power formula, capped at n
    and rounded to a power of two. Returns (k, raw formula value)."""
    formula = (shape.d / eps) ** 8
    if formula >= shape.n:
        return shape.n, formula
    k = 2 ** max(1, math.floor(math.log2(formula)))
    return min(k, shape.n), formula


def run_full_tester(
    f: FunctionOracle,
    eps: float,
    seed: int = 0,
    outer_reps: Optional[int] = None,
    inner_trials: Optional[int] = None,
    k: Optional[int] = None,
) -> FullTesterResult:
    """Distance-targeted tester: subgrid sampling plus the path tester.

    For eps below 1/sqrt(d) the walk analysis offers no advantage and we
    defer to the fallback pair tester, which reads none of ``k``,
    ``outer_reps`` and ``inner_trials``: setting any of them there is a
    ConfigError. Otherwise: ceil(8/eps) rounds, each running the trial
    driver (at DEFAULT_BATCH) on a side-k grid. At k = n, the size
    :func:`choose_subgrid_size` gives at every desk-scale shape, a round
    runs on f itself, which it charges, and its witness is one of f's. A
    forced k < n restricts f to k sorted uniform samples per axis; the
    restriction reads f without counting, so f is charged its queries, and
    a witness in it maps back through the sample tables to a violation of
    f. The three counts must be integers (ConfigError otherwise).
    """
    shape = f.shape
    if not 0 < eps < 1:
        raise ConfigError("eps must be in (0,1)")
    k, outer_reps, inner_trials = (
        None if value is None else _integer(value, name)
        for name, value in (("subgrid size", k), ("outer_reps", outer_reps),
                            ("inner_trials", inner_trials))
    )
    for name, value in (("outer_reps", outer_reps), ("inner_trials", inner_trials)):
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if eps < shape.d**-0.5:
        if (k, outer_reps, inner_trials) != (None, None, None):
            raise ConfigError(
                f"eps {eps} < 1/sqrt(d) runs the fallback pair tester, which reads"
                " none of k, outer_reps and inner_trials"
            )
        return line_tester_fallback(f, eps, substream(seed, "fallback"))
    chosen, k_formula = choose_subgrid_size(shape, eps)
    if k is None:
        k = chosen
    if k < 2 or k & (k - 1):
        raise ConfigError(f"subgrid size {k} must be a power of two >= 2")
    if k > shape.n:
        raise ConfigError(f"subgrid size {k} exceeds side length {shape.n}")
    if outer_reps is None:
        outer_reps = math.ceil(8 / eps)
    if inner_trials is None:
        inner_trials = math.ceil(32 * eps**-2 * math.sqrt(shape.d))
    total_queries = 0
    for rep in range(outer_reps):
        cfg = TesterConfig(
            # At k = n, f's own shape: it may be a plain Box of side n.
            shape=shape if k == shape.n else GridShape(k, shape.d),
            trials=inner_trials,
            seed=int(substream(seed, "inner", rep).integers(0, 2**63)),
        )
        if k == shape.n:
            report = run_tester(f, cfg)
        else:
            T = sample_subgrid(shape, k, substream(seed, "subgrid", rep))
            report = run_tester(restrict_to_subgrid(f, T), cfg)
            f.query_count += report.total_queries
        total_queries += report.total_queries
        if report.rejections:
            _, _, _, u, v = report.witnesses[0]
            if k < shape.n:
                u = tuple(T[i][u[i] - 1] for i in range(shape.d))
                v = tuple(T[i][v[i] - 1] for i in range(shape.d))
            return FullTesterResult(
                False, (u, v), False, k, k_formula, rep + 1, inner_trials, total_queries
            )
    return FullTesterResult(
        True, None, False, k, k_formula, outer_reps, inner_trials, total_queries
    )
