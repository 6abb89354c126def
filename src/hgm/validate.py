"""Cross-validation suites behind the CLI: distribution-equivalence checks
(exact and statistical) and the reversibility closed-form scans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import walks
from .errors import BudgetError, DomainError
from .grid import GridShape
from .rng import substream
from .stats import chi_square_gof

FORMULATIONS = ("direct", "cube_first", "cube_at_x")
EQUIV_ALPHA = 0.001


def check_joint_budget(shape: GridShape, tau: int, budget: int) -> None:
    """BudgetError when the bound n^d C(d, m) n^m on the support of the joint
    walk pmf, m = min(tau, d), exceeds budget: the enumeration bound of every
    equivalence check. DomainError when tau is negative."""
    if tau < 0:
        raise DomainError(f"walk length must be non-negative, got {tau}")
    m = min(tau, shape.d)
    if shape.num_points * math.comb(shape.d, m) * shape.n**m > budget:
        raise BudgetError(f"joint walk pmf on {shape} exceeds budget ({budget} terms)")


def joint_exact_pmf(shape: GridShape, tau: int, budget: int = walks.DEFAULT_PMF_BUDGET) -> Dict:
    """Exact law of (x, y) with x uniform and y a tau-step up-walk endpoint
    (the pairs :func:`_sample_pairs` draws), keyed by (x_index, y_index);
    budget as in :func:`check_joint_budget`."""
    check_joint_budget(shape, tau, budget)
    N = shape.num_points
    spec = walks.WalkSpec("up", tau, shape)
    out: Dict[Tuple[int, int], float] = {}
    for x in shape.points():
        pmf = walks.exact_pmf(shape, x, spec, budget=budget)
        xi = shape.index_of(x)
        for y, p in pmf.table.items():
            out[(xi, shape.index_of(y))] = p / N
    return out


@dataclass
class EquivExactResult:
    max_diffs: Dict[Tuple[str, str], float]
    passed: bool
    tolerance: float


def equivalence_exact(
    shape: GridShape, tau: int, direction: str = "up", tol: float = 1e-12,
    budget: int = walks.DEFAULT_PMF_BUDGET,
) -> EquivExactResult:
    """Pointwise comparison of the three exact pmf formulations over every
    anchor; budget as in :func:`check_joint_budget`."""
    check_joint_budget(shape, tau, budget)
    diffs = {
        ("direct", "cube_first"): 0.0,
        ("direct", "cube_at_x"): 0.0,
        ("cube_first", "cube_at_x"): 0.0,
    }
    spec = walks.WalkSpec(direction, tau, shape)
    for x in shape.points():
        pmfs = {f: walks.exact_pmf(shape, x, spec, f, budget) for f in FORMULATIONS}
        for a, b in diffs:
            diffs[(a, b)] = max(diffs[(a, b)], pmfs[a].max_abs_diff(pmfs[b]))
    return EquivExactResult(diffs, all(v < tol for v in diffs.values()), tol)


def _sample_pairs(
    shape: GridShape, tau: int, formulation: str, count: int, rng
) -> Tuple[np.ndarray, np.ndarray]:
    lengths = np.full(count, tau, dtype=np.int64)
    if formulation == "direct":
        X = walks.sample_points_batch(shape, count, rng)
        Y = walks.sample_walk_batch(shape, X, lengths, "up", rng)
    elif formulation == "cube_first":
        A, B = walks.sample_hypercube_batch(shape, count, rng)
        X = walks.uniform_vertex_batch(A, B, rng)
        Y = walks.sample_hypercube_walk_batch(A, B, X, lengths, "up", rng)
    elif formulation == "cube_at_x":
        X = walks.sample_points_batch(shape, count, rng)
        A, B = walks.sample_hypercube_at_batch(shape, X, rng)
        Y = walks.sample_hypercube_walk_batch(A, B, X, lengths, "up", rng)
    else:
        raise DomainError(f"unknown formulation {formulation!r}")
    return X, Y


@dataclass
class EquivStatResult:
    per_formulation: Dict[str, Tuple[float, float, int]]  # stat, p, dof
    passed: bool
    alpha: float
    samples: int


def equivalence_statistical(
    shape: GridShape,
    tau: int,
    samples: int,
    seed: int,
    sampler: Optional[Callable] = None,
    budget: int = walks.DEFAULT_PMF_BUDGET,
) -> EquivStatResult:
    """Chi-square goodness of fit of sampled (x, y) pairs from each
    formulation against the exact joint pmf (budget as in
    :func:`joint_exact_pmf`). ``sampler`` may replace the default pair
    sampler (used by harness-sensitivity fixtures). A formulation passes
    when its p-value exceeds EQUIV_ALPHA."""
    expected = joint_exact_pmf(shape, tau, budget=budget)
    draw = sampler or _sample_pairs
    results = {}
    ok = True
    for formulation in FORMULATIONS:
        rng = substream(seed, "equiv", formulation)
        X, Y = draw(shape, tau, formulation, samples, rng)
        xi = shape.indices_of_points(X)
        yi = shape.indices_of_points(Y)
        keys, counts = np.unique(
            xi * shape.num_points + yi, return_counts=True
        )
        observed = {
            (int(k) // shape.num_points, int(k) % shape.num_points): int(c)
            for k, c in zip(keys, counts)
        }
        stat, p, dof = chi_square_gof(observed, expected, samples)
        results[formulation] = (stat, p, dof)
        ok = ok and p > EQUIV_ALPHA
    return EquivStatResult(results, ok, EQUIV_ALPHA, samples)


@dataclass
class ReversibilityRow:
    d: int
    ell: int
    weight_x: int
    t: int
    p_forward: float
    p_backward: float
    ratio: float
    product_formula: float
    within_band: bool


def reversibility_scan(
    d: int, ell: int, eps: float, c: float = 100.0
) -> List[ReversibilityRow]:
    """For every middle-layer cube pair (weight w, target at distance t above),
    compare the up/down closed-form walk probabilities and the product form
    of their ratio. The asymptotic band |ratio - 1| <= log^-3 d is reported,
    not asserted."""
    if d < 1 or ell < 0:
        raise DomainError("invalid scan parameters")
    rows = []
    band = math.log(d) ** -3 if d > 1 else math.inf
    hw = walks.middle_band_halfwidth(d, c, eps)
    for w in range(d + 1):
        if abs(w - d / 2) > hw:
            continue
        for t in range(0, min(ell, d - w) + 1):
            if abs(w + t - d / 2) > hw:
                continue
            p_up = float(walks.cube_walk_closed_form(d, w, t, ell, "up"))
            if t == 0:
                # Equal endpoints: forward and backward pdfs are the same
                # object, so the ratio is identically 1.
                rows.append(
                    ReversibilityRow(d, ell, w, 0, p_up, p_up, 1.0, 1.0, True)
                )
                continue
            p_down = float(walks.cube_walk_closed_form(d, w + t, t, ell, "down"))
            if p_down == 0.0:
                continue
            ratio = p_up / p_down
            prod = walks.reversibility_ratio_product(d, w, t, ell)
            rows.append(
                ReversibilityRow(
                    d, ell, w, t, p_up, p_down, ratio, prod,
                    abs(ratio - 1.0) <= band,
                )
            )
    return rows
