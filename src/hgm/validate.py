"""Cross-validation suites behind the CLI: the walk's joint law of (x, y) as
one sparse matrix per formulation (``walks.exact_pmf`` is its anchor-by-anchor
reference), the equivalence checks on it, and the reversibility scans."""

from __future__ import annotations

import itertools
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
EQUIV_TOL = 1e-12


def check_joint_budget(shape: GridShape, tau: int, budget: int) -> None:
    """BudgetError when the bound n^d C(d, m) n^m on the support of the joint
    walk pmf, m = min(tau, d), exceeds budget: the enumeration bound of every
    equivalence check. DomainError when tau is negative."""
    if tau < 0:
        raise DomainError(f"walk length must be non-negative, got {tau}")
    m = min(tau, shape.d)
    if shape.num_points * math.comb(shape.d, m) * shape.n**m > budget:
        raise BudgetError(f"joint walk pmf on {shape} exceeds budget ({budget} terms)")


def joint_law(shape: GridShape, tau: int, P: np.ndarray):
    """The walk's joint law as an (N, N) CSR matrix with sorted indices: row x
    is the endpoint pmf of a tau-step walk from x with one-step matrix P. It
    is the mean, over the C(d, m) coordinate subsets S of size m = min(tau, d),
    of the Kronecker product of P on S and the identity elsewhere, coordinate
    1 in the last factor (index order). scipy.sparse loads on the first call."""
    from scipy import sparse

    d, m = shape.d, min(tau, shape.d)
    # COO factors and products: the default kron stores dense blocks.
    factors = (sparse.identity(shape.n, format="coo"), sparse.coo_matrix(P))
    law = sparse.csr_matrix((shape.num_points, shape.num_points))
    for S in itertools.combinations(range(d), m):
        term = sparse.identity(1, format="coo")
        for i in reversed(range(d)):
            term = sparse.kron(term, factors[i in S], format="coo")
        law = law + term
    law.data /= math.comb(d, m)
    law.sort_indices()
    return law


def _max_abs_diff(a, b) -> float:
    """max |a - b| over two sparse (N, N) matrices, in sixteen blocks of rows:
    a difference of whole laws would raise the peak memory by two laws."""
    rows = -(-a.shape[0] // 16)
    return max(float(abs(a[i : i + rows] - b[i : i + rows]).max())
               for i in range(0, a.shape[0], rows))


@dataclass
class EquivExactResult:
    max_diffs: Dict[Tuple[str, str], float]
    passed: bool


def equivalence_exact(
    shape: GridShape, tau: int, direction: str = "up", budget: int = walks.DEFAULT_PMF_BUDGET
) -> EquivExactResult:
    """Pointwise comparison of the joint laws of the three formulations; they
    agree when every difference is below EQUIV_TOL. Budget as in
    :func:`check_joint_budget`."""
    check_joint_budget(shape, tau, budget)
    laws = {f: joint_law(shape, tau, walks.formulation_step(shape.n, direction, f))
            for f in FORMULATIONS}
    diffs = {(a, b): _max_abs_diff(laws[a], laws[b])
             for a, b in itertools.combinations(FORMULATIONS, 2)}
    return EquivExactResult(diffs, all(v < EQUIV_TOL for v in diffs.values()))


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


def equivalence_statistical(
    shape: GridShape,
    tau: int,
    samples: int,
    seed: int,
    sampler: Optional[Callable] = None,
    budget: int = walks.DEFAULT_PMF_BUDGET,
) -> EquivStatResult:
    """Chi-square goodness of fit of sampled (x, y) pairs from each
    formulation, x uniform and y a tau-step up-walk endpoint, against the
    exact joint law (budget as in :func:`check_joint_budget`); a pair outside
    its support is one more category of probability 0. ``sampler`` may
    replace the default pair sampler (used by harness-sensitivity fixtures).
    A formulation passes when its p-value exceeds EQUIV_ALPHA."""
    check_joint_budget(shape, tau, budget)
    N = shape.num_points
    law = joint_law(shape, tau, walks.one_step(shape.n, "up"))
    keys = np.repeat(np.arange(N, dtype=np.int64), np.diff(law.indptr)) * N + law.indices
    probs = np.append(law.data / N, 0.0)
    draw = sampler or _sample_pairs
    results = {}
    ok = True
    for formulation in FORMULATIONS:
        rng = substream(seed, "equiv", formulation)
        X, Y = draw(shape, tau, formulation, samples, rng)
        drawn, tally = np.unique(
            shape.indices_of_points(X) * N + shape.indices_of_points(Y), return_counts=True
        )
        pos = np.searchsorted(keys, drawn)
        pos[keys[np.minimum(pos, keys.size - 1)] != drawn] = keys.size
        counts = np.bincount(pos, tally, minlength=keys.size + 1)
        stat, p, dof = chi_square_gof(counts, probs, samples)
        results[formulation] = (stat, p, dof)
        ok = ok and p > EQUIV_ALPHA
    return EquivStatResult(results, ok)


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
