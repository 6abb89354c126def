"""Small statistical helpers: Wilson intervals, pooled chi-square over aligned
arrays of counts and probabilities, log-log slopes.

Only the chi-square p-value needs SciPy, so ``scipy.stats`` is imported
inside :func:`chi_square_gof`, on its first call: importing this module (and
``hgm``) loads numpy only.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError

Z_95 = 1.959963984540054
Z_99 = 2.5758293035489004
MIN_EXPECTED = 5.0


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval because it stays informative at observed
    rates of 0 or 1 (the one-sidedness suites live there).
    """
    if trials <= 0:
        raise DomainError("trials must be positive")
    if not 0 <= successes <= trials:
        raise DomainError("successes out of range")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def chi_square_gof(observed, expected_probs, total: int) -> Tuple[float, float, int]:
    """Pearson goodness-of-fit with category pooling, over aligned arrays of
    observed counts and expected probabilities, one entry per category.

    Categories are stably sorted by expected probability and greedily pooled
    until every pooled expected count is at least ``MIN_EXPECTED``; the
    leftover joins the last pool, and the observed counts follow the same
    pooling. A positive count where the probability is 0 gives an infinite
    statistic. Returns (statistic, p_value, dof).
    """
    if total <= 0:
        raise DomainError("total sample count must be positive")
    observed = np.asarray(observed)
    probs = np.asarray(expected_probs, dtype=np.float64)
    order = np.argsort(probs, kind="stable")
    pooled = []  # (expected count, observed count)
    acc_e = acc_o = 0.0
    for e, o in zip((probs[order] * total).tolist(), observed[order].tolist()):
        acc_e += e
        acc_o += o
        if acc_e >= MIN_EXPECTED:
            pooled.append((acc_e, acc_o))
            acc_e = acc_o = 0.0
    if acc_e > 0 or acc_o > 0:
        if pooled:
            e, o = pooled[-1]
            pooled[-1] = (e + acc_e, o + acc_o)
        else:
            pooled.append((acc_e, acc_o))
    # Observations where the law puts no mass are unconditionally evidence
    # against the null.
    if observed[probs == 0].any():
        return math.inf, 0.0, max(1, len(pooled) - 1)
    if len(pooled) < 2:
        return 0.0, 1.0, 0
    stat = math.fsum((o - e) ** 2 / e for e, o in pooled)
    dof = len(pooled) - 1
    from scipy.stats import chi2

    return stat, float(chi2.sf(stat, dof)), dof


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x). Raises DomainError
    unless there are at least two points and two distinct x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise DomainError("need at least two points for a slope")
    if len(set(xs)) < 2:
        raise DomainError(f"all x are equal ({xs[0]}); a slope needs two distinct x")
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den
