"""Statistical helpers: Wilson intervals, chi-square with pooling, slopes."""

import numpy as np
import pytest

from hgm.errors import DomainError
from hgm.stats import chi_square_gof, loglog_slope, wilson_interval


def test_wilson_interval_brackets_rate():
    for k, n in [(0, 100), (50, 100), (100, 100), (3, 17)]:
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01  # no degenerate zero-width interval


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.2366, abs=2e-4)
    assert hi == pytest.approx(0.7634, abs=2e-4)
    with pytest.raises(DomainError, match="trials must be positive"):
        wilson_interval(0, 0)
    with pytest.raises(DomainError, match="out of range"):
        wilson_interval(11, 10)


def test_chi_square_fair_coin_calibration():
    # At p-threshold 0.001 a correct sampler should be rejected ~0.1% of the
    # time; allow generous slack over 10^4 simulated runs.
    rng = np.random.default_rng(2024)
    trials, per_run = 10_000, 2000
    heads = rng.binomial(per_run, 0.5, size=trials)
    rejections = 0
    for h in heads:
        _, p, _ = chi_square_gof([h, per_run - h], [0.5, 0.5], per_run)
        rejections += p <= 0.001
    assert rejections <= 30


def test_chi_square_detects_bias():
    _, p, _ = chi_square_gof([1300, 700], [0.5, 0.5], 2000)
    assert p < 1e-6


def test_chi_square_pools_sparse_categories():
    expected = np.full(301, 0.0001)
    expected[0] = 0.97
    expected /= expected.sum()
    observed = np.zeros(301, dtype=np.int64)
    observed[:3] = 9700, 150, 150
    stat, p, dof = chi_square_gof(observed, expected, 10_000)
    assert dof >= 1
    assert np.isfinite(stat)
    # Expected counts 3, 3, 4: the first two pool to 6, and the leftover 4
    # joins that pool, so one pool is left and nothing is tested.
    assert chi_square_gof([2, 4, 4], [0.3, 0.3, 0.4], 10) == (0.0, 1.0, 0)
    # No pool reaches MIN_EXPECTED: the single leftover pool is returned.
    assert chi_square_gof([1, 2], [0.5, 0.5], 3) == (0.0, 1.0, 0)


def test_chi_square_flags_impossible_category():
    stat, p, _ = chi_square_gof([10, 1], [1.0, 0.0], 11)
    assert stat == float("inf") and p == 0.0


def test_loglog_slope_recovers_power_law():
    xs = [4.0, 16.0, 64.0]
    ys = [x**-0.5 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(DomainError, match="two points"):
        loglog_slope(xs[:1], ys[:1])


@pytest.mark.parametrize("xs", [[4, 4], [16.0, 16.0, 16.0], [0.1, 0.1, 0.1]])
def test_loglog_slope_refuses_equal_x(xs):
    with pytest.raises(DomainError, match="distinct x"):
        loglog_slope(xs, [0.5 + 0.1 * i for i in range(len(xs))])
