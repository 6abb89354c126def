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


def test_chi_square_fair_coin_calibration():
    # At p-threshold 0.001 a correct sampler should be rejected ~0.1% of the
    # time; allow generous slack over 10^4 simulated runs.
    rng = np.random.default_rng(2024)
    trials, per_run = 10_000, 2000
    heads = rng.binomial(per_run, 0.5, size=trials)
    expected = {0: 0.5, 1: 0.5}
    rejections = 0
    for h in heads:
        _, p, _ = chi_square_gof({0: int(h), 1: per_run - int(h)}, expected, per_run)
        rejections += p <= 0.001
    assert rejections <= 30


def test_chi_square_detects_bias():
    observed = {0: 1300, 1: 700}
    _, p, _ = chi_square_gof(observed, {0: 0.5, 1: 0.5}, 2000)
    assert p < 1e-6


def test_chi_square_pools_sparse_categories():
    expected = {i: (0.97 if i == 0 else 0.0001) for i in range(301)}
    total_p = sum(expected.values())
    expected = {k: v / total_p for k, v in expected.items()}
    observed = {0: 9700, 1: 150, 2: 150}
    stat, p, dof = chi_square_gof(observed, expected, 10_000)
    assert dof >= 1
    assert np.isfinite(stat)


def test_chi_square_flags_impossible_category():
    stat, p, _ = chi_square_gof({0: 10, 5: 1}, {0: 1.0}, 11)
    assert stat == float("inf") and p == 0.0


def test_loglog_slope_recovers_power_law():
    xs = [4.0, 16.0, 64.0]
    ys = [x**-0.5 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("xs", [[4, 4], [16.0, 16.0, 16.0], [0.1, 0.1, 0.1]])
def test_loglog_slope_refuses_equal_x(xs):
    with pytest.raises(DomainError, match="distinct x"):
        loglog_slope(xs, [0.5 + 0.1 * i for i in range(len(xs))])
