"""The path/shift tester: one-sidedness, witnesses, exact oracles,
determinism, and the full distance-targeted driver."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hgm import grid, tester, walks
from hgm.errors import BudgetError, ConfigError, DomainError
from hgm.grid import ExplicitFunction, FamilySpec, GridShape, make_family
from hgm.rng import substream
from hgm.stats import Z_99, wilson_interval
from hgm.tester import exact_reject_prob, exact_reject_prob_junta, run_tester

# Aliased so pytest does not try to collect the config dataclass as a test.
Config = tester.TesterConfig

from conftest import random_bits
from exact_enumeration import subtest_probs


def anti_dictator(n, d):
    return make_family(FamilySpec("anti_dictator"), GridShape(n, d))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_default_tau_schedule():
    assert tester.default_tau_schedule(1) == (1,)
    assert tester.default_tau_schedule(4) == (1, 2, 4)
    assert tester.default_tau_schedule(6) == (1, 2, 4, 8)
    assert tester.default_tau_schedule(64) == (1, 2, 4, 8, 16, 32, 64)


def test_config_validation():
    shape = GridShape(4, 2)
    with pytest.raises(ConfigError):
        Config(shape=shape, trials=0)
    with pytest.raises(ConfigError):
        Config(shape=shape, trials=1, tau_schedule=(3,))
    cfg = Config(shape=shape, trials=1, tau_schedule=(1, 4))
    assert cfg.schedule == (1, 4)
    # Counts must be integers; integer types other than int are read as ints.
    for bad in (dict(trials=2.5), dict(trials=1, batch_size=2.5), dict(trials="3")):
        with pytest.raises(ConfigError, match="integer"):
            Config(shape=shape, **bad)
    cfg = Config(shape=shape, trials=np.int64(3), batch_size=np.int16(2))
    assert (cfg.trials, cfg.batch_size) == (3, 2) and type(cfg.trials) is int


def test_config_rejects_nonpositive_batch_size():
    # run_tester's batching loop would never end on batch_size 0.
    for batch_size in (0, -8):
        with pytest.raises(ConfigError):
            Config(shape=GridShape(4, 2), trials=1, batch_size=batch_size)


def test_config_rejects_empty_tau_schedule():
    with pytest.raises(ConfigError):
        Config(shape=GridShape(4, 2), trials=1, tau_schedule=())


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("HGM_THREADS", raising=False)
    assert tester.worker_count() == 1
    monkeypatch.setenv("HGM_THREADS", "3")
    assert tester.worker_count() == 3
    for bad in ("zero", "0", "-3"):
        monkeypatch.setenv("HGM_THREADS", bad)
        with pytest.raises(ConfigError):
            tester.worker_count()


# ---------------------------------------------------------------------------
# Exact rejection oracle vs Monte Carlo
# ---------------------------------------------------------------------------


def test_exact_reject_prob_monotone_zero():
    f = make_family(FamilySpec("dictator"), GridShape(4, 2))
    cfg = Config(shape=f.shape, trials=1)
    assert exact_reject_prob(f, cfg) == pytest.approx(0.0, abs=1e-15)


def test_exact_reject_prob_two_point_line_is_15_16():
    # One trial runs four length-1 sub-tests that each reject independently
    # with probability 1/2 (length-0 sub-tests never reject).
    f = ExplicitFunction(GridShape(2, 1), np.array([1, 0], np.uint8))
    cfg = Config(shape=f.shape, trials=1)
    assert exact_reject_prob(f, cfg) == pytest.approx(15 / 16, abs=1e-12)


def _enumerated_rate(f, schedule):
    """Trial rejection probability from the enumerated pair probabilities."""
    per_tau = [1.0 - math.prod(1.0 - p for p in subtest_probs(f, tau)) for tau in schedule]
    return math.fsum(per_tau) / len(schedule)


def test_exact_reject_prob_budget_limits():
    # The budget counts the floats the contraction holds, the shifted stack's
    # 2 n^d (m+1) (m'+1); nothing else bounds the grid or the walk length.
    f = anti_dictator(8, 3)
    cfg = Config(shape=f.shape, trials=1)
    with pytest.raises(BudgetError, match="2 stacked steps"):
        exact_reject_prob(f, cfg, budget=2 * 8**3 * 4 * 4 - 1)
    assert exact_reject_prob(f, cfg, budget=2 * 8**3 * 4 * 4) == pytest.approx(
        _enumerated_rate(f, cfg.schedule), abs=1e-12
    )
    f2 = anti_dictator(2, 2)
    cfg2 = Config(shape=f2.shape, trials=1, tau_schedule=(8,))
    assert exact_reject_prob(f2, cfg2) == pytest.approx(_enumerated_rate(f2, (8,)), abs=1e-12)


def _grids_up_to_64_points():
    return [(n, d) for n in (2, 4, 8, 16, 32, 64) for d in range(1, 7) if n**d <= 64]


@pytest.mark.parametrize("n,d", _grids_up_to_64_points())
def test_contraction_matches_enumeration(n, d):
    shape = GridShape(n, d)
    f = ExplicitFunction(shape, random_bits(shape.num_points, 100 * n + d))
    taus = sorted(set(tester.default_tau_schedule(d)) | {1, 2, 4, 8})
    enumerated = {tau: subtest_probs(f, tau) for tau in taus}
    contracted = tester.exact_pair_probs(f, d, taus)
    for tau in taus:
        assert contracted[tau] == pytest.approx(enumerated[tau], abs=1e-12), tau
    for schedule in (None, (1, 2, 4), (1, 2, 4, 8), (1, 1, 2)):
        cfg = Config(shape=shape, trials=1, tau_schedule=schedule)
        assert exact_reject_prob(f, cfg) == pytest.approx(
            _enumerated_rate(f, cfg.schedule), abs=1e-12
        ), schedule
    # The exact oracles read f without charging it.
    assert f.query_count == 0


@pytest.mark.parametrize("n,d", [(2, 3), (4, 2), (2, 4), (8, 1)])
def test_junta_form_equals_full_contraction(n, d):
    for k in range(1, d + 1):
        core = ExplicitFunction(GridShape(n, k), random_bits(n**k, 7 * k + d))
        full_shape = GridShape(n, d)
        full = ExplicitFunction(
            full_shape, core.peek_many(full_shape.all_points_array()[:, :k])
        )
        for schedule in (tester.default_tau_schedule(d), (1, 2, 4, 8)):
            expected = exact_reject_prob(full, Config(shape=full_shape, trials=1, tau_schedule=schedule))
            assert exact_reject_prob_junta(core, d, schedule) == pytest.approx(expected, abs=1e-12)
        assert core.query_count == full.query_count == 0


def _pair_laws_by_offset_table(n, step):
    """The pair laws through a dense (n, 2n - 1) offset table: row x of the
    path's matrix is shifted to column (n - 1) + y - x, one matrix product
    sums over x, and the pair (w, h) is read back at offset h - w."""
    sub = tester.SUBTESTS[step]
    idx = np.arange(n)
    shear = (n - 1) + idx[None, :] - idx[:, None]
    eye = np.eye(n)
    path = (eye, walks.one_step(n, sub.path))
    shift = (eye, walks.one_step(n, sub.shift) if sub.shift else eye)
    laws = np.empty((2, 2, n, n))
    for a in (0, 1):
        by_offset = np.zeros((n, 2 * n - 1))
        by_offset[idx[:, None], shear] = path[a]
        for b in (0, 1):
            law = (shift[b].T @ by_offset)[idx[:, None], shear] / n
            laws[a, b] = law if sub.path == "up" else law.T
    return laws


@pytest.mark.parametrize("n", [2**q for q in range(1, 9)])
def test_pair_laws_match_the_offset_table(n):
    for step in tester.STEPS:
        laws = tester._pair_laws(n, step)
        assert np.abs(laws - _pair_laws_by_offset_table(n, step)).max() < 1e-15, step
        assert np.abs(laws.sum(axis=(2, 3)) - 1).max() < 1e-12


def test_junta_anti_dictator_values_to_d_1024():
    # The exact values behind criterion 8: p * log2(2d) levels off, so the
    # rate decays like 1/log d, not d^(-1/2).
    core = anti_dictator(8, 1)
    for d, p in [(4, 0.48834), (16, 0.37870), (64, 0.29536), (1024, 0.19541)]:
        got = exact_reject_prob_junta(core, d, tester.default_tau_schedule(d))
        assert got == pytest.approx(p, abs=5e-6), d
    with pytest.raises(ConfigError):
        exact_reject_prob_junta(anti_dictator(8, 2), 1, (1,))
    with pytest.raises(ConfigError):
        exact_reject_prob_junta(core, 4, (3,))


def test_junta_weights_at_d_4096_keep_the_direct_binomial_float():
    # The weights C(d-k, m-j) / C(d, m) are taken as
    # C(m, j) C(d-m, k-j) / (C(k, j) C(d, k)): the same Fraction, so the
    # value below, recorded with the direct binomials, is kept to the last
    # bit. The core is the 4-junta 32904 (bit i is f at row i of
    # all_points_array), the worst class at eps = 1/16.
    d, k = 4096, 4
    for m in (0, 1, 3, 4, 5, 2048, d - 1, d):
        for j in range(max(0, m - (d - k)), min(m, k) + 1):
            assert Fraction(math.comb(d - k, m - j), math.comb(d, m)) == Fraction(
                math.comb(m, j) * math.comb(d - m, k - j), math.comb(k, j) * math.comb(d, k))
    core = ExplicitFunction(GridShape(2, k), np.array([(32904 >> i) & 1 for i in range(16)]))
    assert exact_reject_prob_junta(core, d, tester.default_tau_schedule(d)) == 0.021304899584368986


def test_exact_oracle_normalizes_integer_inputs():
    # Any integer sequence is a schedule, read as a tuple of Python ints;
    # a non-integer d or schedule entry is a ConfigError.
    core = anti_dictator(8, 1)
    expected = exact_reject_prob_junta(core, 4, (1, 2))
    assert exact_reject_prob_junta(core, np.int64(4), np.array([1, 2])) == expected
    assert exact_reject_prob_junta(core, 4, [np.int32(1), 2]) == expected
    cfg = Config(shape=GridShape(8, 4), trials=1, tau_schedule=np.array([1, 2]))
    assert cfg.schedule == (1, 2) and {type(t) for t in cfg.schedule} == {int}
    assert exact_reject_prob(anti_dictator(8, 4), cfg) == exact_reject_prob(
        anti_dictator(8, 4), Config(shape=GridShape(8, 4), trials=1, tau_schedule=(1, 2)))
    for d, schedule in ((4.0, (1, 2)), (4, (1.0, 2)), (4, np.array([1.0, 2.0])), (4, 2)):
        with pytest.raises(ConfigError):
            exact_reject_prob_junta(core, d, schedule)
    with pytest.raises(ConfigError):
        Config(shape=GridShape(8, 4), trials=1, tau_schedule=(1, 2.0))


def test_exact_pair_probs_runs_two_unpadded_stacked_passes(monkeypatch):
    # One pass over the two steps without a shift, which keep one shift
    # coefficient, and one over the two with one: (S, J, J', n^k).
    passes = []
    contract_axes = walks.contract_axes

    def counted(A, laws, k):
        passes.append((A.shape, laws.shape))
        contract_axes(A, laws, k)

    monkeypatch.setattr(walks, "contract_axes", counted)
    core = ExplicitFunction(GridShape(4, 3), random_bits(64, 5))
    tester.exact_pair_probs(core, 3, (1, 2, 4))
    assert passes == [((2, 4, 1, 64), (2, 2, 2, 4, 4)), ((2, 4, 4, 64), (2, 2, 2, 4, 4))]
    passes.clear()
    tester.exact_pair_probs(core, 256, (1, 2, 4, 8))
    assert [shape for shape, _ in passes] == [(2, 4, 1, 64), (2, 4, 4, 64)]


@pytest.mark.parametrize("n,k,J,Jp", [(2, 5, 4, 3), (4, 3, 4, 4), (8, 2, 3, 1)])
def test_stacked_pass_equals_one_pass_per_step(n, k, J, Jp):
    # S = 1 is the one-step pass; a stack gives each step the same bits.
    G = 1.0 - random_bits(n**k, 40 + k).astype(np.float64)
    laws = np.stack([tester._pair_laws(n, step) for step in tester.STEPS])
    A = np.zeros((len(tester.STEPS), J, Jp, G.size))
    A[:, 0, 0] = G
    walks.contract_axes(A, laws, k)
    for s in range(len(tester.STEPS)):
        one = np.zeros((1, J, Jp, G.size))
        one[0, 0, 0] = G
        walks.contract_axes(one, laws[s : s + 1], k)
        assert np.array_equal(one[0], A[s]), tester.STEPS[s]


def test_repeat_exact_call_builds_no_fraction(monkeypatch):
    # The weights are cached per (d, k, schedule), whatever the core and
    # whatever integer sequence carries the schedule.
    core = ExplicitFunction(GridShape(2, 4), random_bits(16, 8))
    schedule = tester.default_tau_schedule(256)
    first = tester.exact_pair_probs(core, 256, schedule)

    def no_fraction(*args):
        raise AssertionError("a repeat call built a Fraction")

    monkeypatch.setattr(tester, "Fraction", no_fraction)
    assert tester.exact_pair_probs(core, 256, np.array(schedule)) == first
    tester.exact_pair_probs(ExplicitFunction(GridShape(2, 4), random_bits(16, 9)), 256, schedule)


# exact_pair_probs as the four-pass contraction with per-call Fraction
# weights computed them; the stacked passes and cached weights keep every bit.
ANTI_DICTATOR_8_1_AT_1024 = {
    1: (
        0.0, 0.00020151289682539681, 0.0, 0.00020151289682539681, 0.0,
        0.00020151289682539681, 0.0, 0.00020151289682539681,
    ),
    2: (
        0.00020151289682539681, 0.00040302579365079363, 0.00020151289682539681,
        0.00040302579365079363, 0.00020151289682539681, 0.00040302579365079363,
        0.00020151289682539681, 0.00040302579365079363,
    ),
    4: (
        0.0006045386904761905, 0.0008060515873015873, 0.0006045386904761905,
        0.0008060515873015873, 0.0006045386904761905, 0.0008060515873015873,
        0.0006045386904761905, 0.0008060515873015873,
    ),
    8: (
        0.0014105902777777778, 0.0016121031746031745, 0.0014105902777777778,
        0.0016121031746031745, 0.0014105902777777778, 0.0016121031746031745,
        0.0014105902777777778, 0.0016121031746031745,
    ),
    16: (
        0.003022693452380952, 0.003224206349206349, 0.003022693452380952,
        0.003224206349206349, 0.0030226934523809525, 0.003224206349206349,
        0.0030226934523809525, 0.003224206349206349,
    ),
    32: (
        0.006246899801587301, 0.006448412698412698, 0.006246899801587301,
        0.006448412698412698, 0.006246899801587301, 0.006448412698412698,
        0.006246899801587301, 0.006448412698412698,
    ),
    64: (
        0.0126953125, 0.012896825396825396, 0.0126953125, 0.012896825396825396,
        0.0126953125, 0.012896825396825396, 0.0126953125, 0.012896825396825396,
    ),
    128: (
        0.025592137896825396, 0.025793650793650792, 0.025592137896825396,
        0.025793650793650792, 0.025592137896825396, 0.025793650793650792,
        0.025592137896825396, 0.025793650793650792,
    ),
    256: (
        0.051385788690476185, 0.051587301587301584, 0.051385788690476185,
        0.051587301587301584, 0.05138578869047619, 0.051587301587301584,
        0.051385788690476185, 0.051587301587301584,
    ),
    512: (
        0.10297309027777778, 0.10317460317460317, 0.10297309027777778,
        0.10317460317460317, 0.10297309027777778, 0.10317460317460317,
        0.10297309027777776, 0.10317460317460317,
    ),
    1024: (
        0.20614769345238093, 0.20634920634920634, 0.20614769345238093,
        0.20634920634920634, 0.20614769345238093, 0.20634920634920634,
        0.2061476934523809, 0.2063492063492063,
    ),
}
CORE_32904_AT_256 = {
    1: (
        0.0, 0.000244140625, 0.0, 0.000244140625, 0.0, 0.000244140625, 0.0,
        0.000244140625,
    ),
    2: (
        0.000244140625, 0.00048636642156862746, 0.000244140625, 0.0004844515931372549,
        0.00024318695068359375, 0.00048447403253293504, 0.00024509429931640625,
        0.0004863589417700674,
    ),
    4: (
        0.0007266773897058824, 0.0009650735294117646, 0.0007209555204955998,
        0.0009536750231588699, 0.0007181613760917182, 0.0009538082501850794,
        0.0007294717970633121, 0.0009650300558109074,
    ),
    8: (
        0.0016687729779411764, 0.0018995098039215686, 0.0016293531438165817,
        0.0018471611085379034, 0.0016231382398213257, 0.001847769758350958,
        0.0016749921089407047, 0.0018993198870205107,
    ),
    16: (
        0.003461052389705882, 0.003676470588235294, 0.003270285722556739,
        0.003459356183418249, 0.003258212516993992, 0.0034618539303241562,
        0.003473169429521192, 0.003675765082825953,
    ),
    32: (
        0.006677964154411765, 0.006862745098039216, 0.005889228230662344,
        0.006025165971900571, 0.005868929879683499, 0.0060345964354071874,
        0.006698637058295577, 0.006860681324957684,
    ),
    64: (
        0.011641199448529411, 0.011764705882352941, 0.00879964682723483,
        0.008846688281611857, 0.008773630714525634, 0.00887811239885023,
        0.01166995786845585, 0.011762530946784833,
    ),
    128: (
        0.015685317095588236, 0.01568627450980392, 0.007904411764705882,
        0.00784313725490196, 0.007888791833369376, 0.007919910611303345,
        0.015716074511254122, 0.015716072619305074,
    ),
    256: (
        0.000244140625, 0.0, 0.0, 0.0, 0.0, 0.0, 0.00024509429931640625, 0.000244140625,
    ),
}


def test_pair_probs_are_pinned_to_the_four_pass_values():
    core = ExplicitFunction(GridShape(2, 4), np.array([(32904 >> i) & 1 for i in range(16)]))
    assert tester.exact_pair_probs(
        anti_dictator(8, 1), 1024, tester.default_tau_schedule(1024)
    ) == ANTI_DICTATOR_8_1_AT_1024
    assert tester.exact_pair_probs(core, 256, tester.default_tau_schedule(256)) == CORE_32904_AT_256


def test_mc_rate_within_ci_of_junta_form_at_8_256():
    f = anti_dictator(8, 256)
    cfg = Config(shape=f.shape, trials=40_000, seed=22)
    p = exact_reject_prob_junta(anti_dictator(8, 1), 256, cfg.schedule)
    rep = run_tester(f, cfg)
    lo, hi = wilson_interval(rep.rejections, rep.trials, z=Z_99)
    assert lo <= p <= hi, (rep.reject_rate, p)


@pytest.mark.parametrize(
    "n,d,fam_seed",
    # (4, 8): 65,536 points and tau up to 8, by the full contraction.
    [(2, 2, None), (4, 2, None), (4, 2, 4), (4, 8, 0)],
)
def test_batch_rate_within_ci_of_exact(n, d, fam_seed):
    shape = GridShape(n, d)
    if fam_seed is None:
        f = make_family(FamilySpec("anti_dictator"), shape)
    else:
        f = ExplicitFunction(shape, random_bits(shape.num_points, fam_seed))
    cfg = Config(shape=shape, trials=100_000, seed=13)
    p = exact_reject_prob(f, cfg)
    rep = run_tester(f, cfg)
    # 99% interval: the seed is fixed, so a single ~2-sigma fluctuation would
    # otherwise fail forever rather than with 5% probability.
    lo, hi = wilson_interval(rep.rejections, rep.trials, z=Z_99)
    assert lo <= p <= hi


@pytest.mark.parametrize("n,d,fam_seed", [(2, 3, 31), (4, 2, 32), (4, 3, 33)])
def test_per_step_attribution_matches_exact(n, d, fam_seed):
    # A swapped shift direction or anchor role in the fused batch can keep the
    # trial's rejection rate in its interval; it moves which step rejects
    # first. The exact first-rejecting-step probability of step s is the mean
    # over tau of sum over s's pairs i of prod_{j<i} (1 - p_j) * p_i.
    shape = GridShape(n, d)
    f = ExplicitFunction(shape, random_bits(shape.num_points, fam_seed))
    schedule = (1, 2, 4)
    expected = dict.fromkeys(tester.STEPS, 0.0)
    for tau in schedule:
        survive = 1.0
        probs = subtest_probs(f, tau)
        for (step, _), p in zip(tester.PAIRS, probs):
            expected[step] += survive * p / len(schedule)
            survive *= 1.0 - p
    rep = run_tester(f, Config(shape=shape, trials=200_000, seed=19, tau_schedule=schedule))
    for step in tester.STEPS:
        lo, hi = wilson_interval(rep.per_step[step], rep.trials, z=Z_99)
        assert lo <= expected[step] <= hi, (step, rep.per_step[step] / rep.trials, expected[step])


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [64, 128, 2**15])
def test_witnesses_at_point_dtype_boundaries(n):
    # Anchors are int8 up to n = 64, int16 up to 2^14, then int32; n = 2^15
    # also takes the kernel's three-draw branch.
    f = anti_dictator(n, 3)
    rep = run_tester(f, Config(shape=f.shape, trials=4000, seed=3))
    assert rep.total_queries == 16 * rep.trials
    assert rep.witnesses
    for _, _, _, u, v in rep.witnesses:
        for point in (u, v):
            assert all(type(c) is int and 1 <= c <= n for c in point)
        assert all(a <= b for a, b in zip(u, v))
        assert f.peek(u) == 1 and f.peek(v) == 0


def test_report_accounting_and_witnesses():
    f = anti_dictator(4, 3)
    cfg = Config(shape=f.shape, trials=20_000, seed=5)
    rep = run_tester(f, cfg)
    assert rep.trials == 20_000
    assert rep.total_queries == 16 * rep.trials
    assert f.query_count == rep.total_queries
    assert sum(t for t, _ in rep.per_tau.values()) == rep.trials
    assert sum(r for _, r in rep.per_tau.values()) == rep.rejections
    assert sum(rep.per_step.values()) == rep.rejections
    assert rep.reject_rate == rep.rejections / rep.trials
    assert rep.wilson_ci_95[0] <= rep.reject_rate <= rep.wilson_ci_95[1]
    assert len(rep.witnesses) == tester.MAX_WITNESSES
    for trial, step, length, u, v in rep.witnesses:
        assert 0 <= trial < rep.trials
        assert step in tester.STEPS
        assert length in {t - k for t in cfg.schedule for k in (0, 1)}
        assert all(a <= b for a, b in zip(u, v))
        assert f.peek(u) == 1 and f.peek(v) == 0


def test_monotone_batches_never_reject():
    for name in ("constant0", "dictator"):
        f = make_family(FamilySpec(name), GridShape(8, 3))
        rep = run_tester(f, Config(shape=f.shape, trials=30_000, seed=2))
        assert rep.rejections == 0


def test_reports_identical_across_seeds_and_threads(monkeypatch):
    f = anti_dictator(4, 2)
    cfg = Config(shape=f.shape, trials=25_000, seed=11, batch_size=4096)
    monkeypatch.delenv("HGM_THREADS", raising=False)
    a = run_tester(f.spawn_worker(), cfg)
    b = run_tester(f.spawn_worker(), cfg)
    monkeypatch.setenv("HGM_THREADS", "4")
    c = run_tester(f.spawn_worker(), cfg)
    for other in (b, c):
        assert a.rejections == other.rejections
        assert a.per_tau == other.per_tau
        assert a.per_step == other.per_step
        assert a.witnesses == other.witnesses
    d = run_tester(f.spawn_worker(), Config(shape=f.shape, trials=25_000, seed=12))
    assert d.rejections != a.rejections  # different seed, different draw


# A run of calls in one thread whose batches shrink, grow, change dtype and,
# last, cross BUFFER_CAP: (n, d, family, trials, seed, batch_size).
BUFFER_CALLS = (
    (8, 256, "anti_dictator", 1500, 3, 1024),
    (128, 5, "random_balanced", 1200, 4, 512),  # int16 points
    (64, 4, "random_balanced", 900, 5, 1024),
    (8, 256, "anti_dictator", 1500, 3, 1024),
    (8, 64, "anti_dictator", 1024, 6, 1024),
)


def _buffer_call_report(n, d, family, trials, seed, batch_size):
    f = make_family(FamilySpec(family), GridShape(n, d))
    rep = run_tester(f, Config(shape=f.shape, trials=trials, seed=seed, batch_size=batch_size))
    return rep, repr((rep.rejections, rep.per_tau, rep.per_step, rep.total_queries, rep.witnesses))


def _fresh_interpreter_reports(calls):
    """Each call's report summary, each from its own new interpreter."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, HGM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here), env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c",
             f"from test_tester import _buffer_call_report; print(_buffer_call_report(*{call!r})[1])"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for call in calls
    ]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs), [err for _, err in outs]
    return [out.strip() for out, _ in outs]


def test_kept_batch_buffer_changes_no_report(monkeypatch):
    monkeypatch.setenv("HGM_THREADS", "1")
    reports = []
    for i, call in enumerate(BUFFER_CALLS):
        if i == len(BUFFER_CALLS) - 1:
            # The last batch needs 24 N d = 1.6 MB: over the lowered cap, it
            # gets a buffer of its own and leaves the kept one in its slot.
            kept = tester._KEPT.buffer
            monkeypatch.setattr(grid, "BUFFER_CAP", 1 << 20)
        reports.append(_buffer_call_report(*call))
    assert tester._KEPT.buffer is kept
    assert [summary for _, summary in reports] == _fresh_interpreter_reports(BUFFER_CALLS)
    # A report shares no memory with the buffer that later calls overwrite.
    for rep, summary in reports:
        assert repr((rep.rejections, rep.per_tau, rep.per_step, rep.total_queries,
                     rep.witnesses)) == summary


def test_batches_of_one_shape_reuse_the_kept_buffer(monkeypatch):
    monkeypatch.setenv("HGM_THREADS", "1")
    first = _buffer_call_report(*BUFFER_CALLS[0])[1]
    kept = tester._KEPT.buffer
    assert kept.size >= 24 * 1024 * 256
    assert _buffer_call_report(*BUFFER_CALLS[0])[1] == first
    assert tester._KEPT.buffer is kept
    # Two pool threads, each with its own buffer for batches of two sizes;
    # the calling thread drops its own.
    monkeypatch.setenv("HGM_THREADS", "2")
    call = (8, 256, "anti_dictator", 2500, 8, 1024)
    threaded = _buffer_call_report(*call)[1]
    assert tester._KEPT.buffer is None and walks._SELECTED.buffer is None
    monkeypatch.setenv("HGM_THREADS", "1")
    assert threaded == _buffer_call_report(*call)[1]


def _digits(x):
    return tuple(int(c) for c in x)


# run_tester reports (rejections, per_tau, per_step, witnesses). The (8, 64)
# and (8, 256) cells (most coordinate subsets drawn by thresholding keys),
# and the (64, 4) and (128, 5) cells (int16 anchors at n = 128), were
# recorded since every move at n <= 1024 reads one 16-bit word into the
# alias bucket table. The (2^15, 3) cell (int32 anchors, three draws per
# move) was recorded since d <= 16 reads coordinate subsets from the table
# of all 2^d masks. A witness's points at
# n = 8 are written as their one-digit coordinates, 64 to a string.
TESTER_STREAM = {
    (8, 64, "anti_dictator", 3000, 5): (
        867,
        {1: (429, 8), 2: (469, 22), 4: (418, 25), 8: (414, 68), 16: (410, 128),
         32: (426, 250), 64: (434, 366)},
        {"up_path": 307, "down_path": 238, "up_path_down_shift": 169, "down_path_up_shift": 153},
        [
            (1, "down_path", 31,
             _digits("3126254776533457444646136251715867617315175216213118243258617711"),
             _digits("8126254776574457545647136251725867717315175256313618344288617711")),
            (4, "down_path_up_shift", 32,
             _digits("4463781175664885331116755633372754146433231315767427145117353876"),
             _digits("8563882175764887332416775738372754146436238315767448375117383876")),
            (10, "down_path_up_shift", 63,
             _digits("4477535483443853621571515345613257564346854442744835561233427368"),
             _digits("5477735483657865828582725447748357576747875444765836568334528478")),
        ],
    ),
    (64, 4, "random_balanced", 2000, 3): (
        1349,
        {1: (655, 263), 2: (681, 515), 4: (664, 571)},
        {"up_path": 525, "down_path": 402, "up_path_down_shift": 252, "down_path_up_shift": 170},
        [
            (1, "up_path", 3, (56, 16, 48, 53), (56, 19, 63, 53)),
            (2, "down_path", 2, (2, 24, 51, 27), (3, 27, 51, 27)),
            (3, "down_path_up_shift", 1, (21, 30, 6, 5), (24, 30, 6, 5)),
        ],
    ),
    (8, 256, "anti_dictator", 2000, 11): (
        452,
        {1: (219, 0), 2: (222, 2), 4: (208, 7), 8: (220, 7), 16: (222, 24), 32: (225, 40),
         64: (228, 67), 128: (243, 132), 256: (213, 173)},
        {"up_path": 178, "down_path": 110, "up_path_down_shift": 92, "down_path_up_shift": 72},
        [
            (5, "up_path", 256,
             _digits("4188676728555488871532135248282773633465543383286154752772453445"
                     "7167454137262217283454248578375324387384538842862371133141547328"
                     "4523461563434117518584357388714145153842564243617336457642187785"
                     "6155187548432218623623456467517136271415548853425423767726333328"),
             _digits("6588676728576488878533376348888773634575548584887475857785454546"
                     "8268457438362778386656758588586736587484588846862372534486847328"
                     "4584673763445227638685367488725846854853866254658366457643288885"
                     "6266587548433578834738457677537866678566588863446483867756333528")),
            (6, "down_path", 127,
             _digits("2342431636343387444463537564312275122231626733434264161127847632"
                     "2515425443165123382211517187257751776835152415726421386431527244"
                     "4577855347111711461421226321443232122585855732433787111376154737"
                     "3336521716528574488475461135341753441851712233217424331432118842"),
             _digits("5342541646353388544474537574512478827331626733435284161127847633"
                     "2585425474765823382281517387257751777835152485787421686431527747"
                     "4587855347822718761431436335443333122585855734445787212376154737"
                     "4836528716828574488475475145451755542851725533217444431732268853")),
            (9, "up_path_down_shift", 63,
             _digits("2547437573641645147327527328621183833622635815642466823126155764"
                     "3336647222252722741611111378165371334441352135677283715432722273"
                     "2671687314421782432457413812243138118866441173466527847186851418"
                     "1634552283436684665183673517664253262412427535128671645438471853"),
             _digits("5547437573641645148428527328624183833632635825642766823126155764"
                     "3336647423552722781611111378165378334448466145677283715432722273"
                     "2678787315421782532457423812243138188868441173866527847186851518"
                     "1634552283436686665184673587664553672412427545128671645458482853")),
        ],
    ),
    (128, 5, "random_balanced", 2000, 4): (
        1466,
        {1: (511, 201), 2: (497, 377), 4: (515, 458), 8: (477, 430)},
        {"up_path": 639, "down_path": 401, "up_path_down_shift": 241, "down_path_up_shift": 185},
        [
            (0, "down_path", 4, (54, 22, 1, 13, 54), (54, 22, 1, 13, 55)),
            (2, "down_path_up_shift", 1, (5, 119, 22, 69, 87), (9, 119, 22, 69, 87)),
            (3, "up_path", 2, (71, 57, 10, 115, 30), (71, 57, 10, 115, 31)),
        ],
    ),
    (2**15, 3, "random_balanced", 2000, 9): (
        1384,
        {1: (671, 283), 2: (647, 504), 4: (682, 597)},
        {"up_path": 563, "down_path": 359, "up_path_down_shift": 277, "down_path_up_shift": 185},
        [
            (0, "up_path", 1, (27502, 5257, 1228), (27695, 5257, 1228)),
            (3, "up_path", 4, (22256, 24492, 12047), (22262, 24643, 12047)),
            (6, "up_path_down_shift", 2, (8504, 3274, 46), (8504, 3274, 125)),
        ],
    ),
}


@pytest.mark.parametrize("cell", list(TESTER_STREAM))
def test_reports_are_pinned_to_the_recorded_stream(cell):
    n, d, family, trials, seed = cell
    f = make_family(FamilySpec(family), GridShape(n, d))
    rep = run_tester(f, Config(shape=f.shape, trials=trials, seed=seed, batch_size=1024))
    assert (rep.rejections, rep.per_tau, rep.per_step, rep.witnesses[:3]) == TESTER_STREAM[cell]
    assert rep.total_queries == 16 * trials


def test_repeated_schedule_entry_sums_into_one_tau():
    # Recorded since every move at n <= 1024 reads one 16-bit word into the
    # alias bucket table. Both entries of 2 draw trials, and per_tau keeps
    # one key per distinct tau with their sum.
    f = anti_dictator(8, 8)
    rep = run_tester(f, Config(shape=f.shape, trials=3000, seed=7, tau_schedule=(1, 2, 2, 8),
                               batch_size=1024))
    assert rep.rejections == 1087
    assert rep.per_tau == {1: (717, 57), 2: (1533, 412), 8: (750, 618)}
    assert rep.per_step == {"up_path": 389, "down_path": 283, "up_path_down_shift": 246,
                            "down_path_up_shift": 169}
    assert rep.witnesses[:3] == [
        (5, "down_path", 8, (2, 1, 1, 6, 1, 3, 1, 5), (6, 8, 1, 8, 1, 3, 3, 5)),
        (7, "down_path", 8, (4, 5, 6, 2, 3, 4, 5, 1), (6, 5, 6, 6, 8, 5, 5, 1)),
        (9, "down_path", 2, (3, 2, 8, 3, 3, 8, 3, 8), (5, 2, 8, 3, 4, 8, 3, 8)),
    ]


def test_mismatched_shape_rejected():
    f = anti_dictator(4, 2)
    with pytest.raises(ConfigError):
        run_tester(f, Config(shape=GridShape(4, 3), trials=10))


# ---------------------------------------------------------------------------
# Full tester and fallback
# ---------------------------------------------------------------------------


def test_choose_subgrid_size():
    k, formula = tester.choose_subgrid_size(GridShape(16, 4), 0.5)
    assert k == 16  # the eighth-power formula dwarfs n; cap at n
    assert formula == (4 / 0.5) ** 8
    k, _ = tester.choose_subgrid_size(GridShape(1024, 1), 0.9)
    assert k & (k - 1) == 0


def test_full_tester_accepts_monotone():
    f = make_family(FamilySpec("dictator"), GridShape(16, 4))
    res = tester.run_full_tester(f, 0.5, seed=3, k=4)
    assert res.accepted and res.witness is None and not res.fallback
    # A forced k is used as given; the formula is still the helper's.
    assert (res.k, res.k_formula) == (4, tester.choose_subgrid_size(f.shape, 0.5)[1])
    # ceil(8/eps) rounds of ceil(32 eps^-2 sqrt(d)) trials.
    assert (res.outer_reps, res.inner_trials) == (16, 256)
    # The caller's oracle is charged every query, on either path.
    assert f.query_count == res.total_queries == 16 * 16 * 256
    g = make_family(FamilySpec("dictator"), GridShape(4, 4))
    res = tester.run_full_tester(g, 0.4, seed=3)
    assert res.accepted and res.fallback
    assert g.query_count == res.total_queries > 0


def test_full_tester_rejects_surface_with_mapped_witness():
    f = make_family(FamilySpec("surface", seed=7), GridShape(16, 4))
    res = tester.run_full_tester(f, 0.5, seed=3, k=8)
    assert not res.accepted and not res.fallback
    u, v = res.witness
    assert f.shape.contains(u) and f.shape.contains(v)
    assert all(a <= b for a, b in zip(u, v))
    assert f.peek(u) == 1 and f.peek(v) == 0
    assert res.total_queries > 0


def test_full_tester_reduction_is_the_same_on_two_threads(monkeypatch):
    # Batches of 64 run concurrently, three per round of 159 trials, on a
    # restriction (k < n) or on f itself (k = n).
    run_tester = tester.run_tester
    monkeypatch.setattr(tester, "run_tester",
                        lambda f, cfg: run_tester(f, dataclasses.replace(cfg, batch_size=64)))
    monotone = make_family(FamilySpec("majority_threshold"), GridShape(16, 16))
    for f, k in ((monotone, 8), (monotone, None), (anti_dictator(8, 16), 4),
                 (anti_dictator(8, 16), None)):
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HGM_THREADS", threads)
            worker = f.spawn_worker()
            res = tester.run_full_tester(worker, 0.9, seed=5, k=k)
            assert res.inner_trials == 159
            results.append((res, worker.query_count))
        assert results[0] == results[1]
        assert results[0][0].accepted == (f is monotone)
        if f is not monotone:
            u, v = results[0][0].witness
            assert all(a <= b for a, b in zip(u, v)) and f.peek(u) == 1 and f.peek(v) == 0
    assert monotone.query_count == 0


def test_full_tester_falls_back_below_sqrt_d_threshold():
    f = make_family(FamilySpec("dictator"), GridShape(4, 16))
    # Above the 1/sqrt(d) = 1/4 threshold: the subgrid route runs.
    res = tester.run_full_tester(f, 0.3, seed=0, k=2)
    assert not res.fallback and res.accepted
    # Below the threshold: the pair tester takes over.
    res = tester.run_full_tester(f, 0.05, seed=0)
    assert res.fallback and res.accepted


def test_full_tester_at_k_n_runs_on_f_itself(monkeypatch):
    # At k = n nothing is sampled and nothing restricted: every round runs
    # the trial driver on f, which charges f once.
    def refuse(*args, **kwargs):
        raise AssertionError("the k = n path sampled or restricted a subgrid")

    monkeypatch.setattr(tester, "sample_subgrid", refuse)
    monkeypatch.setattr(tester, "restrict_to_subgrid", refuse)
    monotone = make_family(FamilySpec("majority_threshold"), GridShape(8, 16))
    res = tester.run_full_tester(monotone, 0.9, seed=1)
    assert res.accepted and not res.fallback and res.k == 8
    assert (res.outer_reps, res.inner_trials) == (math.ceil(8 / 0.9), math.ceil(32 / 0.81 * 4))
    assert monotone.query_count == res.total_queries == 16 * res.outer_reps * res.inner_trials
    # f's shape may be a plain Box whose side is a power of two.
    box = ExplicitFunction(grid.Box(8, 2), np.zeros(64, np.uint8))
    assert tester.run_full_tester(box, 0.9, seed=1).accepted
    # A rejection in round 0 reports that round's first witness, as f's.
    f = anti_dictator(8, 16)
    res = tester.run_full_tester(f, 0.9, seed=2)
    assert not res.accepted and res.outer_reps == 1
    assert f.query_count == res.total_queries == 16 * res.inner_trials
    round_0 = Config(shape=f.shape, trials=res.inner_trials,
                     seed=int(substream(2, "inner", 0).integers(0, 2**63)))
    assert res.witness == run_tester(anti_dictator(8, 16), round_0).witnesses[0][3:]
    u, v = res.witness
    assert all(a <= b for a, b in zip(u, v)) and f.peek(u) == 1 and f.peek(v) == 0


def test_full_tester_runs_on_the_domain_of_f_side_and_dimension():
    # A domain is its (n, d): an oracle on a plain Box whose side is a power
    # of two runs the fallback, and the trial driver under a GridShape config.
    zeros = ExplicitFunction(grid.Box(2, 16), np.zeros(2**16, np.uint8))
    res = tester.run_full_tester(zeros, 0.1, seed=1)
    assert res.accepted and res.fallback and zeros.query_count == res.total_queries > 0
    assert run_tester(zeros, Config(shape=GridShape(2, 16), trials=200)).rejections == 0
    # Another side is a DomainError on either path, with no k given.
    six = ExplicitFunction(grid.Box(6, 2), np.zeros(36, np.uint8))
    for eps in (0.9, 0.3):
        with pytest.raises(DomainError, match="power of two"):
            tester.run_full_tester(six, eps)
    assert six.query_count == 0


# (family, n, d, eps, seed, k) -> (accepted, first 16 hex digits of the
# sha256 of repr(witness), total_queries). The forced k < n cells were
# recorded before the rounds at k = n ran on f itself and must not move;
# the k = n cells (k None) were recorded after.
REDUCTION_PINS = {
    ("majority_threshold", 16, 8, 0.9, 1, 4): (True, None, 16128),
    ("anti_dictator", 16, 8, 0.9, 2, 4): (False, "fd204a066bf1b728", 1792),
    ("surface", 8, 16, 0.5, 3, 2): (False, "ebb55a82dd052a07", 8192),
    ("majority_threshold", 8, 16, 0.9, 1, None): (True, None, 22896),
    ("anti_dictator", 8, 16, 0.9, 2, None): (False, "a9a5383a2a331742", 2544),
    ("surface", 16, 6, 0.5, 4, None): (False, "c4246d6059d795bc", 5024),
}


@pytest.mark.parametrize("cell", sorted(REDUCTION_PINS, key=repr))
def test_reduction_outputs_are_pinned(cell):
    name, n, d, eps, seed, k = cell
    f = make_family(FamilySpec(name), GridShape(n, d))
    res = tester.run_full_tester(f, eps, seed=seed, k=k)
    digest = None if res.witness is None else \
        hashlib.sha256(repr(res.witness).encode()).hexdigest()[:16]
    assert not res.fallback and res.k == (k or n)
    assert (res.accepted, digest, res.total_queries) == REDUCTION_PINS[cell]
    assert f.query_count == res.total_queries


def test_line_fallback_rejects_two_point_violation():
    f = ExplicitFunction(GridShape(2, 1), np.array([1, 0], np.uint8))
    res = tester.line_tester_fallback(f, 0.5, substream(0, "fb"))
    assert not res.accepted
    u, v = res.witness
    assert f.peek(u) == 1 and f.peek(v) == 0
    mono = make_family(FamilySpec("dictator"), GridShape(4, 4))
    assert tester.line_tester_fallback(mono, 0.3, substream(1, "fb")).accepted


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_line_fallback_witnesses_and_query_accounting(eps):
    for n, d, fam_seed in [(4, 3, 1), (8, 2, 2), (2, 5, 3), (4, 2, 4)]:
        shape = GridShape(n, d)
        num_pairs = math.ceil(8 * d * max(1, shape.log_n) / eps)
        for seed in range(3):
            f = ExplicitFunction(shape, random_bits(shape.num_points, fam_seed))
            res = tester.line_tester_fallback(f, eps, substream(seed, "fb-acct"))
            assert res.fallback
            assert f.query_count == res.total_queries
            assert res.total_queries % 2 == 0
            assert res.total_queries <= 2 * num_pairs
            if res.accepted:
                continue
            u, v = res.witness
            moved = [i for i in range(d) if u[i] != v[i]]
            assert len(moved) == 1 and u[moved[0]] < v[moved[0]]
            assert f.peek(u) == 1 and f.peek(v) == 0
    # A monotone input runs the whole pair budget: at n = 2 a pair is tested
    # exactly when its chosen coordinate sits at 1, about half of them.
    f = make_family(FamilySpec("dictator"), GridShape(2, 6))
    res = tester.line_tester_fallback(f, eps, substream(9, "fb-acct"))
    num_pairs = math.ceil(8 * 6 / eps)
    assert res.accepted
    assert f.query_count == res.total_queries
    assert abs(res.total_queries / 2 - num_pairs / 2) < 4 * math.sqrt(num_pairs / 4)


# (family, n, d, eps, seed) -> (accepted, first 16 hex digits of the sha256
# of repr(witness), total_queries), recorded before the fallback drew its
# coordinate and move itself rather than through a length-1
# sample_walk_batch. From d = 17 the draws are the same, so these cells
# (n = 2048 takes the kernel's three-draw path) must not move.
FALLBACK_PINS = {
    ("majority_threshold", 8, 64, 0.1, 0): (True, None, 15124),
    ("majority_threshold", 8, 64, 0.1, 1): (True, None, 15466),
    ("surface", 8, 32, 0.1, 0): (False, "57db96d7c3172b17", 992),
    ("surface", 8, 32, 0.1, 1): (False, "9ac996008124406d", 1070),
    ("anti_dictator", 8, 64, 0.1, 0): (False, "1c61f859a1f5cc94", 1008),
    ("anti_dictator", 8, 64, 0.1, 2): (False, "4fc6cb53e5b2fc63", 1048),
    ("surface", 2048, 20, 0.2, 0): (False, "45827247f51bc522", 1006),
    ("majority_threshold", 1024, 32, 0.15, 2): (True, None, 17036),
}


@pytest.mark.parametrize("cell", sorted(FALLBACK_PINS))
def test_fallback_outputs_are_pinned_from_d_17(cell):
    name, n, d, eps, seed = cell
    f = make_family(FamilySpec(name), GridShape(n, d))
    res = tester.run_full_tester(f, eps, seed=seed)
    digest = None if res.witness is None else \
        hashlib.sha256(repr(res.witness).encode()).hexdigest()[:16]
    assert res.fallback and (res.accepted, digest, res.total_queries) == FALLBACK_PINS[cell]
    assert f.query_count == res.total_queries
    num_pairs = math.ceil(8 * d * f.shape.log_n / eps)
    if res.accepted:
        assert res.pairs == num_pairs
    else:  # the early exit ends the draws with the witness's chunk
        assert res.pairs == num_pairs or res.pairs % tester.FALLBACK_CHUNK == 0
        assert res.total_queries <= 2 * res.pairs


@pytest.mark.parametrize("d", [4, 64])
def test_fallback_draws_no_walk_batch(d, monkeypatch):
    # The fallback draws its one coordinate per pair itself: no coordinate
    # mask and no walk batch, at d <= 16 (the mask table) or above.
    def refuse(*args, **kwargs):
        raise AssertionError("the fallback drew a walk batch")

    monkeypatch.setattr(walks, "select_coordinates", refuse)
    monkeypatch.setattr(walks, "sample_walk_batch", refuse)
    monotone = make_family(FamilySpec("majority_threshold"), GridShape(8, d))
    res = tester.line_tester_fallback(monotone, 0.1, substream(d, "fb-guard"))
    assert res.accepted and res.pairs == math.ceil(8 * d * 3 / 0.1)
    res = tester.line_tester_fallback(anti_dictator(8, d), 0.1, substream(d, "fb-guard"))
    assert not res.accepted


@pytest.mark.parametrize("d", [4, 64])
def test_batch_draws_through_the_walk_step_once(d, monkeypatch):
    # _run_batch walks its twelve stacked walks in one walks.walk_rows call
    # per batch, and draws coordinates and moves only inside it.
    monkeypatch.setenv("HGM_THREADS", "1")
    calls, inside = [], []
    walk_rows = walks.walk_rows

    def counted(*args):
        calls.append(len(args[1]))
        inside.append(True)
        try:
            walk_rows(*args)
        finally:
            inside.pop()

    def only_inside(name):
        draw = getattr(walks, name)

        def guarded(*args, **kwargs):
            assert inside, f"_run_batch called {name} outside the walk step"
            return draw(*args, **kwargs)

        monkeypatch.setattr(walks, name, guarded)

    monkeypatch.setattr(walks, "walk_rows", counted)
    only_inside("select_coordinates")
    only_inside("sample_line_kernel")
    f = anti_dictator(8, d)
    rep = run_tester(f, Config(shape=f.shape, trials=2500, seed=4, batch_size=1024))
    assert calls == [len(tester.WALKS) * N for N in (1024, 1024, 452)]
    assert rep.rejections > 0


def test_full_tester_rejects_bad_eps():
    f = make_family(FamilySpec("constant0"), GridShape(4, 2))
    with pytest.raises(ConfigError):
        tester.run_full_tester(f, 0.0)
    with pytest.raises(ConfigError):
        tester.run_full_tester(f, 0.9, k=3)
    with pytest.raises(ConfigError, match="exceeds side length"):
        tester.run_full_tester(anti_dictator(8, 4), 0.9, k=16)
    for eps in (0.0, float("nan")):
        with pytest.raises(ConfigError):
            tester.line_tester_fallback(f, eps, np.random.default_rng(0))
    # A k that is not an integer is a usage error, not a TypeError.
    for k in (4.0, "4"):
        with pytest.raises(ConfigError, match="integer"):
            tester.run_full_tester(anti_dictator(8, 4), 0.9, k=k)
    # Below 1/sqrt(d) the fallback runs, which reads no k.
    g = make_family(FamilySpec("dictator"), GridShape(4, 16))
    for k in (3, 2):
        with pytest.raises(ConfigError, match="reads no k"):
            tester.run_full_tester(g, 0.05, k=k)
    assert g.query_count == 0
