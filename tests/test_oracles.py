"""Exact combinatorial oracles: violation graphs, distance, Talagrand,
influence, persistence, and the threshold classifiers."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgm import oracles, walks
from hgm.errors import BudgetError, DomainError
from hgm.grid import ExplicitFunction, FamilySpec, FunctionOracle, GridShape, make_family
from hgm.oracles import Box, Trivalent
from hgm.rng import substream
from hgm.stats import Z_99, wilson_interval

from conftest import random_bits


def explicit(n, d, bits):
    return ExplicitFunction(GridShape(n, d), np.asarray(bits, dtype=np.uint8))


def box_fn(n, d, bits):
    return (Box(n, d), np.asarray(bits, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Violation graphs
# ---------------------------------------------------------------------------


def test_constant_functions_have_empty_graphs():
    for bits in ([0] * 9, [1] * 9):
        G = oracles.build_violation_graph(box_fn(3, 2, bits))
        assert G.m == 0
        assert oracles.degree_profile(
            oracles.build_violation_graph(box_fn(3, 2, bits), "augmented_axis")
        ).m == 0


def test_axis_edges_on_a_three_point_line():
    G = oracles.build_violation_graph(box_fn(3, 1, [1, 0, 0]), "augmented_axis")
    assert sorted(map(tuple, G.edges)) == [(0, 1, 1), (0, 2, 1)]
    assert G.check_edges()


def test_comparable_edges_anti_dictator_2x2():
    f = make_family(FamilySpec("anti_dictator"), GridShape(2, 2))
    G = oracles.build_violation_graph(f)
    # In (x1, x2) notation: (11,21), (11,22), (12,22).
    box = G.box
    expected = {
        (box.index_of((1, 1)), box.index_of((2, 1))),
        (box.index_of((1, 1)), box.index_of((2, 2))),
        (box.index_of((1, 2)), box.index_of((2, 2))),
    }
    assert {(int(x), int(y)) for x, y, _ in G.edges} == expected
    assert G.check_edges()


@given(st.integers(0, 2**9 - 1))
def test_graph_edges_reverify(mask):
    bits = [(mask >> i) & 1 for i in range(9)]
    for mode in ("augmented_axis", "full_comparable"):
        G = oracles.build_violation_graph(box_fn(3, 2, bits), mode)
        assert G.check_edges()


def test_graph_budget_enforced():
    shape = GridShape(4, 2)
    f = ExplicitFunction(shape, random_bits(16, 0))
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(f, "full_comparable", budget=3)


def test_dag_flow_budget_checked_before_tabulating():
    # 4^16 points: tabulating first would try to allocate 32 GiB.
    big = make_family(FamilySpec("dictator"), GridShape(4, 16))
    with pytest.raises(BudgetError):
        oracles.distance_to_monotonicity(big)
    f = ExplicitFunction(GridShape(4, 2), random_bits(16, 0))
    with pytest.raises(BudgetError):
        oracles.distance_to_monotonicity(f, budget=16 * 3 - 1, force_method="dag_flow")
    res = oracles.distance_to_monotonicity(f, budget=16 * 3, force_method="dag_flow")
    assert res.distance == oracles.distance_to_monotonicity(f).distance


def test_matching_budget_checked_before_tabulating(monkeypatch):
    tabulated = []
    real_tabulate = oracles.tabulate
    monkeypatch.setattr(oracles, "tabulate", lambda f: tabulated.append(f) or real_tabulate(f))
    big = make_family(FamilySpec("dictator"), GridShape(4, 8))
    with pytest.raises(BudgetError):
        oracles.distance_to_monotonicity(big, budget=10, force_method="hopcroft_karp")
    with pytest.raises(DomainError):
        oracles.distance_to_monotonicity(big, force_method="no_such_method")
    assert tabulated == []
    # The bound is the most candidate pairs N points can hold, N^2 / 4.
    f = explicit(2, 2, [1, 0, 1, 0])
    with pytest.raises(BudgetError):
        oracles.distance_to_monotonicity(f, budget=3, force_method="hopcroft_karp")
    res = oracles.distance_to_monotonicity(f, budget=4, force_method="hopcroft_karp")
    assert res.distance == Fraction(1, 2) and tabulated == [f]


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------


def test_distance_examples():
    assert oracles.distance_to_monotonicity(box_fn(3, 1, [1, 0, 0])).distance == Fraction(1, 3)
    assert oracles.distance_bruteforce(box_fn(3, 1, [1, 0, 0])) == Fraction(1, 3)
    for d in (2, 3):
        f = make_family(FamilySpec("anti_dictator"), GridShape(2, d))
        assert oracles.distance_to_monotonicity(f).distance == Fraction(1, 2)
    mono = make_family(FamilySpec("majority_threshold"), GridShape(4, 2))
    assert oracles.distance_to_monotonicity(mono).distance == 0


def test_distance_methods_agree_and_repairs_are_valid():
    # Random inputs on even and odd sides, small enough for the up-set
    # enumeration, and at 512 points, the largest auto-selected matching;
    # plus inputs with an empty matching and an empty cover.
    cases = [
        (box, random_bits(box.num_points, seed))
        for box, seeds in (
            (Box(4, 2), range(12)), (Box(3, 3), range(6)), (Box(5, 2), range(6)),
            (Box(3, 2), range(6)), (Box(2, 3), range(6)), (Box(12, 1), range(6)),
            (GridShape(8, 3), range(3)),
        )
        for seed in seeds
    ]
    for box in (Box(3, 2), Box(5, 2), GridShape(8, 3)):
        weight = box.all_points_array().sum(axis=1)
        # Constant 0, constant 1, and a monotone threshold.
        for bits in (weight < 0, weight > 0, weight > box.d * (box.n + 1) // 2):
            cases.append((box, bits.astype(np.uint8)))
    assert oracles.distance_to_monotonicity(cases[-1]).method == "hopcroft_karp"
    for box, bits in cases:
        small = oracles.distance_to_monotonicity((box, bits), force_method="hopcroft_karp")
        flow = oracles.distance_to_monotonicity((box, bits), force_method="dag_flow")
        assert small.distance == flow.distance
        if box.num_points <= 12:
            assert small.distance == oracles.distance_bruteforce((box, bits))
        for res in (small, flow):
            repaired = bits.copy()
            repaired[res.repair_indices] ^= 1
            assert oracles.bits_monotone(box, repaired)
            assert len(res.repair_indices) == res.matching_size
        if oracles.bits_monotone(box, bits):
            assert small.matching_size == flow.matching_size == 0


@given(st.integers(0, 2**9 - 1))
@settings(max_examples=40)
def test_distance_matches_upset_enumeration(mask):
    bits = [(mask >> i) & 1 for i in range(9)]
    f = box_fn(3, 2, bits)
    assert oracles.distance_to_monotonicity(f).distance == oracles.distance_bruteforce(f)


def test_bruteforce_domain_cap():
    with pytest.raises(BudgetError):
        oracles.distance_bruteforce(box_fn(4, 2, [0] * 16))


def test_monotone_iff_zero_distance_iff_no_negative_influence():
    shape = GridShape(2, 3)
    for mask in range(0, 256, 7):
        bits = np.array([(mask >> i) & 1 for i in range(8)], np.uint8)
        f = ExplicitFunction(shape, bits)
        dist = oracles.distance_to_monotonicity(f).distance
        G = oracles.build_violation_graph(f)
        neg = oracles.influence_tilde(f).negative
        mono = oracles.bits_monotone(Box(2, 3), bits)
        assert (dist == 0) == mono == (G.m == 0) == (neg < 1e-15)


# ---------------------------------------------------------------------------
# Degree profiles, Talagrand
# ---------------------------------------------------------------------------


def star_function():
    # 1 only at the bottom point of [2]^3: three violating axis edges in
    # three distinct dimensions all meet at the bottom.
    bits = np.zeros(8, np.uint8)
    bits[0] = 1
    return explicit(2, 3, bits)


def test_degree_profile_star():
    G = oracles.build_violation_graph(star_function(), "augmented_axis")
    prof = oracles.degree_profile(G)
    assert prof.m == 3
    assert prof.D_X == 3 and prof.Phi_X == 3 and prof.Gamma_X == 1
    assert prof.D_Y == 1 and prof.Phi_Y == 1
    assert prof.frac_left == 1 / 8 and prof.frac_right == 3 / 8


def test_degree_profile_single_edge():
    G = oracles.build_violation_graph(box_fn(2, 1, [1, 0]), "augmented_axis")
    prof = oracles.degree_profile(G)
    assert prof.m == 1
    assert prof.D_X == prof.Gamma_X == prof.Phi_X == 1
    assert prof.D_Y == prof.Gamma_Y == prof.Phi_Y == 1


def test_degree_profile_requires_axis_mode():
    f = make_family(FamilySpec("anti_dictator"), GridShape(2, 2))
    with pytest.raises(DomainError):
        oracles.degree_profile(oracles.build_violation_graph(f, "full_comparable"))


def test_degree_identities_on_random_functions():
    shape = GridShape(2, 4)
    for seed in range(10):
        f = ExplicitFunction(shape, random_bits(16, seed + 100))
        G = oracles.build_violation_graph(f, "augmented_axis")
        prof = oracles.degree_profile(G)
        for z, deg in prof.D.items():
            assert deg == sum(c for (v, _), c in prof.Gamma.items() if v == z)
            assert prof.Phi[z] == sum(
                1 for (v, _), c in prof.Gamma.items() if v == z and c > 0
            )
            assert prof.Phi[z] <= shape.d
        assert prof.D_X <= prof.Gamma_X * prof.Phi_X
        assert prof.D_Y <= prof.Gamma_Y * prof.Phi_Y


def test_thresholded_influence_and_colorings():
    mono = make_family(FamilySpec("dictator"), GridShape(2, 3))
    _, total = oracles.thresholded_influence(mono)
    assert total == 0
    phi, _ = oracles.thresholded_influence(box_fn(3, 1, [1, 0, 0]))
    assert phi[0] == 1
    # All-ones coloring zeroes the thresholded degree of every 0-point.
    f = ExplicitFunction(GridShape(2, 3), random_bits(8, 3))
    G = oracles.build_violation_graph(f, "augmented_axis")
    phi, _ = oracles.colored_thresholded_degree(G, np.ones(G.m, np.int8))
    for z in G.right:
        assert phi.get(int(z), 0) == 0


def test_talagrand_examples():
    empty = oracles.build_violation_graph(box_fn(2, 1, [0, 1]), "augmented_axis")
    assert oracles.talagrand_objective(empty).value == 0.0
    single = oracles.build_violation_graph(box_fn(2, 1, [1, 0]), "augmented_axis")
    res = oracles.talagrand_objective(single)
    assert res.exact and res.value == pytest.approx(1.0)
    star = oracles.build_violation_graph(star_function(), "augmented_axis")
    res = oracles.talagrand_objective(star)
    assert res.exact and res.value == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_talagrand_bounds_and_local_search_labeling():
    shape = GridShape(2, 4)
    f = ExplicitFunction(shape, random_bits(16, 9))
    G = oracles.build_violation_graph(f, "augmented_axis")
    assert 0 < G.m <= 22
    exact = oracles.talagrand_objective(G)
    assert exact.exact
    assert exact.value <= G.m + 1e-12  # objective never exceeds edge count
    approx = oracles.talagrand_objective(G, exact_cap=G.m - 1)
    assert not approx.exact and approx.method == "local_search"
    assert approx.value >= exact.value - 1e-12


def test_talagrand_subadditive_under_edge_partition():
    G = oracles.build_violation_graph(star_function(), "augmented_axis")
    total = oracles.talagrand_objective(G).value
    part = np.array([True, False, True])
    a = oracles.talagrand_objective(G.subgraph(part)).value
    b = oracles.talagrand_objective(G.subgraph(~part)).value
    assert a + b >= total - 1e-12


# ---------------------------------------------------------------------------
# Influence
# ---------------------------------------------------------------------------


def test_influence_single_line():
    res = oracles.influence_tilde(explicit(2, 1, [1, 0]))
    assert res.total == pytest.approx(0.5, abs=1e-15)
    assert res.negative == pytest.approx(0.5, abs=1e-15)
    const = oracles.influence_tilde(explicit(2, 1, [0, 0]))
    assert const.total == 0.0 and const.negative == 0.0


def test_influence_routes_agree():
    for n, d, seeds in ((4, 2, range(8)), (2, 3, range(8))):
        shape = GridShape(n, d)
        for seed in seeds:
            f = ExplicitFunction(shape, random_bits(shape.num_points, seed + 40))
            a = oracles.influence_tilde(f)
            b = oracles.influence_via_hypercubes(f)
            assert a.total == pytest.approx(b.total, abs=1e-12)
            assert a.negative == pytest.approx(b.negative, abs=1e-12)


def test_influence_mc_brackets_exact():
    shape = GridShape(4, 2)
    f = ExplicitFunction(shape, random_bits(16, 77))
    exact = oracles.influence_tilde(f)
    N, d = 600_000, shape.d
    mc = oracles.influence_mc(f, N, substream(4, "inf"))
    # influence_mc reports 95% intervals. The seed is fixed, so a ~2-sigma
    # fluctuation would fail forever; bracket with 99% intervals, as the
    # tester's rate tests do, over ten times the samples, which keeps them
    # narrower than the 95% intervals at 60k samples.
    for est, ci, ex in (
        (mc.total, mc.ci_total, exact.total),
        (mc.negative, mc.ci_negative, exact.negative),
    ):
        hits = round(est * N / d)
        assert ci == pytest.approx(tuple(d * v for v in wilson_interval(hits, N)))
        lo, hi = wilson_interval(hits, N, z=Z_99)
        assert d * lo <= ex <= d * hi


def test_hypercube_influence_budget():
    with pytest.raises(BudgetError):
        oracles.influence_via_hypercubes(
            make_family(FamilySpec("random_balanced"), GridShape(8, 3)), budget=10
        )


# ---------------------------------------------------------------------------
# Persistence and edge classifiers
# ---------------------------------------------------------------------------


def test_persistence_trivial_cases(rng):
    const = make_family(FamilySpec("constant1"), GridShape(4, 2))
    assert oracles.persistence_classify(const, 2, 0.0, (2, 2), "up") is Trivalent.YES
    f = ExplicitFunction(GridShape(4, 2), random_bits(16, 1))
    # The top point absorbs upward walks, so it is up-persistent at beta = 0.
    assert oracles.persistence_classify(f, 3, 0.0, (4, 4), "up") is Trivalent.YES
    verdict = oracles.persistence_classify(
        f, 1, 0.5, (1, 1), "up", mode="mc", samples=3000, rng=rng
    )
    assert verdict in (Trivalent.YES, Trivalent.NO, Trivalent.UNDECIDED)


def test_mzb_constants():
    shape = GridShape(2, 2)
    c0 = make_family(FamilySpec("constant0"), shape)
    c1 = make_family(FamilySpec("constant1"), shape)
    for z in shape.points():
        assert oracles.mzb_classify(c0, 1, z) is Trivalent.YES
        assert oracles.mzb_classify(c1, 1, z) is Trivalent.NO


def test_mzb_red_blue_on_the_two_point_line():
    f = explicit(2, 1, [1, 0])
    # Walk length 0: the down-walk stays put, so a point is mostly-zero-below
    # exactly when its own value is 0.
    assert oracles.mzb_classify(f, 0, (2,)) is Trivalent.YES
    assert oracles.mzb_classify(f, 0, (1,)) is Trivalent.NO
    edge = ((1,), (2,))
    assert oracles.red_classify(f, 0, edge) is Trivalent.YES
    assert oracles.blue_classify(f, 0, edge) is Trivalent.YES


def test_red_blue_mc_agrees_or_abstains(rng):
    f = explicit(2, 1, [1, 0])
    edge = ((1,), (2,))
    red = oracles.red_classify(f, 0, edge, mode="mc", samples=600, rng=rng)
    blue = oracles.blue_classify(f, 0, edge, mode="mc", samples=600, rng=rng)
    assert red in (Trivalent.YES, Trivalent.UNDECIDED)
    assert blue in (Trivalent.YES, Trivalent.UNDECIDED)


def test_mc_classifiers_match_exact_far_from_threshold():
    # Wherever the exact probability is far from the threshold, the MC verdict
    # is decided and equals the exact one. The cases include both verdicts in
    # each direction, so a walk drawn in the wrong direction fails here.
    shape = GridShape(4, 2)
    f = ExplicitFunction(shape, random_bits(16, 1))
    rng = substream(0, "mc-vs-exact")
    seen = set()

    def agree(name, exact, mc):
        assert mc is exact, name
        seen.add((name, exact))

    for x in shape.points():
        fx = f.peek(x)
        for direction in ("up", "down"):
            p = oracles._exact_walk_event_prob(
                f, x, 2, direction, lambda y: f.peek(y) != fx
            )
            for beta in (p - 0.15, p + 0.15):
                if 0 <= beta < 1:
                    agree(
                        f"persistence-{direction}",
                        oracles.persistence_classify(f, 2, beta, x, direction),
                        oracles.persistence_classify(
                            f, 2, beta, x, direction, mode="mc", samples=4000, rng=rng
                        ),
                    )
        if abs(oracles.mzb_prob(f, 2, x) - oracles.MZB_THRESHOLD) >= 0.05:
            agree(
                "mzb",
                oracles.mzb_classify(f, 2, x),
                oracles.mzb_classify(f, 2, x, mode="mc", rng=rng),
            )
        for i in range(shape.d):
            for v in range(x[i] + 1, shape.n + 1):
                edge = (x, x[:i] + (v,) + x[i + 1 :])
                interior = oracles._interval_points(shape, edge)
                p = math.fsum(
                    oracles._exact_walk_event_prob(f, z, 2, "down", lambda y: f.peek(y) == 1)
                    for z in interior
                ) / len(interior)
                if p == 0 or p >= 0.05:
                    agree(
                        "blue",
                        oracles.blue_classify(f, 2, edge),
                        oracles.blue_classify(f, 2, edge, mode="mc", rng=rng),
                    )
    names = ("persistence-up", "persistence-down", "mzb", "blue")
    assert seen == {(name, v) for name in names for v in (Trivalent.YES, Trivalent.NO)}


@pytest.mark.parametrize("mode, has_rng", [("exct", True), ("Exact", True), ("MC", True), ("mc", False)])
def test_classifiers_reject_an_unknown_mode_and_mc_without_rng(mode, has_rng):
    # An unknown mode once ran Monte Carlo, and "mc" without an rng died
    # inside the sampler with an AttributeError.
    f = ExplicitFunction(GridShape(4, 2), random_bits(16, 1))
    rng = substream(0, "mode") if has_rng else None
    edge = ((1, 1), (2, 1))
    for call in (
        lambda: oracles.persistence_classify(f, 1, 0.1, (2, 2), "up", mode=mode, samples=50, rng=rng),
        lambda: oracles.mzb_classify(f, 1, (2, 2), mode=mode, samples=50, rng=rng),
        lambda: oracles.red_classify(f, 1, edge, mode=mode, samples=50, rng=rng),
        lambda: oracles.blue_classify(f, 1, edge, mode=mode, samples=50, rng=rng),
    ):
        with pytest.raises(DomainError):
            call()


def test_mc_persistence_rejects_a_bad_direction(rng):
    # Exact mode always raised here; MC mode walked down and answered NO.
    f = ExplicitFunction(GridShape(4, 2), random_bits(16, 1))
    with pytest.raises(DomainError):
        oracles.persistence_classify(f, 1, 0.1, (2, 2), "Up", mode="mc", samples=50, rng=rng)


_EDGE = ((1, 1), (2, 1))


@pytest.mark.parametrize(
    "read",
    [
        lambda f, rng: oracles.persistence_classify(f, 1, 0.1, (2, 2), "up"),
        lambda f, rng: oracles.persistence_classify(
            f, 1, 0.1, (1, 1), "up", mode="mc", samples=50, rng=rng
        ),
        lambda f, rng: oracles.mzb_classify(f, 1, (2, 2)),
        lambda f, rng: oracles.mzb_classify(f, 1, (2, 2), mode="mc", samples=50, rng=rng),
        lambda f, rng: oracles.red_classify(f, 1, _EDGE),
        lambda f, rng: oracles.blue_classify(f, 1, _EDGE),
        lambda f, rng: oracles.blue_classify(f, 1, _EDGE, mode="mc", samples=50, rng=rng),
        lambda f, rng: oracles.distance_to_monotonicity(f),
        lambda f, rng: oracles.distance_to_monotonicity(f, force_method="dag_flow"),
        lambda f, rng: oracles.distance_bruteforce(f),
        lambda f, rng: oracles.build_violation_graph(f, "augmented_axis"),
    ],
    ids=[
        "persistence", "persistence-mc", "mzb", "mzb-mc", "red", "blue", "blue-mc",
        "distance", "distance-flow", "bruteforce", "violation-graph",
    ],
)
@pytest.mark.parametrize("batched", [True, False])
def test_exact_and_mc_oracles_reject_values_outside_0_1(read, batched, rng):
    # The tester is one-sided only for {0, 1}-valued functions, so every
    # oracle read, charged or not, must refuse any other value.
    bad = FunctionOracle(
        GridShape(2, 2), lambda x: 2,
        fn_many=(lambda p: np.full(len(p), 2)) if batched else None, name="bad",
    )
    with pytest.raises(DomainError):
        read(bad, rng)


def test_truth_table_pairs_reject_values_outside_0_1():
    with pytest.raises(DomainError):
        oracles.distance_to_monotonicity(box_fn(2, 2, [0, 1, 2, 1]))


def test_interval_points_validation():
    shape = GridShape(4, 2)
    f = make_family(FamilySpec("constant0"), shape)
    with pytest.raises(DomainError):
        oracles.red_classify(f, 1, ((1, 1), (2, 2)))  # not axis-aligned
    with pytest.raises(DomainError):
        oracles.red_classify(f, 1, ((3, 1), (1, 1)))  # downward


def test_typical_points_bound_n4_d8():
    # Exhaustive scan: the fraction of points whose conditioned-cube weight
    # lands in the c = 7 band with probability >= 1 - (eps/d)^5 should beat
    # the 1 - (eps/d)^(c-5) tail bound.
    shape = GridShape(4, 8)
    c, eps = 7.0, 0.5
    lam = {u: walks.lazy_up_prob(4, u) for u in range(1, 5)}
    band = [
        w for w in range(shape.d + 1) if walks.weight_in_band(w, shape.d, c, eps)
    ]
    threshold = 1.0 - (eps / shape.d) ** 5
    cache = {}
    typical = 0
    pts = shape.all_points_array()
    counts = np.stack([(pts == u).sum(axis=1) for u in range(1, 5)], axis=1)
    for row in counts:
        key = tuple(int(v) for v in row)
        if key not in cache:
            dist = np.array([1.0])
            for u, cnt in zip(range(1, 5), key):
                for _ in range(cnt):
                    dist = np.convolve(dist, [1.0 - lam[u], lam[u]])
            cache[key] = math.fsum(float(dist[w]) for w in band) >= threshold
        typical += cache[key]
    frac = typical / shape.num_points
    assert frac >= 1.0 - (eps / shape.d) ** (c - 5)


def test_is_typical_exact_matches_direct_computation():
    shape = GridShape(4, 8)
    for x in [(2,) * 8, (1,) * 8, (1, 4, 2, 3, 1, 4, 2, 3)]:
        p = walks.typical_probability_exact(shape, x, 7.0, 0.5)
        assert oracles.is_typical_exact(shape, x, 7.0, 0.5) == (
            p >= 1.0 - (0.5 / 8) ** 5
        )
