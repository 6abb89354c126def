"""Exact combinatorial oracles: violation graphs, distance, Talagrand and
influence."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgm import oracles, stats, tester
from hgm.errors import BudgetError, DomainError
from hgm.grid import (
    Box, ExplicitFunction, FamilySpec, FunctionOracle, GridShape, bits_monotone, make_family,
)
from hgm.tester import exact_reject_prob_junta

from conftest import random_bits


def explicit(n, d, bits):
    return ExplicitFunction(GridShape(n, d), np.asarray(bits, dtype=np.uint8))


def box_fn(n, d, bits):
    return ExplicitFunction(Box(n, d), bits)


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
    # Each bad edge fails the re-check: on [3]^2 with f = 1 only at (1, 1)
    # and (1, 3), an incomparable pair, a pair that is not 1 -> 0, and an
    # axis pair labelled with the wrong axis.
    bits = np.array([1, 0, 0, 0, 0, 0, 1, 0, 0], np.uint8)
    for edge in ((6, 1, -1), (1, 4, -1), (0, 1, 2)):
        assert not oracles.ViolationGraph(Box(3, 2), bits, np.array([edge])).check_edges()


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


def test_graph_budget_enforced(monkeypatch):
    shape = GridShape(4, 2)
    f = ExplicitFunction(shape, random_bits(16, 0))
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(f, "full_comparable", budget=3)
    tabulated = []
    real_tabulate = oracles.tabulate
    monkeypatch.setattr(oracles, "tabulate", lambda f: tabulated.append(f) or real_tabulate(f))
    # Both modes refuse from the bound alone, before f is read: N^2 / 4
    # comparable pairs, N d (n - 1) / 2 axis pairs.
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(box_fn(2, 5, random_bits(32, 1)), budget=1)
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(
            box_fn(2, 5, random_bits(32, 1)), "augmented_axis", budget=1
        )
    big = make_family(FamilySpec("dictator"), GridShape(8, 8))
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(big, "augmented_axis", budget=10)
    with pytest.raises(DomainError):
        oracles.build_violation_graph(big, "no_such_mode")
    assert tabulated == []
    G = oracles.build_violation_graph(f, "augmented_axis", budget=16 * 2 * 3 // 2)
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(f, "augmented_axis", budget=16 * 2 * 3 // 2 - 1)
    assert G.m > 0 and tabulated == [f]
    # The comparable bound is N^2 / 4 whatever f is: 4 pairs on 4 points.
    sparse = box_fn(2, 2, [1, 0, 0, 0])
    with pytest.raises(BudgetError):
        oracles.build_violation_graph(sparse, budget=3)
    assert oracles.build_violation_graph(sparse, budget=4).m == 3


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


# Run in a new interpreter: the modules it imports, then a distance and a
# chi-square p-value, printing which scipy modules each step loaded.
_LAZY_SCIPY = """
import json, sys
import hgm, hgm.cli, hgm.oracles, hgm.validate, hgm.stats
from hgm.grid import FamilySpec, GridShape, make_family

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = {"imports": loaded()}
f = make_family(FamilySpec("surface", seed=3), GridShape(4, 3))
res = hgm.oracles.distance_to_monotonicity(f)
out["distance"] = [str(res.distance), res.matching_size, res.repair_indices.tolist()]
out["after_distance"] = loaded()
out["chi_square"] = hgm.stats.chi_square_gof([40, 60], [0.5, 0.5], 100)
out["after_chi_square"] = loaded()
print(json.dumps(out))
"""


def test_scipy_loads_only_on_a_distance_or_a_p_value():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["imports"] == []
    assert "scipy.sparse" in out["after_distance"]
    assert "scipy.stats" not in out["after_distance"]
    assert "scipy.stats" in out["after_chi_square"]
    # The same values as in this process.
    res = oracles.distance_to_monotonicity(make_family(FamilySpec("surface", seed=3),
                                                       GridShape(4, 3)))
    assert out["distance"] == [str(res.distance), res.matching_size, res.repair_indices.tolist()]
    assert res.matching_size > 0
    assert out["chi_square"] == list(stats.chi_square_gof([40, 60], [0.5, 0.5], 100))


@pytest.mark.parametrize("method", ["hopcroft_karp", "dag_flow"])
def test_the_cut_calls_scipy_through_the_module_once_each(monkeypatch, method):
    # The traced benchmark wraps oracles.maximum_flow and
    # oracles.breadth_first_order by name, so the cut must look them up there.
    calls = {"maximum_flow": 0, "breadth_first_order": 0}
    for name in calls:
        def counting(*args, _real=getattr(oracles, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(oracles, name, counting)
    f = make_family(FamilySpec("random_balanced", seed=2), GridShape(4, 3))
    for i in range(1, 4):
        res = oracles.distance_to_monotonicity(f, force_method=method)
        assert res.method == method and res.matching_size > 0
        assert calls == {"maximum_flow": i, "breadth_first_order": i}


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
        ExplicitFunction(box, random_bits(box.num_points, seed))
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
            cases.append(ExplicitFunction(box, bits))
    assert oracles.distance_to_monotonicity(cases[-1]).method == "hopcroft_karp"
    for f in cases:
        box, bits = f.shape, f.bits
        small = oracles.distance_to_monotonicity(f, force_method="hopcroft_karp")
        flow = oracles.distance_to_monotonicity(f, force_method="dag_flow")
        assert small.distance == flow.distance
        if box.num_points <= 12:
            assert small.distance == oracles.distance_bruteforce(f)
        for res in (small, flow):
            repaired = bits.copy()
            repaired[res.repair_indices] ^= 1
            assert bits_monotone(box, repaired)
            assert len(res.repair_indices) == res.matching_size
        if bits_monotone(box, bits):
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
        mono = bits_monotone(Box(2, 3), bits)
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
    def influence(f):
        G = oracles.build_violation_graph(f, "augmented_axis")
        return oracles.colored_thresholded_degree(G, None)

    _, total = influence(make_family(FamilySpec("dictator"), GridShape(2, 3)))
    assert total == 0
    phi, _ = influence(box_fn(3, 1, [1, 0, 0]))
    assert phi[0] == 1
    # All-ones coloring zeroes the thresholded degree of every 0-point.
    f = ExplicitFunction(GridShape(2, 3), random_bits(8, 3))
    G = oracles.build_violation_graph(f, "augmented_axis")
    phi, _ = oracles.colored_thresholded_degree(G, np.ones(G.m, np.int8))
    for z in G.right:
        assert phi.get(int(z), 0) == 0


def test_talagrand_examples():
    empty = oracles.build_violation_graph(box_fn(2, 1, [0, 1]), "augmented_axis")
    assert oracles.talagrand_objective(empty) == 0.0
    single = oracles.build_violation_graph(box_fn(2, 1, [1, 0]), "augmented_axis")
    assert oracles.talagrand_objective(single) == pytest.approx(1.0)
    star = oracles.build_violation_graph(star_function(), "augmented_axis")
    assert oracles.talagrand_objective(star) == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_talagrand_bounds_and_budget():
    shape = GridShape(2, 4)
    f = ExplicitFunction(shape, random_bits(16, 9))
    G = oracles.build_violation_graph(f, "augmented_axis")
    assert 0 < G.m <= oracles.TAL_EXACT_CAP
    value = oracles.talagrand_objective(G)
    assert 0 < value <= G.m + 1e-12  # objective never exceeds edge count
    big = oracles.build_violation_graph(
        ExplicitFunction(GridShape(2, 5), random_bits(32, 1)), "augmented_axis"
    )
    assert big.m > oracles.TAL_EXACT_CAP
    with pytest.raises(BudgetError):
        oracles.talagrand_objective(big)


def test_talagrand_brute_force_matches_colored_degree_enumeration():
    """Reference: the minimum over every edge coloring, each scored through
    colored_thresholded_degree."""
    rng = np.random.default_rng(30)
    checked = 0
    for n, d in ((2, 3), (2, 4), (3, 2), (4, 2), (2, 5)):
        for _ in range(5):
            bits = rng.integers(0, 2, n**d).astype(np.uint8)
            G = oracles.build_violation_graph(box_fn(n, d, bits), "augmented_axis")
            if G.m > 10:
                keep = np.zeros(G.m, bool)
                keep[rng.choice(G.m, size=int(rng.integers(1, 11)), replace=False)] = True
                G = G.subgraph(keep)
            best = math.inf
            for code in range(1 << G.m):
                chi = (code >> np.arange(G.m)) & 1
                phi, _ = oracles.colored_thresholded_degree(G, chi)
                best = min(best, math.fsum(math.sqrt(v) for v in phi.values()))
            assert oracles.talagrand_objective(G) == pytest.approx(best, abs=1e-12)
            checked += G.m > 0
    assert checked >= 20


def test_talagrand_subadditive_under_edge_partition():
    G = oracles.build_violation_graph(star_function(), "augmented_axis")
    total = oracles.talagrand_objective(G)
    part = np.array([True, False, True])
    a = oracles.talagrand_objective(G.subgraph(part))
    b = oracles.talagrand_objective(G.subgraph(~part))
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


def test_hypercube_influence_budget():
    with pytest.raises(BudgetError):
        oracles.influence_via_hypercubes(
            make_family(FamilySpec("random_balanced"), GridShape(8, 3)), budget=10
        )


@pytest.mark.parametrize("n", [3, 6, 12])
def test_walk_oracles_refuse_a_side_length_that_is_not_a_power_of_two(n):
    # These once answered on a non-dyadic box, where the walk is undefined.
    f = FunctionOracle(Box(n, 2), lambda p: p[:, 0] > p[:, 1], name="box")
    for call in (
        lambda: oracles.influence_tilde(f),
        lambda: exact_reject_prob_junta(f, 2, (1, 2)),
    ):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize(
    "read",
    [
        lambda f: oracles.influence_tilde(f),
        lambda f: oracles.influence_via_hypercubes(f),
        lambda f: tester.exact_reject_prob(f, tester.TesterConfig(f.shape, trials=1)),
        lambda f: oracles.distance_to_monotonicity(f),
        lambda f: oracles.distance_to_monotonicity(f, force_method="dag_flow"),
        lambda f: oracles.distance_bruteforce(f),
        lambda f: oracles.build_violation_graph(f, "augmented_axis"),
    ],
    ids=[
        "influence", "influence-hypercubes", "reject-prob",
        "distance", "distance-flow", "bruteforce", "violation-graph",
    ],
)
def test_exact_oracles_reject_values_outside_0_1(read):
    # The tester is one-sided only for {0, 1}-valued functions, so every
    # oracle read, charged or not, must refuse any other value.
    bad = FunctionOracle(GridShape(2, 2), lambda p: np.full(len(p), 2), name="bad")
    with pytest.raises(DomainError):
        read(bad)


@pytest.mark.parametrize(
    "bits", [[0, 1, 2, 1], [256, 0, 1, 0], [1, 0, -255, 0]], ids=["2", "256", "-255"]
)
def test_truth_tables_reject_values_outside_0_1(bits):
    # 256 and -255 are 0 and 1 once cast to uint8: a table checked after the
    # cast read them as a function at distance 1/4 and 1/2.
    with pytest.raises(DomainError):
        oracles.distance_to_monotonicity(box_fn(2, 2, bits))
    with pytest.raises(DomainError):
        oracles.distance_bruteforce(box_fn(2, 2, bits))

