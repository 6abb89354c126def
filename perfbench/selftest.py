#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Each check runs once on a correct output, where it must pass, and once on a
deliberately broken one, where it must fire: an oracle that flips one
output, a tampered witness or report, a wrong reference. This shows that
``error_rate == 0`` in a benchmark run is not vacuous. Run from the
repository root:

    python3 perfbench/selftest.py

Exits 0 when every check passes its correct input and fires on its broken
one, and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hgm import oracles, tester  # noqa: E402
from hgm.grid import ExplicitFunction, restrict_to_subgrid, sample_subgrid, tabulate  # noqa: E402

import checks  # noqa: E402
from run import REFERENCE  # noqa: E402
from workloads import family  # noqa: E402


def flip_one(f, point):
    """The oracle f with its output at one point flipped."""
    bits = tabulate(f).bits.copy()
    bits[f.shape.index_of(point)] ^= 1
    return ExplicitFunction(f.shape, bits, name=f"flip1({f.name})")


def run(f, trials=4096, seed=1, **kw):
    return tester.run_tester(f, tester.TesterConfig(shape=f.shape, trials=trials, seed=seed, **kw))


def cases(ref):
    """(check, broken input, problems on the correct output, problems on the broken one)."""
    anti = family("anti_dictator", 8, 16)
    good = run(anti, trials=2048)
    u, v = good.witnesses[0][3:]
    yield ("report", "total_queries off by one", checks.report_problems(good),
           checks.report_problems(dataclasses.replace(good, total_queries=good.total_queries + 1)))
    tau = next(iter(good.per_tau))
    per_tau = {**good.per_tau, tau: (good.per_tau[tau][0] + 1, good.per_tau[tau][1])}
    yield ("report", "per-tau trial count off by one", checks.report_problems(good),
           checks.report_problems(dataclasses.replace(good, per_tau=per_tau)))
    yield ("witness", "witness pair swapped", checks.witness_problems(anti, u, v),
           checks.witness_problems(anti, v, u))
    yield ("witness", "witness moved out of the grid", checks.witness_problems(anti, u, v),
           checks.witness_problems(anti, u, (0,) + tuple(v[1:])))
    stuck = tuple(u[:1]) + tuple(v[1:])  # same first coordinate, so f(u) = f(v)
    yield ("witness", "witness endpoint replaced", checks.witness_problems(anti, u, v),
           checks.witness_problems(anti, u, stuck))

    mono = family("dictator", 2, 2)
    flipped = flip_one(mono, (2, 2))
    yield ("one-sided", "monotone oracle with one output flipped",
           checks.monotone_problems(run(mono).rejections),
           checks.monotone_problems(run(flipped).rejections))
    rate_ref = ref["rates"]["anti_dictator/8/16"]
    yield ("reject rate", "oracle swapped for a monotone one", checks.rate_problems(good, rate_ref),
           checks.rate_problems(run(family("majority_threshold", 8, 16), trials=2048), rate_ref))

    full = tester.run_full_tester(mono, 0.4, seed=3)
    full_bad = tester.run_full_tester(flipped, 0.4, seed=3)
    yield ("full decision", "monotone oracle with one output flipped",
           checks.full_result_problems(mono, full, full.total_queries, True),
           checks.full_result_problems(flipped, full_bad, full_bad.total_queries, True))

    rb = family("random_balanced", 16, 4, 0)
    dist = oracles.distance_to_monotonicity(rb)
    rb_ref = Fraction(ref["distances"]["random_balanced/16/4/seed=0"])
    yield ("distance", "wrong reference distance", checks.distance_problems(dist, rb_ref),
           checks.distance_problems(dist, rb_ref + Fraction(1, rb.shape.num_points)))
    yield ("distance", "oracle with one output flipped", checks.distance_problems(dist, rb_ref),
           checks.distance_problems(oracles.distance_to_monotonicity(flip_one(rb, (1, 1, 1, 1))), rb_ref))
    yield ("repair", "one repair index dropped", checks.repair_problems(rb, dist),
           checks.repair_problems(rb, dataclasses.replace(dist, repair_indices=dist.repair_indices[:-1])))
    fT = restrict_to_subgrid(rb, sample_subgrid(rb.shape, 4, np.random.default_rng(5)))
    hk = oracles.distance_to_monotonicity(fT)
    flow = oracles.distance_to_monotonicity(fT, force_method="dag_flow")
    yield ("hopcroft_karp = dag_flow", "flow run on the oracle with one output flipped",
           checks.agreement_problems(hk, flow),
           checks.agreement_problems(
               hk, oracles.distance_to_monotonicity(flip_one(fT, (1, 1, 1, 1)), force_method="dag_flow")))

    small = family("surface", 4, 3, 0)
    cfg = tester.TesterConfig(shape=small.shape, trials=1)
    exact_ref = ref["exact"]["surface/4/3/0"]
    yield ("exact reject prob", "oracle with one output flipped",
           checks.exact_problems(tester.exact_reject_prob(small, cfg), exact_ref),
           checks.exact_problems(tester.exact_reject_prob(flip_one(small, (2, 2, 2)), cfg), exact_ref))
    yield ("thread determinism", "reports of two different seeds",
           checks.same_report_problems(good, run(anti, trials=2048)),
           checks.same_report_problems(good, run(anti, trials=2048, seed=2)))


def main() -> int:
    ref = json.loads(REFERENCE.read_text())
    good, broken = checks.Checker(), checks.Checker()
    ok = True
    for name, how, on_good, on_broken in cases(ref):
        passes, fires = good.record(name, on_good), not broken.record(name, on_broken)
        ok &= passes and fires
        print(f"{name:<26} {'passes' if passes else 'FAILS '} on correct output; "
              f"{'fires' if fires else 'DOES NOT FIRE'} on {how}")
        if fires:
            print(f"{'':<26} -> {on_broken[0]}")
    print(f"error_rate on correct outputs {good.error_rate:g}, on broken outputs {broken.error_rate:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
