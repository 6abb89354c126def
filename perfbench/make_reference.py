#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: the reference values the
benchmark's output checks compare against.

  * reject rates of every non-monotone tester cell, from REF_TRIALS trials;
  * exact distances (as fractions) of every distance instance;
  * exact_reject_prob of every instance in the exact pool.

Values come from the current ``hgm`` sources. Run from the repository root:

    python3 perfbench/make_reference.py

It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("HGM_THREADS", "2")  # reports do not depend on it

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hgm  # noqa: E402
from hgm import oracles, tester  # noqa: E402

import workloads as W  # noqa: E402

REF_TRIALS = 2**18
OUT = Path(__file__).resolve().parent / "reference.json"


def rate_cells():
    cells = set()
    for w in W.WORKLOADS.values():
        if isinstance(w, W.TesterWorkload):
            cells.update(w.cells)
    return sorted(c for c in cells if c[0] not in W.MONOTONE)


def main() -> int:
    rates = {}
    for fam, n, d in rate_cells():
        params = W.FAMILY_SEEDS if fam in W.HASHED else (None,)
        for param in params:
            key = W.instance_key(fam, n, d, param)
            f = W.family(fam, n, d, param)
            seed = len(rates) + 1
            rep = tester.run_tester(f, tester.TesterConfig(shape=f.shape, trials=REF_TRIALS, seed=seed))
            rates[key] = {"rate": rep.reject_rate, "trials": REF_TRIALS, "seed": seed}
            print(key, rep.reject_rate, flush=True)
    distances = {}
    for fam, n, d in W.OracleExact.DISTANCE_CELLS:
        key = W.instance_key(fam, n, d, 0)
        res = oracles.distance_to_monotonicity(W.family(fam, n, d, 0))
        distances[key] = str(res.distance)
        print(key, res.distance, flush=True)
    exact = {}
    for fam, n, d, param in W.OracleExact.EXACT_POOL:
        f = W.family(fam, n, d, param)
        exact[W.exact_key(fam, n, d, param)] = tester.exact_reject_prob(
            f, tester.TesterConfig(shape=f.shape, trials=1)
        )
    out = {
        "generated_with": {
            "hgm": hgm.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "rates": rates,
        "distances": distances,
        "exact": exact,
    }
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
