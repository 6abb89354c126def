"""Exact pair rejection probabilities by enumeration, the independent
cross-check of the tester's tensor contraction.

Each step is written out by hand from the tester's definition, one anchor at
a time over ``walks.exact_pmf``; nothing here reads ``tester.SUBTESTS`` or
the one-step matrices the contraction builds.
"""

import math
from functools import lru_cache
from typing import List

import numpy as np

from hgm import walks
from hgm.grid import FunctionOracle, GridShape
from hgm.tester import STEPS


@lru_cache(maxsize=None)
def _walk_pmf(shape: GridShape, anchor, direction: str, ell: int):
    """(endpoints, probabilities) of the walk from anchor, as arrays."""
    pmf = walks.exact_pmf(shape, anchor, walks.WalkSpec(direction, min(ell, shape.d), shape))
    return np.array(list(pmf.table), dtype=np.int64), np.array(list(pmf.table.values()))


def _shift_pmf(shape: GridShape, anchor, tau: int, direction: str):
    """(shift magnitudes, probabilities) at anchor, as arrays."""
    spmf = walks.exact_shift_pmf(shape, anchor, tau, direction)
    return np.array(list(spmf), dtype=np.int64), np.array(list(spmf.values()))


def subtest_probs(f: FunctionOracle, tau: int) -> List[float]:
    """Rejection probability of each of the eight sub-tests at walk length
    tau-1 and tau, in ``tester.PAIRS`` order. All sub-tests draw fresh
    randomness, so the trial's rejection probability is 1 - prod(1 - p_i).
    Reads f through uncharged peeks."""
    shape = f.shape
    table = np.zeros((shape.n + 1,) * shape.d, dtype=np.int8)
    for x in shape.points():
        table[x] = f.peek(x)

    def F(pts):
        return table[tuple(np.moveaxis(pts, -1, 0))]

    probs = []
    for step in STEPS:
        for ell in (tau - 1, tau):
            acc = []
            for anchor in shape.points():
                if step == "up_path":
                    Y, py = _walk_pmf(shape, anchor, "up", ell)
                    p = py[table[anchor] > F(Y)].sum()
                elif step == "down_path":
                    X, px = _walk_pmf(shape, anchor, "down", ell)
                    p = px[F(X) > table[anchor]].sum()
                elif step == "up_path_down_shift":
                    # Test (x - s, y - s) for x the anchor.
                    Y, py = _walk_pmf(shape, anchor, "up", ell)
                    S, ps = _shift_pmf(shape, anchor, tau - 1, "down")
                    u = np.array(anchor) - S
                    v = Y[:, None, :] - S[None, :, :]
                    p = py @ (F(u)[None, :] > F(v)) @ ps
                else:
                    # Test (x + s, y + s) for y the anchor.
                    X, px = _walk_pmf(shape, anchor, "down", ell)
                    S, ps = _shift_pmf(shape, anchor, tau - 1, "up")
                    u = X[:, None, :] + S[None, :, :]
                    v = np.array(anchor) + S
                    p = px @ (F(u) > F(v)[None, :]) @ ps
                acc.append(float(p))
            probs.append(math.fsum(acc) / shape.num_points)
    return probs
