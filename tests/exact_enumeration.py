"""Brute-force references by enumeration, independent of what they check.

``line_kernel_enumerated`` counts windows for ``walks.line_kernel``, and
``cube_walk_prob_enumerated`` counts coordinate subsets for
``walks.cube_walk_closed_form``. ``subtest_probs`` gives the exact pair
rejection probabilities, the cross-check of the tester's tensor contraction:
each step is written out by hand from the tester's definition, one anchor at
a time over ``walks.exact_pmf``; nothing here reads ``tester.SUBTESTS`` or
the one-step matrices the contraction builds.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import List

import numpy as np

from hgm import walks
from hgm.errors import DomainError
from hgm.grid import FunctionOracle, GridShape
from hgm.tester import STEPS


@lru_cache(maxsize=None)
def line_kernel_enumerated(n: int) -> np.ndarray:
    """Same kernel as ``walks.line_kernel`` but by brute window enumeration."""
    q_max = n.bit_length() - 1
    K = np.zeros((n + 1, n + 1))
    for u in range(1, n + 1):
        for q in range(1, q_max + 1):
            size = 2**q
            covering = [w for w in walks._windows(n, size) if (u - 1) in w]
            for w in covering:
                for c0 in w:
                    if c0 == u - 1:
                        continue
                    K[u, c0 + 1] += 1.0 / q_max / len(covering) / (size - 1)
    return K


def cube_walk_prob_enumerated(
    d: int, weight_x: int, t: int, ell: int, direction: str
) -> Fraction:
    """Independent oracle for ``walks.cube_walk_closed_form``: enumerate all
    size-ell coordinate subsets and count the ones landing on the target."""
    if not (0 <= t <= ell <= d) or not 0 <= weight_x <= d:
        raise DomainError("inconsistent parameters")
    # Fix the vertex with its first weight_x coordinates at the top endpoint;
    # the target differs in the first t movable coordinates.
    movable = set(range(weight_x, d)) if direction == "up" else set(range(weight_x))
    if t > len(movable):
        raise DomainError("target not reachable")
    target_flips = set(sorted(movable)[:t])
    hits = sum(
        1
        for R in itertools.combinations(range(d), ell)
        if set(R) & movable == target_flips
    )
    return Fraction(hits, math.comb(d, ell))


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
