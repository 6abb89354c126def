"""Ground-truth combinatorics: violation graphs, exact distance to
monotonicity, degree profiles, the Talagrand objective and influence.

Everything here is an exact *oracle*, independent of the sampling code it
validates; past its budget, each raises BudgetError.

The exact distance is one minimum cut (source -> 1-points -> 0-points ->
sink) over either of two graphs: the explicit comparable violations
("hopcroft_karp", for small boxes) or the covering DAG ("dag_flow", whose
paths reach every comparable pair). The two graphs cross-check each other,
and :func:`distance_bruteforce` checks both by up-set enumeration.

Influence reads the walk's move law, which requires power-of-two side
lengths and raises DomainError otherwise, but the purely order-theoretic
quantities (distance, matchings, Talagrand) are defined for any box [n]^d.
Every function here takes a FunctionOracle, whose shape may be any
:class:`~hgm.grid.Box`, so odd side lengths (used heavily in
cross-validation) are supported: a truth table on any box is an
:class:`~hgm.grid.ExplicitFunction`. Every value they read goes through the
oracle's checked ``peek_many``.

SciPy runs only in the minimum cut: ``scipy.sparse`` is imported inside
:func:`_min_cut_distance`, and the cut calls scipy's flow and search through
this module's :func:`maximum_flow` and :func:`breadth_first_order`, which
import ``scipy.sparse.csgraph`` on their first call. So importing this module
loads numpy only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from . import walks
from .errors import BudgetError, DomainError
from .grid import Box, FunctionOracle, tabulate


# ---------------------------------------------------------------------------
# Violation graphs
# ---------------------------------------------------------------------------

DEFAULT_GRAPH_BUDGET = 5 * 10**7


@dataclass
class ViolationGraph:
    """Bipartite graph of violated pairs (x, y): x <= y, f(x)=1, f(y)=0.

    edges is an (m, 3) int array of (x_index, y_index, dimension); dimension
    is -1 in full_comparable mode, otherwise the 1-based axis of the edge.
    """

    box: Box
    bits: np.ndarray
    edges: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def left(self) -> np.ndarray:
        return np.unique(self.edges[:, 0]) if self.m else np.empty(0, np.int64)

    @property
    def right(self) -> np.ndarray:
        return np.unique(self.edges[:, 1]) if self.m else np.empty(0, np.int64)

    def subgraph(self, which: np.ndarray) -> "ViolationGraph":
        return ViolationGraph(self.box, self.bits, self.edges[which])

    def check_edges(self) -> bool:
        """Every edge re-verifies as a violation against the truth table."""
        for xi, yi, dim in self.edges:
            x, y = self.box.point_of(int(xi)), self.box.point_of(int(yi))
            if not all(a <= b for a, b in zip(x, y)):
                return False
            if not (self.bits[xi] == 1 and self.bits[yi] == 0):
                return False
            if dim >= 0:
                diffs = [i for i in range(self.box.d) if x[i] != y[i]]
                if diffs != [int(dim) - 1]:
                    return False
        return True


def build_violation_graph(
    f: FunctionOracle, mode: str = "full_comparable", budget: int = DEFAULT_GRAPH_BUDGET
) -> ViolationGraph:
    """budget bounds the candidate pairs, checked before f is tabulated: at
    most N^2 / 4 comparable pairs (full_comparable) or N d (n - 1) / 2 axis
    pairs (augmented_axis) on N points."""
    box = f.shape
    N = box.num_points
    if mode == "augmented_axis":
        pairs = N * box.d * (box.n - 1) // 2
    elif mode == "full_comparable":
        pairs = N * N // 4
    else:
        raise DomainError(f"unknown violation graph mode {mode!r}")
    if pairs > budget:
        raise BudgetError(f"up to {pairs} candidate pairs on {box} exceed budget {budget}")
    bits = tabulate(f).bits
    if mode == "augmented_axis":
        return ViolationGraph(box, bits, _axis_violations(box, bits))
    return ViolationGraph(box, bits, _comparable_violations(box, bits))


def _axis_violations(box: Box, bits: np.ndarray) -> np.ndarray:
    idx = np.arange(box.num_points)
    pts = box.all_points_array()
    strides = box.strides
    rows = []
    for i in range(box.d):
        for delta in range(1, box.n):
            ok = pts[:, i] + delta <= box.n
            xs = idx[ok & (bits == 1)]
            ys = xs + delta * strides[i]
            bad = bits[ys] == 0
            if bad.any():
                xs = xs[bad]
                rows.append(
                    np.column_stack([xs, xs + delta * strides[i], np.full(len(xs), i + 1)])
                )
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(rows).astype(np.int64)


def _comparable_violations(box: Box, bits: np.ndarray) -> np.ndarray:
    idx = np.arange(box.num_points)
    ones = idx[bits == 1]
    zeros = idx[bits == 0]
    pts = box.all_points_array()
    P1, P0 = pts[ones], pts[zeros]
    rows = []
    for k, xi in enumerate(ones):
        below = (P1[k] <= P0).all(axis=1)
        ys = zeros[below]
        if len(ys):
            rows.append(np.column_stack([np.full(len(ys), xi), ys, np.full(len(ys), -1)]))
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(rows).astype(np.int64)


# ---------------------------------------------------------------------------
# Distance: one minimum cut over either violation-closing graph
# ---------------------------------------------------------------------------


@dataclass
class DistanceResult:
    distance: Fraction
    matching_size: int
    repair_indices: np.ndarray  # indices where the optimal repair differs
    method: str


def _upset_repair(box: Box, bits: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """Monotone repair from a vertex cover of the comparability violation
    graph: g = indicator of the up-closure of uncovered 1-points. g differs
    from f only on the cover."""
    seeds = bits.astype(bool)
    seeds[cover] = False
    shaped = seeds.reshape((box.n,) * box.d)
    for axis in range(box.d):
        shaped = np.maximum.accumulate(shaped, axis=axis)
    g = shaped.reshape(-1)
    return np.nonzero(g != bits.astype(bool))[0]


def _covering_edges(box: Box) -> np.ndarray:
    """(m, 2) edges x -> x + e_i of the covering DAG, by point index."""
    idx = np.arange(box.num_points)
    tails = [idx[idx // s % box.n < box.n - 1] for s in box.strides]
    return np.concatenate([np.column_stack([t, t + s]) for t, s in zip(tails, box.strides)])


def maximum_flow(csgraph, source: int, sink: int):
    """scipy.sparse.csgraph.maximum_flow, imported on the first call."""
    from scipy.sparse.csgraph import maximum_flow as flow

    return flow(csgraph, source, sink)


def breadth_first_order(csgraph, start: int, **kwargs):
    """scipy.sparse.csgraph.breadth_first_order, imported on the first call."""
    from scipy.sparse.csgraph import breadth_first_order as order

    return order(csgraph, start, **kwargs)


def _min_cut_distance(
    box: Box, bits: np.ndarray, edges: np.ndarray, method: str
) -> DistanceResult:
    """Maximum matching of the comparability violation graph as a minimum
    cut: source -> every 1-point (capacity 1), edges[:, 0] -> edges[:, 1]
    uncapped, every 0-point -> sink (capacity 1). Any edge set on which a
    1-point reaches a 0-point exactly when it lies below it gives the same
    cut. Koenig's minimum vertex cover is the unreached 1-points and the
    reached 0-points of the residual graph; the repair keeps the rest."""
    import scipy.sparse as sp

    N = box.num_points
    source, sink = N, N + 1
    ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
    # Built in one expression, with edges released before the flow, so no
    # coordinate array stays alive next to the flow's own graph copies.
    cap = sp.csr_matrix(
        (
            np.concatenate([
                np.ones(len(ones), np.int32),
                np.full(len(edges), N + 1, np.int32),
                np.ones(len(zeros), np.int32),
            ]),
            (
                np.concatenate([np.full(len(ones), source), edges[:, 0], zeros]),
                np.concatenate([ones, edges[:, 1], np.full(len(zeros), sink)]),
            ),
        ),
        shape=(N + 2, N + 2),
        dtype=np.int32,
    )
    del edges
    res = maximum_flow(cap, source, sink)
    residual = cap - res.flow
    residual.data = (residual.data > 0).astype(np.int32)
    residual.eliminate_zeros()
    reach = np.zeros(N + 2, dtype=bool)
    reach[breadth_first_order(residual, source, directed=True, return_predecessors=False)] = True
    cover = np.concatenate([ones[~reach[ones]], zeros[reach[zeros]]])
    size = int(res.flow_value)
    assert len(cover) == size, "cover size must equal the flow value"
    repair = _upset_repair(box, bits, cover)
    assert len(repair) == size, "repair size must equal the flow value"
    return DistanceResult(Fraction(size, N), size, repair, method)


def _distance_small(box: Box, bits: np.ndarray) -> DistanceResult:
    """The cut over the explicit comparable violations. It is a unit
    bipartite network, on which Dinic's algorithm is Hopcroft-Karp."""
    return _min_cut_distance(box, bits, _comparable_violations(box, bits), "hopcroft_karp")


def _distance_flow(box: Box, bits: np.ndarray) -> DistanceResult:
    """The cut over the covering DAG; avoids materializing the
    quadratically many comparable pairs."""
    return _min_cut_distance(box, bits, _covering_edges(box), "dag_flow")


def distance_to_monotonicity(
    f: FunctionOracle, budget: int = DEFAULT_GRAPH_BUDGET, force_method: Optional[str] = None
) -> DistanceResult:
    """Exact distance = (max matching of the comparability violation graph)/n^d,
    with one optimal repair set. budget bounds the candidate violating pairs,
    at most (n^d)^2 / 4 (hopcroft_karp), or the n^d (d + 1) covering-DAG edges
    (dag_flow); both bounds are checked before f is tabulated."""
    box = f.shape
    N = box.num_points
    method = force_method or ("hopcroft_karp" if N <= 512 else "dag_flow")
    if method not in ("hopcroft_karp", "dag_flow"):
        raise DomainError(f"unknown distance method {method!r}")
    if method == "hopcroft_karp" and N * N // 4 > budget:
        raise BudgetError(f"up to {N * N // 4} candidate pairs on {box} exceed budget {budget}")
    if method == "dag_flow" and N * (box.d + 1) > budget:
        raise BudgetError(f"covering DAG of {box} exceeds budget ({budget} edges)")
    bits = tabulate(f).bits
    if method == "hopcroft_karp":
        return _distance_small(box, bits)
    return _distance_flow(box, bits)


def distance_bruteforce(f: FunctionOracle) -> Fraction:
    """Minimum Hamming distance to a monotone function by enumerating every
    monotone function as the indicator of an up-set. Domains up to 12 points."""
    box, bits = f.shape, tabulate(f).bits
    N = box.num_points
    if N > 12:
        raise BudgetError(f"{N} points is beyond the 2^N up-set enumeration range")
    cover_edges = []
    for xi in range(N):
        x = box.point_of(xi)
        for i in range(box.d):
            if x[i] < box.n:
                cover_edges.append((xi, xi + int(box.strides[i])))
    fmask = 0
    for xi in range(N):
        if bits[xi]:
            fmask |= 1 << xi
    best = N
    for mask in range(1 << N):
        if any((mask >> a) & 1 and not (mask >> b) & 1 for a, b in cover_edges):
            continue
        best = min(best, bin(mask ^ fmask).count("1"))
    return Fraction(best, N)


# ---------------------------------------------------------------------------
# Degree profiles and the Talagrand objective
# ---------------------------------------------------------------------------


@dataclass
class DegreeProfile:
    D: Dict[int, int]
    Gamma: Dict[Tuple[int, int], int]  # (vertex index, 1-based dim) -> count
    Phi: Dict[int, int]
    D_X: int
    Gamma_X: int
    Phi_X: int
    D_Y: int
    Gamma_Y: int
    Phi_Y: int
    m: int
    frac_left: float
    frac_right: float


def degree_profile(G: ViolationGraph) -> DegreeProfile:
    if G.m and (G.edges[:, 2] < 0).any():
        raise DomainError("degree profile needs per-dimension edges (augmented mode)")
    D: Dict[int, int] = {}
    Gamma: Dict[Tuple[int, int], int] = {}
    for xi, yi, dim in G.edges:
        for z in (int(xi), int(yi)):
            D[z] = D.get(z, 0) + 1
            Gamma[(z, int(dim))] = Gamma.get((z, int(dim)), 0) + 1
    Phi: Dict[int, int] = {}
    for (z, _), cnt in Gamma.items():
        if cnt > 0:
            Phi[z] = Phi.get(z, 0) + 1
    left, right = set(int(v) for v in G.left), set(int(v) for v in G.right)

    def agg(side):
        if not side:
            return 0, 0, 0
        return (
            max(D.get(z, 0) for z in side),
            max(
                (cnt for (z, _), cnt in Gamma.items() if z in side),
                default=0,
            ),
            max(Phi.get(z, 0) for z in side),
        )

    D_X, Gamma_X, Phi_X = agg(left)
    D_Y, Gamma_Y, Phi_Y = agg(right)
    N = G.box.num_points
    return DegreeProfile(
        D, Gamma, Phi, D_X, Gamma_X, Phi_X, D_Y, Gamma_Y, Phi_Y, G.m,
        len(left) / N, len(right) / N,
    )


def colored_thresholded_degree(G: ViolationGraph, coloring: Optional[np.ndarray]):
    dims_at: Dict[int, set] = {}
    for k, (xi, yi, dim) in enumerate(G.edges):
        for z in (int(xi), int(yi)):
            if coloring is not None and int(coloring[k]) != int(G.bits[z]):
                continue
            dims_at.setdefault(z, set()).add(int(dim))
    phi = {z: len(ds) for z, ds in dims_at.items()}
    return phi, sum(phi.values())


TAL_EXACT_CAP = 22
TAL_CHUNK_BITS = 16  # colorings scored per numpy pass: 2^16


def talagrand_objective(G: ViolationGraph) -> float:
    """min over edge bicolorings of sum_z sqrt(colored thresholded degree),
    by brute force over all 2^m colorings; BudgetError above TAL_EXACT_CAP
    edges."""
    m = G.m
    if m > TAL_EXACT_CAP:
        raise BudgetError(f"{m} edges exceed the 2^m enumeration cap of {TAL_EXACT_CAP}")
    # Per (vertex, dim): bitmask of incident edges and which color counts there.
    masks = []  # (edge mask, required color bit)
    by_vertex: Dict[int, list] = {}
    vd: Dict[Tuple[int, int], int] = {}
    for k, (xi, yi, dim) in enumerate(G.edges):
        for z in (int(xi), int(yi)):
            key = (z, int(dim))
            if key not in vd:
                vd[key] = len(masks)
                masks.append([0, int(G.bits[z])])
                by_vertex.setdefault(z, []).append(vd[key])
            masks[vd[key]][0] |= 1 << k
    total = 1 << m
    best_val = math.inf
    chunk = 1 << min(TAL_CHUNK_BITS, m)
    sqrt_table = np.sqrt(np.arange(G.box.d + 1))
    for start in range(0, total, chunk):
        chis = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        obj = np.zeros(len(chis))
        for z, mask_ids in by_vertex.items():
            phi = np.zeros(len(chis), dtype=np.int64)
            for mid in mask_ids:
                emask, want = masks[mid]
                hit = (chis & np.uint64(emask)) != 0 if want == 1 else (
                    (chis & np.uint64(emask)) != np.uint64(emask)
                )
                phi += hit
            obj += sqrt_table[phi]
        best_val = min(best_val, float(obj.min()))
    return best_val


# ---------------------------------------------------------------------------
# Influence
# ---------------------------------------------------------------------------


@dataclass
class InfluenceResult:
    total: float
    negative: float


def influence_tilde(f: FunctionOracle) -> InfluenceResult:
    """Exact walk influences: total = E_x[d Pr_{y~1-step up}[f(x) != f(y)]],
    negative = same with f(x) > f(y). Needs an explicit truth table."""
    shape = f.shape
    n = shape.n
    bits = tabulate(f).bits.astype(np.float64).reshape((n,) * shape.d)
    moves = np.triu(walks.one_step(n, "up"), 1)  # off the diagonal: the moves
    total = negative = 0.0
    for axis in range(shape.d):
        lines = np.moveaxis(bits, axis, 0).reshape(n, -1)
        # down[u, v]: lines along the axis with f = 1 at u and f = 0 at v.
        down = lines @ (1.0 - lines).T
        negative += float((moves * down).sum())
        total += float((moves * (down + down.T)).sum())
    N = shape.num_points
    return InfluenceResult(total / N, negative / N)


def influence_via_hypercubes(
    f: FunctionOracle, budget: int = 10**7
) -> InfluenceResult:
    """Independent route to the same influences: average, over the product
    distribution of per-coordinate endpoint pairs, of the restricted cube
    influence (up-sensitive coordinates counted at the lower endpoint)."""
    shape = f.shape
    table = tabulate(f)
    bits = table.bits
    per_coord = walks.pair_distribution(shape.n)
    pairs = sorted(per_coord)
    if len(pairs) ** shape.d * (2**shape.d) * shape.d > budget:
        raise BudgetError("hypercube enumeration exceeds budget")
    total_acc, neg_acc = [], []
    for combo in itertools.product(pairs, repeat=shape.d):
        w = 1.0
        for p in combo:
            w *= per_coord[p]
        cube_T, cube_N = 0.0, 0.0
        for vertex in itertools.product(*[(a, b) for a, b in combo]):
            vi = shape.index_of(vertex)
            fv = int(bits[vi])
            for i, (a, b) in enumerate(combo):
                if vertex[i] != a:
                    continue
                up = vertex[:i] + (b,) + vertex[i + 1 :]
                fu = int(bits[shape.index_of(up)])
                if fu != fv:
                    cube_T += 1
                if fv > fu:
                    cube_N += 1
        scale = w / 2**shape.d
        total_acc.append(scale * cube_T)
        neg_acc.append(scale * cube_N)
    return InfluenceResult(math.fsum(total_acc), math.fsum(neg_acc))
