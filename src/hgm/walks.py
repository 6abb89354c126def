"""Directed lazy random walks on [n]^d, shift distributions, and exact pmfs.

The walk picks a uniform subset of min(tau, d) coordinates; each chosen
coordinate draws a dyadic interval of Z_n (wrap-around) containing the
current value, then a uniform element of that interval distinct from the
current value, and moves only if the draw lies strictly in the walk
direction (plain integer comparison after unwrapping).

Every sampler draws a batch: one row per walk, shift or sub-hypercube
(``sample_walk_batch``, ``sample_hypercube_batch``,
``sample_hypercube_at_batch``, ``sample_hypercube_walk_batch``). Every walk,
the tester's batch too, takes one in-place step, ``walk_rows``. The exact
pmfs are its independent reference. ``contract_axes`` is the product pass
over the axes that the exact rejection probability runs. The walk is
defined only when n is a power of two; the move law and the cube pair laws
raise DomainError otherwise.

One per-coordinate move law: a selected coordinate's draw depends on its
value u only through a shift, the gap G = (c - u) mod n, whose law is kept
once as exact integer masses over the common denominator
den = log n * lcm_q 2^q (2^q - 1). The float ``gap_law``, the circulant
``line_kernel``, the alias table and the up/down matrices of ``one_step``
all derive from it. ``_split_by_direction``, through which ``one_step``
and the cube formulations' pair kernels pass, is the only place that splits
a kernel into moves and lazy mass. ``sample_line_kernel``, which the walk
step and the conditioned-cube sampler share, draws G
from the alias table (Vose's method) with one uint16 word per move for
every n <= 1024. The word is the top 16 bits, the bucket, of a uniform
32-bit word z whose top log n bits pick a column i and whose other bits v
accept i against a threshold, exactly: v below floor(thr[i] 2^b / den)
accepts, v above it takes the alias, and the tie accepts with the
remainder's probability. A cached table of the 2^16 buckets
(``_gap_buckets``) gives the gap of every bucket that the threshold does
not cut; the at most n buckets it cuts read -1, and only their moves draw
z's low 16 bits (and, on the tie, one exact draw from [0, den)). For
n >= 2048, n * den no longer fits in 63 bits, and each move draws
(q, window offset, element) as three exact integer draws instead. The move
kernel returns its values in the caller's integer dtype whenever that
dtype holds 2n - 1, so a batch drawn narrow stays narrow.

Three equivalent formulations of the same endpoint distribution are
implemented via genuinely different enumerations of the per-coordinate
kernel, so their pointwise agreement is a meaningful cross-check
(``formulation_step`` gives each one's one-step matrix):

  * ``direct``     -- the circulant of the gap masses from interval counts
  * ``cube_first`` -- sub-hypercube drawn unconditionally, anchor uniform in it
  * ``cube_at_x``  -- sub-hypercube drawn conditioned to contain the anchor

Known wrinkle: counting intervals as (start, size) windows, an interval of
size n contains every value, so the count of windows covering two values at
circular gap g is max(0, L-g) + max(0, L-(n-g)) -- NOT L - g in general.
Getting this wrong halves the n=2 move probability, which unit tests pin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import BudgetError, DomainError
from .grid import GridShape, KeptBuffer, Point, point_dtype

DEFAULT_PMF_BUDGET = 10**8


def _check_direction(direction: str) -> None:
    if direction not in ("up", "down"):
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")


@dataclass(frozen=True)
class WalkSpec:
    """Direction and length of a lazy directed walk on a grid."""

    direction: str  # "up" or "down"
    length: int
    shape: GridShape

    def __post_init__(self):
        _check_direction(self.direction)
        if self.length < 0:
            raise DomainError("walk length must be non-negative")

    @property
    def effective_coords(self) -> int:
        # The walk picks a size-tau coordinate subset; tau may exceed d when
        # drawn from the tester's power-of-two schedule, so cap at d.
        return min(self.length, self.shape.d)


# ---------------------------------------------------------------------------
# Per-coordinate kernels
# ---------------------------------------------------------------------------


def _windows(n: int, size: int):
    """All (start, size) wrap-around windows of Z_n as 0-based value sets."""
    for s in range(n):
        yield [(s + k) % n for k in range(size)]


def _count_windows_covering(n: int, size: int, gap: int) -> int:
    """Number of (start, size) windows of Z_n containing two values at circular
    offset gap (0 < gap < n). Both wrap directions can contribute."""
    return max(0, size - gap) + max(0, size - (n - gap))


def _check_dyadic(n: int) -> None:
    # The walk's intervals are the dyadic windows of Z_n, so it is defined
    # only when n is a power of two.
    if n < 2 or n & (n - 1):
        raise DomainError(f"the walk needs a side length that is a power of two >= 2, got {n}")


def _gap_denominator(n: int) -> int:
    """den = log n * lcm_q 2^q (2^q - 1), the common denominator of the gap law."""
    _check_dyadic(n)
    q_max = n.bit_length() - 1
    return q_max * math.lcm(*(2**q * (2**q - 1) for q in range(1, q_max + 1)))


@lru_cache(maxsize=None)
def _gap_masses(n: int) -> tuple:
    """Exact integers w, Pr[G = g] = w[g] / den, of the gap law
    Pr[G = g] = (1/log n) sum_q cnt_q(g) / (2^q (2^q - 1)), cnt_q being
    :func:`_count_windows_covering`; G = 0 has mass 0."""
    den, q_max = _gap_denominator(n), n.bit_length() - 1
    sizes = [(s, den // (q_max * s * (s - 1))) for s in (2**q for q in range(1, q_max + 1))]
    return (0,) + tuple(
        sum(_count_windows_covering(n, s, g) * w for s, w in sizes) for g in range(1, n)
    )


@lru_cache(maxsize=None)
def gap_law(n: int) -> np.ndarray:
    """Pr[G = g] for g in range(n), each exact mass correctly rounded."""
    den = _gap_denominator(n)
    p = np.array([w / den for w in _gap_masses(n)])
    p.flags.writeable = False
    return p


@lru_cache(maxsize=None)
def line_kernel(n: int) -> np.ndarray:
    """K[u, v] = Pr[c = v] for a selected coordinate at value u (1-based):
    the circulant K[u, v] = gap_law(n)[(v - u) mod n]. K[u, u] = 0 and each
    row sums to 1."""
    i = np.arange(n)
    K = np.zeros((n + 1, n + 1))
    K[1:, 1:] = gap_law(n)[(i[None, :] - i[:, None]) % n]
    K.flags.writeable = False
    return K


def _split_by_direction(K: np.ndarray, direction: str) -> np.ndarray:
    """The one-step matrix of a 0-based kernel K with K[u, u] = 0: the draws
    in the walk direction are moves, and the rest is lazy mass on the
    diagonal. The one place where a kernel is split by direction."""
    ahead, behind = np.triu(K, 1), np.tril(K, -1)
    if direction == "down":
        ahead, behind = behind, ahead
    P = ahead + np.diag(behind.sum(axis=1))
    P.flags.writeable = False
    return P


@lru_cache(maxsize=None)
def one_step(n: int, direction: str) -> np.ndarray:
    """P[u, v] = Pr[a selected coordinate at u ends at v] under a walk in
    direction, 0-based: :func:`line_kernel` with the lazy mass on the
    diagonal. Rows sum to 1."""
    _check_direction(direction)
    return _split_by_direction(line_kernel(n)[1:, 1:], direction)


@lru_cache(maxsize=None)
def gap_alias_table(n: int):
    """Exact integer alias table for the gap law of :func:`_gap_masses`, or
    None when n * den >= 2^63 (n >= 2048).

    Returns (den, thr, alias): G = i with probability
    (thr[i] + sum over j with alias[j] = i of (den - thr[j])) / (n * den).
    Built in Python integers by Vose's method.
    """
    den = _gap_denominator(n)
    if n * den >= 2**63:
        return None
    # Column capacity is den; gap g carries n * w[g], summing to n * den.
    mass = [n * w for w in _gap_masses(n)]
    thr, alias = [den] * n, list(range(n))
    small = [g for g in range(n) if mass[g] < den]
    large = [g for g in range(n) if mass[g] >= den]
    while small and large:
        lo, hi = small.pop(), large.pop()
        thr[lo], alias[lo] = mass[lo], hi
        mass[hi] -= den - mass[lo]
        (small if mass[hi] < den else large).append(hi)
    thr, alias = np.array(thr, dtype=np.int64), np.array(alias, dtype=np.int64)
    thr.flags.writeable = alias.flags.writeable = False
    return den, thr, alias


@lru_cache(maxsize=None)
def _gap_buckets(n: int):
    """(table, T, R): the alias decision of :func:`gap_alias_table` read
    from a uniform 32-bit word z, or None when there is no alias table
    (n >= 2048). All three are read-only.

    The top log n bits of z are the column i and its low b = 32 - log n
    bits are v. z gives i when v < T[i] = floor(thr[i] 2^b / den) and
    alias[i] when v > T[i]; the tie v = T[i] gives i with probability
    R[i] / den, R[i] = thr[i] 2^b mod den. So i is accepted with
    probability (T[i] + R[i] / den) / 2^b = thr[i] / den, exactly.

    table has one entry per bucket, the words with the same top 16 bits:
    the gap when every v in the bucket lies below or above T[i], else -1.
    Only the bucket holding T[i] is split, so at most n of the 2^16
    entries are -1. int8 up to n = 128, int16 above.
    """
    alias_table = gap_alias_table(n)
    if alias_table is None:
        return None
    den, thr, alias = alias_table
    b = 32 - (n.bit_length() - 1)
    T, R = (np.array(a, dtype=np.int64) for a in zip(*(divmod(int(t) << b, den) for t in thr)))
    bucket = np.arange(1 << 16)
    i = bucket >> (b - 16)
    low = (bucket & ((1 << (b - 16)) - 1)) << 16  # the bucket's smallest v
    table = np.where(low + (1 << 16) <= T[i], i, np.where(low > T[i], alias[i], -1))
    table = table.astype(np.int8 if n <= 128 else np.int16)
    for a in (table, T, R):
        a.flags.writeable = False
    return table, T, R


def _split_gaps(n: int, bucket: np.ndarray, rng) -> np.ndarray:
    """The gaps of words whose top 16 bits are split buckets of
    :func:`_gap_buckets`: one more uint16 word per entry gives v's low 16
    bits, and each tie v = T[i] draws once from [0, den)."""
    den, _, alias = gap_alias_table(n)
    _, T, R = _gap_buckets(n)
    shift = 17 - n.bit_length()  # 16 - log n
    i = bucket >> shift
    v = (bucket & ((1 << shift) - 1)).astype(np.int64) << 16
    v |= _uniform_words(rng, bucket.shape, np.uint16)
    t = T[i]
    accept = v < t
    tie = np.flatnonzero(v == t)
    if tie.size:
        accept[tie] = rng.integers(0, den, size=tie.size) < R[i[tie]]
    return np.where(accept, i, alias[i])


@lru_cache(maxsize=None)
def pair_distribution(n: int) -> Dict[tuple, float]:
    """Per-coordinate law of (a_i, b_i) for the unconditional hypercube draw."""
    _check_dyadic(n)
    q_max = n.bit_length() - 1
    dist: Dict[tuple, float] = {}
    for q in range(1, q_max + 1):
        size = 2**q
        pair_count = size * (size - 1) // 2
        for w in _windows(n, size):
            for a0, b0 in itertools.combinations(sorted(w), 2):
                key = (a0 + 1, b0 + 1)
                dist[key] = dist.get(key, 0.0) + 1.0 / q_max / n / pair_count
    return dist


@lru_cache(maxsize=None)
def pair_distribution_at(n: int, u: int) -> Dict[tuple, float]:
    """Per-coordinate law of (a_i, b_i) for the draw conditioned on containing u."""
    _check_dyadic(n)
    q_max = n.bit_length() - 1
    dist: Dict[tuple, float] = {}
    for q in range(1, q_max + 1):
        size = 2**q
        covering = [w for w in _windows(n, size) if (u - 1) in w]
        for w in covering:
            for c0 in w:
                if c0 == u - 1:
                    continue
                c = c0 + 1
                key = (min(u, c), max(u, c))
                dist[key] = dist.get(key, 0.0) + 1.0 / q_max / len(covering) / (size - 1)
    return dist


# ---------------------------------------------------------------------------
# Samplers: batches of walks, shifts and sub-hypercubes
# ---------------------------------------------------------------------------


# Moves per chunk of the move kernel's arithmetic, so that its temporaries
# stay in cache.
MOVE_CHUNK = 1 << 14


def sample_line_kernel(n: int, u: np.ndarray, rng) -> np.ndarray:
    """c ~ line_kernel(n)[u, :] for every entry of u (values in 1..n).

    The move kernel every walk sampler shares. Up to n = 1024 every entry
    draws one uint16 word and reads its gap from the bucket table of
    :func:`_gap_buckets`, the exact alias decision of
    :func:`gap_alias_table`; the entries whose bucket reads -1 (at most
    n / 2^16 of the words) then draw together in :func:`_split_gaps`. For
    n >= 2048 each entry makes three exact integer draws (q, window offset,
    element), chunk by chunk. The draws do not depend on u's values or
    dtype, so neither does the random stream. c has u's integer dtype when
    that dtype holds 2n - 1 (int8 up to n = 64), else int64. A walk moves
    up to max(c, u) or down to min(c, u).
    """
    u = np.asarray(u)
    flat_u = u.reshape(-1)
    # c is computed as u + gap - 1 (mod n) + 1, and u + gap reaches 2n - 1.
    narrow = u.dtype.kind in "iu" and np.iinfo(u.dtype).max >= 2 * n - 1
    c = np.empty(flat_u.size, dtype=u.dtype if narrow else np.int64)
    buckets = _gap_buckets(n)
    split, split_words = [], []
    log_n = n.bit_length() - 1
    for start in range(0, flat_u.size, MOVE_CHUNK):
        v = flat_u[start : start + MOVE_CHUNK]
        if buckets is None:
            q = rng.integers(1, log_n + 1, size=v.size)
            size = np.int64(1) << q
            # size divides n, so the low bits of a uniform draw from [0, n)
            # are uniform on [0, size); a scalar bound is faster than an
            # array bound.
            offset = rng.integers(0, n, size=v.size) & (size - 1)
            j = rng.integers(0, size - 1)
            j += j >= offset
            gap = j - offset
        else:
            # A 16-bit word per move; MOVE_CHUNK is a multiple of 4, so the
            # chunks draw the same stream as one draw of every word. A
            # split bucket's -1 is mended after the loop.
            words = _uniform_words(rng, (v.size,), np.uint16)
            gap = np.take(buckets[0], words)
            if gap.min() < 0:
                cut = np.flatnonzero(gap < 0)
                split.append(cut + start)
                split_words.append(words[cut])
        out = c[start : start + MOVE_CHUNK]
        # An int64 gap is cast down: v + gap <= 2n - 1 fits c's dtype.
        np.add(v, gap, out=out, casting="unsafe")
        out -= 1
        out &= n - 1
        out += 1
    if split:
        # The split buckets (at most n of the 2^16) draw once for the call
        # rather than once per chunk, after every word.
        at = np.concatenate(split)
        gap = _split_gaps(n, np.concatenate(split_words), rng)
        c[at] = (flat_u[at] + gap - 1) % n + 1
    return c.reshape(u.shape)


def _uniform_words(rng, shape, dtype) -> np.ndarray:
    """Integers uniform over the whole range of an integer dtype of at most
    64 bits, in the given shape: full-range uint64 words viewed as dtype.

    The words are the bit generator's raw output, which for PCG64 (every
    substream's) is the same stream as ``rng.integers(0, 2**64,
    dtype=np.uint64)`` without that call's fixed cost of a few
    microseconds. MT19937's raw words are 32 bits wide, so it goes through
    ``integers``."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    count = -(-size * dtype.itemsize // 8)
    bitgen = rng.bit_generator
    if isinstance(bitgen, np.random.MT19937):
        words = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    else:
        words = bitgen.random_raw(count)
    return words.view(dtype)[:size].reshape(shape)


def sample_points_batch(shape: GridShape, count: int, rng) -> np.ndarray:
    """(count, d) uniform points, in the narrowest signed integer dtype that
    holds n: int8 up to n = 64, then int16, int32, int64.

    n is a power of two, so it divides 2^bits, and the low bits of a
    full-range word are uniform on [0, n): an exact draw that is cheaper than
    a bounded one.
    """
    n = shape.n
    x = _uniform_words(rng, (count, shape.d), point_dtype(n))
    x &= n - 1
    x += 1
    return x


def _floyd_subsets(d: int, k: int, count: int, rng) -> np.ndarray:
    """(count, k) array whose rows are uniform size-k subsets of range(d).

    Floyd's algorithm: step j adds a uniform draw from [0, j], or j itself
    when the draw is already taken. O(k^2) work per row.
    """
    cols = np.empty((count, k), dtype=np.int64)
    for i, j in enumerate(range(d - k, d)):
        t = rng.integers(0, j + 1, size=count)
        taken = (cols[:, :i] == t[:, None]).any(axis=1)
        cols[:, i] = np.where(taken, j, t)
    return cols


# Largest d whose threshold keys are 16 bits wide: a row's k-th and
# (k+1)-th smallest keys tie, and the row is redrawn, with probability below
# d / 2^16 (0.15% at d = 256, 0.8% here); a wider d draws 32-bit keys.
KEY16_MAX_D = 1 << 10


def _key_thresholds(keys: np.ndarray, k: np.ndarray):
    """Each row's k-th smallest key, and whether the (k+1)-th ties with it."""
    ranked = np.sort(keys, axis=1)
    rows = np.arange(k.size)
    low = ranked[rows, k - 1]
    return low, low == ranked[rows, k]


# Bytes of threshold keys per chunk of the key pass, so that its keys, their
# sorted copy and their mask stay small next to the batch.
KEY_CHUNK_BYTES = 1 << 18


def _key_subsets(d: int, k: np.ndarray, rng, selected: np.ndarray, rows: np.ndarray) -> None:
    """Set row rows[i] of the bool array selected to a uniform subset of
    k[i] of range(d), 0 < k[i] < d: the k[i] smallest of d i.i.d. integer
    keys.

    The keys' law is exchangeable and so is the event that the k-th and
    (k+1)-th smallest keys differ, so given that event the k smallest are a
    uniform k-subset. A row where they tie is redrawn whole, independently.
    The rows draw and sort in chunks of about KEY_CHUNK_BYTES of keys, each
    a whole number of 64-bit words (a multiple of 4 rows), so the chunks
    draw the same stream as one draw of every row; the tied rows of every
    chunk then redraw together, as they would after one draw.
    """
    dtype = np.dtype(np.uint16 if d <= KEY16_MAX_D else np.uint32)
    step = max(4, KEY_CHUNK_BYTES // (d * dtype.itemsize) // 4 * 4)
    tied_rows = [np.empty(0, dtype=np.intp)]
    for start in range(0, k.size, step):
        part = k[start : start + step]
        keys = _uniform_words(rng, (part.size, d), dtype)
        low, tied = _key_thresholds(keys, part)
        selected[rows[start : start + step]] = keys <= low[:, None]
        tied_rows.append(np.flatnonzero(tied) + start)
    redo = np.concatenate(tied_rows)
    if not redo.size:
        return
    part = k[redo]
    keys = np.empty((redo.size, d), dtype)
    low = np.empty(redo.size, dtype)
    tied = np.ones(redo.size, dtype=bool)
    while tied.any():
        again = np.flatnonzero(tied)
        keys[again] = _uniform_words(rng, (again.size, d), dtype)
        low[again], tied[again] = _key_thresholds(keys[again], part[again])
    selected[rows[redo]] = keys <= low[:, None]


def _floyd_max(d: int) -> int:
    """Above TABLE_MAX_D, the largest size of a subset (or complement) that
    Floyd's algorithm draws; every other row takes the key pass.

    Floyd's cost per row grows with k, the key pass's with d. On groups of
    1,000 rows (2-vCPU x86 VM with AVX-512, median of 9), Floyd at k = 8,
    32 and 64 took 0.25, 1.7 and 4.4 ms at any d, and the key pass 0.12,
    0.36 and 3.3 ms at d = 64, 256 and 1024 (16-bit keys) and 7.7 ms at
    d = 2048 (32-bit keys). 4 + d // 32 tracks where they cross.
    """
    return 4 + d // 32


# Largest d whose coordinate subsets are read from a table of all 2^d masks
# (65,536 bool rows of 16 bytes, 1 MiB, at d = 16).
TABLE_MAX_D = 16


@lru_cache(maxsize=None)
def _subset_table(d: int):
    """(rows, start, count, limit) for d <= TABLE_MAX_D, read-only.

    rows is the (2^d, d) bool array of every mask of range(d), stably sorted
    by popcount from the mask with code 0, so the masks of size k are the
    count[k] = C(d, k) rows from start[k]. limit[k] = floor(2^32 / C(d, k))
    C(d, k) is the end of the range of 32-bit words whose remainder mod
    C(d, k) is uniform.
    """
    # Sorting the codes before unpacking them keeps the 1 MiB table at
    # d = 16 the largest array built.
    codes = np.arange(1 << d, dtype="<u4")
    codes = codes[np.argsort(sum((codes >> i) & 1 for i in range(d)), kind="stable")]
    rows = np.unpackbits(codes.view(np.uint8).reshape(-1, 4), axis=1, count=d,
                         bitorder="little").view(bool)
    count = np.array([math.comb(d, k) for k in range(d + 1)], dtype=np.uint32)
    start = np.cumsum(count, dtype=np.uint32) - count
    limit = (2**32 // count.astype(np.uint64)) * count
    for a in (rows, start, count, limit):
        a.flags.writeable = False
    return rows, start, count, limit


def _table_subsets(d: int, m: np.ndarray, rng, out: np.ndarray) -> np.ndarray:
    """Fill the (R, d) bool mask out so that row i is a uniform subset of
    m[i] of range(d), for d <= TABLE_MAX_D: one 32-bit word per row, redrawn
    while it lies at or above limit[m[i]], then reduced mod C(d, m[i]) into
    the row's size block of :func:`_subset_table`."""
    rows, start, count, limit = _subset_table(d)
    w = _uniform_words(rng, (m.size,), np.uint32)
    redo = np.flatnonzero(w >= limit[m])
    while redo.size:
        w[redo] = _uniform_words(rng, (redo.size,), np.uint32)
        redo = redo[w[redo] >= limit[m[redo]]]
    w %= count[m]
    w += start[m]
    # np.take gathers whole rows far faster than rows[w] does; every w is in
    # range, and mode="clip" writes into out without a buffer.
    return np.take(rows, w, axis=0, out=out, mode="clip")


def select_coordinates(
    d: int, lengths: np.ndarray, rng, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(N, d) boolean mask whose row i is a uniform subset of exactly
    min(lengths[i], d) coordinates, drawn in one of three regimes.

    Table (d <= TABLE_MAX_D): every row indexes the block of its size in the
    table of all 2^d masks with one exact bounded draw
    (:func:`_table_subsets`). Floyd (d > TABLE_MAX_D): a subset, or the
    complement of one, of at most :func:`_floyd_max` (4 + d // 32)
    coordinates is drawn by Floyd's algorithm, one group per size in
    ascending order, and a full-size group draws nothing. Keys: every other
    row is drawn in one pass after them, d integer keys per row thresholded
    at its k-th smallest (:func:`_key_subsets`). Raises DomainError unless
    every length is a non-negative integer.

    out, if given, is a C-contiguous (N, d) boolean array that every regime
    overwrites whole and returns, in place of a new array.
    """
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu":
        raise DomainError(f"walk lengths must be integers, got dtype {lengths.dtype}")
    if (lengths < 0).any():
        raise DomainError(f"walk lengths must be non-negative, got {lengths.min()}")
    # Clip before widening, so a uint64 length >= 2^63 cannot wrap negative;
    # a bound past the dtype's range (d >= 128 for int8) clips nothing.
    m = np.minimum(lengths, min(d, np.iinfo(lengths.dtype).max)).astype(np.int64)
    selected = np.empty((m.size, d), dtype=bool) if out is None else out
    if d <= TABLE_MAX_D:
        return _table_subsets(d, m, rng, selected)
    selected.fill(False)
    floyd_max = _floyd_max(d)
    by_keys = np.minimum(m, d - m) > floyd_max
    flat = selected.reshape(-1)
    # The sizes present, ascending, so the stream is deterministic.
    for k in np.flatnonzero(np.bincount(m[(m > 0) & ~by_keys])):
        k = int(k)
        rows = np.flatnonzero(m == k)
        if k == d:
            selected[rows] = True
        elif k <= floyd_max:
            flat[(rows * d)[:, None] + _floyd_subsets(d, k, rows.size, rng)] = True
        else:
            selected[rows] = True
            flat[(rows * d)[:, None] + _floyd_subsets(d, d - k, rows.size, rng)] = False
    rows = np.flatnonzero(by_keys)
    if rows.size:
        _key_subsets(d, m[rows], rng, selected, rows)
    return selected


# Each thread's kept index and values of a large walk's selected entries.
_SELECTED = KeptBuffer()
# A mask of more than WHOLE_INDEX_MAX entries (the tester's 12 N d at (8, 256)
# and 1,024 trials) is indexed INDEX_CHUNK entries per np.flatnonzero call.
WHOLE_INDEX_MAX = 1 << 20
INDEX_CHUNK = 1 << 16


def _flatnonzero_into(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask), written into the intp array out, which holds
    exactly the mask's count of True entries. Chunk by chunk, so that no
    index of the whole mask is allocated."""
    flat, pos = mask.reshape(-1), 0
    for start in range(0, flat.size, INDEX_CHUNK):
        part = np.flatnonzero(flat[start : start + INDEX_CHUNK])
        np.add(part, start, out=out[pos : pos + part.size])
        pos += part.size
    assert pos == out.size, (pos, out.size)
    return out


def walk_rows(
    n: int, X: np.ndarray, lengths: np.ndarray, up_rows: int, rng, mask: np.ndarray
) -> None:
    """Walk each row of the C-contiguous (R, d) integer array X in place, up
    for the first up_rows rows and down for the rest: the walk step of
    :func:`sample_walk_batch` and of the tester's batch.

    One :func:`select_coordinates` call fills mask, a C-contiguous (R, d)
    bool array that is free again on return; one index of the selected
    entries; one :func:`sample_line_kernel` call; one scatter of the
    endpoints. Above WHOLE_INDEX_MAX mask entries the index and the entries'
    values go into the kept _SELECTED buffer, the index chunk by chunk:
    allocated afresh, such multi-MB blocks fragmented the heap, and the peak
    RSS of one workload at d = 256 varied by 6 MB between runs.
    """
    d = X.shape[1]
    select_coordinates(d, lengths, rng, out=mask)
    flat = X.reshape(-1)
    if mask.size > WHOLE_INDEX_MAX:
        # min(length, d) per row, clipped as select_coordinates clips it.
        chosen = int(np.minimum(lengths, min(d, np.iinfo(lengths.dtype).max)).sum())
        wide = np.dtype(np.intp).itemsize
        selected = _SELECTED.take((wide + X.itemsize) * chosen)
        idx = _flatnonzero_into(mask, np.ndarray(chosen, np.intp, selected))
        u = np.take(flat, idx, out=np.ndarray(chosen, X.dtype, selected, wide * chosen),
                    mode="clip")
    else:
        selected, idx = None, np.flatnonzero(mask)
        u = flat[idx]
    c = sample_line_kernel(n, u, rng)
    up = np.searchsorted(idx, up_rows * d)
    np.maximum(c[:up], u[:up], out=c[:up])
    np.minimum(c[up:], u[up:], out=c[up:])
    flat[idx] = c
    if selected is not None:
        _SELECTED.keep(selected)


def sample_walk_batch(
    shape: GridShape, X: np.ndarray, lengths: np.ndarray, direction: str, rng
) -> np.ndarray:
    """Vectorized walk endpoints for a batch of anchors with per-row lengths:
    an int64 copy of X, walked in place by :func:`walk_rows`.

    Each row selects a uniform subset of min(length, d) coordinates, and
    only the selected coordinates draw, through the exact move kernel
    :func:`sample_line_kernel`: one 16-bit word per selected coordinate into
    the alias bucket table, or three integer draws (q, window offset,
    element) when n >= 2048. Each selected coordinate follows
    :func:`line_kernel`. A shift is the difference between a walk endpoint
    and its anchor. How much randomness a call consumes, and in what order,
    depends on the lengths (see :func:`select_coordinates`); then the
    selected entries draw together.
    """
    _check_direction(direction)
    Y = np.array(X, dtype=np.int64, order="C")
    up_rows = len(Y) if direction == "up" else 0
    mask = np.empty(Y.shape, dtype=bool)
    walk_rows(shape.n, Y, np.broadcast_to(lengths, len(Y)), up_rows, rng, mask)
    return Y


def sample_hypercube_batch(shape: GridShape, count: int, rng):
    """Vectorized unconditional sub-hypercube draws: (A, B) arrays, A < B."""
    n, d = shape.n, shape.d
    q = rng.integers(1, shape.log_n + 1, size=(count, d))
    size = np.int64(1) << q
    start = rng.integers(0, n, size=(count, d))
    r1 = rng.integers(0, size)
    r2 = rng.integers(0, size - 1)
    r2 = r2 + (r2 >= r1)
    a = (start + r1) % n + 1
    b = (start + r2) % n + 1
    return np.minimum(a, b), np.maximum(a, b)


def sample_hypercube_at_batch(shape: GridShape, X: np.ndarray, rng):
    """Vectorized conditioned draws: (A, B) with X a vertex of every cube.

    Each coordinate's other endpoint is a move-kernel draw from X."""
    X = np.asarray(X, dtype=np.int64)
    c = sample_line_kernel(shape.n, X, rng)
    return np.minimum(X, c), np.maximum(X, c)


def uniform_vertex_batch(A: np.ndarray, B: np.ndarray, rng) -> np.ndarray:
    top = rng.integers(0, 2, size=A.shape).astype(bool)
    return np.where(top, B, A)


def sample_hypercube_walk_batch(
    A: np.ndarray, B: np.ndarray, X: np.ndarray, lengths, direction: str, rng
) -> np.ndarray:
    """Vectorized in-cube lazy walks from vertices X of the cubes (A, B)."""
    _check_direction(direction)
    N, d = X.shape
    selected = select_coordinates(d, np.broadcast_to(lengths, N), rng)
    if direction == "up":
        move = selected & (X == A)
        return np.where(move, B, X)
    move = selected & (X == B)
    return np.where(move, A, X)


# ---------------------------------------------------------------------------
# Exact pmfs for small domains
# ---------------------------------------------------------------------------


def _esp(values: Sequence[float], k: int) -> float:
    """Elementary symmetric polynomial e_k of the given values."""
    coeffs = [1.0] + [0.0] * k
    for v in values:
        for j in range(min(k, len(coeffs) - 1), 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[k]


@lru_cache(maxsize=None)
def _pair_kernel(n: int, conditioned: bool) -> np.ndarray:
    """K[u, c], 0-based: the law of a cube's other endpoint c at a coordinate
    where the anchor is u, from the conditioned or unconditional pair law."""
    raw = pair_distribution(n)
    K = np.zeros((n, n))
    for u in range(1, n + 1):
        if conditioned:
            dist = pair_distribution_at(n, u)
        else:
            # Bayes: condition the unconditional cube on the uniform anchor
            # landing at u (anchor marginal is uniform on [n]).
            dist = {p: w * 0.5 * n for p, w in raw.items() if u in p}
        for (a, b), w in dist.items():
            K[u - 1, (b if u == a else a) - 1] += w
    K.flags.writeable = False
    return K


def formulation_step(n: int, direction: str, formulation: str) -> np.ndarray:
    """The 0-based one-step matrix of one formulation, moves off the diagonal
    and the lazy mass on it: ``one_step`` for ``direct``, the cube pair
    kernel split by direction for ``cube_first`` and ``cube_at_x``."""
    _check_direction(direction)
    if formulation == "direct":
        return one_step(n, direction)
    if formulation in ("cube_first", "cube_at_x"):
        return _split_by_direction(_pair_kernel(n, formulation == "cube_at_x"), direction)
    raise DomainError(f"unknown formulation {formulation!r}")


def _pmf_from_one_step(
    shape: GridShape, x: Point, spec: WalkSpec, P: np.ndarray, budget: int
) -> Dict[Point, float]:
    # Off the diagonal, P holds the moves; on it, the lazy mass.
    moves = [{v + 1: float(p) for v, p in enumerate(P[u - 1]) if p > 0 and v != u - 1} for u in x]
    lazies = [float(P[u - 1, u - 1]) for u in x]
    d = shape.d
    m = spec.effective_coords
    denom = math.comb(d, m)
    table: Dict[Point, float] = {}
    cost = 0
    for t in range(0, m + 1):
        for S in itertools.combinations(range(d), t):
            others = [lazies[i] for i in range(d) if i not in S]
            weight = _esp(others, m - t) / denom
            if weight == 0.0:
                continue
            options = [list(moves[i].items()) for i in S]
            for combo in itertools.product(*options):
                cost += d
                if cost > budget:
                    raise BudgetError(
                        f"exact pmf enumeration exceeds budget ({budget} terms)"
                    )
                p = weight
                y = list(x)
                for (i, (v, pv)) in zip(S, combo):
                    p *= pv
                    y[i] = v
                key = tuple(y)
                table[key] = table.get(key, 0.0) + p
    return table


def exact_pmf(
    shape: GridShape,
    x: Sequence[int],
    spec: WalkSpec,
    formulation: str = "direct",
    budget: int = DEFAULT_PMF_BUDGET,
) -> Dict[Point, float]:
    """Exact endpoint pmf {y: Pr[y]} of the walk from x, via one of three
    formulations, enumerated anchor by anchor."""
    x = shape.check_point(x)
    if spec.shape != shape:
        raise DomainError("walk spec shape mismatch")
    P = formulation_step(shape.n, spec.direction, formulation)
    return _pmf_from_one_step(shape, x, spec, P, budget)


def exact_shift_pmf(
    shape: GridShape,
    x: Sequence[int],
    tau: int,
    direction: str,
    budget: int = DEFAULT_PMF_BUDGET,
) -> Dict[Point, float]:
    """Exact pmf of the shift magnitude vector drawn at anchor x."""
    spec = WalkSpec(direction, tau, shape)
    out: Dict[Point, float] = {}
    for y, p in exact_pmf(shape, x, spec, budget=budget).items():
        s = tuple(abs(b - a) for a, b in zip(x, y))
        out[s] = out.get(s, 0.0) + p
    return out


# ---------------------------------------------------------------------------
# The product pass of the exact rejection probability
# ---------------------------------------------------------------------------


def contract_axes(A: np.ndarray, laws: np.ndarray, k: int) -> None:
    """Apply prod_i (M00 + t M10 + s M01 + t s M11) to each of a stack of
    grids in place, with Mab = laws[s, a, b] acting on axis i of the n^k
    grids of stack entry s.

    A has shape (S, J, J', n^k): A[s, j, j'] holds the coefficient of
    t^j s^j' as a grid in index order, and on entry every coefficient but
    A[:, 0, 0] is 0. laws has shape (S, 2, 2, n, n). On return A holds
    every coefficient with j < J and j' < J'. Every matrix product
    broadcasts over the stack, one per (s, j') block, the product that
    S = 1 computes alone. Cost O(S k J J' n^(k+1)).
    """
    S, J, Jp, _ = A.shape
    n = laws.shape[-1]
    # Mab[s, 0] is laws[s, a, b] transposed, to right-multiply rows.
    T = laws.swapaxes(-1, -2)[:, :, :, None]
    M00, M01, M10, M11 = T[:, 0, 0], T[:, 0, 1], T[:, 1, 0], T[:, 1, 1]
    for axis in range(k):
        # Contract the last axis, then rotate it to the front, so after k
        # passes the axes are back in order. Descending j updates A in
        # place: coefficient j reads only the old j and j - 1. After this
        # axis only j, j' <= axis + 1 can be nonzero; the rest stay 0 and
        # are skipped.
        P = min(axis + 2, Jp)
        for j in range(min(axis + 1, J - 1), -1, -1):
            old = A[:, j, :P].reshape(S, P, -1, n)
            new = old @ M00
            if P > 1:
                new[:, 1:] += old[:, :-1] @ M01
            if j:
                below = A[:, j - 1, :P].reshape(S, P, -1, n)
                new += below @ M10
                if P > 1:
                    new[:, 1:] += below[:, :-1] @ M11
            A[:, j, :P].reshape(S, P, n, -1)[...] = new.swapaxes(2, 3)


# ---------------------------------------------------------------------------
# Cube-walk closed forms and reversibility
# ---------------------------------------------------------------------------


def middle_band_halfwidth(d: int, c: float, eps: float) -> float:
    """Half-width of the c-middle Hamming-weight band: sqrt(4 c d log(d/eps)),
    defined for 0 < eps <= d and finite c >= 0."""
    if not 0 < eps <= d:
        raise DomainError(f"eps must be in (0, d] = (0, {d}], got {eps}")
    if not (math.isfinite(c) and c >= 0):
        raise DomainError(f"c must be finite and non-negative, got {c}")
    return math.sqrt(4.0 * c * d * math.log(d / eps))


def cube_walk_closed_form(
    d: int, weight_x: int, t: int, ell: int, direction: str
) -> Fraction:
    """Probability that an ell-step lazy cube walk from a weight-w vertex lands
    on a fixed target at Hamming distance t, as an exact binomial ratio."""
    _check_direction(direction)
    if not (0 <= t <= ell <= d):
        raise DomainError(f"need 0 <= t <= ell <= d, got t={t}, ell={ell}, d={d}")
    if not 0 <= weight_x <= d:
        raise DomainError(f"weight {weight_x} out of range for d={d}")
    free = d - weight_x if direction == "up" else weight_x
    if t > free:
        raise DomainError(
            f"cannot move {t} coordinates {direction}ward from weight {weight_x}"
        )
    stay_pool = weight_x if direction == "up" else d - weight_x
    return Fraction(math.comb(stay_pool, ell - t), math.comb(d, ell))


def reversibility_ratio_product(d: int, weight_x: int, t: int, ell: int) -> float:
    """Product form of the up/down pmf ratio for a middle-layer pair:
    prod_i (1 + (2 e_x + t) / (d/2 - e_x - t - i)), e_x = weight_x - d/2."""
    e_x = weight_x - d / 2.0
    acc = 1.0
    for i in range(ell - t):
        acc *= 1.0 + (2.0 * e_x + t) / (d / 2.0 - e_x - t - i)
    return acc
