"""Hypergrid domain [n]^d: boxes, points, oracles, families, truth tables.

:class:`Box` is the domain [n]^d for any n >= 1 and holds all point
indexing; the order-theoretic oracles (distance, violation graphs,
Talagrand) run on any box. :class:`GridShape` is a Box whose side is a
power of two, the domain the walks need. Points are 1-based tuples of
length d. The linear index uses mixed radix with coordinate 1 least
significant: index(x) = sum_i (x_i - 1) * n^(i-1).

A :class:`FunctionOracle` holds one function, a batch function from (N, d)
integer points to N values. Every read, charged or not, checks its points
against [1, n]^d and that the function returns one value in {0, 1} per
point; ``peek`` and ``peek_many`` are the uncharged scalar and batch reads,
and a scalar read is a batch of one. A batch reaches the function in the
caller's integer dtype, so a batch function must not assume int64 (see
:class:`FunctionOracle`). Points drawn or gathered inside the package are
in the narrowest signed dtype that holds n (:func:`point_dtype`, int8 up
to n = 64): the tester's batches, and a subgrid restriction's reads of f,
whatever dtype its own caller used; a restriction reads f through one
plain gather per batch.
"""

from __future__ import annotations

import copy
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, FormatError

Point = tuple[int, ...]

_MAGIC = b"HGF1"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def point_dtype(n: int) -> np.dtype:
    """The narrowest signed integer dtype that holds n: int8 up to n = 64
    (for a power of two), then int16, int32, int64."""
    return np.dtype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                         if np.iinfo(t).max >= n))


# Bytes one thread keeps in a KeptBuffer between calls; a call that needs
# more allocates its own and keeps nothing.
BUFFER_CAP = 64 << 20


class KeptBuffer(threading.local):
    """A byte buffer that each thread keeps between calls, so a steady stream
    of calls of one size does not hand its scratch memory back to the
    allocator and fault it in again on the next call. The tester's batch
    (``tester._KEPT``) and the walk step's selected-entry index
    (``walks._SELECTED``) each keep one.

    ``take`` hands out the calling thread's buffer, grown to fit with an
    eighth to spare (so calls whose sizes vary by a few percent stop
    replacing it after the first), and empties its slot while the caller
    uses it, so a nested call on the same thread allocates its own; ``keep``
    puts a buffer back. A request over BUFFER_CAP bytes gets a new buffer,
    and ``keep`` drops it. The caller must not return anything that
    references the buffer.
    """

    buffer: Optional[np.ndarray] = None

    def take(self, nbytes: int) -> np.ndarray:
        if nbytes > BUFFER_CAP:
            return np.empty(nbytes, dtype=np.uint8)
        buf, self.buffer = self.buffer, None
        if buf is None or buf.size < nbytes:
            buf = np.empty(min(nbytes + nbytes // 8, BUFFER_CAP), dtype=np.uint8)
        return buf

    def keep(self, buf: np.ndarray) -> None:
        if buf.size <= BUFFER_CAP:
            self.buffer = buf


@dataclass(frozen=True)
class Box:
    """The domain [n]^d for any side n >= 1."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"side length must be positive, got {self.n}")
        if self.d < 1:
            raise DomainError(f"dimension must be positive, got {self.d}")

    @property
    def num_points(self) -> int:
        return self.n**self.d

    @property
    def strides(self) -> np.ndarray:
        """Index step of a unit move along each coordinate."""
        return self.n ** np.arange(self.d, dtype=np.int64)

    def contains(self, x: Sequence[int]) -> bool:
        return len(x) == self.d and all(1 <= c <= self.n for c in x)

    def check_point(self, x: Sequence[int]) -> Point:
        if not self.contains(x):
            raise DomainError(f"point {tuple(x)} not in [{self.n}]^{self.d}")
        return tuple(x)

    def index_of(self, x: Sequence[int]) -> int:
        self.check_point(x)
        idx = 0
        for c in reversed(x):
            idx = idx * self.n + (c - 1)
        return idx

    def point_of(self, idx: int) -> Point:
        if not 0 <= idx < self.num_points:
            raise DomainError(f"index {idx} out of range for {self}")
        coords = []
        for _ in range(self.d):
            coords.append(idx % self.n + 1)
            idx //= self.n
        return tuple(coords)

    def points(self) -> Iterator[Point]:
        for idx in range(self.num_points):
            yield self.point_of(idx)

    def all_points_array(self) -> np.ndarray:
        """All points as an (n^d, d) int array, in index order."""
        return self.points_of_indices(np.arange(self.num_points))

    def points_of_indices(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(idx.shape + (self.d,), dtype=np.int64)
        for i in range(self.d):
            out[..., i] = idx % self.n + 1
            idx = idx // self.n
        return out

    def indices_of_points(self, pts: np.ndarray) -> np.ndarray:
        """The int64 index of each point of an (..., d) integer array: Horner's
        rule in place on one uint64 array, one coordinate column at a time in
        the points' own dtype, then sum_i n^(i-1) subtracted once for the
        1-based coordinates. Above n^d = 2^63 the index wraps modulo 2^64."""
        pts = np.asarray(pts)
        idx = pts[..., -1].astype(np.uint64)
        for i in range(self.d - 2, -1, -1):
            idx *= np.uint64(self.n)
            np.add(idx, pts[..., i], out=idx, dtype=np.uint64, casting="unsafe")
        idx -= np.uint64(_index_offset(self.n, self.d))
        return idx.view(np.int64)


@lru_cache(maxsize=64)
def _index_offset(n: int, d: int) -> int:
    """sum_i n^(i-1) over i = 1..d, modulo 2^64."""
    return sum(pow(n, i, 1 << 64) for i in range(d)) % (1 << 64)


class GridShape(Box):
    """The dyadic domain [n]^d the walks run on: n is a power of two >= 2."""

    def __post_init__(self):
        if self.n < 2 or not _is_power_of_two(self.n):
            raise DomainError(f"side length must be a power of two >= 2, got {self.n}")
        super().__post_init__()

    @property
    def log_n(self) -> int:
        return self.n.bit_length() - 1


def bits_monotone(box: Box, bits: np.ndarray) -> bool:
    """True iff the truth table never decreases along a covering axis edge."""
    shaped = np.asarray(bits, dtype=np.uint8).reshape((box.n,) * box.d)
    for axis in range(box.d):
        a = np.moveaxis(shaped, axis, 0)
        if (a[:-1] > a[1:]).any():
            return False
    return True


class FunctionOracle:
    """Queryable Boolean function on a box, with query accounting.

    ``query_count`` increases by exactly one per point evaluated (batch
    evaluation of N points adds N). ``spawn_worker`` returns an oracle
    sharing the same function but with a fresh counter, so parallel workers
    can count queries independently and sum them on join.

    ``fn`` is the batch function: it receives an (N, d) integer array whose
    entries are checked to lie in [1, n], and returns N values, each 0 or 1.
    The array comes in whatever integer dtype the caller passed (int8 from
    the tester's narrow batches, int64 from a list), so a result that can
    leave that dtype's range, such as a coordinate sum or a linear index,
    needs a wider dtype; the built-in family kernels read the caller's
    points as they are, with no widened copy of the batch. ``fn`` must not
    keep its input array, nor return a view of it: the tester's batches
    pass views of a per-thread buffer that the next batch overwrites
    (:class:`KeptBuffer`).
    """

    def __init__(self, shape: Box, fn: Callable[[np.ndarray], np.ndarray], name: str = "oracle"):
        self.shape = shape
        self._function = fn
        self.name = name
        self.query_count = 0

    def __call__(self, x: Sequence[int]) -> int:
        v = self.peek(x)
        self.query_count += 1
        return v

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate an (N, d) array of points, checked as in ``peek_many``;
        counts N queries."""
        vals = self.peek_many(pts)
        self.query_count += len(vals)
        return vals

    def peek(self, x: Sequence[int]) -> int:
        """Evaluate without counting a query (for oracles validating oracles);
        the point must lie in [1, n]^d (DomainError otherwise)."""
        return int(self.peek_many(np.array([self.shape.check_point(x)]))[0])

    def peek_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate an (N, d) array of points without counting queries.

        The points must be integers in [1, n]^d, and the function must return
        N values in {0, 1} (DomainError otherwise). The range is checked on
        the caller's own dtype, and the function reads the caller's array as
        it is, with no widened copy.
        """
        pts = np.asarray(pts)
        n, d = self.shape.n, self.shape.d
        if pts.ndim != 2 or pts.shape[1] != d:
            raise DomainError(f"expected (N, {d}) points, got {pts.shape}")
        if pts.dtype.kind not in "iu":
            raise DomainError(f"points must be integers, got dtype {pts.dtype}")
        if pts.size and (pts.min() < 1 or pts.max() > n):
            raise DomainError(f"coordinates span [{pts.min()}, {pts.max()}], outside [1, {n}]")
        vals = np.asarray(self._function(pts))
        if vals.shape != (len(pts),):
            raise DomainError(f"{self.name} returned shape {vals.shape} for {len(pts)} points")
        if not ((vals == 0) | (vals == 1)).all():
            raise DomainError(f"{self.name} returned values other than 0 and 1")
        return vals.astype(np.int8, copy=False)

    def spawn_worker(self) -> "FunctionOracle":
        worker = copy.copy(self)
        worker.query_count = 0
        return worker

    def __repr__(self):
        return f"FunctionOracle({self.name}, n={self.shape.n}, d={self.shape.d})"


class ExplicitFunction(FunctionOracle):
    """Oracle backed by a truth table over all n^d points of any box."""

    def __init__(self, shape: Box, bits: np.ndarray, name: str = "explicit"):
        bits = np.asarray(bits)
        if bits.shape != (shape.num_points,):
            raise DomainError(f"expected {shape.num_points} bits, got {bits.shape}")
        # Checked before the uint8 cast, which would wrap 256 to 0 and -1 to 255.
        if not ((bits == 0) | (bits == 1)).all():
            raise DomainError("truth table values must be 0 or 1")
        self.bits = bits = bits.astype(np.uint8)
        super().__init__(shape, lambda pts: bits[shape.indices_of_points(pts)], name)


def tabulate(f: FunctionOracle) -> ExplicitFunction:
    """Materialize an oracle into an explicit truth table (does not count queries)."""
    bits = f.peek_many(f.shape.all_points_array())
    return ExplicitFunction(f.shape, bits, name=f.name)


# ---------------------------------------------------------------------------
# Built-in function families
# ---------------------------------------------------------------------------

FAMILY_NAMES = (
    "constant0", "constant1", "dictator", "anti_dictator", "majority_threshold", "surface",
    "random_balanced", "explicit",
)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting a built-in function family."""

    name: str
    dim: Optional[int] = None  # 1-based coordinate for (anti-)dictator; 1 if None
    threshold: Optional[int] = None  # defaults to n/2 + 1
    seed: Optional[int] = None  # for surface and random_balanced; 0 if None
    path: Optional[str] = None  # for the explicit family

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise ConfigError(f"unknown family {self.name!r}; choose from {FAMILY_NAMES}")
        dictator = self.name in ("dictator", "anti_dictator")
        if self.seed is not None and self.name not in ("surface", "random_balanced"):
            raise ConfigError(f"family {self.name!r} takes no seed")
        if not 0 <= (self.seed or 0) < 2**64:
            raise ConfigError(f"family seed must be in [0, 2^64), got {self.seed}")
        if self.dim is not None and not dictator:
            raise ConfigError(f"family {self.name!r} takes no dim")
        if self.threshold is not None and not dictator:
            raise ConfigError(f"family {self.name!r} takes no threshold")
        if self.path is not None and self.name != "explicit":
            raise ConfigError(f"family {self.name!r} takes no path")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Mix a 1-D uint64 array in place with the splitmix64 finalizer, a
    deterministic 64-bit mixer that keys the pseudo-random bits, and return
    it. It mixes 2^16 entries at a time, so each pass stays in cache."""
    shifted = np.empty(min(x.size, 1 << 16), np.uint64)
    for start in range(0, x.size, 1 << 16):
        part = x[start : start + (1 << 16)]
        tmp = shifted[: part.size]
        part += np.uint64(0x9E3779B97F4A7C15)
        part ^= np.right_shift(part, np.uint64(30), out=tmp)
        part *= np.uint64(0xBF58476D1CE4E5B9)
        part ^= np.right_shift(part, np.uint64(27), out=tmp)
        part *= np.uint64(0x94D049BB133111EB)
        part ^= np.right_shift(part, np.uint64(31), out=tmp)
    return x


def _hash_bit(key: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Bit 0 of splitmix64(index ^ key) per int64 index, as int8; mixes idx,
    which the caller hands over, in place."""
    mixed = idx.view(np.uint64)
    mixed ^= key
    return np.bitwise_and(_splitmix64(mixed), np.uint64(1), out=mixed).astype(np.int8)


def surface_warning(shape: GridShape) -> bool:
    """True when the shape leaves the construction's intended regime n <= d/ln d."""
    return shape.n > shape.d / max(np.log(shape.d), 1e-9)


def make_family(spec: FamilySpec, shape: GridShape) -> FunctionOracle:
    """Build a pure oracle for one of the built-in families. Each kernel reads
    the caller's points as they are and makes no widened copy of the batch."""
    n, d = shape.n, shape.d
    t = spec.threshold if spec.threshold is not None else n // 2 + 1
    name = spec.name

    if name == "constant0":
        return FunctionOracle(shape, lambda p: np.zeros(len(p), np.int8), name)
    if name == "constant1":
        return FunctionOracle(shape, lambda p: np.ones(len(p), np.int8), name)
    if name in ("dictator", "anti_dictator"):
        i = 1 if spec.dim is None else spec.dim
        if not 1 <= i <= d:
            raise ConfigError(f"dictator coordinate {i} out of range for d={d}")
        if not 1 <= t <= n + 1:
            raise ConfigError(f"threshold {t} out of range for n={n}")
        compare = np.greater_equal if name == "dictator" else np.less
        return FunctionOracle(
            shape, lambda p: compare(p[:, i - 1], t).view(np.int8), f"{name}(i={i},t={t})")
    if name == "majority_threshold":
        # Monotone: 1 iff the coordinate sum, taken in the narrowest dtype that
        # holds d*n, reaches the midpoint d(n + 1)/2 of its range, rounded up.
        cut, acc = -(-d * (n + 1) // 2), point_dtype(d * n)
        row_sums = partial(np.einsum, "ij->i", dtype=acc, casting="unsafe")
        return FunctionOracle(shape, lambda p: (row_sums(p) >= cut).view(np.int8), name)
    if name in ("surface", "random_balanced"):
        seed = 0 if spec.seed is None else spec.seed
        # The seed's key is mixed once per instance, as a one-element array:
        # numpy scalar uint64 arithmetic warns on overflow.
        key, narrow = _splitmix64(np.array([seed], dtype=np.uint64))[0], point_dtype(n)
        if name == "random_balanced":
            return FunctionOracle(shape, lambda p: _hash_bit(key, shape.indices_of_points(p)),
                                  f"random_balanced(seed={seed})")

        def surface(pts: np.ndarray) -> np.ndarray:
            # Hash every point, then walk its columns (one narrow contiguous
            # copy) back to front: the first at 1 (value 1) or n (0) decides.
            cols = np.empty(pts.shape[::-1], narrow)
            np.copyto(cols, pts.T, casting="unsafe")
            out = _hash_bit(key, shape.indices_of_points(cols.T)).view(bool)
            edge = np.empty_like(out)
            for col in cols[::-1]:
                out &= np.not_equal(col, n, out=edge)
                out |= np.equal(col, 1, out=edge)
            return out.view(np.int8)

        return FunctionOracle(shape, surface, f"surface(seed={seed})")
    if name == "explicit":
        if spec.path is None:
            raise ConfigError("explicit family requires a truth-table path")
        f = load_truth_table(spec.path)
        if f.shape != shape:
            raise ConfigError(f"truth table shape {f.shape} does not match requested {shape}")
        return f
    raise ConfigError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def doubly_flip(f: FunctionOracle) -> FunctionOracle:
    """g(x) = 1 - f(x reflected through the grid center).

    Reflection maps coordinate c to n + 1 - c, keeping points in [1, n].
    (x, y) violates f iff (reflect(y), reflect(x)) violates g, and the
    distance to monotonicity is preserved.
    """
    shape = f.shape

    def g(pts: np.ndarray) -> np.ndarray:
        return (1 - f.peek_many(shape.n + 1 - np.asarray(pts, dtype=np.int64))).astype(np.int8)

    return FunctionOracle(shape, g, f"flip({f.name})")


def restrict_to_subgrid(f: FunctionOracle, subsets: Sequence[Sequence[int]]) -> FunctionOracle:
    """Restrict f to the product of d sorted coordinate multisets of size k.

    The multisets are held as one (d, k) table in the narrowest signed dtype
    that holds n (:func:`point_dtype`). A batch of points maps back to f by
    one gather: coordinate z_i is entry i*k + z_i - 1 of the flattened
    table, so f reads points in the table's dtype (int8 up to n = 64),
    whatever the caller's dtype, and both reads check their points.
    """
    n, d = f.shape.n, f.shape.d
    if len(subsets) != d:
        raise DomainError(f"expected {d} coordinate multisets, got {len(subsets)}")
    try:
        table = np.asarray(subsets)
    except ValueError:  # ragged rows
        table = np.empty(0)
    if table.ndim != 2:
        raise DomainError("all coordinate multisets must have equal size")
    if table.dtype.kind not in "iu":
        raise DomainError(f"coordinate multisets must hold integers, got dtype {table.dtype}")
    k = table.shape[1]
    sub_shape = GridShape(k, d)
    outside = np.flatnonzero(((table < 1) | (table > n)).any(axis=1))
    if outside.size:
        raise DomainError(f"subset {outside[0] + 1} has values outside [1, {n}]")
    unsorted = np.flatnonzero((np.diff(table, axis=1) < 0).any(axis=1))
    if unsorted.size:
        raise DomainError(f"subset {unsorted[0] + 1} is not sorted non-decreasing")
    flat = table.astype(point_dtype(n)).reshape(-1)
    offsets = np.arange(d) * k - 1

    def g(pts: np.ndarray) -> np.ndarray:
        # peek_many has checked pts against [1, k]^d, so every index is in
        # [0, d*k). The sum is cast to intp from any caller's dtype (uint64
        # + int64 would be float).
        return f.peek_many(flat[np.add(pts, offsets, dtype=np.intp, casting="unsafe")])

    return FunctionOracle(sub_shape, g, f"restrict({f.name},k={k})")


def sample_subgrid(shape: GridShape, k: int, rng) -> list[list[int]]:
    """Draw d sorted multisets of k independent uniform samples from [n].

    One (d, k) draw sorted along its rows: the same lists, and the same
    generator state after, as d draws of k samples, one per axis in order.
    """
    return np.sort(rng.integers(1, shape.n + 1, size=(shape.d, k)), axis=1).tolist()


# ---------------------------------------------------------------------------
# Truth-table persistence (magic "HGF1", little-endian n and d, LSB-first
# bits, zero padding)
# ---------------------------------------------------------------------------


def save_truth_table(f: FunctionOracle, path) -> None:
    table = f if isinstance(f, ExplicitFunction) else tabulate(f)
    packed = np.packbits(table.bits, bitorder="little")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", f.shape.n, f.shape.d))
        fh.write(packed.tobytes())


def load_truth_table(path) -> ExplicitFunction:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic bytes {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 12:
        raise FormatError("truncated header")
    n, d = struct.unpack("<II", blob[4:12])
    try:
        shape = GridShape(n, d)
    except DomainError as e:
        raise FormatError(str(e)) from e
    num_bytes = (shape.num_points + 7) // 8
    payload = blob[12:]
    if len(payload) != num_bytes:
        raise FormatError(
            f"expected {num_bytes} payload bytes for n={n}, d={d}, got {len(payload)}"
        )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    if bits[shape.num_points :].any():
        raise FormatError(f"padding bits after the {shape.num_points} table bits must be 0")
    return ExplicitFunction(shape, bits[: shape.num_points], name="explicit")


def is_monotone(f: FunctionOracle) -> bool:
    """Exhaustive monotonicity check along covering axis edges (small domains)."""
    return bits_monotone(f.shape, tabulate(f).bits)
