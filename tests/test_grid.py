"""Domain plumbing: indexing, families, transforms, files."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgm import grid, tester, walks
from hgm.errors import ConfigError, DomainError, FormatError
from hgm.grid import (
    FAMILY_NAMES,
    Box,
    ExplicitFunction,
    FamilySpec,
    FunctionOracle,
    GridShape,
    KeptBuffer,
    doubly_flip,
    is_monotone,
    load_truth_table,
    make_family,
    restrict_to_subgrid,
    sample_subgrid,
    save_truth_table,
    tabulate,
)

from conftest import random_bits


# ---------------------------------------------------------------------------
# Shapes and indexing
# ---------------------------------------------------------------------------


def test_shape_rejects_non_power_of_two_sides():
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(DomainError):
            GridShape(bad, 2)
    with pytest.raises(DomainError):
        GridShape(4, 0)


def test_index_examples():
    s = GridShape(4, 2)
    assert s.index_of((1, 1)) == 0
    assert s.index_of((2, 1)) == 1
    assert s.index_of((4, 4)) == 15


def test_box_shares_indexing_with_grid_shape():
    assert isinstance(GridShape(4, 2), Box)
    assert Box(3, 2).num_points == 9 and Box(1, 5).num_points == 1
    for bad in ((0, 2), (3, 0)):
        with pytest.raises(DomainError):
            Box(*bad)
    assert GridShape(4, 3).index_of((2, 3, 4)) == Box(4, 3).index_of((2, 3, 4))
    assert (GridShape(4, 3).strides == [1, 4, 16]).all()
    assert (Box(3, 3).strides == [1, 3, 9]).all()


def test_a_domain_is_its_side_and_dimension():
    # A Box and a GridShape with the same (n, d) are one domain: equal both
    # ways, one hash, one set entry.
    assert Box(4, 2) == GridShape(4, 2) and GridShape(4, 2) == Box(4, 2)
    assert hash(Box(4, 2)) == hash(GridShape(4, 2))
    assert {Box(4, 2), GridShape(4, 2)} == {GridShape(4, 2)}
    assert Box(4, 2) != Box(4, 3) and Box(4, 2) != GridShape(8, 2)
    assert Box(4, 2) != (4, 2)


# Dyadic sides through GridShape, odd sides through Box.
_SHAPES = [(GridShape, n) for n in (2, 4, 8, 16)] + [(Box, n) for n in (1, 3, 5)]


@settings(max_examples=200)
@given(
    st.sampled_from(_SHAPES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_index_point_roundtrip(kind_n, d, raw_idx):
    kind, n = kind_n
    s = kind(n, d)
    idx = raw_idx % s.num_points
    assert s.index_of(s.point_of(idx)) == idx


def test_vectorized_indexing_matches_scalar():
    for s in (GridShape(4, 3), Box(1, 3), Box(3, 3), Box(5, 2)):
        pts = s.all_points_array()
        assert pts.shape == (s.num_points, s.d)
        idx = s.indices_of_points(pts)
        assert (idx == np.arange(s.num_points)).all()
        for i in range(s.num_points):
            assert tuple(pts[i]) == s.point_of(i)
        assert (s.points_of_indices(idx) == pts).all()


def test_out_of_range_point_rejected():
    s = GridShape(4, 2)
    with pytest.raises(DomainError):
        s.index_of((0, 1))
    with pytest.raises(DomainError):
        s.index_of((1, 5))
    with pytest.raises(DomainError):
        s.point_of(16)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

MONOTONE_SPECS = [
    FamilySpec("constant0"),
    FamilySpec("constant1"),
    FamilySpec("dictator", dim=1),
    FamilySpec("dictator", dim=2, threshold=2),
    FamilySpec("majority_threshold"),
]


@pytest.mark.parametrize("shape", [GridShape(2, 3), GridShape(4, 2), GridShape(8, 2)])
def test_builtin_monotone_families_are_monotone(shape):
    for spec in MONOTONE_SPECS:
        if (spec.dim or 1) > shape.d:  # an unset dim is coordinate 1
            continue
        assert is_monotone(make_family(spec, shape)), spec


def test_anti_dictator_and_surface_are_not_monotone():
    shape = GridShape(4, 3)
    assert not is_monotone(make_family(FamilySpec("anti_dictator"), shape))
    assert not is_monotone(make_family(FamilySpec("surface", seed=7), shape))


def test_surface_boundary_rules():
    f = make_family(FamilySpec("surface", seed=0), GridShape(4, 3))
    assert f((1, 4, 2)) == 1  # coordinate 1 at the low face fires first
    assert f((4, 2, 2)) == 0  # coordinate 1 at the high face fires
    assert f((2, 1, 4)) == 1
    # Scalar and batch reads must agree everywhere, interior bits included.
    table = tabulate(f)
    for idx in range(64):
        assert f.peek(f.shape.point_of(idx)) == int(table.bits[idx])


def test_surface_interior_is_seed_deterministic():
    a = tabulate(make_family(FamilySpec("surface", seed=3), GridShape(4, 3)))
    b = tabulate(make_family(FamilySpec("surface", seed=3), GridShape(4, 3)))
    c = tabulate(make_family(FamilySpec("surface", seed=4), GridShape(4, 3)))
    assert (a.bits == b.bits).all()
    assert (a.bits != c.bits).any()


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        FamilySpec("parity")
    with pytest.raises(ConfigError):
        make_family(FamilySpec("dictator", dim=5), GridShape(4, 2))


HASHED = ("surface", "random_balanced")


def test_family_refuses_a_parameter_it_does_not_read():
    # Only the (anti-)dictator reads a dim and a threshold, only the hashed
    # families read a seed, and only the explicit family reads a path.
    for name in FAMILY_NAMES:
        if name not in ("dictator", "anti_dictator"):
            with pytest.raises(ConfigError, match="threshold"):
                FamilySpec(name, threshold=3)
            with pytest.raises(ConfigError, match="dim"):
                FamilySpec(name, dim=1)
        if name not in HASHED:
            with pytest.raises(ConfigError, match="seed"):
                FamilySpec(name, seed=0)
        if name != "explicit":
            with pytest.raises(ConfigError, match="path"):
                FamilySpec(name, path="f.hgf")
    FamilySpec("anti_dictator", dim=2, threshold=3)
    FamilySpec("surface", seed=0)
    FamilySpec("random_balanced", seed=2**64 - 1)
    FamilySpec("explicit", path="f.hgf")
    # An unset dim is coordinate 1; a set one is checked against d.
    assert make_family(FamilySpec("dictator"), GridShape(4, 2)).name == "dictator(i=1,t=3)"
    with pytest.raises(ConfigError, match="coordinate 0"):
        make_family(FamilySpec("anti_dictator", dim=0), GridShape(4, 2))
    for t in (0, 6):
        with pytest.raises(ConfigError, match=f"threshold {t} out of range"):
            make_family(FamilySpec("dictator", threshold=t), GridShape(4, 2))
    with pytest.raises(ConfigError, match="requires a truth-table path"):
        make_family(FamilySpec("explicit"), GridShape(4, 2))


# ---------------------------------------------------------------------------
# doubly_flip
# ---------------------------------------------------------------------------


def test_doubly_flip_pinned_values():
    f = ExplicitFunction(GridShape(2, 1), np.array([1, 0], np.uint8))
    g = doubly_flip(f)
    assert g((1,)) == 1 and g((2,)) == 0


def test_doubly_flip_is_involution_and_preserves_monotonicity():
    shape = GridShape(4, 2)
    f = ExplicitFunction(shape, random_bits(shape.num_points, 11))
    gg = tabulate(doubly_flip(doubly_flip(f)))
    assert (gg.bits == f.bits).all()
    mono = make_family(FamilySpec("dictator"), shape)
    assert is_monotone(doubly_flip(mono))


def test_doubly_flip_preserves_distance_surface_4x4():
    from hgm.oracles import distance_to_monotonicity

    f = make_family(FamilySpec("surface", seed=7), GridShape(4, 2))
    d1 = distance_to_monotonicity(f).distance
    d2 = distance_to_monotonicity(doubly_flip(f)).distance
    assert d1 == d2


# ---------------------------------------------------------------------------
# Subgrid restriction
# ---------------------------------------------------------------------------


def test_restrict_identity_and_monotone_composition():
    shape = GridShape(4, 2)
    f = ExplicitFunction(shape, random_bits(shape.num_points, 5))
    g = restrict_to_subgrid(f, [[1, 2, 3, 4], [1, 2, 3, 4]])
    assert (tabulate(g).bits == f.bits).all()
    mono = make_family(FamilySpec("majority_threshold"), shape)
    assert is_monotone(restrict_to_subgrid(mono, [[1, 1, 3, 4], [2, 2, 4, 4]]))


def test_restrict_maps_through_tables():
    shape = GridShape(8, 2)
    f = make_family(FamilySpec("anti_dictator"), shape)
    T = [[2, 5], [1, 8]]
    g = restrict_to_subgrid(f, T)
    assert g.shape == GridShape(2, 2)
    for z in g.shape.points():
        assert g.peek(z) == f.peek((T[0][z[0] - 1], T[1][z[1] - 1]))


def test_restrict_rejects_bad_subsets():
    f = make_family(FamilySpec("constant0"), GridShape(4, 2))
    with pytest.raises(DomainError):
        restrict_to_subgrid(f, [[2, 1], [1, 2]])  # unsorted
    with pytest.raises(DomainError):
        restrict_to_subgrid(f, [[1, 2]])  # wrong arity
    with pytest.raises(DomainError):
        restrict_to_subgrid(f, [[1, 5], [1, 2]])  # out of range
    with pytest.raises(DomainError, match="equal size"):
        restrict_to_subgrid(f, [[1, 2], [1, 2, 3]])  # ragged
    with pytest.raises(DomainError, match="integers"):
        restrict_to_subgrid(f, [[1.0, 2.0], [1.0, 2.0]])  # floats


def test_sample_subgrid_shape(rng):
    T = sample_subgrid(GridShape(8, 3), 4, rng)
    assert len(T) == 3
    for sub in T:
        assert len(sub) == 4
        assert sub == sorted(sub)
        assert all(1 <= v <= 8 for v in sub)


@pytest.mark.parametrize("n,d,k", [(8, 64, 8), (2**20, 3, 7), (64, 5, 2), (16, 7, 16)])
def test_sample_subgrid_is_the_per_axis_stream(n, d, k):
    # One (d, k) draw must give the lists, and leave the generator state,
    # of one size-k draw per axis, so seeded results do not change.
    for seed in range(4):
        per_axis_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        per_axis = [sorted(int(v) for v in per_axis_rng.integers(1, n + 1, size=k))
                    for _ in range(d)]
        T = sample_subgrid(GridShape(n, d), k, rng)
        assert T == per_axis
        assert all(type(v) is int for sub in T for v in sub)
        assert rng.bit_generator.state == per_axis_rng.bit_generator.state


def recording_oracle(shape):
    """An oracle answering 0 that keeps every point it is asked to read."""
    seen = []

    def fn(pts):
        seen.append(pts.copy())
        return np.zeros(len(pts), np.int8)

    return FunctionOracle(shape, fn, "recorder"), seen


@pytest.mark.parametrize("n,d,k", [(8, 64, 8), (2**20, 3, 4), (64, 5, 2), (16, 7, 16)])
def test_restricted_reads_match_a_per_axis_gather(n, d, k):
    rng = np.random.default_rng(n * d + k)
    T = sample_subgrid(GridShape(n, d), k, rng)
    f, seen = recording_oracle(GridShape(n, d))
    g = restrict_to_subgrid(f, T)
    z = walks.sample_points_batch(g.shape, 500, rng)  # narrow dtype, as the tester draws
    z_before = z.copy()
    wide = z.astype(np.int64)
    expected = np.column_stack([np.asarray(T[i])[wide[:, i] - 1] for i in range(d)])
    g.eval_many(z)
    g.peek_many(wide)
    g.peek_many(z.tolist())
    for row in z[:3]:
        g(tuple(int(c) for c in row))
    assert len(seen) == 6
    # The gather is in the narrowest signed dtype that holds n, whatever the
    # caller's dtype.
    for pts in seen[:3]:
        assert pts.dtype == narrowest_signed(n) and np.array_equal(pts, expected)
    for i, pts in enumerate(seen[3:]):
        assert np.array_equal(pts[0], expected[i])
    # The gather never writes into the caller's points.
    assert np.array_equal(z, z_before) and np.array_equal(wide, z_before)
    assert g.query_count == len(z) + 3 and f.query_count == 0
    # A batch read hands fn the caller's own points, in their own
    # dtype: no widened copy.
    x = walks.sample_points_batch(f.shape, 50, rng)
    f.eval_many(x)
    assert seen[-1].dtype == x.dtype == np.min_scalar_type(-n)
    assert np.array_equal(seen[-1], x)


def narrowest_signed(n):
    return np.dtype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                         if np.iinfo(t).max >= n))


@pytest.mark.parametrize("d", [31, 32, 33])
def test_restricted_gather_across_the_index_dtype_boundary(d):
    # d*k = 31,744, 32,768 and 33,792 table entries, either side of the
    # largest int16. Every caller dtype reads both ends of every axis (int8
    # only up to 127).
    n = k = 1024
    rng = np.random.default_rng(d)
    T = sample_subgrid(GridShape(n, d), k, rng)
    f, seen = recording_oracle(GridShape(n, d))
    g = restrict_to_subgrid(f, T)
    z = np.vstack([np.ones(d, np.int64), np.full(d, k), rng.integers(1, k + 1, size=(300, d))])
    for dtype in (np.int8, np.int16, np.int64, np.uint64):
        pts = (z if dtype is not np.int8 else np.minimum(z, 127)).astype(dtype)
        wide = pts.astype(np.int64)
        expected = np.column_stack([np.asarray(T[i])[wide[:, i] - 1] for i in range(d)])
        assert g.peek_many(pts).shape == (len(pts),)
        assert seen[-1].dtype == np.int16 and np.array_equal(seen[-1], expected)


def per_axis_gather(T, pts):
    """The points of f that a restriction to T reads for pts, axis by axis."""
    wide = np.asarray(pts, dtype=np.int64)
    return np.column_stack([np.asarray(T[i])[wide[:, i] - 1] for i in range(len(T))])


def test_kept_buffer_reads_the_cap_on_every_call(monkeypatch):
    kept = KeptBuffer()
    buf = kept.take(1000)
    kept.keep(buf)
    small = kept.take(10)
    assert small is buf and kept.buffer is None  # out of its slot while in use
    kept.keep(small)
    # A request over the cap, lowered after the buffer was kept, gets a
    # buffer of its own, which keep then drops.
    monkeypatch.setattr(grid, "BUFFER_CAP", 100)
    big = kept.take(500)
    assert big is not buf and kept.buffer is buf
    kept.keep(big)
    assert kept.buffer is buf


def test_kept_buffer_grows_with_an_eighth_to_spare():
    kept = KeptBuffer()
    buf = kept.take(800)
    assert buf.size == 900
    kept.keep(buf)
    assert kept.take(900) is buf  # a request a little larger reuses it


def test_restricted_reads_of_every_size_read_only_their_own_points():
    # Reads that shrink, grow and repeat a shape with new points: each
    # gathers exactly its own points, from a row-major or a column-major
    # batch.
    rng = np.random.default_rng(6)
    n, d, k = 64, 9, 16
    T = sample_subgrid(GridShape(n, d), k, rng)
    f, seen = recording_oracle(GridShape(n, d))
    g = restrict_to_subgrid(f, T)
    for size in (3000, 40, 3000, 3000, 1, 700, 0, 7282, 30000):
        z = walks.sample_points_batch(g.shape, size, rng)
        for batch in (z, np.asfortranarray(z)):
            assert g.peek_many(batch).shape == (size,)
            assert seen[-1].shape == (size, d) and np.array_equal(seen[-1], per_axis_gather(T, z))


def test_nested_restricted_reads_each_use_their_own_buffer():
    # A restriction of a restriction reads through two gathers on one
    # thread, and f's own evaluation reads a third restriction before it
    # reads its points: no nested read changes the points its caller
    # gathered.
    rng = np.random.default_rng(7)
    base = make_family(FamilySpec("random_balanced", seed=4), GridShape(16, 6))
    side = restrict_to_subgrid(base, sample_subgrid(base.shape, 16, rng))
    probe = walks.sample_points_batch(side.shape, 5000, rng)

    def fn(pts):
        side.peek_many(probe)
        return base.peek_many(pts)

    f = FunctionOracle(base.shape, fn, "reads-a-restriction-first")
    T1 = sample_subgrid(base.shape, 32, rng)  # k above n: int8 table, side 32
    T2 = sample_subgrid(GridShape(32, 6), 4, rng)
    inner = restrict_to_subgrid(f, T1)
    outer = restrict_to_subgrid(inner, T2)
    for size in (600, 600, 50):
        z = walks.sample_points_batch(outer.shape, size, rng)
        through_inner = per_axis_gather(T2, z)
        expected = base.peek_many(per_axis_gather(T1, through_inner))
        assert np.array_equal(outer.peek_many(z), expected)
        assert np.array_equal(inner.peek_many(through_inner), expected)


def test_run_tester_on_a_restriction_is_the_same_at_one_and_two_threads(monkeypatch):
    f = make_family(FamilySpec("random_balanced", seed=5), GridShape(16, 8))
    g = restrict_to_subgrid(f, sample_subgrid(f.shape, 8, np.random.default_rng(8)))
    cfg = tester.TesterConfig(shape=g.shape, trials=3000, seed=9, batch_size=512)
    reports = []
    for threads in ("1", "2", "1"):
        monkeypatch.setenv("HGM_THREADS", threads)
        rep = tester.run_tester(g, cfg)
        reports.append((rep.rejections, rep.per_tau, rep.per_step, rep.total_queries,
                        rep.witnesses))
    assert reports[0][0] > 0
    assert reports[0] == reports[1] == reports[2]


def test_batch_reads_reject_points_outside_the_box():
    dictator = make_family(FamilySpec("dictator"), GridShape(4, 2))
    restricted = restrict_to_subgrid(dictator, [[1, 2, 3, 4], [1, 1, 2, 4]])
    explicit = ExplicitFunction(GridShape(2, 2), np.array([0, 1, 1, 1]))
    cases = [
        (restricted, [[0, 1]]),  # would read the axis's top sample
        (restricted, [[5, 1]]),  # would read past the table
        (explicit, [[0, 1]]),  # would read bits[-1]
        (dictator, [[9, 1]]),
        (dictator, np.array([[1, 255]], np.uint8)),
        (dictator, np.array([[1, -1]], np.int8)),
        (dictator, np.array([[1.0, 2.0]])),
        (dictator, np.array([[True, True]])),
        (dictator, [[1, 2, 3]]),
    ]
    for f, pts in cases:
        with pytest.raises(DomainError):
            f.eval_many(pts)
        with pytest.raises(DomainError):
            f.peek_many(pts)
        assert f.query_count == 0
    # Lists of ints and narrow dtypes inside the box still read.
    assert dictator.eval_many([[3, 1], [1, 4]]).tolist() == [1, 0]
    assert dictator.peek_many(np.array([[4, 4]], np.uint8)).tolist() == [1]
    assert restricted.eval_many([[4, 1], [2, 4]]).tolist() == [1, 0]
    assert explicit.eval_many(np.array([[2, 1]], np.int16)).tolist() == [1]


def test_scalar_reads_reject_points_outside_the_box():
    dictator = make_family(FamilySpec("dictator"), GridShape(4, 2))
    restricted = restrict_to_subgrid(dictator, [[1, 2, 3, 4], [1, 1, 2, 4]])
    cases = [
        (dictator, (9, 1)),
        (restricted, (0, 1)),  # would read the axis's top sample
        (restricted, (5, 1)),  # would read the next axis's first sample
    ]
    for f, x in cases:
        with pytest.raises(DomainError):
            f.peek(x)
        with pytest.raises(DomainError):
            f(x)
        assert f.query_count == 0
    assert (dictator.peek((3, 1)), restricted.peek((4, 1)), restricted((2, 4))) == (1, 1, 0)
    assert restricted.query_count == 1


def test_fn_many_gives_the_same_values_on_every_integer_dtype(tmp_path):
    # Every built-in family on a grid whose side fits int8, plus a flip, a
    # restriction and an explicit table; majority_threshold at (64, 256),
    # where the coordinate sum leaves int8.
    path = tmp_path / "f.hgf"
    save_truth_table(make_family(FamilySpec("surface", seed=3), GridShape(4, 3)), path)
    small = GridShape(8, 3)
    oracles = [make_family(FamilySpec(name, seed=5 if name in HASHED else None), small)
               for name in FAMILY_NAMES if name != "explicit"]
    oracles += [
        make_family(FamilySpec("majority_threshold"), GridShape(64, 256)),
        make_family(FamilySpec("dictator", dim=2, threshold=60), GridShape(64, 2)),
        make_family(FamilySpec("explicit", path=str(path)), GridShape(4, 3)),
        doubly_flip(make_family(FamilySpec("surface", seed=7), small)),
        restrict_to_subgrid(make_family(FamilySpec("random_balanced", seed=2), GridShape(64, 3)),
                            [[1, 9, 30, 64], [2, 2, 40, 63], [5, 6, 7, 8]]),
        ExplicitFunction(small, random_bits(small.num_points, 11)),
    ]
    rng = np.random.default_rng(2)
    for f in oracles:
        n, d = f.shape.n, f.shape.d
        pts = rng.integers(1, n + 1, size=(400, d))
        pts[:2] = [[1] * d, [n] * d]
        wide = f.peek_many(pts)
        assert [f.peek(tuple(int(c) for c in p)) for p in pts[:50]] == wide[:50].tolist(), f.name
        for dtype in (np.int8, np.int16, np.uint8, np.uint64):
            assert np.array_equal(f.peek_many(pts.astype(dtype)), wide), (f.name, dtype)
    majority = make_family(FamilySpec("majority_threshold"), GridShape(64, 256))
    # Coordinate sums of 64 * 256 = 16384 and 40 * 256 = 10240 wrap in int8.
    top = np.full((2, 256), 64, np.int8)
    top[1] = 40
    assert majority.peek_many(top).tolist() == [1, 1]
    assert majority.peek_many(np.ones((1, 256), np.int8)).tolist() == [0]


# ---------------------------------------------------------------------------
# Family kernels against plain reference versions
# ---------------------------------------------------------------------------
# The kernels below are the plain versions the in-place family kernels
# replaced: widened int64 copies, boolean-mask writes and row gathers. They
# read int64 points only.


def reference_indices_of_points(shape, pts):
    pts = np.asarray(pts, dtype=np.int64)
    idx = np.zeros(pts.shape[:-1], dtype=np.int64)
    for i in reversed(range(shape.d)):
        idx = idx * shape.n + (pts[..., i] - 1)
    return idx


def reference_splitmix64(x):
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    return x ^ (x >> np.uint64(31))


def reference_hash_bit(seed, idx):
    key = reference_splitmix64(np.array([seed], dtype=np.uint64))
    mixed = reference_splitmix64(np.asarray(idx, dtype=np.uint64) ^ key)
    return (mixed & np.uint64(1)).astype(np.int8)


def reference_surface(shape, seed, pts):
    out = np.full(len(pts), -1, dtype=np.int8)
    for i in range(shape.d):
        col = pts[:, i]
        undecided = out == -1
        out[undecided & (col == 1)] = 1
        out[undecided & (col == shape.n)] = 0
    interior = out == -1
    if interior.any():
        out[interior] = reference_hash_bit(seed, reference_indices_of_points(shape, pts[interior]))
    return out


def reference_random_balanced(shape, seed, pts):
    return reference_hash_bit(seed, reference_indices_of_points(shape, pts))


def reference_majority_threshold(shape, pts):
    return (pts.sum(axis=1) >= shape.d * (shape.n + 1) / 2).astype(np.int8)


KERNEL_SEEDS = (0, 1, 7, 2**64 - 1)
POINT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8)


def kernel_cases(shape):
    """(spec, reference kernel on int64 points) for every family the rewrite
    touched, at every seed."""
    yield FamilySpec("majority_threshold"), lambda p: reference_majority_threshold(shape, p)
    for seed in KERNEL_SEEDS:
        yield FamilySpec("surface", seed=seed), lambda p, s=seed: reference_surface(shape, s, p)
        yield (FamilySpec("random_balanced", seed=seed),
               lambda p, s=seed: reference_random_balanced(shape, s, p))


def check_kernels_against_reference(shape, pts):
    """Every kernel, and the index and hash under them, on pts in every
    dtype that holds n, against the reference on int64 points."""
    dtypes = [t for t in POINT_DTYPES if np.iinfo(t).max >= shape.n]
    idx = reference_indices_of_points(shape, pts)
    for dtype in dtypes:
        assert np.array_equal(shape.indices_of_points(pts.astype(dtype)), idx), dtype
    for seed in KERNEL_SEEDS:
        key = grid._splitmix64(np.array([seed], dtype=np.uint64))[0]
        assert np.array_equal(grid._hash_bit(key, idx.copy()), reference_hash_bit(seed, idx))
    rows = np.random.default_rng(shape.d).integers(len(pts), size=40)
    for spec, reference in kernel_cases(shape):
        f = make_family(spec, shape)
        expected = reference(pts)
        for dtype in dtypes:
            assert np.array_equal(f.peek_many(pts.astype(dtype)), expected), (spec, dtype)
        # List input, batch and scalar.
        assert f.peek_many(pts[rows].tolist()).tolist() == expected[rows].tolist(), spec
        assert [f.peek(list(pts[r])) for r in rows[:10]] == expected[rows[:10]].tolist(), spec


@pytest.mark.parametrize(
    "n,d", [(2, 1), (2, 5), (4, 3), (8, 4), (8, 6), (16, 4), (64, 2), (2, 12), (128, 2)]
)
def test_family_kernels_match_the_reference_on_every_point(n, d):
    shape = GridShape(n, d)
    check_kernels_against_reference(shape, shape.all_points_array())


@pytest.mark.parametrize("n,d", [(2, 70), (8, 256)])
def test_family_kernels_wrap_the_index_as_the_reference_does(n, d):
    # n^d >= 2^63: the index wraps modulo 2^64, as int64 Horner steps do.
    shape = GridShape(n, d)
    pts = np.random.default_rng(n * d).integers(1, n + 1, size=(3000, d))
    pts[:3] = [[1] * d, [n] * d, [n] * (d - 1) + [1]]
    assert (reference_indices_of_points(shape, pts) < 0).any()
    check_kernels_against_reference(shape, pts)


def test_family_truth_tables_are_pinned():
    # sha256 of every truth table above, recorded from the plain kernels; a
    # kernel change that moves any bit moves it.
    digest = hashlib.sha256()
    for n, d in ((2, 1), (2, 5), (4, 3), (8, 4), (8, 6), (16, 4), (64, 2), (2, 12), (128, 2)):
        shape = GridShape(n, d)
        for spec, _ in kernel_cases(shape):
            digest.update(tabulate(make_family(spec, shape)).bits.tobytes())
    assert digest.hexdigest() == "9156989bd4467b2187c92dd3709e6658e330715113041802a83b0de89e0f1608"


@pytest.mark.parametrize(
    "name,n,d", [("surface", 8, 4), ("majority_threshold", 8, 16), ("random_balanced", 64, 4)]
)
def test_family_kernels_make_no_widened_copy_of_the_batch(name, n, d):
    # One read of 16,384 int8 points, a tester batch's size, peaks under
    # 1 MiB; a float64 cast of the (8, 16) batch alone is 2 MiB.
    f = make_family(FamilySpec(name), GridShape(n, d))
    pts = walks.sample_points_batch(f.shape, 16384, np.random.default_rng(3))
    assert pts.dtype == np.int8
    f.eval_many(pts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f.eval_many(pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# Truth-table files
# ---------------------------------------------------------------------------


def test_truth_table_roundtrip(tmp_path):
    # A table on any box loads back on the box it was saved from.
    fs = [make_family(spec, GridShape(4, 4))
          for spec in (FamilySpec("constant1"), FamilySpec("surface", seed=9))]
    fs += [ExplicitFunction(s, random_bits(s.num_points, 5)) for s in (Box(3, 2), GridShape(4, 2))]
    for f in fs:
        path = tmp_path / "f.hgf"
        save_truth_table(f, path)
        g = load_truth_table(path)
        assert g.shape == f.shape and (g.bits == tabulate(f).bits).all()


def test_truth_table_constant1_bit_count(tmp_path):
    path = tmp_path / "c1.hgf"
    save_truth_table(make_family(FamilySpec("constant1"), GridShape(2, 3)), path)
    g = load_truth_table(path)
    assert int(g.bits.sum()) == 8
    # The explicit family builds the table's own grid only.
    assert make_family(FamilySpec("explicit", path=str(path)), GridShape(2, 3)).shape == g.shape
    with pytest.raises(ConfigError, match="does not match requested"):
        make_family(FamilySpec("explicit", path=str(path)), GridShape(2, 4))


@pytest.mark.parametrize("bad", [2, -1, 256])
def test_explicit_function_rejects_values_outside_0_1(bad):
    # 256 would wrap to 0 and -1 to 255 in the uint8 table, and saving packs
    # any nonzero value as 1.
    with pytest.raises(DomainError):
        ExplicitFunction(GridShape(2, 1), np.array([bad, 0]))
    with pytest.raises(DomainError, match="expected 2 bits"):
        ExplicitFunction(GridShape(2, 1), np.array([0, 1, 0]))


def test_explicit_function_roundtrip_keeps_bits(tmp_path):
    f = ExplicitFunction(GridShape(2, 2), np.array([0, 1, 1, 0]))
    path = tmp_path / "f.hgf"
    save_truth_table(f, path)
    assert load_truth_table(path).bits.tolist() == [0, 1, 1, 0]


def test_truth_table_format_errors(tmp_path):
    path = tmp_path / "bad.hgf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_truth_table(path)
    good = tmp_path / "good.hgf"
    save_truth_table(make_family(FamilySpec("constant0"), GridShape(4, 2)), good)
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.hgf"
    trunc.write_bytes(blob[:-1])
    with pytest.raises(FormatError):
        load_truth_table(trunc)
    # Four table bits in one byte: the four padding bits must be zero.
    padded = tmp_path / "padded.hgf"
    save_truth_table(make_family(FamilySpec("constant0"), GridShape(2, 2)), padded)
    blob = padded.read_bytes()
    assert load_truth_table(padded).bits.tolist() == [0, 0, 0, 0]
    padded.write_bytes(blob[:-1] + bytes([blob[-1] | 0xF0]))
    with pytest.raises(FormatError):
        load_truth_table(padded)
    # Headers whose n^d is too large to compute, or to print, with no payload:
    # refused from the payload's length before n^d is formed.
    header = tmp_path / "header.hgf"
    for n, d in ((2, 15000), (2**31, 2**22)):
        header.write_bytes(blob[:4] + struct.pack("<II", n, d))
        with pytest.raises(FormatError, match="payload bytes cannot hold"):
            load_truth_table(header)
    header.write_bytes(blob[:11])
    with pytest.raises(FormatError, match="truncated header"):
        load_truth_table(header)
    header.write_bytes(blob[:4] + struct.pack("<II", 0, 2) + b"\x00")
    with pytest.raises(FormatError, match="side length"):
        load_truth_table(header)


# ---------------------------------------------------------------------------
# Query accounting
# ---------------------------------------------------------------------------


def test_query_counter_exact():
    shape = GridShape(4, 2)
    f = make_family(FamilySpec("anti_dictator"), shape)
    assert f.query_count == 0
    f((1, 1))
    assert f.query_count == 1
    f.eval_many(shape.all_points_array())
    assert f.query_count == 1 + 16
    assert f.peek((1, 1)) in (0, 1)
    assert f.query_count == 17  # peek is free


def test_oracle_values_outside_0_1_are_rejected():
    # One-sidedness relies on values in {0, 1}; the check must survive -O.
    shape = GridShape(4, 2)
    pts = shape.all_points_array()
    bad = FunctionOracle(shape, lambda p: np.full(len(p), 2), name="bad")
    with pytest.raises(DomainError):
        bad((1, 1))
    with pytest.raises(DomainError):
        bad.eval_many(pts)
    half = FunctionOracle(shape, lambda p: np.full(len(p), 0.5))  # int() would round it to 0
    with pytest.raises(DomainError):
        half((1, 1))
    with pytest.raises(DomainError):
        half.eval_many(pts)
    # The uncharged reads check values too, scalar and batch.
    for f in (bad, half):
        with pytest.raises(DomainError):
            f.peek((1, 1))
        with pytest.raises(DomainError):
            f.peek_many(pts)
        with pytest.raises(DomainError):
            tabulate(f)
    good = FunctionOracle(shape, lambda p: p[:, 0] > 2)
    assert good((3, 1)) == 1
    assert good.eval_many(pts).dtype == np.int8
    assert good.peek((3, 1)) == 1
    assert (good.peek_many(pts) == good.eval_many(pts)).all()
    assert good.peek_many(pts).dtype == np.int8
    assert good.query_count == 1 + 2 * len(pts)  # peek and peek_many are free


@pytest.mark.parametrize(
    "fn",
    [
        lambda p: np.zeros(3, np.int8),  # too few values for five points
        lambda p: 0,  # a scalar
        lambda p: np.zeros((len(p), 2), np.int8),  # two values per point
    ],
    ids=["short", "scalar", "two-columns"],
)
def test_batch_function_must_return_one_value_per_point(fn):
    shape = GridShape(4, 2)
    pts = shape.all_points_array()[:5]
    f = FunctionOracle(shape, fn, "misshapen")
    with pytest.raises(DomainError):
        f.peek((1, 1))
    with pytest.raises(DomainError):
        f.peek_many(pts)
    with pytest.raises(DomainError):
        f.eval_many(pts)
    with pytest.raises(DomainError):
        tester.run_tester(f, tester.TesterConfig(shape=shape, trials=10))
    assert f.query_count == 0


def test_worker_counters_are_independent():
    f = make_family(FamilySpec("constant0"), GridShape(2, 2))
    w1, w2 = f.spawn_worker(), f.spawn_worker()
    w1((1, 1))
    w1((2, 2))
    w2((1, 2))
    assert (w1.query_count, w2.query_count, f.query_count) == (2, 1, 0)
