"""Walk kernels, samplers, exact pmfs, cube closed forms and reversibility."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2, hypergeom

from hgm import walks
from hgm.errors import BudgetError, DomainError
from hgm.grid import GridShape, point_dtype
from hgm.rng import substream
from hgm.stats import chi_square_gof
from hgm import validate

from exact_enumeration import cube_walk_prob_enumerated, line_kernel_enumerated
from test_tester import _buffer_call_report


# ---------------------------------------------------------------------------
# Per-coordinate kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_kernel_arithmetic_matches_enumeration(n):
    K = walks.line_kernel(n)
    E = line_kernel_enumerated(n)
    assert np.abs(K - E).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_kernel_rows_are_distributions(n):
    K = walks.line_kernel(n)
    for u in range(1, n + 1):
        assert K[u, u] == 0.0
        assert abs(K[u, 1:].sum() - 1.0) < 1e-12
        assert (K[u, 1:] >= 0).all()


def test_full_size_window_wraps_both_ways():
    # A window of size n covers any two values through either wrap direction,
    # so the covering count at gap g is (n - g) + g = n, not n - g.
    for n in (2, 4, 8):
        for gap in range(1, n):
            assert walks._count_windows_covering(n, n, gap) == n
    assert walks._count_windows_covering(8, 2, 1) == 1 + 0
    assert walks._count_windows_covering(8, 4, 6) == 0 + 2


def test_n2_selected_coordinate_always_moves():
    # With n=2 the only window is {1,2}; the non-self draw is the other value.
    assert walks.line_kernel(2)[1, 2] == 1.0
    assert walks.line_kernel(2)[2, 1] == 1.0
    assert _lazy(2, 1, "up") == 0.0
    assert _lazy(2, 2, "up") == 1.0


def _gap_law(n):
    """Exact law of the gap G = (c - u) mod n as Fractions, from window counts."""
    sizes = [2**q for q in range(1, n.bit_length())]
    return [Fraction(0)] + [
        Fraction(1, len(sizes))
        * sum(Fraction(walks._count_windows_covering(n, s, g), s * (s - 1)) for s in sizes)
        for g in range(1, n)
    ]


@pytest.mark.parametrize("n", [2**q for q in range(1, 11)])
def test_kernel_matches_fraction_gap_law(n):
    # Past n = 16, where the enumerated kernel is too slow, the kernel is
    # checked against the exact law of the gap it is the circulant of.
    law = np.array([float(p) for p in _gap_law(n)])
    v = np.arange(n)
    K = walks.line_kernel(n)
    assert np.abs(K[1:, 1:] - law[(v[None, :] - v[:, None]) % n]).max() < 1e-15
    assert not K[0].any() and not K[:, 0].any()


@pytest.mark.parametrize("n", [2**q for q in range(1, 11)])
def test_gap_alias_table_is_exact(n):
    den, thr, alias = walks.gap_alias_table(n)
    assert n * den < 2**63
    pmf = [Fraction(int(t), n * den) for t in thr]
    for j in range(n):
        pmf[int(alias[j])] += Fraction(den - int(thr[j]), n * den)
    assert pmf == _gap_law(n)
    assert pmf[0] == 0


def test_gap_alias_table_gives_way_to_three_draws_from_2048():
    assert walks.gap_alias_table(2048) is None


def _buckets_reference(n):
    """(b, T, R) of the bucket table, from the alias table in Python ints."""
    den, thr, _ = walks.gap_alias_table(n)
    b = 32 - (n.bit_length() - 1)
    return b, *zip(*(divmod(int(t) << b, den) for t in thr))


@pytest.mark.parametrize("n", [2**q for q in range(1, 11)])
def test_gap_buckets_add_up_to_the_gap_law(n):
    # Every 32-bit word z has mass 2^-32. A whole bucket (2^16 words) goes
    # to its entry. In a split bucket of column i, the words with v < T[i]
    # go to i, the tie word to i with probability R[i] / den and to
    # alias[i] otherwise, and the words above it to alias[i].
    den, _, alias = walks.gap_alias_table(n)
    table, T, R = walks._gap_buckets(n)
    b, T_ref, R_ref = _buckets_reference(n)
    assert T.tolist() == list(T_ref) and R.tolist() == list(R_ref)
    assert table.shape == (2**16,) and table.dtype == (np.int8 if n <= 128 else np.int16)
    assert not (table.flags.writeable or T.flags.writeable or R.flags.writeable)
    whole = np.bincount(table[table >= 0], minlength=n).tolist()
    mass = [Fraction(count * 2**16, 2**32) for count in whole]
    split = np.flatnonzero(table < 0)
    assert split.size <= n
    for bucket in split.tolist():
        i, low = bucket >> (b - 16), (bucket & ((1 << (b - 16)) - 1)) << 16
        t, r, a = T_ref[i], R_ref[i], int(alias[i])
        assert low <= t < low + 2**16  # only the bucket holding T[i] is split
        tie = Fraction(r, den)
        mass[i] += Fraction(t - low, 2**32) + tie / 2**32
        mass[a] += Fraction(low + 2**16 - 1 - t, 2**32) + (1 - tie) / 2**32
    assert mass == _gap_law(n)


class _ChosenDraws:
    """A generator that returns the given draws in turn, checking each one's
    kind: "raw" for its bit generator's raw 64-bit words (given as their
    16-bit lanes), or the (low, high) bounds of a call to integers."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.bit_generator = self  # the words are read from bit_generator.random_raw

    def random_raw(self, size):
        kind, values = self.draws.pop(0)
        assert kind == "raw"
        words = np.asarray(values + [0] * (-len(values) % 4), np.uint16).view(np.uint64)
        assert words.size == size
        return words

    def integers(self, low, high=None, size=None, dtype=np.int64):
        (expected_low, expected_high), values = self.draws.pop(0)
        assert (low, high) == (expected_low, expected_high)
        assert np.size(values) == size
        return np.asarray(values, dtype=dtype)


def test_split_buckets_draw_a_second_word_and_break_ties_exactly():
    # At n = 8 column 2's threshold T[2] splits a bucket. Five moves from
    # u = 1 (so c - 1 is the gap): a whole bucket of column 1, then four
    # words in that split bucket, below, above and twice at T[2]. The tie
    # draws compare with R[2]: R[2] - 1 accepts column 2, R[2] takes alias.
    n = 8
    den, _, alias = walks.gap_alias_table(n)
    table, T, R = walks._gap_buckets(n)
    i, shift = 2, 16 - 3
    t, r = int(T[i]), int(R[i])
    assert 0 < r and 0 < t & 0xFFFF < 0xFFFF
    split = (i << shift) | (t >> 16)
    assert table[split] == -1 and table[1 << shift] == 1
    words = [1 << shift, split, split, split, split]
    low = t & 0xFFFF
    rng = _ChosenDraws(("raw", words), ("raw", [low - 1, low + 1, low, low]),
                       ((0, den), [r - 1, r]))
    c = walks.sample_line_kernel(n, np.ones(5, dtype=np.int64), rng)
    a = int(alias[i])
    assert a != i and not rng.draws
    assert (c - 1).tolist() == [1, i, a, i, a]


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int8])
def test_uniform_words_are_the_full_range_integers_stream(dtype):
    # The raw words of a substream's PCG64 are the words that
    # integers(0, 2**64, dtype=np.uint64) returns, and leave the same state:
    # a bounded draw between two word draws (which keeps half of a 64-bit
    # word for its next 32-bit draw) and the draws after them agree too.
    for size in (0, 1, 3, 8, 1023, 4096 + 5):
        raw, ref = substream(size, "words"), substream(size, "words")
        for _ in range(2):
            assert raw.integers(0, 1000, size=3).tolist() == ref.integers(0, 1000, size=3).tolist()
            words = walks._uniform_words(raw, (size,), dtype)
            width = -(-size * np.dtype(dtype).itemsize // 8)
            expected = ref.integers(0, 2**64, size=width, dtype=np.uint64).view(dtype)[:size]
            assert words.dtype == dtype and np.array_equal(words, expected)
        assert raw.integers(0, 2**64, size=5, dtype=np.uint64).tolist() == \
            ref.integers(0, 2**64, size=5, dtype=np.uint64).tolist()
    with pytest.raises(TypeError, match="unsupported stream tag"):
        substream(0, 0.5)
    # MT19937's raw words are 32 bits wide; it draws through integers.
    mt = np.random.Generator(np.random.MT19937(5))
    words = walks._uniform_words(mt, (64,), dtype)
    expected = np.random.Generator(np.random.MT19937(5)).integers(
        0, 2**64, size=-(-64 * np.dtype(dtype).itemsize // 8), dtype=np.uint64).view(dtype)
    assert np.array_equal(words, expected)


# sample_line_kernel(n, u, substream(n, "pin")) for the 40,000 values
# u = 7919 i mod n + 1: its first ten values and the first 16 hex digits of
# the sha256 of all of them as little-endian int64. n <= 1024 was recorded
# since every move reads one 16-bit word into the alias bucket table (n = 2
# moves surely, so its values did not change); n = 2048 (three draws per
# move, chunk by chunk across MOVE_CHUNK) before the narrow output existed.
KERNEL_STREAM = {
    2: ([2, 1, 2, 1, 2, 1, 2, 1, 2, 1], "b1b8204ccc8b6df4"),
    8: ([2, 3, 2, 4, 2, 3, 2, 7, 8, 7], "6f3824ab625b5b85"),
    16: ([2, 1, 2, 15, 1, 16, 10, 11, 13, 9], "8531114a24a8acf4"),
    64: ([27, 24, 24, 12, 12, 14, 29, 9, 58, 41], "3eef643b0268705e"),
    1024: ([2, 792, 444, 1006, 981, 685, 412, 136, 847, 618], "3dafffca780ad4ac"),
    2048: ([257, 1777, 1505, 1448, 446, 852, 393, 135, 1922, 1625], "6c23d6d513c340f2"),
}


@pytest.mark.parametrize("n", sorted(KERNEL_STREAM))
def test_move_kernel_stream_is_pinned_for_every_path_and_dtype(n):
    head, digest = KERNEL_STREAM[n]
    u = np.arange(40_000, dtype=np.int64) * 7919 % n + 1
    for dtype in (np.int8 if n <= 64 else np.int16, np.int64):
        c = walks.sample_line_kernel(n, u.astype(dtype), substream(n, "pin"))
        assert c.dtype == dtype  # every dtype here holds 2n - 1
        wide = c.astype("<i8")
        assert wide[:10].tolist() == head, dtype
        assert hashlib.sha256(wide.tobytes()).hexdigest()[:16] == digest, dtype
    # int8 cannot hold 2n - 1 = 255 at n = 128: the moves come back as int64.
    assert walks.sample_line_kernel(128, np.full(3, 127, np.int8), substream(0)).dtype == np.int64


@pytest.mark.parametrize("direction", ["up", "down"])
def test_three_draw_moves_match_gap_law_at_2048(direction):
    # n = 2048 is past the alias table (n * den >= 2^63). The three draws
    # never read the gap masses, so the masses are an independent reference.
    n, u, N = 2048, 700, 200_000
    g = np.arange(n)
    gap = walks.gap_law(n)
    c = (u - 1 + g) % n + 1  # the value at each gap
    ahead = c > u if direction == "up" else c < u
    expected = {int(v): float(p) for v, p in zip(c[ahead], gap[ahead])}
    expected[u] = float(gap[~ahead].sum())
    shape = GridShape(n, 1)
    X = np.full((N, 1), u)
    Y = walks.sample_walk_batch(shape, X, 1, direction, substream(2048, "three-draw", direction))
    _, p, _ = chi_square_gof(*_aligned(Y, expected), N)
    assert p > ALPHA, (direction, p)


def test_lazy_probs_complement_move_mass():
    for n in (4, 8, 16):
        K = walks.line_kernel(n)
        for direction in ("up", "down"):
            P = walks.one_step(n, direction)
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            # Off the diagonal, P is the kernel's draws in the walk direction.
            moves = np.triu(K[1:, 1:], 1) if direction == "up" else np.tril(K[1:, 1:], -1)
            assert (P - np.diag(np.diag(P)) == moves).all()
        for u in range(1, n + 1):
            up_mass = K[u, u + 1 :].sum()
            assert abs(_lazy(n, u, "up") + up_mass - 1.0) < 1e-12
            down_mass = K[u, 1:u].sum()
            assert abs(_lazy(n, u, "down") + down_mass - 1.0) < 1e-12


def test_pair_distribution_marginal_is_uniform():
    # A uniform vertex of an unconditionally drawn sub-hypercube is uniform
    # on [n]: sum over pairs containing u of (mass / 2) equals 1/n.
    for n in (2, 4, 8):
        dist = walks.pair_distribution(n)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        for u in range(1, n + 1):
            marg = sum(w for (a, b), w in dist.items() if u in (a, b)) / 2.0
            assert abs(marg - 1.0 / n) < 1e-12


def test_pair_distribution_at_is_kernel_reshaped():
    for n in (4, 8):
        K = walks.line_kernel(n)
        for u in (1, n // 2, n):
            dist = walks.pair_distribution_at(n, u)
            assert abs(sum(dist.values()) - 1.0) < 1e-12
            for (a, b), w in dist.items():
                other = b if a == u else a
                assert abs(w - K[u, other]) < 1e-12


# ---------------------------------------------------------------------------
# Samplers: support, laziness, absorption
# ---------------------------------------------------------------------------


@given(st.sampled_from([2, 4, 8]), st.integers(1, 4), st.integers(0, 10**6))
def test_walk_support_and_laziness(n, d, seed):
    shape = GridShape(n, d)
    rng = substream(seed, "prop")
    lengths = np.tile(np.arange(d + 3), 4)  # 0 through d + 2 in one batch
    X = walks.sample_points_batch(shape, lengths.size, rng)
    for direction in ("up", "down"):
        Y = walks.sample_walk_batch(shape, X, lengths, direction, rng)
        assert ((X <= Y) if direction == "up" else (Y <= X)).all()
        assert ((Y != X).sum(axis=1) <= np.minimum(lengths, d)).all()
        assert (Y[lengths == 0] == X[lengths == 0]).all()


def test_extreme_points_absorb_and_tau_zero_is_identity(rng):
    shape = GridShape(4, 3)
    top, bottom = np.full((50, 3), 4), np.ones((50, 3), dtype=np.int64)
    assert (walks.sample_walk_batch(shape, top, 2, "up", rng) == top).all()
    assert (walks.sample_walk_batch(shape, bottom, 2, "down", rng) == bottom).all()
    X = np.tile((2, 3, 1), (50, 1))
    for direction in ("up", "down"):
        assert (walks.sample_walk_batch(shape, X, 0, direction, rng) == X).all()


def test_every_walk_entry_point_rejects_a_bad_direction(rng):
    # The batch samplers once walked down for any direction but "up".
    shape = GridShape(4, 2)
    X = np.full((5, 2), 2)
    A, B = np.ones_like(X), np.full_like(X, 4)
    for direction in ("sideways", "Up", ""):
        for call in (
            lambda: walks.sample_walk_batch(shape, X, 2, direction, rng),
            lambda: walks.sample_hypercube_walk_batch(A, B, X, 1, direction, rng),
            lambda: walks.WalkSpec(direction, 1, shape),
            lambda: walks.one_step(4, direction),
            lambda: walks.cube_walk_closed_form(4, 2, 1, 1, direction),
        ):
            with pytest.raises(DomainError):
                call()


def test_shift_vectors_restore_walk_endpoints(rng):
    # The tester's shift sub-tests: a shift drawn at an anchor moves the
    # anchor to its own walk endpoint, and moves the coupled walk's other
    # endpoint to a point that stays inside the grid.
    shape, N = GridShape(8, 3), 2000
    X0 = walks.sample_points_batch(shape, N, rng)
    Y0 = walks.sample_walk_batch(shape, X0, 2, "up", rng)
    D = walks.sample_walk_batch(shape, X0, 2, "down", rng)
    S = X0 - D
    assert (S >= 0).all() and ((S > 0).sum(axis=1) <= 2).all()
    assert (X0 - S == D).all()
    assert ((Y0 - S >= 1) & (Y0 - S <= shape.n)).all()
    X1 = walks.sample_walk_batch(shape, X0, 2, "down", rng)
    U = walks.sample_walk_batch(shape, X0, 2, "up", rng)
    S = U - X0
    assert (S >= 0).all() and ((S > 0).sum(axis=1) <= 2).all()
    assert (X0 + S == U).all()
    assert ((X1 + S >= 1) & (X1 + S <= shape.n)).all()


# ---------------------------------------------------------------------------
# Exact pmfs
# ---------------------------------------------------------------------------


def test_single_step_pmf_on_2x2_grid():
    shape = GridShape(2, 2)
    pmf = walks.exact_pmf(shape, (1, 1), walks.WalkSpec("up", 1, shape))
    assert pmf[(2, 1)] == pytest.approx(0.5, abs=1e-15)
    assert pmf[(1, 2)] == pytest.approx(0.5, abs=1e-15)
    assert pmf.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-15)
    down = walks.exact_pmf(shape, (2, 2), walks.WalkSpec("down", 1, shape))
    assert down[(1, 2)] == pytest.approx(0.5, abs=1e-15)


def test_pmf_normalization_and_directional_support():
    for n, d, tau, direction in [(4, 2, 1, "up"), (4, 2, 3, "down"), (8, 1, 2, "up"), (2, 4, 5, "up")]:
        shape = GridShape(n, d)
        for x in [(1,) * d, (n,) * d, tuple(1 + (i % n) for i in range(d))]:
            pmf = walks.exact_pmf(shape, x, walks.WalkSpec(direction, tau, shape))
            assert abs(math.fsum(pmf.values()) - 1.0) < 1e-12
            for y in pmf:
                if direction == "up":
                    assert all(a <= b for a, b in zip(x, y))
                else:
                    assert all(b <= a for a, b in zip(x, y))


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in (2, 4, 8, 16, 32, 64) for d in range(1, 7) if n**d <= 64]
)
def test_joint_law_rows_are_the_exact_pmfs(n, d):
    # Each anchor's row of the sparse joint law against the anchor-by-anchor
    # enumeration: the same support, and the same values to 1e-15.
    shape = GridShape(n, d)
    for tau, direction, formulation in itertools.product(
        range(4), ("up", "down"), validate.FORMULATIONS
    ):
        law = validate.joint_law(shape, tau, walks.formulation_step(n, direction, formulation))
        spec = walks.WalkSpec(direction, tau, shape)
        for xi, x in enumerate(shape.points()):
            pmf = walks.exact_pmf(shape, x, spec, formulation)
            expected = {shape.index_of(y): p for y, p in pmf.items()}
            row = slice(law.indptr[xi], law.indptr[xi + 1])
            assert law.indices[row].tolist() == sorted(expected), (tau, direction, x)
            want = [expected[y] for y in law.indices[row].tolist()]
            assert np.abs(law.data[row] - want).max() <= 1e-15, (tau, direction, x)


@pytest.mark.parametrize(
    "n,d",
    [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (8, 1), (8, 2), (16, 1)],
)
def test_three_formulations_agree_pointwise(n, d):
    shape = GridShape(n, d)
    for tau in (1, 2, 3):
        for direction in ("up", "down"):
            res = validate.equivalence_exact(shape, tau, direction)
            assert res.passed, (n, d, tau, direction, res.max_diffs)


def test_shift_pmf_is_translated_walk_pmf():
    shape = GridShape(4, 2)
    for x in [(1, 1), (2, 3), (4, 2)]:
        pmf = walks.exact_pmf(shape, x, walks.WalkSpec("up", 2, shape))
        spmf = walks.exact_shift_pmf(shape, x, 2, "up")
        assert abs(sum(spmf.values()) - 1.0) < 1e-12
        for s, p in spmf.items():
            y = tuple(a + b for a, b in zip(x, s))
            assert abs(p - pmf.get(y, 0.0)) < 1e-12


def _tv_distance(pmf, counts, total):
    """Total variation distance between a pmf and the empirical law of counts."""
    return 0.5 * math.fsum(
        abs(pmf.get(y, 0.0) - counts.get(y, 0) / total) for y in set(pmf) | set(counts)
    )


def test_sampled_walks_match_exact_pmf():
    shape = GridShape(4, 2)
    x = (2, 1)
    pmf = walks.exact_pmf(shape, x, walks.WalkSpec("up", 2, shape))
    # Vectorized sampler at 200k draws.
    rng = substream(77, "batch-tv")
    N = 200_000
    X = np.tile(np.array(x), (N, 1))
    Y = walks.sample_walk_batch(shape, X, np.full(N, 2), "up", rng)
    keys, counts = np.unique(shape.indices_of_points(Y), return_counts=True)
    emp = {shape.point_of(int(k)): int(c) for k, c in zip(keys, counts)}
    assert _tv_distance(pmf, emp, N) < 0.01


# Up rows from the first anchor, then down rows from the second, in one
# walk_rows call. At (8, 40) most coordinates sit where the walk cannot move
# them, which keeps the support small enough for the TV bound.
MIXED_CELLS = [
    (4, 2, (2, 1), (3, 4)),
    (8, 40, (1, 4, 7) + (8,) * 37, (8, 5, 2) + (1,) * 37),
]


@pytest.mark.parametrize("n,d,up_anchor,down_anchor", MIXED_CELLS)
def test_one_walk_step_call_matches_exact_pmf_in_each_direction(n, d, up_anchor, down_anchor):
    shape = GridShape(n, d)
    N, tau = 200_000, 2
    X = np.empty((2 * N, d), dtype=point_dtype(n))
    X[:N], X[N:] = up_anchor, down_anchor
    rng = substream(78, "mixed-tv")
    walks.walk_rows(n, X, np.full(2 * N, tau), N, rng, np.empty(X.shape, dtype=bool))
    # Every row, the last up row and the first down row too, moved its way.
    assert (X[:N] >= up_anchor).all() and (X[N:] <= down_anchor).all()
    for rows, x, direction in ((X[:N], up_anchor, "up"), (X[N:], down_anchor, "down")):
        pmf = walks.exact_pmf(shape, x, walks.WalkSpec(direction, tau, shape))
        # Rows as opaque bytes: np.unique over axis 0 is far slower.
        keys, counts = np.unique(rows.view(f"V{d * rows.itemsize}"), return_counts=True)
        points = np.frombuffer(keys.tobytes(), dtype=rows.dtype).reshape(-1, d)
        emp = {tuple(p.tolist()): int(c) for p, c in zip(points, counts)}
        assert _tv_distance(pmf, emp, N) < 0.01, direction


def test_flatnonzero_into_matches_flatnonzero():
    rng = np.random.default_rng(7)
    chunk = walks.INDEX_CHUNK
    for size in (0, 1, chunk - 1, chunk, 3 * chunk + 5):
        for density in (0.0, 0.3, 1.0):
            mask = rng.random(size) < density
            out = np.empty(np.count_nonzero(mask), dtype=np.intp)
            assert walks._flatnonzero_into(mask, out) is out
            assert np.array_equal(out, np.flatnonzero(mask))


def test_large_masks_index_their_entries_in_the_kept_buffer(monkeypatch):
    # (8, 256) at 1,024 trials: a mask of 12 N d = 3.1M entries, over
    # WHOLE_INDEX_MAX, whose index alone would take about 5.3 MB.
    monkeypatch.setenv("HGM_THREADS", "1")
    call = (8, 256, "anti_dictator", 1024, 3, 1024)
    first = _buffer_call_report(*call)[1]
    kept = walks._SELECTED.buffer
    assert kept is not None
    tracemalloc.start()
    try:
        assert _buffer_call_report(*call)[1] == first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walks._SELECTED.buffer is kept
    # The anchors (2 MB) and the move kernel's output and scratch.
    assert peak < 4 << 20, peak
    # Indexed whole, the same mask gives the same report.
    monkeypatch.setattr(walks, "WHOLE_INDEX_MAX", 1 << 40)
    assert _buffer_call_report(*call)[1] == first



# ---------------------------------------------------------------------------
# Batch kernel at large d: the tester's regime, beyond the exact-pmf gates
# ---------------------------------------------------------------------------

LARGE = GridShape(8, 256)
ALPHA = 0.001


def _binomial_pmf(m, p):
    return {k: math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(m + 1)}


def _aligned(values, expected):
    """The counts of values and the probabilities of the law ``expected``
    ({category: probability}) as aligned arrays; a value outside the law is
    one more category, of probability 0."""
    tally = dict(zip(*np.unique(values, return_counts=True)))
    cats = sorted(set(expected) | set(tally))
    return [tally.get(c, 0) for c in cats], [expected.get(c, 0.0) for c in cats]


def _lazy(n, u, direction):
    """Probability that a selected coordinate at value u does not move."""
    return float(walks.one_step(n, direction)[u - 1, u - 1])


@pytest.mark.parametrize("direction", ["up", "down"])
@pytest.mark.parametrize("m", [1, 16, 37, 128, 255, 256])
def test_large_d_move_count_is_binomial(m, direction):
    # From a constant anchor, each of the m selected coordinates moves
    # independently with the kernel's move probability.
    u, N = 4, 4000
    X = np.full((N, LARGE.d), u)
    rng = substream(m, "large-d-binomial", direction)
    Y = walks.sample_walk_batch(LARGE, X, np.full(N, m), direction, rng)
    moved = (Y != X).sum(axis=1)
    expected = _binomial_pmf(m, 1.0 - _lazy(LARGE.n, u, direction))
    _, p, _ = chi_square_gof(*_aligned(moved, expected), N)
    assert p > ALPHA, (m, direction, p)


@pytest.mark.parametrize("m", [1, 16, 37, 128, 255])
def test_large_d_coordinates_selected_uniformly(m):
    # At the bottom corner a selected coordinate always moves up (its lazy
    # probability is 0), so the moved set is exactly the selected subset.
    d, N = LARGE.d, 4000
    X = np.ones((N, d), dtype=np.int64)
    rng = substream(m, "large-d-select")
    Y = walks.sample_walk_batch(LARGE, X, np.full(N, m), "up", rng)
    selected = Y != X
    assert (selected.sum(axis=1) == m).all()
    # Per-coordinate counts of a uniform m-subset: Pearson's statistic is
    # scaled by (d-1)/(d-m) because draws without replacement are
    # negatively correlated; the result is chi-square with d-1 dof.
    freq = selected.sum(axis=0)
    e = N * m / d
    stat = float(((freq - e) ** 2).sum()) / e * (d - 1) / (d - m)
    assert chi2.sf(stat, d - 1) > ALPHA, (m, stat)
    # Jointly: the number selected among the first d/2 coordinates is
    # hypergeometric, which a sampler with uniform marginals but correlated
    # picks (say, a contiguous block) would miss.
    half = selected[:, : d // 2].sum(axis=1)
    expected = {k: float(hypergeom.pmf(k, d, d // 2, m)) for k in range(m + 1)}
    _, p, _ = chi_square_gof(*_aligned(half, expected), N)
    assert p > ALPHA, (m, p)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("direction", ["up", "down"])
def test_large_d_selected_values_follow_line_kernel(n, direction):
    # With length >= d every coordinate is selected, so each entry is an
    # independent draw: u with the lazy probability, else v ~ K[u, v].
    shape, u, N = GridShape(n, 256), n // 2, 1000
    X = np.full((N, shape.d), u)
    rng = substream(n, "large-d-values", direction)
    Y = walks.sample_walk_batch(shape, X, np.full(N, 300), direction, rng)
    K = walks.line_kernel(n)
    moves = range(u + 1, n + 1) if direction == "up" else range(1, u)
    expected = {v: float(K[u, v]) for v in moves}
    expected[u] = _lazy(n, u, direction)
    _, p, _ = chi_square_gof(*_aligned(Y, expected), Y.size)
    assert p > ALPHA, (n, direction, p)


def test_large_d_mixed_lengths_match_per_group_behaviour():
    d, per = LARGE.d, 2000
    pool = np.array([0, 1, 3, 16, 37, 255, 256, 300, 1024])
    lengths = substream(5, "large-d-mixed").permutation(np.repeat(pool, per))
    # Bottom anchors: every row moves exactly min(length, d) coordinates.
    X = np.ones((lengths.size, d), dtype=np.int64)
    Y = walks.sample_walk_batch(LARGE, X, lengths, "up", substream(6, "large-d-mixed"))
    assert ((Y != X).sum(axis=1) == np.minimum(lengths, d)).all()
    # Middle anchors: each length group's move count is its own binomial.
    u = 4
    X = np.full((lengths.size, d), u)
    Y = walks.sample_walk_batch(LARGE, X, lengths, "up", substream(7, "large-d-mixed"))
    moved = (Y != X).sum(axis=1)
    assert (moved[lengths == 0] == 0).all()
    p_move = 1.0 - _lazy(LARGE.n, u, "up")
    for ell in pool[pool > 0]:
        expected = _binomial_pmf(min(int(ell), d), p_move)
        _, p, _ = chi_square_gof(*_aligned(moved[lengths == ell], expected), per)
        assert p > ALPHA, (ell, p)


def _uniform_subset_p(selected, k):
    """Chi-square p-value of the rows of a mask against the uniform law on
    size-k subsets, each row's subset read as one bit mask. Past 10^5
    subsets, the categories are instead len(selected) // 20 ranges of equal
    width of the subsets' colex ranks, sum_j C(c_j, j) over the subset's
    coordinates c_1 < ... < c_k."""
    d = selected.shape[1]
    assert (selected.sum(axis=1) == k).all()
    total = math.comb(d, k)
    if total <= 10**5:
        codes = selected.astype(np.int64) @ (1 << np.arange(d))
        expected = {sum(1 << i for i in S): 1 / total
                    for S in itertools.combinations(range(d), k)}
        _, p, _ = chi_square_gof(*_aligned(codes, expected), len(selected))
        return p
    binom = np.array([[math.comb(i, j) for j in range(d + 1)] for i in range(d)], dtype=np.int64)
    ranks = np.where(selected, binom[np.arange(d), np.cumsum(selected, axis=1)], 0).sum(axis=1)
    width = -(-total // (len(selected) // 20))
    expected = {b: (min(total, (b + 1) * width) - b * width) / total
                for b in range(-(-total // width))}
    _, p, _ = chi_square_gof(*_aligned(ranks // width, expected), len(selected))
    return p


def _three_of_six_law(rng):
    # select_coordinates reads d = 6 from the mask table, so the key pass
    # that serves d > TABLE_MAX_D is called directly.
    selected = np.empty((20_000, 6), dtype=bool)
    walks._key_subsets(6, np.full(20_000, 3), rng, selected, np.arange(20_000))
    return _uniform_subset_p(selected, 3)


def test_key_subsets_are_uniform():
    assert _three_of_six_law(substream(1, "key-subsets")) > ALPHA


class _TwoBitKeys:
    """A generator whose raw 64-bit words keep two bits of every 16-bit
    lane, so threshold keys tie often."""

    def __init__(self, rng):
        self.rng, self.word_draws = rng, 0
        self.bit_generator = self  # the words are read from bit_generator.random_raw

    def random_raw(self, size):
        self.word_draws += 1
        return self.rng.bit_generator.random_raw(size) & np.uint64(0x0003_0003_0003_0003)


def test_tied_key_rows_are_redrawn_and_stay_uniform():
    rng = _TwoBitKeys(substream(2, "key-subsets"))
    # Every row has exactly 3 coordinates (no over-selection at a tie) and
    # the law is uniform, through several rounds of redraws.
    assert _three_of_six_law(rng) > ALPHA
    assert rng.word_draws > 3


@pytest.mark.parametrize("d, ties", [(6, True), (17, False), (256, False), (1100, False)])
def test_key_pass_draws_one_stream_in_chunks_of_any_size(monkeypatch, d, ties):
    # One chunk, the default chunks and chunks of 4 rows (the fewest that
    # hold a whole number of 64-bit words) set the same rows to the same
    # subsets and leave the generator at the same word, through redraws of
    # tied rows (two-bit keys at d = 6) and with 32-bit keys (d = 1100).
    k = substream(d, "key-chunks").integers(1, d, size=2003)
    rows = substream(d, "key-chunks", "rows").permutation(k.size + 50)[: k.size]

    def draw(chunk_bytes):
        monkeypatch.setattr(walks, "KEY_CHUNK_BYTES", chunk_bytes)
        gen = substream(d, "key-chunks", "draw")
        selected = np.zeros((k.size + 50, d), dtype=bool)
        walks._key_subsets(d, k, _TwoBitKeys(gen) if ties else gen, selected, rows)
        return selected, int(gen.integers(2**62))

    whole, after = draw(1 << 40)
    assert (whole[rows].sum(axis=1) == k).all()
    assert not np.delete(whole, rows, axis=0).any()  # the other rows are untouched
    for chunk_bytes in (walks.KEY_CHUNK_BYTES, 1):
        selected, at = draw(chunk_bytes)
        assert np.array_equal(selected, whole) and at == after


@pytest.mark.parametrize("d", [1, 5, 16, 17, 64, 256, 2048])
def test_every_row_selects_exactly_min_length_d(d):
    # Every length 0..d + 2, shuffled. d = 1, 5 and 16 read the mask table
    # (d <= TABLE_MAX_D); from d = 17 the rows take every other path, full
    # (k = d), Floyd (k <= 4 + d // 32), Floyd on the complement
    # (d - k <= 4 + d // 32) and key thresholds (32 bits at 2048).
    lengths = substream(d, "exact-count").permutation(np.repeat(np.arange(d + 3), 4))
    rng = substream(d, "exact-count", "draw")
    selected = walks.select_coordinates(d, lengths, rng)
    assert (selected.sum(axis=1) == np.minimum(lengths, d)).all()
    assert walks.select_coordinates(d, lengths[:0], rng).shape == (0, d)
    # uint64 lengths of 2^63 and more clip to d rather than wrap negative.
    huge = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert (walks.select_coordinates(d, huge, rng).sum(axis=1) == [0, 1, d, d]).all()


@pytest.mark.parametrize("d", [17, 64])
def test_subsets_on_both_sides_of_the_floyd_boundary_are_uniform(d):
    # The last size Floyd's algorithm draws and the first the key pass
    # draws, on the subset and on the complement side, with rows of every
    # other size shuffled into the same call.
    b = walks._floyd_max(d)
    sizes = (b, b + 1, d - b - 1, d - b)
    per_size = {k: min(8 * math.comb(d, k), 40_000) for k in sizes}
    others = np.repeat(np.arange(d + 2), 200)
    gen = substream(d, "floyd-boundary")
    lengths = gen.permutation(
        np.concatenate([np.full(per_size[k], k) for k in sizes] + [others[~np.isin(others, sizes)]])
    )
    selected = walks.select_coordinates(d, lengths, gen)
    assert (selected.sum(axis=1) == np.minimum(lengths, d)).all()
    for k in sizes:
        p = _uniform_subset_p(selected[lengths == k], k)
        assert p > ALPHA, (d, k, p)


@pytest.mark.parametrize("d", range(1, walks.TABLE_MAX_D + 1))
def test_subset_table_blocks_hold_each_mask_of_their_size_once(d):
    rows, start, count, limit = walks._subset_table(d)
    masks = rows
    assert masks.dtype == bool and masks.shape == (2**d, d)
    codes = masks.astype(np.int64) @ (1 << np.arange(d))
    assert sorted(codes) == list(range(2**d))
    for k in range(d + 1):
        first, size, end = int(start[k]), int(count[k]), int(limit[k])
        assert size == math.comb(d, k)
        assert end % size == 0 and 2**32 - size < end <= 2**32
        assert (masks[first : first + size].sum(axis=1) == k).all()
        if d <= 8:
            expected = {sum(1 << i for i in S) for S in itertools.combinations(range(d), k)}
            assert set(codes[first : first + size].tolist()) == expected
    assert not rows.flags.writeable


@pytest.mark.parametrize("d, k", [(6, 3), (9, 4), (16, 2), (16, 8)])
def test_table_subsets_are_uniform_among_mixed_sizes(d, k):
    # Every subset of size k, with rows of every other size shuffled into
    # the same call.
    N = 8 * math.comb(d, k)
    others = np.repeat(np.arange(d + 2), 500)
    gen = substream(d, k, "table-subsets")
    lengths = gen.permutation(np.concatenate([np.full(N, k), others[others != k]]))
    selected = walks.select_coordinates(d, lengths, gen)
    assert (selected.sum(axis=1) == np.minimum(lengths, d)).all()
    p = _uniform_subset_p(selected[lengths == k], k)
    assert p > ALPHA, (d, k, p)


class _RejectedWords:
    """A generator whose first few draws of raw 64-bit words are all ones, so
    every 32-bit lane drawn from them lies at or above the table's limit."""

    def __init__(self, rng, rejected_draws):
        self.rng, self.rejected_draws, self.word_draws = rng, rejected_draws, 0
        self.bit_generator = self  # the words are read from bit_generator.random_raw

    def random_raw(self, size):
        out = self.rng.bit_generator.random_raw(size)
        self.word_draws += 1
        if self.word_draws <= self.rejected_draws:
            out[...] = np.uint64(2**64 - 1)
        return out


def test_rejected_table_draws_are_redrawn_and_stay_uniform():
    # C(6, 3) = 20 does not divide 2^32, so a lane of 2^32 - 1 is refused;
    # the first three rounds refuse every row.
    rng = _RejectedWords(substream(3, "table-subsets"), rejected_draws=3)
    selected = walks.select_coordinates(6, np.full(20_000, 3), rng)
    assert rng.word_draws == 4
    assert _uniform_subset_p(selected, 3) > ALPHA


@pytest.mark.parametrize("length", [2.5, -3, np.array([1.0, 2.0]), np.array([1, -1])])
def test_samplers_refuse_a_length_that_is_not_a_non_negative_integer(length, rng):
    shape, X = GridShape(8, 4), np.full((2, 4), 4)
    with pytest.raises(DomainError):
        walks.sample_walk_batch(shape, X, length, "up", rng)
    A, B = np.ones((2, 4), dtype=np.int64), np.full((2, 4), 8)
    with pytest.raises(DomainError):
        walks.sample_hypercube_walk_batch(A, B, A, length, "up", rng)


def test_pmf_budget_is_enforced():
    shape = GridShape(16, 4)
    with pytest.raises(BudgetError):
        walks.exact_pmf(shape, (8, 8, 8, 8), walks.WalkSpec("up", 4, shape), budget=100)
    with pytest.raises(DomainError, match="shape mismatch"):
        walks.exact_pmf(shape, (8, 8, 8, 8), walks.WalkSpec("up", 1, GridShape(8, 4)))
    with pytest.raises(DomainError, match="unknown formulation"):
        walks.exact_pmf(shape, (8, 8, 8, 8), walks.WalkSpec("up", 1, shape), "sideways")
    with pytest.raises(DomainError, match="non-negative"):
        walks.WalkSpec("up", -1, shape)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_move_law_refuses_a_side_length_that_is_not_a_power_of_two(n):
    # The walk is defined only on dyadic grids; these once returned laws.
    for call in (
        walks.gap_law,
        walks.line_kernel,
        walks.gap_alias_table,
        lambda n: walks.one_step(n, "up"),
        walks.pair_distribution,
        lambda n: walks.pair_distribution_at(n, 1),
    ):
        with pytest.raises(DomainError):
            call(n)


# ---------------------------------------------------------------------------
# Hypercubes
# ---------------------------------------------------------------------------


def test_hypercube_draws_are_valid(rng):
    shape = GridShape(8, 3)
    A, B = walks.sample_hypercube_batch(shape, 200, rng)
    assert ((1 <= A) & (A < B) & (B <= 8)).all()
    X = np.tile((3, 8, 1), (200, 1))
    A, B = walks.sample_hypercube_at_batch(shape, X, rng)
    assert ((1 <= A) & (A < B) & (B <= 8)).all()
    assert ((X == A) | (X == B)).all()


def test_n2_hypercube_is_always_full_cube(rng):
    shape = GridShape(2, 2)
    for A, B in (
        walks.sample_hypercube_batch(shape, 20, rng),
        walks.sample_hypercube_at_batch(shape, np.tile((1, 2), (20, 1)), rng),
    ):
        assert (A == 1).all() and (B == 2).all()


def test_hypercube_walk_moves_between_endpoints(rng):
    # The cube {2, 5} x {1, 8} x {3, 4}: a corner absorbs walks toward it,
    # and a length-1 walk from the other corner flips one coordinate.
    A, B = np.tile((2, 1, 3), (50, 1)), np.tile((5, 8, 4), (50, 1))
    assert (walks.sample_hypercube_walk_batch(A, B, B, 2, "up", rng) == B).all()
    assert (walks.sample_hypercube_walk_batch(A, B, A, 2, "down", rng) == A).all()
    Y = walks.sample_hypercube_walk_batch(A, B, A, 1, "up", rng)
    assert ((Y == A) | (Y == B)).all() and ((Y == B).sum(axis=1) == 1).all()
    Y = walks.sample_hypercube_walk_batch(A, B, B, 1, "down", rng)
    assert ((Y == A) | (Y == B)).all() and ((Y == A).sum(axis=1) == 1).all()


def _weight_law(shape, x):
    """Exact law of x's weight in a cube drawn through x: coordinate i sits at
    the cube's upper endpoint iff its draw does not move up from x_i, so the
    weight is a sum of independent Bernoullis (zero-mass weights left out)."""
    law = np.array([1.0])
    for lazy in np.diag(walks.one_step(shape.n, "up"))[np.subtract(x, 1)]:
        law = np.convolve(law, [1.0 - lazy, lazy])
    return {w: float(p) for w, p in enumerate(law) if p > 0}


def test_conditioned_cube_weight_matches_bernoulli_sum_law(rng):
    # The conditioned-cube sampler against the exact weight law of x in the
    # sampled cubes through it.
    samples = 4000
    for shape, x in ((GridShape(4, 3), (2, 3, 1)), (GridShape(8, 4), (1, 4, 6, 8))):
        X = np.tile(shape.check_point(x), (samples, 1))
        _, B = walks.sample_hypercube_at_batch(shape, X, rng)
        weights = (X == B).sum(axis=1)  # coordinates at the cube's upper endpoint
        _, p, _ = chi_square_gof(*_aligned(weights, _weight_law(shape, x)), samples)
        assert p > ALPHA, (shape, x, p)


# ---------------------------------------------------------------------------
# Cube walk closed forms and reversibility
# ---------------------------------------------------------------------------


def test_cube_closed_form_examples():
    assert walks.cube_walk_closed_form(4, 2, 0, 0, "up") == 1
    assert walks.cube_walk_closed_form(4, 2, 1, 1, "up") == Fraction(1, 4)
    with pytest.raises(DomainError):
        walks.cube_walk_closed_form(4, 2, 3, 2, "up")
    with pytest.raises(DomainError):
        walks.cube_walk_closed_form(4, 4, 1, 1, "up")  # nothing above the top
    with pytest.raises(DomainError, match="weight 5 out of range"):
        walks.cube_walk_closed_form(4, 5, 0, 1, "down")


@pytest.mark.parametrize("d", [4, 6])
def test_cube_closed_form_matches_subset_enumeration(d):
    for direction in ("up", "down"):
        for w in range(d + 1):
            free = d - w if direction == "up" else w
            for ell in range(0, min(d, 4) + 1):
                for t in range(0, min(ell, free) + 1):
                    assert walks.cube_walk_closed_form(
                        d, w, t, ell, direction
                    ) == cube_walk_prob_enumerated(d, w, t, ell, direction)


def test_cube_walk_mc_matches_closed_form(rng):
    d, w, t, ell = 6, 3, 1, 2
    N = 200_000
    A, B = np.ones((N, d), dtype=np.int64), np.full((N, d), 2)
    X = np.tile((2,) * w + (1,) * (d - w), (N, 1))
    target = (2,) * (w + t) + (1,) * (d - w - t)
    p = float(walks.cube_walk_closed_form(d, w, t, ell, "up"))
    Y = walks.sample_hypercube_walk_batch(A, B, X, ell, "up", rng)
    hits = int((Y == target).all(axis=1).sum())
    sigma = math.sqrt(p * (1 - p) / N)
    assert abs(hits / N - p) < 3 * sigma + 1e-9


def test_reversibility_scan_rows_are_consistent():
    cases = set()
    for ell in (2, 3, 4):
        rows = validate.reversibility_scan(16, ell, 0.5)
        assert rows
        for r in rows:
            if r.t == 0:
                assert r.ratio == 1.0 and r.product_formula == 1.0
            else:
                assert r.ratio == pytest.approx(r.product_formula, abs=1e-12)
            cases.add((r.weight_x, r.t, r.ell))
    # Middle-layer pairs (w, t, ell) on both sides of d/2, up to t = ell.
    assert {(8, 2, 3), (7, 1, 2), (8, 1, 4), (6, 3, 3)} <= cases
    # A narrow middle band drops the weights and targets outside it.
    assert len(validate.reversibility_scan(16, 1, 0.5, c=0.01)) == 5
    assert len(validate.reversibility_scan(16, 1, 0.5, c=100)) == 33
    for d, ell in ((0, 1), (16, -1)):
        with pytest.raises(DomainError, match="invalid scan parameters"):
            validate.reversibility_scan(d, ell, 0.5)


def test_band_halfwidth_formula():
    assert walks.middle_band_halfwidth(16, 1.0, 0.5) == pytest.approx(
        math.sqrt(4 * 16 * math.log(32)), abs=1e-12
    )
    with pytest.raises(DomainError):
        walks.middle_band_halfwidth(16, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Statistical-equivalence harness sensitivity
# ---------------------------------------------------------------------------


def test_statistical_equivalence_detects_a_corrupted_sampler():
    shape = GridShape(4, 2)

    def corrupt(shape_, tau, formulation, count, rng):
        X, Y = validate._sample_pairs(shape_, tau, formulation, count, rng)
        if formulation == "cube_first":
            # Bias: re-anchor a tenth of the pairs at the origin.
            k = count // 10
            X[:k] = 1
        return X, Y

    res = validate.equivalence_statistical(shape, 1, 40_000, 5, sampler=corrupt)
    assert not res.passed
    assert res.per_formulation["cube_first"][1] <= 0.001
    clean = validate.equivalence_statistical(shape, 1, 40_000, 5)
    assert clean.passed

    def stray(shape_, tau, formulation, count, rng):
        X, Y = validate._sample_pairs(shape_, tau, formulation, count, rng)
        X[0], Y[0] = 4, 1  # outside the support: an up-walk never leaves the top corner
        return X, Y

    res = validate.equivalence_statistical(shape, 1, 2000, 5, sampler=stray)
    assert not res.passed
    for stat, p, _ in res.per_formulation.values():
        assert stat == math.inf and p == 0.0
    with pytest.raises(DomainError, match="unknown formulation"):
        validate._sample_pairs(shape, 1, "sideways", 10, substream(5))
    with pytest.raises(DomainError, match="must be positive"):
        chi_square_gof([1], [1.0], 0)
