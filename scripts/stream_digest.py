#!/usr/bin/env python3
"""sha256 digests of seeded outputs of every random stream the tester draws.

Hashes, in a fixed order:

  * ``run_tester`` reports over cells with int8, int16, int32 and int64
    points, d from 2 to 256 (the mask table, Floyd's algorithm and the key
    pass; at (8, 256) a 1,024-trial batch indexes its selected entries in
    chunks and a 256-trial one whole) and n = 2048 (three draws per move),
    at two batch sizes and at HGM_THREADS 1 and 2;
  * ``run_full_tester`` results, on the domain reduction at a forced
    k = 4 < n and on the fallback (the k = n rounds, which run on f itself,
    are pinned in ``tests/test_tester.py``);
  * ``sample_walk_batch`` endpoints, up and down, with scalar and per-row
    lengths.

It prints one hash per part, ``tester=``, ``full=`` and ``walks=``, over
that part's outputs, then the total, ``sha256=``, over all of them, last. A
change that keeps every stream prints the same lines, and a part whose
hash moved names the stream that changed. Compare two trees by pointing
PYTHONPATH at each one's ``src``:

    PYTHONPATH=src python3 scripts/stream_digest.py
"""

import hashlib
import os

import numpy as np

from hgm import tester, walks
from hgm.grid import FamilySpec, GridShape, make_family
from hgm.rng import substream

# (family, n, d, trials, seed); the points are int8 up to n = 64, int16 up
# to n = 2^14, int32 up to n = 2^30 and int64 above.
TESTER_CELLS = (
    ("surface", 8, 16, 1500, 1),
    ("anti_dictator", 8, 64, 1500, 2),
    ("anti_dictator", 8, 256, 1100, 3),
    ("random_balanced", 64, 4, 1500, 4),
    ("random_balanced", 128, 5, 1500, 5),
    ("random_balanced", 2048, 6, 1500, 6),
    ("random_balanced", 2**15, 3, 1500, 7),
    ("random_balanced", 2**31, 2, 1500, 8),
)
BATCH_SIZES = (1024, 256)

# (family, n, d, eps, seed): eps >= 1/sqrt(d) runs the reduction, below it
# the fallback.
FULL_CELLS = (
    ("majority_threshold", 8, 16, 0.9, 1),
    ("anti_dictator", 8, 16, 0.9, 2),
    ("surface", 8, 32, 0.1, 3),
    ("majority_threshold", 2048, 20, 0.2, 4),
)

# (n, d, rows, seed); (8, 256) at 4,500 rows is over walks.WHOLE_INDEX_MAX.
WALK_CELLS = (
    (4, 2, 5000, 1),
    (8, 64, 2000, 2),
    (8, 256, 4500, 3),
    (2048, 20, 2000, 4),
    (2**15, 3, 3000, 5),
)


def tester_outputs():
    for family, n, d, trials, seed in TESTER_CELLS:
        f = make_family(FamilySpec(family), GridShape(n, d))
        for batch_size in BATCH_SIZES:
            for threads in ("1", "2"):
                os.environ["HGM_THREADS"] = threads
                cfg = tester.TesterConfig(
                    shape=f.shape, trials=trials, seed=seed, batch_size=batch_size
                )
                rep = tester.run_tester(f.spawn_worker(), cfg)
                yield repr((family, n, d, batch_size, threads, rep.rejections, rep.per_tau,
                            rep.per_step, rep.total_queries, rep.witnesses)).encode()


def full_tester_outputs():
    for family, n, d, eps, seed in FULL_CELLS:
        f = make_family(FamilySpec(family), GridShape(n, d))
        res = tester.run_full_tester(f, eps, seed=seed, k=4 if eps >= d**-0.5 else None)
        yield repr((family, n, d, eps, res, f.query_count)).encode()


def walk_outputs():
    for n, d, rows, seed in WALK_CELLS:
        shape = GridShape(n, d)
        rng = substream(seed, "stream-digest")
        X = walks.sample_points_batch(shape, rows, rng)
        per_row = rng.integers(0, 2 * d, size=rows)
        for direction in ("up", "down"):
            for lengths in (per_row, 3):
                Y = walks.sample_walk_batch(shape, X, lengths, direction, rng)
                yield repr((n, d, direction, Y.dtype.str, Y.shape)).encode() + Y.tobytes()


PARTS = (("tester", tester_outputs), ("full", full_tester_outputs), ("walks", walk_outputs))


def main() -> int:
    threads = os.environ.get("HGM_THREADS")
    digest = hashlib.sha256()
    try:
        for name, outputs in PARTS:
            part = hashlib.sha256()
            for record in outputs():
                framed = len(record).to_bytes(8, "little") + record
                part.update(framed)
                digest.update(framed)
            print(f"{name}={part.hexdigest()}")
    finally:
        if threads is None:
            os.environ.pop("HGM_THREADS", None)
        else:
            os.environ["HGM_THREADS"] = threads
    print(f"sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
