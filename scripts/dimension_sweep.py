#!/usr/bin/env python3
"""Rejection rate of the path/shift tester as the dimension grows.

Runs the anti-dictator family at fixed n over a range of dimensions,
prints one CSV row per cell, and fits a log-log slope of rate against d.
For families whose violations live on a single coordinate the rate decays
like 1/log d, noticeably slower than the worst-case d^(-1/2) guarantee.
"""

import argparse

from hgm import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8, help="side length (power of two)")
    ap.add_argument("--dims", default="4,8,16,32,64", help="comma-separated dimensions")
    ap.add_argument("--family", default="anti_dictator")
    ap.add_argument("--trials", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="write the CSV report here instead of stdout")
    args = ap.parse_args()

    dims = [int(v) for v in args.dims.split(",") if v]
    cells = ";".join(f"{args.n}:{d}:{args.family}" for d in dims)
    argv = [
        "sweep", "--cells", cells, "--trials", str(args.trials),
        "--seed", str(args.seed), "--fit-slope",
    ]
    if args.out:
        argv += ["--out", args.out]
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
