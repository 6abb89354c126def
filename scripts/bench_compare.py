#!/usr/bin/env python3
"""Before/after benchmark: the working tree against a git revision.

    python3 scripts/bench_compare.py --rev HEAD --pairs 10
    python3 scripts/bench_compare.py --rev main --pairs 10 --workloads tester-highd full-accept

Run from the root of a checkout. The revision's ``src/`` is extracted with
``git archive`` into a temporary directory next to a copy of the working
tree's ``perfbench/``, so both sides run the same benchmark code on their own
sources. Each pair runs ``perfbench/run.py --trace 0`` once per side with the
same seed and the run length that ``BENCHMARK.json`` sets, alternating which
side runs first. The result is written to ``BENCH_<short sha of rev>.json``
at the repository root: per workload and end-to-end metric, each side's
median and quartiles, the change's wins (ties count for neither) and every
run's value; per workload, each side's medians of the ``info`` lines that
``perfbench/run.py`` prints (tester-highd's trials/s at HGM_THREADS 1 and 2);
plus provenance for both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def src_sha256(root: Path) -> str:
    """The digest perfbench/run.py reports for a tree without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hgm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def extract_base(rev: str, dest: Path) -> None:
    """``rev``'s src/ plus the working tree's perfbench/ under ``dest``."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=str(tree),
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_compare: {workload} seed {seed} failed in {tree}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """One run's record from ``perfbench/run.py``'s output: the metrics of its
    last (JSON) line, and every ``info <key> <value>`` line as info[key]."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] == "info":
            info[fields[1]] = float(fields[2])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "info": info,
    }


def info_medians(runs: list) -> dict:
    """Median of each info key over the runs that printed it."""
    keys = sorted({k for r in runs for k in r["info"]})
    return {k: statistics.median(r["info"][k] for r in runs if k in r["info"]) for k in keys}


def summarize(base: list, change: list, better: str) -> dict:
    """Medians, quartiles and wins of the change over paired runs."""
    def quartiles(values):
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3}

    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    out = {"better": better, "base": quartiles(base), "change": quartiles(change),
           "change_wins": wins, "change_losses": losses, "pairs": len(base),
           "base_runs": base, "change_runs": change}
    out["median_ratio"] = out["change"]["median"] / out["base"]["median"]
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rev", required=True, help="revision to compare the working tree against")
    ap.add_argument("--pairs", type=int, required=True, help="pairs of runs per workload (>= 2)")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="pair i of every workload runs seed first_seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 2 or args.first_seed < 0:
        ap.error("--pairs must be >= 2 and --first-seed >= 0")

    rev_sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    short = git("rev-parse", "--short", rev_sha)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "command": " ".join([Path(sys.argv[0]).name, *(argv or sys.argv[1:])]),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seconds_per_run": seconds,
        "base": {"rev": args.rev, "git_commit": rev_sha},
        "change": {"working_tree_of": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--", "src")),
                   "src_sha256": src_sha256(ROOT)},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        base_tree = Path(tmp)
        extract_base(rev_sha, base_tree)
        report["base"]["src_sha256"] = src_sha256(base_tree)
        for workload in args.workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    runs[side].append(run_once(tree, workload, seed, seconds))
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"work_per_s={runs[side][-1]['metrics']['work_per_s']:.4g}",
                          file=sys.stderr)
            report["workloads"][workload] = {
                "seeds": [args.first_seed + i for i in range(args.pairs)],
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "metrics": {
                    name: summarize([r["metrics"][name] for r in runs["base"]],
                                    [r["metrics"][name] for r in runs["change"]], direction)
                    for name, direction in better.items()
                },
                "info_medians": {s: info_medians(runs[s]) for s in runs},
            }
    out = ROOT / f"BENCH_{short}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, res in report["workloads"].items():
        for name, m in res["metrics"].items():
            print(f"{workload:13s} {name:15s} {m['base']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} ({m['median_ratio']:.3f}x, "
                  f"change won {m['change_wins']}/{m['pairs']})")
        base_info, change_info = res["info_medians"]["base"], res["info_medians"]["change"]
        for key in sorted(base_info.keys() | change_info.keys()):
            print(f"{workload:13s} info {key} {base_info.get(key, float('nan')):.4g} -> "
                  f"{change_info.get(key, float('nan')):.4g} (medians)")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
