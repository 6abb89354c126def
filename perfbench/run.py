#!/usr/bin/env python3
"""The hgm benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload tester-highd --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The benchmark imports ``hgm`` from the
checkout's ``src`` directory and drives its public API; it sets
``HGM_THREADS=1``. It prints a human-readable summary, then as its last line
one JSON object: ``correct``, ``attempted`` and ``failed`` (checked operations
and failed checks; ``failed / attempted`` is the error rate) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, timed with tracing
off. With ``--trace 1`` each of a fixed number of rounds (set by the seconds)
runs untraced and traced, in alternating order; the metrics are the per-layer ones, and
the spans are written to ``.perfbench_out/``.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_CHILDREN = 2  # set-up is also timed in this many fresh processes
SETUP_PROBES = 9  # speed probes after each set-up; their median scales it
PROBE_EVERY_S = 0.5  # take a speed probe after a timed call this long after the last
# Typical speed-probe time on the machine the benchmark was tuned on (2-vCPU
# Xeon VM); timings are reported at this probe speed.
PROBE_NOMINAL_S = 0.025

END_TO_END_UNITS = {
    "work_per_s": "items/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_hgm():
    """Import hgm from this checkout's sources, never from elsewhere."""
    if not (SRC / "hgm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hgm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hgm

    if SRC.resolve() not in Path(hgm.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported hgm from {hgm.__file__}, not from {SRC}")
    return hgm


def provenance(hgm, args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hgm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "hgm": hgm.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "HGM_THREADS": os.environ.get("HGM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_times(speed_probe) -> dict:
    """Seconds since this module began to run, and the median speed-probe
    time taken right after.

    The set-up time of one process drifts with the machine's speed as much
    as the timed calls do (its time and its probe correlate), so each
    process's set-up is scaled by its own probe."""
    wall = perf_counter() - _T0
    probe = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    return {"wall": wall, "probe": probe}


def child_setup_times(args) -> dict:
    """Set-up times of a fresh process doing this workload's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_rounds(workload, ctx, seconds: float) -> list:
    """Run whole rounds until ``seconds`` have passed and the workload has
    its minimum number of rounds. Returns the work rate (throughput items
    per timed second) of each round."""
    t0 = perf_counter()
    rates = []
    while len(rates) < workload.min_rounds or perf_counter() - t0 < seconds:
        start = len(ctx.samples)
        workload.run_round(ctx, len(rates))
        done = [(s, items) for s, items, _ in ctx.samples[start:] if items]
        rates.append(sum(i for _, i in done) / sum(s for s, _ in done))
    return rates


def end_to_end(workload, ctx, rates, setup_samples, peak_rss_mb) -> tuple[dict, float]:
    """Metrics with timings scaled to the nominal probe speed, and the
    machine's speed relative to it (above 1 is faster)."""
    lat = [s for s, _, latency in ctx.samples if latency]
    speed = PROBE_NOMINAL_S / statistics.median(ctx.probes)
    return {
        "work_per_s": statistics.median(rates) / speed,
        "latency_p50_s": statistics.median(lat) * speed,
        "latency_tail_s": percentile(lat, workload.tail_percentile) * speed,
        "setup_s": statistics.median(t["wall"] * PROBE_NOMINAL_S / t["probe"] for t in setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }, speed


def summary_lines(workload, ctx, metrics, speed, setup_samples) -> list[str]:
    """The end-to-end metrics under the names the workload gives them, each
    timing also as measured before scaling."""
    lat_n = sum(1 for *_, latency in ctx.samples if latency)
    lat_name = workload.latency_name
    work, p50, tail = metrics["work_per_s"], metrics["latency_p50_s"], metrics["latency_tail_s"]
    return [
        f"machine speed {speed:.4f} x nominal (median of {len(ctx.probes)} probes); "
        "timings below are scaled to nominal speed, as measured in brackets",
        f"{workload.work_name:<24} {work:.6g} {workload.throughput_item}/s "
        f"({work * speed:.6g}), median over rounds  [work_per_s]",
        f"{lat_name + '_p50_s':<24} {p50:.6g} s ({p50 / speed:.6g}) per {workload.latency_call}, "
        f"median of {lat_n}  [latency_p50_s]",
        f"{lat_name + '_tail_s':<24} {tail:.6g} s ({tail / speed:.6g}) at p{workload.tail_percentile} "
        f"of {lat_n}  [latency_tail_s]",
        f"{'setup_s':<24} {metrics['setup_s']:.6g} s, median over {len(setup_samples)} processes, "
        "each scaled by its own probe (as measured: "
        + ", ".join(f"{t['wall']:.3f}" for t in setup_samples) + ")",
        f"{'peak_rss_mb':<24} {metrics['peak_rss_mb']:.6g} MB",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["HGM_THREADS"] = "1"
    hgm = import_hgm()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(args.seed, json.loads(REFERENCE.read_text()), checks.Checker())
    workload.setup(ctx)
    own_setup = setup_times(workloads.speed_probe)
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0
    prov = provenance(hgm, args)

    if args.trace:
        import tracing

        rounds = max(2, round(args.seconds / (2 * workload.round_s)))
        tracer = tracing.Tracer()
        spent = {False: 0.0, True: 0.0}
        # Each round runs untraced and traced, which one first alternating,
        # so drift in machine speed and warm-up fall on both sides of the
        # overhead alike.
        for r in range(rounds):
            for traced in (r % 2 == 1, r % 2 == 0):
                start = len(ctx.samples)
                if traced:
                    tracer.install()
                    ctx.tracer = tracer
                try:
                    workload.run_round(ctx, r)
                finally:
                    tracer.uninstall()
                    ctx.tracer = None
                spent[traced] += sum(s for s, *_ in ctx.samples[start:])
        untraced_s, traced_s = spent[False], spent[True]
        workload.finish(ctx)
        values = tracer.metrics(untraced_s, traced_s)
        units = tracing.LAYER_METRICS
        metrics = {k: values[k] for k in units}
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"provenance": prov, "rounds": rounds, "metrics": values, **tracer.dump()}))
        all_units = {**units, **tracing.DETAIL_METRICS}
        lines = [f"{k:<48} {v:.6g} {all_units[k]}" for k, v in values.items()]
        lines.append(f"traced {rounds} round(s): tracing overhead {traced_s - untraced_s:+.4f} s "
                     f"on {untraced_s:.4f} s untraced; spans in {out.relative_to(ROOT)}")
    else:
        setup_samples = [own_setup] + [child_setup_times(args) for _ in range(SETUP_CHILDREN)]
        ctx.probe_every = PROBE_EVERY_S
        ctx.probe()
        rates = run_rounds(workload, ctx, seconds=args.seconds)
        ctx.probe_every = None
        # Before finish(): tester-highd's thread check runs two threads.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.finish(ctx)
        metrics, speed = end_to_end(workload, ctx, rates, setup_samples, peak_rss_mb)
        units = END_TO_END_UNITS
        lines = summary_lines(workload, ctx, metrics, speed, setup_samples)
        lines.append(f"{len(rates)} rounds in {sum(s for s, *_ in ctx.samples):.3f} s of timed calls")

    print(f"workload {workload.name}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    for key, value in ctx.info.items():
        print(f"info {key} {value:.6g}")
    ck = ctx.checker
    print(f"{'error_rate':<24} {ck.error_rate:.6g} ({ck.failed} failed of {ck.attempted} checked operations)")
    for message in ck.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
