"""Smoke runs of the scripts, so a broken import or CLI call shows."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stream_digest_prints_each_part_then_the_total():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stream_digest.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("=")[0] for line in lines] == ["tester", "full", "walks", "sha256"]
    hashes = [line.split("=")[1] for line in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes), lines
    assert len(set(hashes)) == 4, lines


def _bench_compare():
    path = ROOT / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    return bench_compare


def test_bench_compare_summary_counts_wins_by_direction():
    bench_compare = _bench_compare()
    base, change = [10.0, 20.0, 30.0, 40.0], [12.0, 20.0, 25.0, 50.0]
    up = bench_compare.summarize(base, change, "higher")
    assert (up["change_wins"], up["change_losses"]) == (2, 1)  # the tie counts for neither
    assert up["base"] == {"median": 25.0, "q1": 17.5, "q3": 32.5}
    assert up["median_ratio"] == up["change"]["median"] / 25.0
    down = bench_compare.summarize(base, change, "lower")
    assert (down["change_wins"], down["change_losses"]) == (1, 2)


# The shape of perfbench/run.py's output on tester-highd, abridged.
RUN_STDOUT = "\n".join([
    "workload tester-highd",
    'provenance {"HGM_THREADS": "1", "seed": 1}',
    "trials_per_s             56713.2 trials/s (56025.3), median over rounds  [work_per_s]",
    "peak_rss_mb              121.652 MB",
    "info threads1_trials_per_s 130356",
    "info threads2_trials_per_s 98183.5",
    "error_rate               0 (0 failed of 1541 checked operations)",
    json.dumps({"correct": True, "attempted": 1541, "failed": 0,
                "metrics": {"work_per_s": {"value": 56713.2, "unit": "items/s"},
                            "peak_rss_mb": {"value": 121.652, "unit": "MB"}}}),
]) + "\n"


def test_bench_compare_keeps_the_info_lines():
    bench_compare = _bench_compare()
    run = bench_compare.parse_run(RUN_STDOUT)
    assert run == {
        "failed": 0,
        "attempted": 1541,
        "metrics": {"work_per_s": 56713.2, "peak_rss_mb": 121.652},
        "info": {"threads1_trials_per_s": 130356.0, "threads2_trials_per_s": 98183.5},
    }
    other = bench_compare.parse_run(RUN_STDOUT.replace("130356", "130000").replace(
        "info threads2_trials_per_s 98183.5\n", ""))
    assert bench_compare.info_medians([run, other]) == {
        "threads1_trials_per_s": 130178.0, "threads2_trials_per_s": 98183.5}


def test_perfbench_trace_targets_resolve_and_selftest_passes(monkeypatch):
    # The traced benchmark wraps each (owner, attribute) of TARGETS by name,
    # so deleting or renaming one breaks it while the rest of the suite
    # passes. Nothing under perfbench/ is written: no bytecode either.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name, *_ in tracing.TARGETS if not hasattr(owner, attr)]
    assert missing == []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
