"""Command-line harness: seeded experiments, sweeps, validation suites, CSV.

Commands: test, distance, equiv, reversibility, sweep, domain-reduce.
Every CSV starts with ``# key=value`` lines holding the full effective
configuration, so re-running the file's own header reproduces it
byte-identically. Exit codes: 0 success, 1 partial failure (a failed sweep
cell or a failed equivalence check), 2 rejection in --single-shot mode, 64
usage error (including an unreadable --config or unwritable --out), 65
enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

from . import oracles, tester, validate, walks
from .errors import BudgetError, ConfigError, DomainError, FormatError
from .grid import (
    FamilySpec,
    GridShape,
    make_family,
    restrict_to_subgrid,
    sample_subgrid,
    surface_warning,
)
from .rng import substream
from .stats import Z_95, loglog_slope, wilson_interval

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_REJECTED = 2
EXIT_USAGE = 64
EXIT_BUDGET = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def parse_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {raw!r}")
    return value in ("1", "true", "yes")


def _config_converters(parser: argparse.ArgumentParser) -> Dict[str, Callable[[str], object]]:
    """Config-file key -> value parser, from the flags of every subcommand:
    the flag's own type, or :func:`_parse_bool` for an on/off flag."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag.dest: _parse_bool if flag.const is True else flag.type
        for sub in subparsers.choices.values()
        for flag in sub._actions
        if flag.dest not in ("help", "config")
    }


def _merge_config(args: argparse.Namespace, defaults: Dict) -> Dict:
    """Effective config: built-in defaults, overridden by the config file,
    overridden by explicit flags."""
    eff = dict(defaults)
    if getattr(args, "config", None):
        converters = _config_converters(build_parser())
        for key, raw in parse_config_file(args.config).items():
            if key not in converters:
                raise UsageError(f"unknown config key {key!r}")
            try:
                eff[key] = converters[key](raw)
            except ValueError:
                raise UsageError(f"bad value {raw!r} for config key {key!r}") from None
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            eff[key] = val
    return eff


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


class CsvWriter:
    def __init__(self, command: str, config: Dict, out: Optional[str]):
        self.lines: List[str] = [f"# command={command}"]
        for key in sorted(config):
            # The destination path is not an experiment parameter; leaving it
            # out keeps outputs comparable across file names.
            if key != "out" and config[key] is not None:
                self.lines.append(f"# {key}={_fmt(config[key])}")
        self.out = out

    def header(self, *cols):
        self.lines.append(",".join(cols))

    def row(self, *vals):
        self.lines.append(",".join(_fmt(v) for v in vals))

    def comment(self, key, value):
        self.lines.append(f"# {key}={_fmt(value)}")

    def flush(self):
        text = "\n".join(self.lines) + "\n"
        if self.out:
            with open(self.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _family_from(cfg: Dict, shape: GridShape):
    spec = FamilySpec(
        name=cfg["family"],
        dim=cfg.get("dim") or 1,
        threshold=cfg.get("threshold"),
        seed=cfg.get("family_seed") or 0,
        path=cfg.get("path"),
    )
    f = make_family(spec, shape)
    if cfg["family"] == "surface" and surface_warning(shape):
        print(
            f"warning: surface family at n={shape.n}, d={shape.d} is outside "
            "its intended thin-grid regime (n <= d/ln d)",
            file=sys.stderr,
        )
    return f


def _require(cfg: Dict, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise UsageError(f"missing required parameter --{key.replace('_', '-')}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_test(args) -> int:
    defaults = dict(
        family=None, n=None, d=None, trials=10000, seed=0, out=None,
        tau_schedule=None, dim=1, threshold=None, family_seed=0, path=None,
        eps=None, full=False, single_shot=False,
    )
    cfg = _merge_config(args, defaults)
    _require(cfg, "family", "n", "d")
    if cfg["eps"] is not None and not cfg["full"]:
        raise UsageError("--eps is only used by the full tester; add --full or drop --eps")
    shape = GridShape(cfg["n"], cfg["d"])
    f = _family_from(cfg, shape)
    schedule = None
    if cfg["tau_schedule"]:
        try:
            schedule = tuple(int(t) for t in str(cfg["tau_schedule"]).split("|"))
        except ValueError:
            raise UsageError(
                f"bad --tau-schedule {cfg['tau_schedule']!r}; expected integers joined by '|'"
            ) from None
    writer = CsvWriter("test", cfg, cfg["out"])
    writer.header(
        "family", "n", "d", "tau", "trials", "rejections", "reject_rate",
        "ci_low", "ci_high", "queries", "seed",
    )
    if cfg["full"]:
        _require(cfg, "eps")
        res = tester.run_full_tester(f, cfg["eps"], seed=cfg["seed"])
        rejections = 0 if res.accepted else 1
        writer.row(
            cfg["family"], shape.n, shape.d, "full", res.outer_reps * res.inner_trials,
            rejections, float(rejections), 0.0, 1.0, res.total_queries, cfg["seed"],
        )
        writer.comment("fallback", res.fallback)
        if res.k is not None:
            writer.comment("k", res.k)
            writer.comment("k_formula", res.k_formula)
        if res.witness:
            writer.comment("witness", f"{res.witness[0]}->{res.witness[1]}")
        writer.flush()
        if cfg["single_shot"] and not res.accepted:
            return EXIT_REJECTED
        return EXIT_OK
    tcfg = tester.TesterConfig(
        shape=shape, trials=cfg["trials"], seed=cfg["seed"], tau_schedule=schedule
    )
    report = tester.run_tester(f, tcfg)
    writer.row(
        cfg["family"], shape.n, shape.d, "|".join(str(t) for t in tcfg.schedule),
        report.trials, report.rejections, report.reject_rate,
        report.wilson_ci_95[0], report.wilson_ci_95[1], report.total_queries,
        cfg["seed"],
    )
    writer.flush()
    if cfg["single_shot"] and report.rejections:
        return EXIT_REJECTED
    return EXIT_OK


def cmd_distance(args) -> int:
    defaults = dict(
        family=None, n=None, d=None, seed=0, out=None, dim=1, threshold=None,
        family_seed=0, path=None, budget=oracles.DEFAULT_GRAPH_BUDGET,
    )
    cfg = _merge_config(args, defaults)
    _require(cfg, "family", "n", "d")
    shape = GridShape(cfg["n"], cfg["d"])
    f = _family_from(cfg, shape)
    res = oracles.distance_to_monotonicity(f, budget=cfg["budget"])
    writer = CsvWriter("distance", cfg, cfg["out"])
    writer.header("family", "n", "d", "distance", "matching_size", "repair_size", "method", "seed")
    writer.row(
        cfg["family"], shape.n, shape.d, float(res.distance), res.matching_size,
        len(res.repair_indices), res.method, cfg["seed"],
    )
    writer.flush()
    return EXIT_OK


def cmd_equiv(args) -> int:
    defaults = dict(
        n=None, d=None, tau=1, mode="exact", samples=10**6, seed=0, out=None,
        budget=walks.DEFAULT_PMF_BUDGET,
    )
    cfg = _merge_config(args, defaults)
    _require(cfg, "n", "d")
    shape = GridShape(cfg["n"], cfg["d"])
    writer = CsvWriter("equiv", cfg, cfg["out"])
    writer.header("n", "d", "tau", "mode", "subject", "statistic", "value", "passed")
    mode = cfg["mode"]
    if mode not in ("exact", "statistical"):
        raise UsageError(f"--mode must be exact or statistical, got {mode!r}")
    if mode == "exact":
        res = validate.equivalence_exact(shape, cfg["tau"], budget=cfg["budget"])
        for (a, b), diff in sorted(res.max_diffs.items()):
            writer.row(
                shape.n, shape.d, cfg["tau"], mode, f"{a}_vs_{b}",
                "max_abs_diff", diff, diff < res.tolerance,
            )
        passed = res.passed
    else:
        res = validate.equivalence_statistical(
            shape, cfg["tau"], cfg["samples"], cfg["seed"], budget=cfg["budget"]
        )
        for name, (stat, p, dof) in sorted(res.per_formulation.items()):
            writer.row(
                shape.n, shape.d, cfg["tau"], "statistical", name,
                f"chi2_p_dof{dof}", p, p > res.alpha,
            )
        passed = res.passed
    writer.comment("passed", passed)
    writer.flush()
    return EXIT_OK if passed else EXIT_PARTIAL


def cmd_reversibility(args) -> int:
    defaults = dict(d=None, ell=1, eps=0.5, c=100.0, out=None)
    cfg = _merge_config(args, defaults)
    _require(cfg, "d")
    d, ell = cfg["d"], cfg["ell"]
    if not 1 <= d <= 64:
        raise UsageError("cube reversibility scans support 1 <= d <= 64")
    walks.middle_band_halfwidth(d, cfg["c"], cfg["eps"])  # DomainError on a bad eps or c
    # Asymptotic validity cap, relaxed to always admit single-step walks at
    # desk scale (the verbatim cap is below 1 for every d <= 64).
    cap = max(1, math.floor(math.sqrt(d) / math.log2(max(2.0, d / cfg["eps"])) ** 5))
    if ell > cap:
        raise UsageError(f"walk length {ell} exceeds the validity cap {cap} for d={d}")
    rows = validate.reversibility_scan(d, ell, cfg["eps"], cfg["c"])
    writer = CsvWriter("reversibility", cfg, cfg["out"])
    writer.header(
        "d", "ell", "weight_x", "t", "p_forward", "p_backward", "ratio",
        "product_formula", "within_band",
    )
    for r in rows:
        writer.row(
            r.d, r.ell, r.weight_x, r.t, r.p_forward, r.p_backward, r.ratio,
            r.product_formula, r.within_band,
        )
    writer.flush()
    return EXIT_OK


def cmd_sweep(args) -> int:
    defaults = dict(cells=None, trials=10000, seed=0, out=None, fit_slope=False)
    cfg = _merge_config(args, defaults)
    if not cfg["cells"]:
        raise UsageError("sweep needs a non-empty --cells list (n:d:family;...)")
    cells = []
    for chunk in str(cfg["cells"]).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, d, family = chunk.split(":")
            cells.append((int(n), int(d), family))
        except ValueError:
            raise UsageError(
                f"bad cell {chunk!r}; expected n:d:family (the eps field is gone: "
                "the path tester never used it)"
            ) from None
    if not cells:
        raise UsageError("sweep needs a non-empty --cells list (n:d:family;...)")
    if cfg["trials"] < 1:
        raise UsageError(f"--trials must be >= 1, got {cfg['trials']}")
    writer = CsvWriter("sweep", cfg, cfg["out"])
    writer.header(
        "family", "n", "d", "tau", "trials", "rejections", "reject_rate",
        "ci_low", "ci_high", "queries", "seed", "status",
    )
    any_failed = False
    fit_points = []
    for idx, (n, d, family) in enumerate(cells):
        cell_seed = int(substream(cfg["seed"], "cell", idx).integers(0, 2**63))
        try:
            shape = GridShape(n, d)
            f = _family_from(dict(cfg, family=family, dim=1, threshold=None,
                                  family_seed=0, path=None), shape)
            tcfg = tester.TesterConfig(shape=shape, trials=cfg["trials"], seed=cell_seed)
            rep = tester.run_tester(f, tcfg)
            writer.row(
                family, n, d, "|".join(str(t) for t in tcfg.schedule), rep.trials,
                rep.rejections, rep.reject_rate, rep.wilson_ci_95[0],
                rep.wilson_ci_95[1], rep.total_queries, cell_seed, "ok",
            )
            if rep.reject_rate > 0:
                fit_points.append((d, rep.reject_rate))
        except (DomainError, ConfigError, BudgetError) as e:
            any_failed = True
            writer.row(family, n, d, "", cfg["trials"], 0, 0.0, 0.0, 0.0, 0,
                       cell_seed, f"failed({type(e).__name__})")
    if cfg["fit_slope"] and len(fit_points) >= 2:
        writer.comment("loglog_slope", loglog_slope(*zip(*fit_points)))
    writer.flush()
    return EXIT_PARTIAL if any_failed else EXIT_OK


def cmd_domain_reduce(args) -> int:
    defaults = dict(
        family=None, n=None, d=None, k=None, reps=200, seed=0, out=None, dim=1,
        threshold=None, family_seed=0, path=None,
        budget=oracles.DEFAULT_GRAPH_BUDGET, eps=None,
    )
    cfg = _merge_config(args, defaults)
    _require(cfg, "family", "n", "d", "k")
    if cfg["reps"] < 1:
        raise UsageError(f"--reps must be at least 1, got {cfg['reps']}")
    shape = GridShape(cfg["n"], cfg["d"])
    f = _family_from(cfg, shape)
    eps = cfg["eps"]
    if eps is None:
        eps = float(oracles.distance_to_monotonicity(f, budget=cfg["budget"]).distance)
    writer = CsvWriter("domain-reduce", cfg, cfg["out"])
    writer.header("rep", "k", "restricted_distance")
    dists = []
    for rep in range(cfg["reps"]):
        T = sample_subgrid(shape, cfg["k"], substream(cfg["seed"], "subgrid", rep))
        fT = restrict_to_subgrid(f, T)
        dist = float(
            oracles.distance_to_monotonicity(fT, budget=cfg["budget"]).distance
        )
        dists.append(dist)
        writer.row(rep, cfg["k"], dist)
    mean = sum(dists) / len(dists)
    std = float(np.std(dists, ddof=1)) if len(dists) > 1 else 0.0
    half = Z_95 * std / math.sqrt(len(dists))
    frac = sum(v >= eps / 4 for v in dists)
    flo, fhi = wilson_interval(frac, len(dists))
    writer.comment("full_distance", eps)
    writer.comment("mean", mean)
    writer.comment("mean_ci_low", mean - half)
    writer.comment("mean_ci_high", mean + half)
    writer.comment("frac_ge_quarter_eps", frac / len(dists))
    writer.comment("frac_ci_low", flo)
    writer.comment("frac_ci_high", fhi)
    writer.flush()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hgm", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p, *names):
        p.add_argument("--config", type=str, default=None)
        flags = {
            "n": int, "d": int, "family": str, "eps": float, "trials": int,
            "seed": int, "out": str, "budget": int, "dim": int,
            "threshold": int, "family_seed": int, "path": str, "k": int,
            "reps": int, "samples": int, "tau": int, "ell": int, "c": float,
            "mode": str, "cells": str, "tau_schedule": str,
        }
        for name in names:
            p.add_argument(f"--{name.replace('_', '-')}", type=flags[name], default=None)

    p = sub.add_parser("test")
    common(p, "n", "d", "family", "eps", "trials", "seed", "out", "dim",
           "threshold", "family_seed", "path", "tau_schedule")
    p.add_argument("--full", action="store_const", const=True, default=None)
    p.add_argument("--single-shot", dest="single_shot", action="store_const",
                   const=True, default=None)

    p = sub.add_parser("distance")
    common(p, "n", "d", "family", "seed", "out", "dim", "threshold",
           "family_seed", "path", "budget")

    p = sub.add_parser("equiv")
    common(p, "n", "d", "tau", "mode", "samples", "seed", "out", "budget")

    p = sub.add_parser("reversibility")
    common(p, "d", "ell", "eps", "c", "out")

    p = sub.add_parser(
        "sweep",
        description="Run the path tester on each cell of --cells, given as "
        "n:d:family;...",
    )
    common(p, "cells", "trials", "seed", "out")
    p.add_argument("--fit-slope", dest="fit_slope", action="store_const",
                   const=True, default=None)

    p = sub.add_parser("domain-reduce")
    common(p, "n", "d", "family", "k", "reps", "seed", "out", "dim",
           "threshold", "family_seed", "path", "budget", "eps")
    return parser


_COMMANDS = {
    "test": cmd_test,
    "distance": cmd_distance,
    "equiv": cmd_equiv,
    "reversibility": cmd_reversibility,
    "sweep": cmd_sweep,
    "domain-reduce": cmd_domain_reduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("no command given")
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError, DomainError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
