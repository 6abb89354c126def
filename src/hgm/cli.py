"""Command-line harness: seeded experiments, sweeps, validation suites, CSV.

Commands: test, distance, equiv, reversibility, sweep, domain-reduce.
One table, ``_FLAGS``, lists each command's flags with their defaults; they
are also the only keys its ``--config`` file may set, and a flag that one
mode of a command reads (``_MODES``) is refused in the other. Every CSV
starts with ``# key=value`` lines holding the effective configuration, only
parameters the run read, so re-running the file's own header reproduces it
byte-identically. Exit codes: 0 success, 1 partial failure (a failed sweep
cell or a failed equivalence check), 2 rejection in --single-shot mode, 64
usage error (including an unreadable --config or unwritable --out), 65
enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional

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


# Each command's flags, name -> (type, default); bool marks an on/off flag.
# They are also the only keys the command's --config file may set.
_FAMILY = dict(family=(str, None), n=(int, None), d=(int, None), dim=(int, None),
               threshold=(int, None), family_seed=(int, None), path=(str, None))
_FLAGS = {
    "test": dict(_FAMILY, trials=(int, 10000), seed=(int, 0), out=(str, None),
                 tau_schedule=(str, None), eps=(float, None), full=(bool, False),
                 single_shot=(bool, False)),
    "distance": dict(_FAMILY, out=(str, None), budget=(int, oracles.DEFAULT_GRAPH_BUDGET)),
    "equiv": dict(n=(int, None), d=(int, None), tau=(int, 1), mode=(str, "exact"),
                  samples=(int, 10**6), seed=(int, 0), out=(str, None),
                  budget=(int, walks.DEFAULT_PMF_BUDGET)),
    "reversibility": dict(d=(int, None), ell=(int, 1), eps=(float, 0.5), c=(float, 100.0),
                          out=(str, None)),
    "sweep": dict(cells=(str, None), trials=(int, 10000), seed=(int, 0), out=(str, None),
                  fit_slope=(bool, False)),
    "domain-reduce": dict(_FAMILY, k=(int, None), reps=(int, 200), seed=(int, 0),
                          out=(str, None), budget=(int, oracles.DEFAULT_GRAPH_BUDGET),
                          eps=(float, None)),
}
# Flags that one mode of a command reads: command -> (mode key, {mode: (where
# it is read, its flags)}). Another mode refuses them and drops their default.
_MODES = {
    "test": ("full", {False: ("without --full", ("trials", "tau_schedule")),
                      True: ("with --full", ("eps",))}),
    "equiv": ("mode", {"exact": ("with --mode exact", ()),
                       "statistical": ("with --mode statistical", ("samples", "seed"))}),
}


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


def _merge_config(args: argparse.Namespace) -> Dict:
    """Effective config of one command: its defaults, overridden by the
    config file, overridden by explicit flags. A flag read in one mode only
    is refused in the other, and its default applies in its own mode only."""
    command = args.command
    flags = _FLAGS[command]
    given = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in flags:
                raise UsageError(f"unknown config key {key!r} for {command}")
            kind = flags[key][0]
            try:
                given[key] = (_parse_bool if kind is bool else kind)(raw)
            except ValueError:
                raise UsageError(f"bad value {raw!r} for config key {key!r}") from None
    given.update({key: v for key in flags if (v := getattr(args, key)) is not None})
    eff = {key: given.get(key, default) for key, (_, default) in flags.items()}
    if command in _MODES:
        key, modes = _MODES[command]
        if eff[key] not in modes:
            raise UsageError(f"--{key} must be one of {list(modes)}, got {eff[key]!r}")
        for mode, (where, names) in modes.items():
            if mode == eff[key]:
                continue
            for name in names:
                if name in given:
                    raise UsageError(f"--{name.replace('_', '-')} is only read {where}; drop it")
                eff[name] = None
    return eff


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


class CsvWriter:
    def __init__(self, command: str, config: Dict, out: Optional[str]):
        self.lines: List[str] = [f"# command={command}"]
        for key, value in sorted(config.items()):
            # The destination path is not an experiment parameter; leaving it
            # out keeps outputs comparable across file names.
            if key != "out" and value is not None:
                self.lines.append(f"# {key}={_fmt(value)}")
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
        dim=cfg.get("dim"),
        threshold=cfg.get("threshold"),
        seed=cfg.get("family_seed"),
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


def cmd_test(cfg) -> int:
    _require(cfg, "family", "n", "d")
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
        trials = res.pairs if res.fallback else res.outer_reps * res.inner_trials
        writer.row(
            cfg["family"], shape.n, shape.d, "full", trials,
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


def cmd_distance(cfg) -> int:
    _require(cfg, "family", "n", "d")
    shape = GridShape(cfg["n"], cfg["d"])
    f = _family_from(cfg, shape)
    res = oracles.distance_to_monotonicity(f, budget=cfg["budget"])
    writer = CsvWriter("distance", cfg, cfg["out"])
    writer.header("family", "n", "d", "distance", "matching_size", "repair_size", "method")
    writer.row(
        cfg["family"], shape.n, shape.d, float(res.distance), res.matching_size,
        len(res.repair_indices), res.method,
    )
    writer.flush()
    return EXIT_OK


def cmd_equiv(cfg) -> int:
    _require(cfg, "n", "d")
    shape = GridShape(cfg["n"], cfg["d"])
    writer = CsvWriter("equiv", cfg, cfg["out"])
    writer.header("n", "d", "tau", "mode", "subject", "statistic", "value", "passed")
    mode = cfg["mode"]
    if mode == "exact":
        res = validate.equivalence_exact(shape, cfg["tau"], budget=cfg["budget"])
        for (a, b), diff in sorted(res.max_diffs.items()):
            writer.row(
                shape.n, shape.d, cfg["tau"], mode, f"{a}_vs_{b}",
                "max_abs_diff", diff, diff < validate.EQUIV_TOL,
            )
        passed = res.passed
    else:
        res = validate.equivalence_statistical(
            shape, cfg["tau"], cfg["samples"], cfg["seed"], budget=cfg["budget"]
        )
        for name, (stat, p, dof) in sorted(res.per_formulation.items()):
            writer.row(
                shape.n, shape.d, cfg["tau"], "statistical", name,
                f"chi2_p_dof{dof}", p, p > validate.EQUIV_ALPHA,
            )
        passed = res.passed
    writer.comment("passed", passed)
    writer.flush()
    return EXIT_OK if passed else EXIT_PARTIAL


def cmd_reversibility(cfg) -> int:
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


def cmd_sweep(cfg) -> int:
    """Run the path tester on each cell of --cells, given as n:d:family;..."""
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
            f = _family_from({"family": family}, shape)
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
    # The slope needs positive-rate cells at two distinct d or more.
    if cfg["fit_slope"] and len({d for d, _ in fit_points}) >= 2:
        writer.comment("loglog_slope", loglog_slope(*zip(*fit_points)))
    writer.flush()
    return EXIT_PARTIAL if any_failed else EXIT_OK


def cmd_domain_reduce(cfg) -> int:
    _require(cfg, "family", "n", "d", "k")
    if cfg["reps"] < 1:
        raise UsageError(f"--reps must be at least 1, got {cfg['reps']}")
    eps = cfg["eps"]
    if eps is not None and not 0 <= eps <= 0.5:
        # nan fails both comparisons, so it is refused too.
        raise UsageError(f"--eps is a distance to monotonicity, in [0, 1/2]; got {eps}")
    shape = GridShape(cfg["n"], cfg["d"])
    f = _family_from(cfg, shape)
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
    # No abbreviations: --tau on test would otherwise pass as --tau-schedule.
    parser = _Parser(prog="hgm", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")
    for command, flags in _FLAGS.items():
        p = sub.add_parser(command, description=_COMMANDS[command].__doc__, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None)
        for name, (kind, _) in flags.items():
            flag = f"--{name.replace('_', '-')}"
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, type=kind, default=None)
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
        return _COMMANDS[args.command](_merge_config(args))
    except (UsageError, ConfigError, DomainError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
