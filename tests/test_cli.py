"""CLI harness: commands, config merging, CSV headers, exit codes."""

import contextlib
import io
import itertools
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgm import cli
from hgm.grid import FamilySpec, GridShape, make_family, save_truth_table


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def config_of(text):
    """The ``# key=value`` lines above the column header: the configuration."""
    return comments_of("\n".join(itertools.takewhile(lambda l: l.startswith("#"),
                                                     text.splitlines())))


def comments_of(text):
    out = {}
    for line in text.strip().splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# test command
# ---------------------------------------------------------------------------


def test_cmd_test_constant_has_zero_rate(capsys):
    code, out, _ = run_cli(
        capsys, "test", "--family", "constant0", "--n", "8", "--d", "3",
        "--trials", "2000", "--seed", "7",
    )
    assert code == cli.EXIT_OK
    (row,) = rows_of(out)
    assert row["rejections"] == "0" and row["reject_rate"] == "0.0"
    assert row["tau"] == "1|2|4"
    assert row["queries"] == str(2000 * 16)
    assert comments_of(out)["command"] == "test"


def test_cmd_test_single_shot_rejection_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "test", "--family", "anti_dictator", "--n", "2", "--d", "1",
        "--trials", "50", "--seed", "1", "--single-shot",
    )
    assert code == cli.EXIT_REJECTED
    (row,) = rows_of(out)
    assert int(row["rejections"]) > 0
    # A rejecting full tester writes its witness and exits 2 as well.
    code, out, _ = run_cli(
        capsys, "test", "--family", "anti_dictator", "--n", "8", "--d", "4",
        "--full", "--eps", "0.6", "--single-shot",
    )
    assert code == cli.EXIT_REJECTED
    assert re.fullmatch(r"\(\d+(, \d+)*\)->\(\d+(, \d+)*\)", comments_of(out)["witness"])


def test_cmd_test_full_mode(capsys):
    code, out, _ = run_cli(
        capsys, "test", "--family", "dictator", "--n", "16", "--d", "2",
        "--eps", "0.9", "--full", "--seed", "2",
    )
    assert code == cli.EXIT_OK
    (row,) = rows_of(out)
    assert row["tau"] == "full" and row["rejections"] == "0"
    assert comments_of(out)["fallback"] == "False"


def test_cmd_test_full_mode_fallback_reports_its_pairs(capsys):
    # Below eps = 1/sqrt(d) the row's trials are the pairs the fallback drew:
    # ceil(8 d log2 n / eps) on an accept, each tested pair read twice.
    code, out, _ = run_cli(
        capsys, "test", "--family", "majority_threshold", "--n", "8", "--d", "64",
        "--eps", "0.1", "--full", "--seed", "1",
    )
    assert code == cli.EXIT_OK
    (row,) = rows_of(out)
    assert comments_of(out)["fallback"] == "True"
    assert (row["rejections"], row["trials"], row["queries"]) == ("0", "15360", "15466")


def test_cmd_test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "test", "--family", "constant0", "--d", "2")
    assert code == cli.EXIT_USAGE and "--n" in err
    code, _, _ = run_cli(capsys, "test", "--family", "nope", "--n", "4", "--d", "2")
    assert code == cli.EXIT_USAGE
    code, _, _ = run_cli(capsys)
    assert code == cli.EXIT_USAGE
    code, _, _ = run_cli(capsys, "test", "--family", "constant0", "--n", "6", "--d", "2")
    assert code == cli.EXIT_USAGE  # 6 is not a power of two


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--family", "constant0", "--n", "4", "--d", "2", "--tau-schedule", "a"],
        ["test", "--family", "constant0", "--n", "4", "--d", "2", "--tau-schedule", "|"],
        ["test", "--family", "surface", "--n", "4", "--d", "2", "--family-seed", "-1"],
        ["sweep", "--cells", "8:4:anti_dictator:0.5"],
        ["sweep", "--cells", "x:4:anti_dictator"],
        ["sweep", "--cells", "8:4"],
        ["reversibility", "--d", "4", "--eps", "0"],
        ["reversibility", "--d", "4", "--eps", "8"],
        ["reversibility", "--d", "4", "--c", "-1"],
        ["domain-reduce", "--family", "dictator", "--n", "4", "--d", "2", "--k", "2",
         "--reps", "0"],
        *(["domain-reduce", "--family", "random_balanced", "--n", "4", "--d", "2", "--k", "2",
           "--eps", eps] for eps in ("-5", "nan", "0.75")),
        ["equiv", "--n", "2", "--d", "1", "--mode", "x"],
        *(["equiv", "--n", "4", "--d", "2", "--tau", "-1", "--mode", mode]
          for mode in ("exact", "statistical")),
        ["test", "--config", "/nonexistent/run.cfg"],
        ["test", "--family", "majority_threshold", "--n", "8", "--d", "4", "--threshold", "99"],
        ["test", "--family", "surface", "--n", "8", "--d", "4", "--path", "/nonexistent"],
        ["sweep", "--cells", "8:4:anti_dictator", "--trials", "0"],
        ["test", "--family", "anti_dictator", "--n", "4", "--d", "2", "--dim", "0"],
        ["test", "--family", "surface", "--n", "8", "--d", "4", "--dim", "5"],
        ["test", "--family", "dictator", "--n", "8", "--d", "4", "--family-seed", "9"],
    ],
    ids=["tau-schedule-a", "tau-schedule-bar", "family-seed-negative", "cell-eps", "cell-n",
         "cell-short", "reversibility-eps-0", "reversibility-eps-over-d", "reversibility-c-negative",
         "domain-reduce-reps-0", "domain-reduce-eps-negative", "domain-reduce-eps-nan",
         "domain-reduce-eps-over-half", "equiv-mode", "equiv-tau-negative-exact",
         "equiv-tau-negative-statistical", "config-missing", "threshold-unread",
         "path-unread", "sweep-trials-0", "dim-0", "dim-unread", "family-seed-unread"],
)
def test_bad_inputs_exit_64_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_bad_config_value_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=constant0\nn=four\nd=2\n")
    code, _, err = run_cli(capsys, "test", "--config", str(cfg))
    assert code == cli.EXIT_USAGE and "'n'" in err


def test_cmd_test_eps_requires_full(capsys):
    # --eps only feeds the full tester; accepting it without --full would
    # silently ignore it.
    code, out, err = run_cli(
        capsys, "test", "--family", "dictator", "--n", "4", "--d", "2", "--eps", "0.3"
    )
    assert code == cli.EXIT_USAGE and "--full" in err and out == ""


def test_cmd_test_explicit_family_roundtrip(capsys, tmp_path):
    path = tmp_path / "f.hgf"
    save_truth_table(
        make_family(FamilySpec("anti_dictator"), GridShape(2, 2)), path
    )
    code, out, _ = run_cli(
        capsys, "test", "--family", "explicit", "--path", str(path),
        "--n", "2", "--d", "2", "--trials", "500", "--seed", "0",
    )
    assert code == cli.EXIT_OK
    assert int(rows_of(out)[0]["rejections"]) > 0
    # A header whose n^d has more digits than Python prints, with no payload.
    path.write_bytes(path.read_bytes()[:4] + struct.pack("<II", 2, 15000))
    code, out, err = run_cli(
        capsys, "test", "--family", "explicit", "--path", str(path),
        "--n", "2", "--d", "15000",
    )
    assert code == cli.EXIT_USAGE and "payload bytes" in err and out == ""


def test_config_file_merging(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# a comment line\nfamily=constant0\n\nn=4\nd=2  # inline comment\ntrials=100\n")
    code, out, _ = run_cli(capsys, "test", "--config", str(cfgfile))
    assert code == cli.EXIT_OK
    assert rows_of(out)[0]["trials"] == "100"
    # Explicit flags beat the file.
    code, out, _ = run_cli(
        capsys, "test", "--config", str(cfgfile), "--trials", "64"
    )
    assert rows_of(out)[0]["trials"] == "64"
    bad = tmp_path / "bad.cfg"
    bad.write_text("familly=constant0\n")
    code, _, _ = run_cli(capsys, "test", "--config", str(bad))
    assert code == cli.EXIT_USAGE
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n")
    code, _, _ = run_cli(capsys, "test", "--config", str(malformed))
    assert code == cli.EXIT_USAGE


# Each command's config keys and their types: exactly its own flags.
_FAMILY_KEYS = dict(family=str, n=int, d=int, dim=int, threshold=int, family_seed=int, path=str)
CONFIG_KEYS = {
    "test": dict(_FAMILY_KEYS, trials=int, seed=int, out=str, tau_schedule=str, eps=float,
                 full=bool, single_shot=bool),
    "distance": dict(_FAMILY_KEYS, out=str, budget=int),
    "equiv": dict(n=int, d=int, tau=int, mode=str, samples=int, seed=int, out=str, budget=int),
    "reversibility": dict(d=int, ell=int, eps=float, c=float, out=str),
    "sweep": dict(cells=str, trials=int, seed=int, out=str, fit_slope=bool),
    "domain-reduce": dict(_FAMILY_KEYS, k=int, reps=int, seed=int, out=str, budget=int,
                          eps=float),
}
ALL_KEYS = sorted(set().union(*CONFIG_KEYS.values()))


def _flag(key):
    return f"--{key.replace('_', '-')}"


def test_config_keys_are_derived_from_the_flags(capsys, tmp_path):
    # t, outer_reps and inner_trials have no flag: a config file could once
    # set them and nothing read them.
    assert {command: {key: kind for key, (kind, _) in flags.items()}
            for command, flags in cli._FLAGS.items()} == CONFIG_KEYS
    for command, keys in CONFIG_KEYS.items():
        assert {dest for _, dest, _ in _flags_of(command)} == set(keys) | {"config"}
        for key in keys:
            cfg = tmp_path / f"{command}-{key}.cfg"
            cfg.write_text(f"{key}=1\n")  # 1 parses as every type
            _, _, err = run_cli(capsys, command, "--config", str(cfg))
            assert "config key" not in err, (command, key, err)
    for bad in ("ture", "on", "2", ""):
        with pytest.raises(ValueError):
            cli._parse_bool(bad)
    assert [cli._parse_bool(v) for v in ("1", "true", "YES", "0", "False", "no")] == [
        True, True, True, False, False, False,
    ]
    # A misspelt on/off value was once read as off: this run rejects, so
    # single_shot=true would exit 2, and ture must not pass as false.
    typo = tmp_path / "typo.cfg"
    typo.write_text("family=anti_dictator\nn=4\nd=2\ntrials=100\nsingle_shot=ture\n")
    code, out, err = run_cli(capsys, "test", "--config", str(typo))
    assert code == cli.EXIT_USAGE and "ture" in err and out == ""
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("family=constant0\nn=4\nd=2\nouter_reps=3\n")
    code, _, err = run_cli(capsys, "test", "--config", str(unknown))
    assert code == cli.EXIT_USAGE and "outer_reps" in err
    full = tmp_path / "full.cfg"
    full.write_text("family=dictator\nn=4\nd=2\neps=0.5\nfull=yes\n")
    code, out, _ = run_cli(capsys, "test", "--config", str(full))
    assert code == cli.EXIT_OK
    assert rows_of(out)[0]["tau"] == "full" and comments_of(out)["full"] == "True"


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command in CONFIG_KEYS for key in ALL_KEYS
     if key not in CONFIG_KEYS[command]],
)
def test_a_parameter_of_another_command_is_refused(capsys, tmp_path, command, key):
    # "1" parses as every type, so only the key's command can be at fault.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=1\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and repr(key) in err
    flag = _flag(key)
    code, out, err = run_cli(capsys, command, flag, "1")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["test", "--full", "--eps", "0.5"], "trials", "5"),
        (["test", "--full", "--eps", "0.5"], "tau_schedule", "1|2"),
        (["test"], "eps", "0.3"),
        (["equiv", "--n", "2", "--d", "1"], "samples", "2000"),
        (["equiv", "--n", "2", "--d", "1", "--mode", "exact"], "seed", "3"),
    ],
    ids=["full-trials", "full-tau-schedule", "eps-without-full", "exact-samples",
         "exact-seed"],
)
def test_a_flag_of_the_other_mode_is_refused(capsys, tmp_path, argv, key, value):
    if argv[0] == "test":
        argv = argv + ["--family", "dictator", "--n", "16", "--d", "2"]
    flag = _flag(key)
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == cli.EXIT_USAGE and out == "" and flag in err and "only read" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == cli.EXIT_USAGE and out == "" and flag in err and "only read" in err


def test_a_mode_set_in_the_config_file_refuses_the_other_modes_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=dictator\nn=16\nd=2\neps=0.5\nfull=yes\n")
    code, out, err = run_cli(capsys, "test", "--config", str(cfg), "--trials", "5")
    assert code == cli.EXIT_USAGE and out == "" and "--trials" in err
    cfg.write_text("n=2\nd=1\nmode=statistical\nsamples=2000\n")
    code, out, _ = run_cli(capsys, "equiv", "--config", str(cfg))
    assert code == cli.EXIT_OK and config_of(out)["samples"] == "2000"
    code, out, err = run_cli(capsys, "equiv", "--config", str(cfg), "--mode", "exact")
    assert code == cli.EXIT_USAGE and out == "" and "--samples" in err


class _ReadKeys(dict):
    """A config that records every key a command reads from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--family", "dictator", "--n", "4", "--d", "2", "--dim", "2", "--threshold",
         "2", "--trials", "50", "--tau-schedule", "1|2", "--single-shot"],
        ["test", "--family", "surface", "--n", "4", "--d", "3", "--family-seed", "3",
         "--trials", "50"],
        ["test", "--family", "dictator", "--n", "16", "--d", "2", "--full", "--eps", "0.9"],
        ["distance", "--family", "anti_dictator", "--n", "2", "--d", "3", "--dim", "2"],
        ["equiv", "--n", "4", "--d", "2", "--tau", "1"],
        ["equiv", "--n", "2", "--d", "2", "--mode", "statistical", "--samples", "2000"],
        ["reversibility", "--d", "4"],
        ["sweep", "--cells", "2:2:anti_dictator", "--trials", "100", "--fit-slope"],
        ["domain-reduce", "--family", "random_balanced", "--n", "4", "--d", "2", "--k", "2",
         "--reps", "2", "--eps", "0.5"],
    ],
    ids=["test", "test-hashed", "test-full", "distance", "equiv-exact", "equiv-statistical",
         "reversibility", "sweep", "domain-reduce"],
)
def test_the_header_names_only_parameters_the_run_read(capsys, monkeypatch, argv):
    configs = []
    merge = cli._merge_config

    def recording(args):
        configs.append(_ReadKeys(merge(args)))
        return configs[-1]

    monkeypatch.setattr(cli, "_merge_config", recording)
    code, out, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK
    header = set(config_of(out)) - {"command"}
    assert header <= configs[0].read, header - configs[0].read
    # Every flag given is in the header, so the header reproduces the run.
    assert {a[2:].replace("-", "_") for a in argv if a.startswith("--")} <= header


def test_surface_regime_warning(capsys):
    _, _, err = run_cli(
        capsys, "test", "--family", "surface", "--n", "16", "--d", "2",
        "--trials", "10",
    )
    assert "regime" in err


# ---------------------------------------------------------------------------
# distance command
# ---------------------------------------------------------------------------


def test_cmd_distance(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--family", "anti_dictator", "--n", "2", "--d", "3"
    )
    assert code == cli.EXIT_OK
    (row,) = rows_of(out)
    assert float(row["distance"]) == 0.5
    assert row["matching_size"] == row["repair_size"] == "4"
    assert "seed" not in row and "seed" not in config_of(out)  # distance draws nothing
    code, out, _ = run_cli(
        capsys, "distance", "--family", "constant1", "--n", "4", "--d", "2"
    )
    assert float(rows_of(out)[0]["distance"]) == 0.0


def test_cmd_distance_budget_exit(capsys):
    code, _, err = run_cli(
        capsys, "distance", "--family", "random_balanced", "--n", "4", "--d", "2",
        "--budget", "3",
    )
    assert code == cli.EXIT_BUDGET and "budget" in err.lower()


# ---------------------------------------------------------------------------
# equiv command
# ---------------------------------------------------------------------------


def test_cmd_equiv_exact(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--n", "4", "--d", "2", "--tau", "1")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert len(rows) == 3
    assert all(r["passed"] == "True" for r in rows)
    assert comments_of(out)["passed"] == "True"


def test_cmd_equiv_statistical(capsys):
    code, out, _ = run_cli(
        capsys, "equiv", "--n", "2", "--d", "4", "--tau", "2", "--mode",
        "statistical", "--samples", "40000", "--seed", "0",
    )
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert {r["subject"] for r in rows} == {"direct", "cube_first", "cube_at_x"}
    assert all(float(r["value"]) > 0.001 for r in rows)


def test_cmd_equiv_one_budget_bound(capsys):
    # Both modes check one bound, the joint pmf's support
    # 16^3 * C(3, 2) * 16^2 <= 5e6: exact mode runs in exact mode under it,
    # and either mode exits 65 over it.
    code, out, _ = run_cli(
        capsys, "equiv", "--n", "16", "--d", "3", "--tau", "2", "--budget", "5000000",
    )
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert {r["mode"] for r in rows} == {"exact"} and len(rows) == 3
    assert all(r["passed"] == "True" for r in rows)
    for mode in ("exact", "statistical"):
        code, out, err = run_cli(
            capsys, "equiv", "--n", "16", "--d", "3", "--tau", "2", "--budget", "1000",
            "--mode", mode,
        )
        assert code == cli.EXIT_BUDGET and out == "" and "joint walk pmf" in err


# ---------------------------------------------------------------------------
# reversibility command
# ---------------------------------------------------------------------------


def test_cmd_reversibility(capsys):
    code, out, _ = run_cli(capsys, "reversibility", "--d", "16", "--ell", "1")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert rows
    for r in rows:
        if r["t"] == "0":
            assert float(r["ratio"]) == 1.0
        assert abs(float(r["ratio"]) - float(r["product_formula"])) < 1e-12


def test_cmd_reversibility_caps(capsys):
    code, _, err = run_cli(capsys, "reversibility", "--d", "16", "--ell", "9")
    assert code == cli.EXIT_USAGE and "cap" in err
    code, _, _ = run_cli(capsys, "reversibility", "--d", "128")
    assert code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------


def test_cmd_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--cells",
        "2:2:anti_dictator;2:4:anti_dictator", "--trials", "4000",
        "--seed", "9",
    )
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert [r["d"] for r in rows] == ["2", "4"]
    assert all(r["status"] == "ok" for r in rows)


def test_cmd_sweep_failed_cell_and_slope(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--cells",
        "2:2:anti_dictator;3:2:anti_dictator;2:8:anti_dictator",
        "--trials", "3000", "--fit-slope",
    )
    assert code == cli.EXIT_PARTIAL
    rows = rows_of(out)
    assert rows[1]["status"].startswith("failed")
    assert "loglog_slope" in comments_of(out)


def test_cmd_sweep_omits_the_slope_when_every_positive_rate_shares_one_d(capsys):
    # Two positive-rate cells at one d, and one at another d whose rate is
    # 0 (constant1 is monotone): no slope, and no traceback.
    code, out, err = run_cli(
        capsys, "sweep", "--cells", "8:4:anti_dictator;8:4:surface;8:16:constant1",
        "--trials", "200", "--fit-slope",
    )
    assert code == cli.EXIT_OK and "Traceback" not in err
    rows = rows_of(out)
    assert [float(r["reject_rate"]) > 0 for r in rows] == [True, True, False]
    assert "loglog_slope" not in comments_of(out)


def test_cmd_sweep_empty_cells(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--cells", ";")
    assert code == cli.EXIT_USAGE
    # The eps field is gone; a four-field cell is refused with a message
    # that names the change.
    code, _, err = run_cli(capsys, "sweep", "--cells", "2:2:anti_dictator:0.5")
    assert code == cli.EXIT_USAGE and "n:d:family" in err and "eps" in err


# ---------------------------------------------------------------------------
# domain-reduce command
# ---------------------------------------------------------------------------


def test_cmd_domain_reduce_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "domain-reduce", "--family", "dictator", "--n", "8", "--d", "2",
        "--k", "2", "--reps", "5",
    )
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert len(rows) == 5
    assert all(float(r["restricted_distance"]) == 0.0 for r in rows)
    cm = comments_of(out)
    assert float(cm["full_distance"]) == 0.0
    assert float(cm["mean"]) == 0.0
    assert "frac_ge_quarter_eps" in cm


def test_cmd_domain_reduce_requires_k(capsys):
    code, _, err = run_cli(
        capsys, "domain-reduce", "--family", "dictator", "--n", "8", "--d", "2"
    )
    assert code == cli.EXIT_USAGE and "--k" in err


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def test_out_flag_writes_file_and_header_excludes_destination(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, stdout, _ = run_cli(
        capsys, "test", "--family", "constant0", "--n", "4", "--d", "2",
        "--trials", "50", "--out", str(out_path),
    )
    assert code == cli.EXIT_OK and stdout == ""
    text = out_path.read_text()
    assert "out=" not in text
    assert rows_of(text)[0]["rejections"] == "0"


def test_the_readme_flag_table_matches_the_parser():
    # README's CLI section has one row per command: its flags, then the
    # flags read in one mode only together with the flag that sets the mode.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (.*) \|$", section, re.M)
    assert [command for command, _, _ in rows] == list(cli._COMMANDS)
    for command, flags, moded in rows:
        assert set(re.findall(r"--[a-z-]+", flags)) == {
            option for option, _, _ in _flags_of(command)} - {"--config"}, command
        key, modes = cli._MODES.get(command, (None, {}))
        names = [key] + [name for _, names in modes.values() for name in names] if key else []
        assert set(re.findall(r"--[a-z-]+", moded)) == set(map(_flag, names)), command


def test_every_readme_cli_example_exits_0(tmp_path, monkeypatch, capsys):
    # The examples once included a walk length over the reversibility cap,
    # which exits 64. Each line runs in-process, in an empty directory.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("hgm ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Exit-code contract over generated argv
# ---------------------------------------------------------------------------

# Small values, and bad ones, per flag: every generated run stays cheap.
_FLAG_VALUES = {
    "n": ["-2", "0", "1", "2", "3", "4", "x"],
    "d": ["-1", "0", "1", "2", "3", "16", "65"],
    "family": ["constant0", "dictator", "anti_dictator", "majority_threshold",
               "surface", "random_balanced", "explicit", "nope"],
    "eps": ["-1", "0", "0.05", "0.3", "0.9", "1", "8", "nan", "inf", "x"],
    "trials": ["-1", "0", "1", "40"],
    "seed": ["-1", "0", "7"],
    "budget": ["-1", "0", "100000000"],
    "dim": ["-1", "0", "1", "2", "5"],
    "threshold": ["-1", "0", "1", "3", "9"],
    "family_seed": ["-1", "0", "3"],
    "path": ["/nonexistent/table.npz"],
    "k": ["-1", "0", "1", "2", "3", "4"],
    "reps": ["-1", "0", "1", "2"],
    "samples": ["-1", "0", "2000"],
    "tau": ["-1", "0", "1", "2"],
    "ell": ["-1", "0", "1", "2", "9"],
    "c": ["-1", "0", "1", "100", "nan", "inf"],
    "mode": ["exact", "x"],
    "cells": ["", ";", "2:2:anti_dictator", "2:2:anti_dictator:0.5", "3:2:dictator",
              "2:1:nope;2:2:constant0", "x:1:dictator", "2:2"],
    "tau_schedule": ["1", "1|2", "3", "|", "a", "0"],
    "out": ["/nonexistent/out.csv"],
    "config": ["/nonexistent/run.cfg"],
}


def _flags_of(command):
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, cli.argparse._SubParsersAction)
    ).choices[command]
    return [(a.option_strings[0], a.dest, a.nargs == 0)
            for a in sub._actions if a.dest != "help"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["nope"]))
    if command == "nope":
        return [command]
    argv = [command]
    # equiv draws its mode apart, so statistical mode always comes with a
    # small --samples: its default of 10^6 would make a slow example.
    flags = [f for f in _flags_of(command) if f[1] not in ("mode", "samples")]
    for option, dest, is_switch in draw(
        st.lists(st.sampled_from(flags), max_size=8, unique=True)
    ):
        argv.append(option)
        if not is_switch:
            argv.append(draw(st.sampled_from(_FLAG_VALUES[dest])))
    if command == "equiv":
        argv += draw(st.sampled_from(
            [[], ["--mode", "exact"], ["--mode", "x"]]
            + [["--mode", "statistical", "--samples", v] for v in _FLAG_VALUES["samples"]]
        ))
    return argv


@given(_argv())
@settings(max_examples=150)
def test_every_argv_exits_with_a_documented_code(argv):
    # An exception escaping main would be a traceback.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 64, 65), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert argv[0] == "sweep", argv
    if code == 64:
        assert err.getvalue().startswith("error: ")
