"""CLI behavior: flags, exit codes, file outputs, determinism."""

import csv
import ctypes
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rasch_lmmse
from rasch_lmmse import cli
from rasch_lmmse.baselines import GibbsConfig, probit_information
from rasch_lmmse import experiments
from rasch_lmmse.cli import ANALYZE_COLUMNS, build_parser, main
from rasch_lmmse.data import load_triplets
from rasch_lmmse.experiments import CV_ESTIMATORS, CvConfig, SyntheticConfig


def write_rasch_csv(path, U, Q, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(U)
    d = rng.standard_normal(Q)
    lines = ["user,item,response"]
    for i in range(Q):
        for u in range(U):
            y = 1 if a[u] - d[i] + rng.standard_normal() >= 0 else -1
            lines.append(f"u{u},q{i},{y}")
    path.write_text("\n".join(lines) + "\n")


def test_help_exits_zero():
    for argv in (["--help"], ["analyze", "--help"], ["simulate", "--help"],
                 ["fit", "--help"], ["crossval", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_analyze_basic(tmp_path, capsys):
    out = tmp_path / "analyze.csv"
    code = main([
        "analyze", "--users", "2,3", "--items", "4",
        "--snr-db", "-10,0,10", "--output", str(out),
    ])
    assert code == 0
    assert "6 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ANALYZE_COLUMNS
    assert len(lines) == 7
    first = dict(zip(ANALYZE_COLUMNS, lines[1].split(",")))
    assert first["U"] == "2" and first["sigma2_x"] == "0.05"
    assert 0.0 < float(first["mse_ability_closed_form"]) < 0.05
    assert float(first["fisher_bound"]) <= float(first["mse_ability_closed_form"])


def test_analyze_sigma2_zero(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["analyze", "--users", "2", "--items", "2",
                 "--sigma2", "0,1", "--output", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    zero = dict(zip(ANALYZE_COLUMNS, rows[0].split(",")))
    assert zero["mse_ability_closed_form"] == "0.0"
    assert zero["snr_db"] == ""  # sigma2 was given directly
    assert float(dict(zip(ANALYZE_COLUMNS, rows[1].split(",")))
                 ["mse_ability_closed_form"]) > 0


def test_analyze_extreme_priors_give_finite_columns(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["analyze", "--users", "1,5", "--items", "1",
                 "--sigma2", "1e-300,1e300", "--output", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    for row in rows:
        for column in ANALYZE_COLUMNS[3:]:
            assert math.isfinite(float(row[column]))
        assert float(row["fisher_bound"]) > 0.0


def test_analyze_usage_errors(tmp_path, capsys):
    base = ["analyze", "--users", "2", "--items", "2", "--sigma2", "1",
            "--output", str(tmp_path / "x.csv")]
    assert main(base + ["--known-difficulties"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(base + ["--known-difficulties", "--difficulty-sigma2", "1",
                        "--difficulty-file", "nope"]) == 2
    assert main(base + ["--difficulty-sigma2", "1"]) == 2
    with pytest.raises(SystemExit):  # --snr-db and --sigma2 are exclusive
        main(base + ["--snr-db", "0"])


def test_analyze_known_difficulty_file(tmp_path):
    d = np.array([0.3, -1.2, 0.8, 0.0])
    diff_file = tmp_path / "d.txt"
    diff_file.write_text("".join(f"{v}\n" for v in d))
    out = tmp_path / "kd.csv"
    code = main([
        "analyze", "--users", "5", "--items", "4", "--sigma2", "1",
        "--known-difficulties", "--difficulty-file", str(diff_file),
        "--output", str(out),
    ])
    assert code == 0
    row = dict(zip(ANALYZE_COLUMNS, out.read_text().splitlines()[1].split(",")))
    expected = 1.0 / (probit_information(-d).sum() + 1.0)
    assert float(row["fisher_bound"]) == pytest.approx(expected, rel=1e-12)
    assert row["mse_difficulty_closed_form"] == ""
    assert row["mse_asymptotic"] == ""

    # Q mismatch is a data error, not a usage error
    assert main([
        "analyze", "--users", "5", "--items", "3", "--sigma2", "1",
        "--known-difficulties", "--difficulty-file", str(diff_file),
        "--output", str(out),
    ]) == 1


def test_analyze_difficulty_file_solves_once_per_prior(tmp_path, monkeypatch):
    # With a difficulty file the known-difficulty fields do not depend on
    # U: three --users values and two variances take two solves, and each
    # variance's rows agree.
    from rasch_lmmse import rasch

    solve, calls = rasch._known_difficulty_solve, []

    def counting(model):
        calls.append(model.sigma2_x)
        return solve(model)

    monkeypatch.setattr(rasch, "_known_difficulty_solve", counting)
    diff_file = tmp_path / "d.txt"
    diff_file.write_text("0.3\n-1.2\n0.8\n0.0\n")
    out = tmp_path / "kd.csv"
    assert main([
        "analyze", "--users", "1,2,3", "--items", "4", "--sigma2", "1,4",
        "--known-difficulties", "--difficulty-file", str(diff_file),
        "--output", str(out),
    ]) == 0
    assert calls == [1.0, 4.0]
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["U"] for row in rows] == ["1", "1", "2", "2", "3", "3"]
    for row in rows:
        want = rows[0] if row["sigma2_x"] == rows[0]["sigma2_x"] else rows[1]
        assert row["mse_ability_closed_form"] == want["mse_ability_closed_form"]
        assert row["fisher_bound"] == want["fisher_bound"]


def test_analyze_difficulty_file_parse_error(tmp_path, capsys):
    diff_file = tmp_path / "bad.txt"
    diff_file.write_text("0.5\nabc\n")
    code = main([
        "analyze", "--users", "2", "--items", "2", "--sigma2", "1",
        "--known-difficulties", "--difficulty-file", str(diff_file),
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert ":2:" in capsys.readouterr().err  # line number of the bad entry


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_analyze_difficulty_file_non_finite(tmp_path, capsys, token):
    diff_file = tmp_path / "d.txt"
    diff_file.write_text(f"0.5\n{token}\n")
    code = main([
        "analyze", "--users", "2", "--items", "2", "--sigma2", "1",
        "--known-difficulties", "--difficulty-file", str(diff_file),
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{diff_file}:2:" in err and repr(token) in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_analyze_difficulty_sigma2_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--users", "2", "--items", "2", "--sigma2", "1",
                     "--known-difficulties", "--difficulty-sigma2", value,
                     "--output", str(out)])
    assert code == 1
    assert f"--difficulty-sigma2 must be finite and nonnegative, got {float(value)}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_simulate_byte_identical_across_threads(tmp_path, capsys):
    argv = ["simulate", "--users", "2,3", "--items", "2", "--snr-db", "0",
            "--trials", "15", "--seed", "7"]
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(argv + ["--output", str(p1), "--threads", "1"]) == 0
    table = capsys.readouterr().out
    assert "lmmse mse" in table and "analytical" in table
    assert main(argv + ["--output", str(p2), "--threads", "4"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_gibbs_byte_identical_across_threads(tmp_path):
    # Four (U, Q) patterns, each one Gibbs block over two SNR cells.
    argv = ["simulate", "--users", "3,4", "--items", "2,5", "--snr-db", "0,10",
            "--trials", "3", "--estimators", "pm_gibbs,map", "--seed", "5",
            "--gibbs-burnin", "20", "--gibbs-samples", "40"]
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.csv"
        assert main(argv + ["--output", str(path), "--threads", threads]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] and b"failed" not in outputs[0]


def test_crossval_json_byte_identical_across_threads(tmp_path):
    # Folds run in a thread pool; only the timings may differ.
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    argv = ["crossval", "--data", str(responses), "--estimators", "lmmse,map",
            "--folds", "3", "--seed", "4", "--format", "json"]
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.json"
        assert main(argv + ["--output", str(path), "--threads", threads]) == 0
        text, removed = re.subn(rb'"runtime_seconds": \[[^\]]*\],\s*', b"", path.read_bytes())
        assert removed == 2
        outputs.append(text)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, value):
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    out = tmp_path / "x.csv"
    for argv in (
        ["simulate", "--users", "2", "--items", "2", "--snr-db", "0", "--trials", "2"],
        ["crossval", "--data", str(responses), "--folds", "3"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", value, "--output", str(out)])
        assert err.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_missing_flags(capsys):
    assert main(["simulate", "--users", "2"]) == 2
    assert "missing required flags" in capsys.readouterr().err


def test_simulate_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "users_grid": [2], "items_grid": [2], "snr_db_grid": [0.0], "trials": 5,
    }))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", str(cfg), "--format", "json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["trials"] == 5

    # explicit grid flags conflict with --config
    assert main(["simulate", "--config", str(cfg), "--users", "2",
                 "--output", str(out)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--output", str(out)]) == 1

    # a file that omits trials runs the same 100 trials as the flags
    cfg.write_text(json.dumps({
        "users_grid": [2], "items_grid": [2], "snr_db_grid": [0.0],
    }))
    assert main(["simulate", "--config", str(cfg), "--format", "json",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["trials"] == 100


def test_every_config_flag_conflicts_with_config_file(tmp_path, capsys):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(
        {"users_grid": [2], "items_grid": [2], "snr_db_grid": [0.0], "trials": 2}
    ))
    cv_cfg = tmp_path / "cv.json"
    cv_cfg.write_text(json.dumps({"folds": 2, "prior_variance_grid": [1.0]}))
    data = tmp_path / "cv.csv"
    write_rasch_csv(data, U=6, Q=4, seed=1)
    out = tmp_path / "out.csv"
    sim = ["simulate", "--config", str(sim_cfg), "--output", str(out)]
    cv = ["crossval", "--data", str(data), "--config", str(cv_cfg),
          "--output", str(out)]
    sim_flags = {"--users": ["2"], "--items": ["2"], "--snr-db": ["0"],
                 "--trials": ["3"], "--seed": ["1"], "--estimators": ["map"],
                 "--gibbs-burnin": ["5"], "--gibbs-samples": ["5"],
                 "--known-difficulties": []}
    cv_flags = {"--folds": ["3"], "--seed": ["1"], "--estimators": ["map"],
                "--sigma2-grid": ["1.0"], "--gibbs-burnin": ["5"],
                "--gibbs-samples": ["5"]}
    for argv, flags in ((sim, sim_flags), (cv, cv_flags)):
        for flag, value in flags.items():
            assert main(argv + [flag, *value]) == 2, (argv[0], flag)
            assert flag in capsys.readouterr().err
    assert main(sim + ["--trials", "3", "--estimators", "map"]) == 2
    err = capsys.readouterr().err
    assert "--trials" in err and "--estimators" in err
    assert not out.exists()


def test_every_study_flag_is_a_config_field():
    # A flag whose dest is not a field would escape the --config conflict
    # check and never reach the config.
    run_flags = {"command", "func", "config_flags", "config", "format",
                 "output", "threads", "log_level"}
    data_flags = {"data", "movielens", "label_convention"}
    parser = build_parser()
    for argv, cls, other in ((["simulate"], SyntheticConfig, run_flags),
                             (["crossval"], CvConfig, run_flags | data_flags)):
        args = parser.parse_args(argv)
        dests = set(vars(args)) - other
        assert dests <= {f.name for f in dataclasses.fields(cls)}, argv
        assert set(args.config_flags) == dests, argv


# Each flag that several commands take, and the commands that take it.
SHARED_FLAGS = {
    "--seed": {"analyze", "simulate", "fit", "crossval"},
    "--output": {"analyze", "simulate", "fit", "crossval"},
    "--gibbs-burnin": {"simulate", "fit", "crossval"},
    "--gibbs-samples": {"simulate", "fit", "crossval"},
    "--format": {"simulate", "crossval"},
    "--threads": {"simulate", "crossval"},
    "--data": {"fit", "crossval"},
    "--movielens": {"fit", "crossval"},
    "--label-convention": {"fit", "crossval"},
}


def test_shared_flags_are_declared_once():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for name, sub in commands.items():
        strings = [s for a in sub._actions for s in a.option_strings]
        assert len(strings) == len(set(strings)), name
    for flag, takers in SHARED_FLAGS.items():
        actions = {name: sub._option_string_actions[flag]
                   for name, sub in commands.items()
                   if flag in sub._option_string_actions}
        assert set(actions) == takers, flag
        # One declaration: every command holds the one action, so one dest,
        # type, default and help.
        assert len({id(a) for a in actions.values()}) == 1, flag
    assert commands["fit"]._option_string_actions["--gibbs-burnin"].dest == "gibbs_burn_in"


def test_config_file_bad_keys_exit_1(tmp_path, capsys):
    data = tmp_path / "cv.csv"
    write_rasch_csv(data, U=6, Q=4, seed=1)
    cfg = tmp_path / "cfg.json"
    grid = {"users_grid": [2], "items_grid": [2], "snr_db_grid": [0.0]}
    cases = [
        (["simulate"], {**grid, "trails": 5}),
        (["simulate"], {**grid, "users_grid": 5}),
        (["simulate"], {**grid, "trials": 2.5}),
        (["simulate"], {**grid, "include_difficulty_mse": True}),
        (["crossval", "--data", str(data)], {"fold": 3}),
        (["crossval", "--data", str(data)], {"folds": "3"}),
    ]
    for argv, payload in cases:
        cfg.write_text(json.dumps(payload))
        code = main(argv + ["--config", str(cfg),
                            "--output", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1, payload
        assert str(cfg) in err and "Traceback" not in err, payload


@pytest.mark.parametrize("command, payload", [
    ("simulate", {"users_grid": [2], "items_grid": [2], "snr_db_grid": [0],
                  "trials": True, "seed": False}),
    ("simulate", {"users_grid": [True], "items_grid": [2], "snr_db_grid": [0],
                  "trials": 2}),
    ("crossval", {"folds": 3, "seed": False}),
    ("crossval", {"folds": 3, "gibbs_samples": True}),
    ("simulate", {"users_grid": [2], "items_grid": [2], "snr_db_grid": [True]}),
    ("crossval", {"folds": 3, "prior_variance_grid": ["1"]}),
])
def test_config_json_booleans_are_not_numbers(tmp_path, capsys, command, payload):
    # JSON's true and false are not the numbers 1 and 0, nor is "1".
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg), "--output", str(out)]
    if command == "crossval":
        argv += ["--data", str(Path(__file__).parent.parent / "sample_data" / "responses.csv")]
    assert main(argv) == 1
    assert re.search(r"must be an? (integer|number), got (True|False|'1')",
                     capsys.readouterr().err)
    assert not out.exists()


def test_invalid_settings_fail_before_any_cell(tmp_path, capsys):
    out = tmp_path / "x.csv"
    grid = ["simulate", "--users", "2", "--items", "2", "--snr-db", "0",
            "--trials", "2", "--output", str(out)]
    assert main(grid + ["--gibbs-samples", "0"]) == 1
    assert "samples must be positive" in capsys.readouterr().err
    assert main(grid + ["--known-difficulties", "--estimators", "map"]) == 1
    assert "lmmse estimator only" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_zero_difficulties_match_arcsine_closed_form(tmp_path):
    # --difficulty-sigma2 0 draws d = 0, a zero-mean one-column model: the
    # ability MSE is s2 - (2/pi) s2^2/(s2 + 1) Q / (1 + (Q - 1) s) with
    # s = (2/pi) asin(s2/(s2 + 1)).  At 20 dB, rho = 50/51 > 0.925 takes
    # the bivariate CDF's near-unit branch.
    out = tmp_path / "kd0.csv"
    assert main(["analyze", "--users", "1", "--items", "5,200",
                 "--snr-db", "-10,0,10,20", "--known-difficulties",
                 "--difficulty-sigma2", "0", "--output", str(out)]) == 0
    rows = [dict(zip(ANALYZE_COLUMNS, line.split(",")))
            for line in out.read_text().splitlines()[1:]]
    assert [(r["Q"], r["snr_db"]) for r in rows] == [
        (Q, snr) for Q in ("5", "200") for snr in ("-10.0", "0.0", "10.0", "20.0")
    ]
    for row in rows:
        s2, Q = float(row["sigma2_x"]), int(row["Q"])
        s = 2.0 / np.pi * np.arcsin(s2 / (s2 + 1.0))
        expected = s2 - 2.0 / np.pi * s2**2 / (s2 + 1.0) * Q / (1.0 + (Q - 1) * s)
        assert float(row["mse_ability_closed_form"]) == pytest.approx(
            expected, rel=1e-12
        ), row
    assert float(rows[3]["mse_ability_closed_form"]) == pytest.approx(
        15.286334774583608, rel=1e-12
    )


@pytest.mark.parametrize("flag, argv", [
    ("--users", ["--users", ",", "--items", "5", "--sigma2", "1"]),
    ("--items", ["--users", "2", "--items", ",", "--sigma2", "1"]),
    ("--snr-db", ["--users", "2", "--items", "4", "--snr-db", ","]),
    ("--sigma2", ["--users", "2", "--items", "4", "--sigma2", ","]),
])
def test_analyze_empty_list_writes_nothing(tmp_path, capsys, flag, argv):
    out = tmp_path / "x.csv"
    assert main(["analyze", *argv, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and "wrote" not in captured.out
    assert not out.exists()


def test_negative_seed_fails_before_any_cell_or_fold(tmp_path, capsys):
    data = tmp_path / "cv.csv"
    write_rasch_csv(data, U=6, Q=4, seed=1)
    missing = tmp_path / "missing.csv"
    out = tmp_path / "x.csv"
    cfg = tmp_path / "cfg.json"
    grid = {"users_grid": [3], "items_grid": [4], "snr_db_grid": [0.0], "trials": 2}
    sim = ["simulate", "--output", str(out)]
    cv = ["crossval", "--data", str(missing), "--output", str(out)]
    for argv, payload in (
        (sim + ["--users", "3", "--items", "4", "--snr-db", "0", "--trials", "2",
                "--seed", "-1"], None),
        (sim + ["--config", str(cfg)], {**grid, "seed": -1}),
        (cv + ["--folds", "3", "--seed", "-1"], None),
        (cv + ["--config", str(cfg)], {"folds": 3, "seed": -1}),
        (["fit", "--data", str(data), "--estimator", "pm_gibbs", "--seed", "-1",
          "--output", str(out)], None),
        (["analyze", "--users", "1", "--items", "4", "--sigma2", "1",
          "--known-difficulties", "--difficulty-sigma2", "1", "--seed", "-1",
          "--output", str(out)], None),
    ):
        if payload is not None:
            cfg.write_text(json.dumps(payload))
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "seed must be nonnegative" in captured.err, argv
        # Settings are checked before any cell runs or any data is read.
        assert "failed:" not in captured.out and "missing.csv" not in captured.err
        assert not out.exists()


def test_output_files_get_the_umask_mode(tmp_path):
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    old = os.umask(0o022)
    try:
        assert main(["analyze", "--users", "2", "--items", "4", "--sigma2", "1",
                     "--output", str(tmp_path / "a.csv")]) == 0
        assert main(["fit", "--data", str(responses),
                     "--output", str(tmp_path / "f.csv")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"a.csv": 0o644, "f.csv": 0o644, "f.json": 0o644}


def test_crossval_checks_settings_before_reading_data(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "x.csv"
    assert main(["crossval", "--data", str(missing), "--folds", "1",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "folds must be at least 2" in err and "missing.csv" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--users", "2", "--items", "2", "--snr-db", "4000", "--trials", "2"],
    ["simulate", "--users", "2", "--items", "2", "--snr-db", "0,nan", "--trials", "2"],
    ["simulate", "--users", "2", "--items", "2", "--snr-db", "-4000", "--trials", "2"],
    ["analyze", "--users", "2", "--items", "2", "--snr-db", "0,4000"],
    ["analyze", "--users", "2", "--items", "2", "--sigma2", "1,inf"],
    ["crossval", "--data", "CV", "--folds", "3", "--sigma2-grid", "inf,1"],
], ids=["simulate-overflow", "simulate-nan", "simulate-underflow",
        "analyze-overflow", "analyze-inf", "crossval-inf"])
def test_unusable_prior_variance_exits_1_before_any_work(tmp_path, capsys, argv):
    data = tmp_path / "cv.csv"
    write_rasch_csv(data, U=6, Q=4, seed=1)
    out = tmp_path / "x.csv"
    argv = [str(data) if a == "CV" else a for a in argv]
    assert main(argv + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err and "Traceback" not in captured.err
    assert "failed:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["fit", "--data", "CV", "--sigma2", "0"], "--sigma2"),
    (["fit", "--data", "CV", "--sigma2", "inf"], "--sigma2"),
    (["crossval", "--data", "CV", "--folds", "3", "--sigma2-grid", "1,inf"],
     "--sigma2-grid"),
], ids=["fit-zero", "fit-inf", "crossval-inf"])
def test_prior_variance_errors_name_the_flag(tmp_path, capsys, argv, flag):
    data = tmp_path / "cv.csv"
    write_rasch_csv(data, U=6, Q=4, seed=1)
    out = tmp_path / "x.csv"
    argv = [str(data) if a == "CV" else a for a in argv]
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {flag} must be finite and positive" in err
    assert "sigma2_a" not in err and "prior_variance_grid" not in err
    assert not out.exists()


def test_config_estimators_string_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"users_grid": [2], "items_grid": [2],
                               "snr_db_grid": [0.0], "estimators": "map"}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "must be a list" in err and str(cfg) in err
    assert "unknown estimator" not in err
    assert not out.exists()


def test_fit_movielens_duplicate_names_original_ids(tmp_path, capsys):
    ml = tmp_path / "u.data"
    ml.write_text("1\t10\t5\t0\n2\t10\t1\t0\n1\t10\t4\t0\n")
    assert main(["fit", "--movielens", str(ml),
                 "--output", str(tmp_path / "f.csv")]) == 1
    assert "(user=1, item=10)" in capsys.readouterr().err


def test_ls_is_not_an_estimator(tmp_path, capsys):
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["fit", "--data", str(responses), "--estimator", "ls",
              "--output", str(out)])
    assert err.value.code == 2
    assert main(["simulate", "--users", "2", "--items", "2", "--snr-db", "0",
                 "--trials", "2", "--estimators", "ls", "--output", str(out)]) == 1
    assert "unknown estimator 'ls'" in capsys.readouterr().err
    assert main(["crossval", "--data", str(responses), "--folds", "3",
                 "--estimators", "ls", "--output", str(out)]) == 1
    assert "unknown estimator 'ls'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_reports_failed_cells(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(experiments, "fit_response_set", singular)
    assert main(["simulate", "--users", "2", "--items", "2", "--snr-db", "0",
                 "--trials", "2", "--output", str(tmp_path / "f.csv")]) == 0
    assert "failed: LinAlgError" in capsys.readouterr().out


class _Stopped(RuntimeError):
    """Raised in place of a run's tasks, so a slow config costs nothing."""


def _stop_tasks(*args):
    raise _Stopped("stopped before any task")


# 20 x 20, 125 trials, the default 30k Gibbs steps: 50k latents per step,
# about 1.2 minutes of sampling.
SLOW_GIBBS = SyntheticConfig(users_grid=(20,), items_grid=(20,), snr_db_grid=(0.0,),
                             trials=125, estimators=("pm_gibbs",))


def test_gibbs_runtime_projection(caplog, monkeypatch):
    # run_synthetic logs the projection once, before any task runs, and only
    # for a pm_gibbs run whose projection passes the threshold.
    monkeypatch.setattr(experiments, "_thread_map", _stop_tasks)
    configs = {
        "slow": SLOW_GIBBS,
        "quick": dataclasses.replace(SLOW_GIBBS, users_grid=(2,), items_grid=(2,),
                                     trials=2, gibbs_burn_in=50, gibbs_samples=100),
        "no pm_gibbs": dataclasses.replace(SLOW_GIBBS, estimators=("lmmse", "map")),
        "known difficulties": dataclasses.replace(
            SLOW_GIBBS, estimators=("lmmse",), known_difficulties=True),
    }
    logged = {}
    for name, config in configs.items():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rasch_lmmse"):
            with pytest.raises(_Stopped):
                experiments.run_synthetic(config)
        logged[name] = [(r.levelname, r.getMessage()) for r in caplog.records
                        if r.levelno >= logging.WARNING]
    assert logged["quick"] == logged["no pm_gibbs"] == logged["known difficulties"] == []
    ((level, message),) = logged["slow"]
    match = re.fullmatch(
        r"pm_gibbs with burn-in 10000 and 20000 samples projects to roughly "
        r"(\d+\.\d) minutes of sampling", message,
    )
    assert level == "WARNING" and match and float(match[1]) >= 1.0


@pytest.mark.parametrize("level, shown", [(None, True), ("ERROR", False)])
def test_gibbs_runtime_warning_reaches_stderr_at_the_default_level(
    tmp_path, capsys, monkeypatch, level, shown
):
    monkeypatch.setattr(experiments, "_thread_map", _stop_tasks)
    argv = ["simulate", "--users", "20", "--items", "20", "--snr-db", "0",
            "--trials", "125", "--estimators", "pm_gibbs",
            "--output", str(tmp_path / "sim.csv")]
    if level is not None:
        argv += ["--log-level", level]
    assert main(argv) == 1
    err = capsys.readouterr().err
    line = ("WARNING rasch_lmmse.experiments: pm_gibbs with burn-in 10000 and "
            "20000 samples projects to roughly ")
    assert (line in err) is shown
    assert "error: stopped before any task" in err


def test_crossval_gibbs_runtime_projection(tmp_path, caplog, monkeypatch):
    # run_cross_validation logs the projection once, before any fold runs,
    # with run_synthetic's formula: each fold samples one chain on its
    # training split and, for a grid of several variances, one per variance
    # on its tuning split, each stepping its split's responses as latents.
    monkeypatch.setattr(experiments, "_thread_map", _stop_tasks)
    path = tmp_path / "responses.csv"
    write_rasch_csv(path, 40, 25, seed=3)
    data = load_triplets(path)
    n = len(data)  # 10 folds of 100
    gibbs = ("pm_gibbs",)

    def logged(config):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rasch_lmmse"):
            with pytest.raises(_Stopped):
                experiments.run_cross_validation(data, config)
        return [(r.levelname, r.getMessage()) for r in caplog.records
                if r.levelno >= logging.WARNING]

    def minutes(calls, latents):
        # Each chain's kept Schur side is min(40, 25) = 25.
        return 30_000 * (calls * experiments._GIBBS_STEP_SECONDS
                         + latents * experiments._GIBBS_LATENT_SECONDS
                         + calls * 25**2 * experiments._GIBBS_KEPT_SECONDS) / 60

    # Defaults, 10 folds and 5 variances: 10 training chains of 9n / 10
    # latents and 50 tuning chains of 8n / 10.
    ((level, message),) = logged(CvConfig(estimators=gibbs))
    assert level == "WARNING" and minutes(60, 49 * n) > 1.0
    assert message == ("pm_gibbs with burn-in 10000 and 20000 samples projects "
                       f"to roughly {minutes(60, 49 * n):.1f} minutes of sampling")
    assert logged(CvConfig(estimators=("lmmse", "map"))) == []
    assert logged(CvConfig(folds=3, prior_variance_grid=(1.0,), estimators=gibbs)) == []
    assert logged(CvConfig(estimators=gibbs, gibbs_burn_in=50, gibbs_samples=100)) == []

    # One variance: no tuning chains.
    monkeypatch.setattr(experiments, "_GIBBS_WARN_SECONDS", 0.0)
    ((_, message),) = logged(CvConfig(prior_variance_grid=(1.0,), estimators=gibbs))
    assert message.endswith(f"roughly {minutes(10, 9 * n):.1f} minutes of sampling")


def test_gibbs_runtime_projection_counts_each_chains_kept_side(tmp_path, caplog, monkeypatch):
    # With the step and latent terms zeroed, the projection is the kept
    # term alone: the sum over chains of n^2, n = min(U, Q) per simulate
    # pattern and min(num_users, num_items) per crossval split.
    monkeypatch.setattr(experiments, "_thread_map", _stop_tasks)
    monkeypatch.setattr(experiments, "_GIBBS_STEP_SECONDS", 0.0)
    monkeypatch.setattr(experiments, "_GIBBS_LATENT_SECONDS", 0.0)
    monkeypatch.setattr(experiments, "_GIBBS_KEPT_SECONDS", 1e-6)
    monkeypatch.setattr(experiments, "_GIBBS_WARN_SECONDS", 0.0)
    path = tmp_path / "responses.csv"
    write_rasch_csv(path, 40, 25, seed=3)
    runs = [
        # 2 SNRs x 3 trials of 20 x 20 and of 20 x 50: 12 chains, n = 20.
        (lambda: experiments.run_synthetic(dataclasses.replace(
            SLOW_GIBBS, items_grid=(20, 50), snr_db_grid=(0.0, 10.0), trials=3)),
         12 * 20**2),
        # 10 folds x (1 + 5 variances) chains, n = 25.
        (lambda: experiments.run_cross_validation(
            load_triplets(path), CvConfig(estimators=("pm_gibbs",))),
         60 * 25**2),
    ]
    for run, kept in runs:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rasch_lmmse"):
            with pytest.raises(_Stopped):
                run()
        ((message,),) = [(r.getMessage(),) for r in caplog.records]
        assert message.endswith(f"roughly {30_000 * kept * 1e-6 / 60:.1f} minutes of sampling")


@pytest.mark.parametrize("level, shown", [(None, True), ("ERROR", False)])
def test_crossval_gibbs_runtime_warning_obeys_the_log_level(
    tmp_path, capsys, monkeypatch, level, shown
):
    monkeypatch.setattr(experiments, "_thread_map", _stop_tasks)
    path = tmp_path / "responses.csv"
    write_rasch_csv(path, 40, 25, seed=3)
    argv = ["crossval", "--data", str(path), "--estimators", "pm_gibbs",
            "--output", str(tmp_path / "cv.json")]
    if level is not None:
        argv += ["--log-level", level]
    assert main(argv) == 1
    err = capsys.readouterr().err
    line = ("WARNING rasch_lmmse.experiments: pm_gibbs with burn-in 10000 and "
            "20000 samples projects to roughly ")
    assert (line in err) is shown
    assert "error: stopped before any task" in err


def test_fit_outputs_and_sign_convention(tmp_path):
    # every response correct: abilities must be >= 0 and difficulties <= 0
    data = tmp_path / "allpos.csv"
    lines = ["user,item,response"]
    for u in range(4):
        for i in range(3):
            lines.append(f"p{u},q{i},+1")
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit.csv"
    assert main(["fit", "--data", str(data), "--output", str(out)]) == 0

    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["kind", "id", "estimate", "predicted_mse"]
    abilities = {r[1]: float(r[2]) for r in rows[1:] if r[0] == "ability"}
    difficulties = {r[1]: float(r[2]) for r in rows[1:] if r[0] == "difficulty"}
    assert set(abilities) == {"p0", "p1", "p2", "p3"}
    assert set(difficulties) == {"q0", "q1", "q2"}
    assert all(v > 0 for v in abilities.values())
    assert all(v < 0 for v in difficulties.values())

    sidecar = json.loads((tmp_path / "fit.json").read_text())
    assert sidecar["schema_version"] == 1
    assert sidecar["estimator"] == "lmmse"
    assert sidecar["num_users"] == 4 and sidecar["num_items"] == 3
    assert sidecar["num_responses"] == 12
    assert sidecar["predicted_mse"] > 0
    assert sidecar["predicted_mse_ability_mean"] > 0
    assert sidecar["wall_time_seconds"] >= 0


def test_fit_large_set_reports_predicted_mse(tmp_path):
    # 400 users x 300 items: U + Q = 700 parameters, 3 responses per user
    # covering every item.  The sidecar must carry the exact MSE at any size.
    rng = np.random.default_rng(5)
    lines = ["user,item,response"]
    for u in range(400):
        for k in range(3):
            y = 1 if rng.random() < 0.5 else -1
            lines.append(f"u{u},q{(3 * u + k) % 300},{y}")
    data = tmp_path / "large.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "large_fit.csv"
    assert main(["fit", "--data", str(data), "--output", str(out)]) == 0

    sidecar = json.loads((tmp_path / "large_fit.json").read_text())
    assert sidecar["num_users"] + sidecar["num_items"] == 700
    for key in ("predicted_mse", "predicted_mse_ability_mean",
                "predicted_mse_difficulty_mean"):
        assert sidecar[key] is not None and sidecar[key] > 0, key
    assert sidecar["predicted_mse_ability_mean"] < 1.0  # below sigma2 = 1


def test_fit_sidecar_reports_solver(tmp_path):
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    for estimator in ("lmmse", "map", "pm_gibbs"):
        out = tmp_path / f"{estimator}.csv"
        assert main(["fit", "--data", str(responses), "--estimator", estimator,
                     "--gibbs-burnin", "20", "--gibbs-samples", "50",
                     "--output", str(out)]) == 0
        solver = json.loads((tmp_path / f"{estimator}.json").read_text())["solver"]
        if estimator == "lmmse":
            # 30 users and 12 items, all observed: eliminate the users.
            assert solver == {"path": "woodbury", "schur_side": "items",
                              "schur_size": 12}
        elif estimator == "pm_gibbs":
            assert solver == {"path": "rasch_gibbs"}
        else:
            assert solver["path"] == "rasch_newton"
            assert solver["iterations"] >= 1
            assert solver["gradient_norm"] >= 0.0
            assert isinstance(solver["at_floor"], bool)
            if not solver["at_floor"]:
                assert solver["gradient_norm"] <= 1e-8
            # 12 items kept: below 32 rows every Newton step factors.
            assert solver["factorizations"] == solver["iterations"]
            assert solver["cg_iterations"] == 0


def test_no_command_evaluates_the_bivariate_cdf(tmp_path, capsys, monkeypatch):
    # Every command takes the structured solvers; the dense bivariate-normal
    # moments serve only as the tests' reference.
    from rasch_lmmse import linear_probit, specfun

    def forbidden(*args, **kwargs):
        raise AssertionError("binorm_cdf called")

    monkeypatch.setattr(specfun, "binorm_cdf", forbidden)
    monkeypatch.setattr(linear_probit, "binorm_cdf", forbidden)
    responses = str(Path(__file__).parent.parent / "sample_data" / "responses.csv")
    gibbs = ["--gibbs-burnin", "20", "--gibbs-samples", "50"]
    runs = [
        ["analyze", "--users", "2,3", "--items", "4", "--snr-db", "-10,0,10"],
        ["analyze", "--users", "1", "--items", "50", "--snr-db", "-10,0,10",
         "--known-difficulties", "--difficulty-sigma2", "4"],
        ["simulate", "--users", "3", "--items", "4", "--snr-db", "0", "--trials", "2",
         "--estimators", "lmmse,map,pm_gibbs,fisher_bound", *gibbs],
        ["simulate", "--known-difficulties", "--users", "3", "--items", "20",
         "--snr-db", "0", "--trials", "2", "--estimators", "lmmse,fisher_bound"],
        *(["fit", "--data", responses, "--estimator", estimator, *gibbs]
          for estimator in CV_ESTIMATORS),
        ["crossval", "--data", responses, "--folds", "3", "--estimators",
         "lmmse,map,logit_map"],
    ]
    for argv in runs:
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 0, argv
        assert "failed" not in capsys.readouterr().out, argv


def test_fit_csv_carries_each_parameters_predicted_mse(tmp_path):
    # lmmse writes each parameter's exact MSE beside its estimate, in the
    # order of fit_response_set's per_component_mse (users, then items);
    # the other estimators leave the column empty.
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    data = load_triplets(responses)
    want = experiments.fit_response_set(data, "lmmse")["per_component_mse"]
    for estimator in ("lmmse", "map", "logit_map", "pm_gibbs"):
        out = tmp_path / f"{estimator}.csv"
        assert main(["fit", "--data", str(responses), "--estimator", estimator,
                     "--gibbs-burnin", "20", "--gibbs-samples", "50",
                     "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["kind"] for r in rows] == (
            ["ability"] * data.num_users + ["difficulty"] * data.num_items
        )
        got = [r["predicted_mse"] for r in rows]
        if estimator == "lmmse":
            assert [float(v) for v in got] == list(want)
        else:
            assert got == [""] * len(rows)


def test_fit_gibbs_flags_default_to_gibbs_config(tmp_path, monkeypatch):
    # fit passes only the Gibbs flags given; GibbsConfig holds the defaults.
    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    seen = []

    def recording_fit(data, estimator, sigma2_x, gibbs_config):
        seen.append(gibbs_config)
        return fit(data, estimator, sigma2_x=sigma2_x, gibbs_config=gibbs_config)

    fit = cli.fit_response_set
    monkeypatch.setattr(cli, "fit_response_set", recording_fit)
    out = str(tmp_path / "fit.csv")
    assert main(["fit", "--data", str(responses), "--output", out]) == 0
    assert main(["fit", "--data", str(responses), "--gibbs-samples", "7",
                 "--seed", "3", "--output", out]) == 0
    assert seen == [GibbsConfig(), GibbsConfig(samples=7, seed=3)]


def test_fit_movielens(tmp_path):
    ml = tmp_path / "u.data"
    rows = []
    rng = np.random.default_rng(0)
    for u in range(1, 6):
        for i in range(1, 5):
            rows.append(f"{u}\t{i}\t{rng.integers(1, 6)}\t0")
    ml.write_text("\n".join(rows) + "\n")
    out = tmp_path / "ml_fit.csv"
    assert main(["fit", "--movielens", str(ml), "--estimator", "map",
                 "--output", str(out)]) == 0
    assert out.exists()
    assert json.loads((tmp_path / "ml_fit.json").read_text())["predicted_mse"] is None


def test_log_level_info_shows_the_gibbs_plan(tmp_path, capsys):
    argv = ["simulate", "--users", "3", "--items", "2,4", "--snr-db", "0",
            "--trials", "2", "--estimators", "pm_gibbs", "--gibbs-burnin", "5",
            "--gibbs-samples", "5", "--output", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    assert "simulate:" not in capsys.readouterr().err  # WARNING by default
    assert main(argv + ["--log-level", "INFO"]) == 0
    # 2 chains per pattern on 6 and 12 responses: 36 latents per step, plus
    # one trial's responses and Schur complement per pattern, 6 + 2^2 and
    # 12 + 3^2 entries.  One worker runs one slice per pattern.
    assert ("INFO rasch_lmmse.experiments: simulate: 2 pattern(s) in 2 "
            "slice(s) on 1 worker(s), 67 entries (36 Gibbs latents per step)"
            ) in capsys.readouterr().err


def test_log_level_info_shows_binarization(tmp_path, capsys):
    ratings = Path(__file__).parent.parent / "sample_data" / "ratings.data"
    argv = ["fit", "--movielens", str(ratings), "--output", str(tmp_path / "f.csv")]
    assert main(argv) == 0
    assert "binarized" not in capsys.readouterr().err
    assert main(argv + ["--log-level", "INFO"]) == 0
    err = capsys.readouterr().err
    assert "INFO rasch_lmmse.data: binarized 64 ratings" in err
    assert main(argv) == 0  # the level does not outlive its command
    assert "binarized" not in capsys.readouterr().err


def _scipy_openblas_threads():
    """(get, set) for the thread count of SciPy's bundled OpenBLAS, or None
    when this process has not loaded it."""
    import scipy.linalg  # noqa: F401  (loads the library)

    libs = Path(scipy.linalg.__file__).parents[2] / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get_threads = lib.scipy_openblas_get_num_threads
            set_threads = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@pytest.fixture
def scipy_openblas():
    found = _scipy_openblas_threads()
    if found is None:
        pytest.skip("SciPy's bundled OpenBLAS is not loaded")
    get_threads, set_threads = found
    ambient = get_threads()
    yield get_threads, set_threads
    set_threads(ambient)


def test_outputs_do_not_depend_on_the_lapack_thread_count(tmp_path, scipy_openblas):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs at least 2 CPUs")
    _, set_threads = scipy_openblas
    outputs = []
    for threads in (1, 2):
        set_threads(threads)
        out = tmp_path / f"analyze_{threads}.csv"
        assert main(["analyze", "--known-difficulties", "--users", "1", "--items", "400",
                     "--snr-db", "-10,0,10", "--difficulty-sigma2", "1",
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_main_runs_lapack_on_one_thread_and_sets_back_the_count(
    tmp_path, capsys, monkeypatch, scipy_openblas
):
    get_threads, set_threads = scipy_openblas
    set_threads(2)
    ambient = get_threads()
    seen = []
    analyze = cli._cmd_analyze

    def watched_analyze(args):
        seen.append(get_threads())
        return analyze(args)

    monkeypatch.setattr(cli, "_cmd_analyze", watched_analyze)
    bad = tmp_path / "bad.csv"
    bad.write_text("user,item,response\nu0,q0,7\n")
    out = str(tmp_path / "out.csv")
    for argv, code in (
        (["analyze", "--users", "2", "--items", "3", "--sigma2", "1", "--output", out], 0),
        (["fit", "--data", str(bad), "--output", out], 1),
        (["analyze", "--users", "1", "--items", "3", "--sigma2", "1",
          "--known-difficulties", "--output", out], 2),
    ):
        assert main(argv + ["--log-level", "INFO"]) == code, argv
        assert get_threads() == ambient, argv
        err = capsys.readouterr().err
        assert re.search(r"INFO rasch_lmmse\.cli: LAPACK on 1 thread: "
                         rf"libscipy_openblas-\w+\.so \(was {ambient}\)", err), err
    assert seen == [1, 1]


def test_main_runs_without_scipy_openblas(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_scipy_openblas", lambda: None)
    assert main(["analyze", "--users", "2", "--items", "3", "--sigma2", "1",
                 "--output", str(tmp_path / "a.csv"), "--log-level", "INFO"]) == 0
    assert ("INFO rasch_lmmse.cli: SciPy's OpenBLAS is not loaded; LAPACK threads "
            "left as they are") in capsys.readouterr().err


def test_fit_dataset_flag_errors(tmp_path, capsys):
    assert main(["fit", "--output", str(tmp_path / "x.csv")]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["fit", "--data", "a.csv", "--movielens", "b.data",
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert main(["fit", "--data", str(tmp_path / "missing.csv"),
                 "--output", str(tmp_path / "x.csv")]) == 1


def test_fit_zero_one_labels(tmp_path):
    data = tmp_path / "zo.csv"
    data.write_text("user,item,response\na,x,1\na,y,0\nb,x,0\nb,y,1\n")
    assert main(["fit", "--data", str(data), "--label-convention", "zero_one",
                 "--output", str(tmp_path / "f.csv")]) == 0


def test_crossval_outputs(tmp_path, capsys):
    data = tmp_path / "cv.csv"
    write_rasch_csv(data, U=10, Q=6, seed=3)
    out = tmp_path / "cv_out.csv"
    code = main(["crossval", "--data", str(data), "--folds", "3",
                 "--sigma2-grid", "1.0", "--output", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "estimator" in stdout and "lmmse" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,fold,acc,auc,selected_sigma2_x,fallback_count"
    assert len(lines) == 4  # one row per fold

    json_out = tmp_path / "cv.json"
    assert main(["crossval", "--data", str(data), "--folds", "3",
                 "--sigma2-grid", "1.0", "--format", "json",
                 "--output", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    assert payload["schema_version"] == 1
    assert "lmmse" in payload["per_estimator"]


def test_output_dir_env(tmp_path, monkeypatch):
    target = tmp_path / "outputs"
    target.mkdir()
    monkeypatch.setenv("RASCH_LMMSE_OUTPUT_DIR", str(target))
    assert main(["analyze", "--users", "2", "--items", "2",
                 "--sigma2", "1", "--output", "rel.csv"]) == 0
    assert (target / "rel.csv").exists()


def test_output_directory_handling(tmp_path, capsys):
    # missing parent directories are created
    nested = tmp_path / "a" / "b" / "x.csv"
    assert main(["analyze", "--users", "2", "--items", "2", "--sigma2", "1",
                 "--output", str(nested)]) == 0
    assert nested.exists()
    capsys.readouterr()

    # but an unwritable path (parent is a file) is a runtime error
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["analyze", "--users", "2", "--items", "2", "--sigma2", "1",
                 "--output", str(blocker / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of CPU to import, paid by every
    # CLI run; the package needs none of it.
    src = str(Path(rasch_lmmse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, rasch_lmmse.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
