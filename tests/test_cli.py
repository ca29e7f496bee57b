"""Command-line workflows: exit codes and artifact round trips."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import railvolt
from railvolt import cli
from railvolt.cli import main
from railvolt.domain import (Instance, Solution, SolveConfig, empty_solution,
                             validate_instance)

from conftest import tiny_corridor


@pytest.fixture()
def tiny_file(tmp_path):
    inst = tiny_corridor(61)
    path = tmp_path / "tiny.json"
    inst.to_json(str(path))
    return inst, str(path)


# ---------------------------------------------------------------------------
# Usage errors
# ---------------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_algorithm_is_a_usage_error(capsys):
    code = main(["solve", "--algo", "nope", "--instance", "x.json"])
    assert code == 2
    assert "--algo" in capsys.readouterr().err


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "generate" in out and "sweep" in out


@pytest.mark.parametrize("argv", [
    ["generate", "--alpha-f", "2"],
    ["generate", "--alpha-d", "7"],
    ["generate", "--gap", "0.5"],
    ["generate", "--time-limit", "5"],
    ["validate", "--instance", "i.json", "--solution", "s.json",
     "--out", "x.json"],
    ["validate", "--instance", "i.json", "--solution", "s.json",
     "--seed", "3"],
    ["validate", "--instance", "i.json", "--solution", "s.json",
     "--gap", "0.5"],
    ["validate", "--instance", "i.json", "--solution", "s.json",
     "--time-limit", "5"],
    ["sweep", "--instances", "i.json", "--alpha-d", "7"],
    ["sweep", "--instances", "i.json", "--alpha-d", "7",
     "--alpha-d-values", "3,5"],
], ids=["generate-alpha-f", "generate-alpha-d", "generate-gap",
        "generate-time-limit", "validate-out", "validate-seed",
        "validate-gap", "validate-time-limit", "sweep-alpha-d",
        "sweep-alpha-d-with-values"])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    # a flag that would change nothing is refused, not silently ignored;
    # that includes a prefix of another flag (--alpha-d of --alpha-d-values)
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_subcommands_take_only_the_flags_they_read():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(opt for a in p._actions for opt in a.option_strings
                          if opt.startswith("--") and opt != "--help")
             for name, p in subparsers.choices.items()}
    common = ["--alpha-d", "--alpha-f", "--gap", "--out", "--seed",
              "--time-limit"]
    assert flags == {
        "generate": ["--consists", "--out", "--seed", "--size", "--trains"],
        "solve": sorted(common + ["--algo", "--dump-model", "--instance",
                                  "--schedule"]),
        "validate": ["--alpha-d", "--alpha-f", "--instance", "--solution",
                     "--tolerance"],
        "report": sorted(common + ["--algos", "--instances", "--long"]),
        "sweep": ["--algos", "--alpha-d-values", "--alpha-f", "--gap",
                  "--instances", "--out", "--seed", "--time-limit"],
    }


def test_missing_instance_file_reports_failure(capsys):
    code = main(["solve", "--algo", "pla", "--instance", "/no/such.json"])
    assert code == 1
    assert "such.json" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["not-json", "ragged-energy",
                                  "short-energy-validate", "short-energy-fa",
                                  "solution-not-json", "solution-fields"])
def test_malformed_files_report_failure(case, tiny_file, tmp_path, capsys):
    inst, good = tiny_file
    bad = tmp_path / "bad.json"
    doc = json.loads(Path(good).read_text())
    if case == "ragged-energy":
        doc["energy"][0][1] = doc["energy"][0][1][:-1]
        bad.write_text(json.dumps(doc))
    elif case.startswith("short-energy"):
        # well-formed JSON arrays, one station short of the station list
        doc["energy"] = [[row[:-1] for row in m[:-1]] for m in doc["energy"]]
        bad.write_text(json.dumps(doc))
    elif case == "solution-fields":
        bad.write_text(json.dumps({"deployed": []}))
    else:
        bad.write_text("{not json")
    if case.startswith("solution"):
        argv = ["validate", "--instance", good, "--solution", str(bad)]
    elif case == "short-energy-validate":
        schedule = str(tmp_path / "schedule.json")
        empty_solution(inst, "optimal", "pla").to_json(schedule)
        argv = ["validate", "--instance", str(bad), "--solution", schedule]
    elif case == "short-energy-fa":
        argv = ["solve", "--algo", "fa", "--instance", str(bad)]
    else:
        argv = ["solve", "--algo", "pla", "--instance", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("argv", [
    ["report", "--instances", "i.json", "--algos", "pla,foo"],
    ["report", "--instances", "i.json", "--algos", ","],
    ["sweep", "--instances", "i.json", "--alpha-d-values", "3,x"],
    ["sweep", "--instances", "i.json", "--alpha-d-values", "3,nan"],
    ["sweep", "--instances", "i.json", "--alpha-d-values", "3,-1"],
    ["generate", "--size", "small", "--trains", "0"],
    ["generate", "--size", "small", "--consists", "-1"],
    ["generate", "--size", "small", "--seed", "-1"],
    ["solve", "--algo", "fa", "--seed", "-3", "--instance", "i.json"],
    ["solve", "--algo", "pla", "--alpha-f", "-1", "--instance", "i.json"],
    ["solve", "--algo", "pla", "--alpha-d", "inf", "--instance", "i.json"],
    ["solve", "--algo", "pla", "--gap", "nan", "--instance", "i.json"],
    ["solve", "--algo", "bd", "--time-limit", "nan", "--instance", "i.json"],
    ["solve", "--algo", "pla", "--time-limit", "-1", "--instance", "i.json"],
    ["solve", "--algo", "pla", "--time-limit", "0", "--instance", "i.json"],
    ["validate", "--instance", "i.json", "--tolerance", "nan",
     "--solution", "s.json"],
    ["validate", "--instance", "i.json", "--tolerance", "-0.1",
     "--solution", "s.json"],
], ids=["unknown-algo", "no-algo", "bad-weight", "nan-weight",
        "negative-weight", "zero-trains", "negative-consists",
        "negative-seed", "negative-solve-seed",
        "negative-alpha-f", "infinite-alpha-d", "nan-gap", "nan-time-limit",
        "negative-time-limit", "zero-time-limit", "nan-tolerance",
        "negative-tolerance"])
def test_malformed_list_flags_are_usage_errors(argv, capsys):
    # refused while parsing, before any instance file is opened
    assert main(argv) == 2
    assert f"argument {argv[3]}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_a_valid_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["generate", "--size", "small", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    inst = Instance.from_json(str(out))
    assert validate_instance(inst) == []
    assert inst.n_stations == 6
    assert inst.name == "small-9"


def test_generate_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--seed", "4", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "4", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


# ---------------------------------------------------------------------------
# solve / validate round trip
# ---------------------------------------------------------------------------


def test_solve_then_validate_round_trip(tiny_file, tmp_path, capsys):
    inst, path = tiny_file
    sol_path = tmp_path / "plan.json"
    code = main(["solve", "--algo", "pla", "--instance", path,
                 "--time-limit", "60", "--out", str(sol_path),
                 "--schedule"])
    out = capsys.readouterr().out
    assert code == 0
    assert "objective:" in out
    assert "delay (h)" in out  # the schedule table rendered
    assert sol_path.exists()

    code = main(["validate", "--instance", path,
                 "--solution", str(sol_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out


def test_validate_flags_a_corrupted_plan(tiny_file, tmp_path, capsys):
    inst, path = tiny_file
    sol_path = tmp_path / "plan.json"
    assert main(["solve", "--algo", "pla", "--instance", path,
                 "--time-limit", "60", "--out", str(sol_path)]) == 0
    capsys.readouterr()
    sol = Solution.from_json(str(sol_path))
    sol.arrive[0][1] += 1.0
    sol.to_json(str(sol_path))
    code = main(["validate", "--instance", path,
                 "--solution", str(sol_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "violation:" in out and "FAILED" in out


def test_solve_bd_writes_convergence_log(tiny_file, tmp_path, capsys):
    inst, path = tiny_file
    sol_path = tmp_path / "plan.json"
    code = main(["solve", "--algo", "bd", "--instance", path,
                 "--time-limit", "90", "--out", str(sol_path)])
    assert code == 0
    conv = tmp_path / "plan_convergence.csv"
    assert conv.exists()
    lines = conv.read_text().splitlines()
    assert lines[0] == ("iteration,lower_bound,upper_bound,cut,"
                        "master_status,wall_seconds")
    assert len(lines) >= 2
    # the serialized solution carries no live objects
    json.loads(sol_path.read_text())


def test_convergence_log_stays_beside_an_extensionless_out(
        tiny_file, tmp_path, capsys):
    # Only the file name's extension is replaced: a dot in a directory
    # name must not move the log out of --out's directory.
    inst, path = tiny_file
    run_dir = tmp_path / "run.v1"
    run_dir.mkdir()
    code = main(["solve", "--algo", "bd", "--instance", path,
                 "--time-limit", "90", "--out", str(run_dir / "plan")])
    assert code == 0
    conv = run_dir / "plan_convergence.csv"
    assert conv.read_text().splitlines()[0] == (
        "iteration,lower_bound,upper_bound,cut,master_status,wall_seconds")
    assert not (tmp_path / "run_convergence.csv").exists()


def test_solve_dump_model_writes_lp(tiny_file, tmp_path, capsys):
    inst, path = tiny_file
    lp = tmp_path / "model.lp"
    code = main(["solve", "--algo", "pla", "--instance", path,
                 "--time-limit", "60", "--dump-model", str(lp)])
    assert code == 0
    assert "minimize" in lp.read_text().lower()


def test_solve_infeasible_exits_1(tmp_path, capsys):
    inst = tiny_corridor(63, energy_lo=1.2, energy_hi=1.4)
    path = tmp_path / "doomed.json"
    inst.to_json(str(path))
    code = main(["solve", "--algo", "pla", "--instance", str(path),
                 "--time-limit", "30"])
    assert code == 1
    assert "no feasible schedule" in capsys.readouterr().out


def test_solve_without_a_plan_exits_1(tiny_file, tmp_path, monkeypatch,
                                     capsys):
    # Out of time without an incumbent is no plan, like infeasibility: the
    # status is printed, nothing is written, and the exit code is 1.
    inst, path = tiny_file
    monkeypatch.setitem(cli.ALGORITHMS, "pla", lambda inst, cfg: (
        empty_solution(inst, "time-limit-no-incumbent", "pla")))
    sol_path = tmp_path / "plan.json"
    code = main(["solve", "--algo", "pla", "--instance", path,
                 "--out", str(sol_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: time-limit-no-incumbent" in out
    assert "no plan found" in out and "objective:" not in out
    assert not sol_path.exists()


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_every_config_field_is_a_common_flag():
    args = cli._build_parser().parse_args([
        "solve", "--algo", "pla", "--instance", "x.json", "--alpha-f", "2",
        "--alpha-d", "5", "--gap", "0.02", "--time-limit", "9", "--seed", "4"])
    cfg, default = cli._config(args), SolveConfig()
    for f in dataclasses.fields(SolveConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name


def test_fixed_model_values_are_not_settable():
    assert SolveConfig().n == 10
    with pytest.raises(TypeError):
        SolveConfig(n=12)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is not needed, and importing it costs about 0.22 s on top
    # of railvolt's own import (2 CPUs, scipy 1.17), time that every run
    # pays. So reporting.paired_t_test stays in place of scipy's ttest_rel.
    code = "import sys, railvolt; print('scipy.stats' in sys.modules)"
    src = str(Path(railvolt.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# report / sweep
# ---------------------------------------------------------------------------


def test_report_writes_csv_tables(tmp_path, capsys):
    paths = []
    for seed in (71, 73):
        p = tmp_path / f"i{seed}.json"
        tiny_corridor(seed).to_json(str(p))
        paths.append(str(p))
    table = tmp_path / "results.csv"
    longf = tmp_path / "long.csv"
    code = main(["report", "--instances", *paths, "--algos", "pla",
                 "--time-limit", "60", "--out", str(table),
                 "--long", str(longf)])
    assert code == 0
    text = table.read_text()
    assert text.startswith("# schema:")
    # 2 instances + 1 average row + comment + header
    assert len(text.splitlines()) == 5
    assert longf.exists()


def test_sweep_compares_two_delay_weights(tmp_path, capsys):
    p = tmp_path / "i.json"
    tiny_corridor(79).to_json(str(p))
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--instances", str(p), "--algos", "pla",
                 "--alpha-d-values", "3,5", "--time-limit", "60",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["alpha_d"] == [3.0, 5.0]
    assert "deltas" in payload and "tests" in payload


def test_sweep_requires_exactly_two_weights(tmp_path, capsys):
    p = tmp_path / "i.json"
    tiny_corridor(83).to_json(str(p))
    code = main(["sweep", "--instances", str(p), "--algos", "pla",
                 "--alpha-d-values", "3"])
    assert code == 2
