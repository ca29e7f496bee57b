"""Command-line entry point: generate, solve, validate, report, sweep.

Exit codes: 0 success; 1 validation failure, or a solve that found no plan
(infeasible, or out of time without an incumbent); 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from typing import List, Optional

from . import backend as be
from .domain import (Instance, RailvoltError, SolveConfig, Solution,
                     write_json)
from .generator import GenSpec, generate_instance
from .model import build_model
from .reporting import (ALGORITHMS, run_batch, sensitivity_compare,
                        write_long_csv, write_results_csv)
from .validator import simulate_schedule

__all__ = ["main", "format_schedule"]


def _number(convert, low, strict: bool = False):
    """An argparse type: the text as ``convert`` reads it, refused unless it
    is finite and at least ``low`` (above ``low`` when ``strict``)."""
    want = ("an integer" if convert is int else "a finite number") \
        + f" {'>' if strict else '>='} {low:g}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}")
        return value
    return parse


_COUNT = _number(int, 1)
_WEIGHT = _number(float, 0.0)

# The flags several subcommands take; a configuration flag stores into the
# SolveConfig field it sets.
_FLAGS = {
    "seed": dict(type=_number(int, 0), default=0, help="random seed"),
    "alpha-f": dict(dest="alpha_fixed", type=_WEIGHT, default=1.0,
                    help="weight on station setup cost"),
    "alpha-d": dict(dest="alpha_delay", type=_WEIGHT, default=3.0,
                    help="weight on each hour of excess delay"),
    "gap": dict(dest="mip_gap", type=_WEIGHT, default=0.01,
                help="relative MIP gap for full solves"),
    "time-limit": dict(dest="time_limit_seconds",
                       type=_number(float, 0.0, strict=True), default=1800.0,
                       help="wall-clock budget in seconds"),
    "out": dict(default=None, help="output file path"),
}


def _algorithms(text: str) -> List[str]:
    """``--algos``: a comma list of planner names."""
    algos = [a for a in text.split(",") if a]
    if not algos or not set(algos) <= set(ALGORITHMS):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list from {{pla,fa,bd}}")
    return algos


def _two_weights(text: str) -> List[float]:
    """``--alpha-d-values``: two comma-separated delay weights."""
    try:
        values = [_WEIGHT(x) for x in text.split(",") if x]
    except argparse.ArgumentTypeError:
        values = []
    if len(values) != 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not two comma-separated numbers >= 0")
    return values


def _config(args) -> SolveConfig:
    """The settings of the configuration flags this subcommand takes."""
    return SolveConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(SolveConfig)
                          if hasattr(args, f.name)})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railvolt",
        description="Charge-station deployment and battery charge/swap "
                    "scheduling for battery-electric freight corridors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags):
        # no abbreviations: a prefix of a flag that is not there (say
        # --alpha-d for --alpha-d-values) must be a usage error
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        return p

    p = command("generate", "draw a random corridor instance", "seed", "out")
    p.add_argument("--size", choices=("small", "medium", "large"),
                   default="small")
    p.add_argument("--trains", type=_COUNT, default=2)
    p.add_argument("--consists", type=_COUNT, default=3)

    p = command("solve", "plan deployment and schedules", *_FLAGS)
    p.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-model", default=None, metavar="PATH",
                   help="also write the full model in LP format")
    p.add_argument("--schedule", action="store_true",
                   help="print the human-readable schedule table")

    p = command("validate", "re-simulate a solution against an instance",
                "alpha-f", "alpha-d")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--tolerance", type=_WEIGHT, default=0.05)

    p = command("report", "run a batch and write the CSV table", *_FLAGS)
    p.add_argument("--instances", nargs="+", required=True,
                   help="instance JSON files")
    p.add_argument("--algos", type=_algorithms, default="pla,fa,bd",
                   help="comma list from {pla,fa,bd}")
    p.add_argument("--long", default=None, metavar="PATH",
                   help="also write long-format plot data CSV")

    p = command("sweep", "re-run a batch at two delay weights and compare",
                "seed", "alpha-f", "gap", "time-limit", "out")
    p.add_argument("--instances", nargs="+", required=True)
    p.add_argument("--algos", type=_algorithms, default="pla,fa,bd")
    p.add_argument("--alpha-d-values", type=_two_weights, default="3,5",
                   help="two comma-separated delay weights")
    return parser


# ---------------------------------------------------------------------------
# Schedule printer
# ---------------------------------------------------------------------------

def format_schedule(instance: Instance, solution: Solution) -> str:
    """Render the schedule as one row block per train: the timing pair per
    station, the delay, and each consist's action and SOC pair. Deployed
    stations are starred in the header."""
    deployed = set(solution.deployed)
    headers = ["Trains/Consists"] + [
        name + (" *" if i in deployed else "")
        for i, name in enumerate(instance.stations)
    ]
    table: List[List[str]] = [headers]
    for j in range(instance.n_trains):
        table.append([instance.trains[j].name])
        table.append(["(arrival, departure)"] + [
            f"({solution.arrive[j][i]:.2f}, {solution.depart[j][i]:.2f})"
            for i in range(instance.n_stations)
        ])
        table.append(["delay (h)"] + [
            f"{solution.delay[j][i]:.2f}"
            for i in range(instance.n_stations)
        ])
        for k in range(instance.consists(j)):
            tag = "with battery" if solution.has_battery[j][k] else "empty"
            table.append([f"  Consist {k + 1} ({tag})"])
            actions = []
            for i in range(instance.n_stations):
                if solution.swap[j][i][k]:
                    actions.append("swap")
                elif solution.charge[j][i][k]:
                    actions.append(
                        f"charge {solution.charge_hours[j][i][k]:.2f} h")
                else:
                    actions.append("-")
            table.append(["  action"] + actions)
            table.append(["  (SOC arr, SOC dep)"] + [
                f"({100 * solution.soc_arrive[j][i][k]:.0f}%, "
                f"{100 * solution.soc_depart[j][i][k]:.0f}%)"
                for i in range(instance.n_stations)
            ])
    widths = [max(len(row[c]) for row in table if c < len(row))
              for c in range(len(headers))]
    lines = []
    for row in table:
        lines.append(" | ".join(
            cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    spec = GenSpec(size_class=args.size, n_trains=args.trains,
                   consists_per_train=args.consists, seed=args.seed)
    inst = generate_instance(spec)
    out = args.out or f"{inst.name}.json"
    inst.to_json(out)
    print(f"wrote {out}: {inst.n_stations} stations, {inst.n_trains} trains")
    return 0


def _cmd_solve(args) -> int:
    inst = Instance.from_json(args.instance)
    cfg = _config(args)
    if args.dump_model:
        # the full model: what pla solves and fa and bd restrict
        be.write_lp(build_model(inst, cfg)[0], args.dump_model)
    sol = ALGORITHMS[args.algo](inst, cfg)

    print(f"algorithm: {sol.algorithm}")
    print(f"status: {sol.status}")
    if not math.isfinite(sol.objective_value):
        print("no feasible schedule exists for this instance"
              if sol.status == "infeasible" else "no plan found")
        return 1
    print(f"objective: {sol.objective_value:.4f}")
    if sol.gap is not None:
        print(f"gap: {sol.gap:.4f}")
    print(f"deployed stations: {[inst.stations[i] for i in sol.deployed]}")
    if args.schedule:
        print()
        print(format_schedule(inst, sol))
    if args.out:
        sol.to_json(args.out)
        print(f"wrote {args.out}")
        if sol.algorithm == "bd" and sol.info.get("benders_log"):
            conv = os.path.splitext(args.out)[0] + "_convergence.csv"
            with open(conv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=[
                    "iteration", "lower_bound", "upper_bound", "cut",
                    "master_status", "wall_seconds"])
                writer.writeheader()
                writer.writerows(sol.info["benders_log"])
            print(f"wrote {conv}")
    return 0


def _cmd_validate(args) -> int:
    inst = Instance.from_json(args.instance)
    sol = Solution.from_json(args.solution)
    report = simulate_schedule(inst, sol, tolerance=args.tolerance,
                               config=_config(args))
    for v in report.violations:
        print(f"violation: {v}")
    for w in report.warnings:
        print(f"warning: {w}")
    if report.metrics:
        for key, value in report.metrics.as_dict().items():
            print(f"{key}: {value:.4f}" if isinstance(value, float)
                  else f"{key}: {value}")
    print("OK" if report.ok else f"FAILED ({len(report.violations)} "
                                 "violations)")
    return 0 if report.ok else 1


def _load_instances(paths: List[str]) -> List[Instance]:
    return [Instance.from_json(p) for p in paths]


def _cmd_report(args) -> int:
    instances = _load_instances(args.instances)
    rows = run_batch(instances, args.algos, _config(args))
    out = args.out or "results.csv"
    write_results_csv(rows, out)
    print(f"wrote {out}: {len(rows)} rows")
    if args.long:
        write_long_csv(rows, args.long)
        print(f"wrote {args.long}")
    return 0


def _cmd_sweep(args) -> int:
    values = args.alpha_d_values
    instances = _load_instances(args.instances)
    cfg = _config(args)
    batches = [
        run_batch(instances, args.algos, cfg.replace(alpha_delay=v))
        for v in values
    ]
    comparison = sensitivity_compare(batches[0], batches[1])
    comparison["meta"]["alpha_d"] = values
    out = args.out or "sweep.json"
    write_json(comparison, out)
    print(f"wrote {out}: {len(comparison['deltas'])} delta rows, "
          f"{len(comparison['tests'])} tests")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (RailvoltError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
