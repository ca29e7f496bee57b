"""Command-line entry point: generate, solve, validate, report, sweep.

Exit codes: 0 success, 1 validation failure or infeasibility, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional

from .domain import Instance, RailvoltError, SolveConfig, Solution
from .generator import GenSpec, generate_instance
from .model import solve_pla
from .reporting import (ALGORITHMS, run_batch, sensitivity_compare,
                        write_json, write_long_csv, write_results_csv)
from .validator import simulate_schedule

__all__ = ["main", "format_schedule"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha-f", type=float, default=1.0,
                   help="weight on station setup cost")
    p.add_argument("--alpha-d", type=float, default=3.0,
                   help="weight on each hour of excess delay")
    p.add_argument("--gap", type=float, default=0.01,
                   help="relative MIP gap for full solves")
    p.add_argument("--time-limit", type=float, default=1800.0,
                   help="wall-clock budget in seconds")
    p.add_argument("--out", default=None, help="output file path")


def _config(args) -> SolveConfig:
    return SolveConfig(alpha_fixed=args.alpha_f, alpha_delay=args.alpha_d,
                       mip_gap=args.gap, time_limit_seconds=args.time_limit,
                       seed=args.seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railvolt",
        description="Charge-station deployment and battery charge/swap "
                    "scheduling for battery-electric freight corridors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random corridor instance")
    _add_common(p)
    p.add_argument("--size", choices=("small", "medium", "large"),
                   default="small")
    p.add_argument("--trains", type=int, default=2)
    p.add_argument("--consists", type=int, default=3)

    p = sub.add_parser("solve", help="plan deployment and schedules")
    _add_common(p)
    p.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-model", default=None, metavar="PATH",
                   help="also write the built model in LP format")
    p.add_argument("--schedule", action="store_true",
                   help="print the human-readable schedule table")

    p = sub.add_parser("validate",
                       help="re-simulate a solution against an instance")
    _add_common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--tolerance", type=float, default=0.05)

    p = sub.add_parser("report", help="run a batch and write the CSV table")
    _add_common(p)
    p.add_argument("--instances", nargs="+", required=True,
                   help="instance JSON files")
    p.add_argument("--algos", default="pla,fa,bd",
                   help="comma list from {pla,fa,bd}")
    p.add_argument("--long", default=None, metavar="PATH",
                   help="also write long-format plot data CSV")

    p = sub.add_parser("sweep",
                       help="re-run a batch at two delay weights and compare")
    _add_common(p)
    p.add_argument("--instances", nargs="+", required=True)
    p.add_argument("--algos", default="pla,fa,bd")
    p.add_argument("--alpha-d-values", default="3,5",
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
    if args.algo == "pla":
        sol = solve_pla(inst, cfg, dump_model=args.dump_model)
    else:
        if args.dump_model:
            print("--dump-model applies to the full model; ignored for "
                  f"{args.algo}", file=sys.stderr)
        sol = ALGORITHMS[args.algo](inst, cfg)

    print(f"algorithm: {sol.algorithm}")
    print(f"status: {sol.status}")
    if sol.status == "infeasible":
        print("no feasible schedule exists for this instance")
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
            conv = args.out.rsplit(".", 1)[0] + "_convergence.csv"
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
    algos = [a for a in args.algos.split(",") if a]
    rows = run_batch(instances, algos, _config(args))
    out = args.out or "results.csv"
    write_results_csv(rows, out)
    print(f"wrote {out}: {len(rows)} rows")
    if args.long:
        write_long_csv(rows, args.long)
        print(f"wrote {args.long}")
    return 0


def _cmd_sweep(args) -> int:
    values = [float(x) for x in args.alpha_d_values.split(",") if x]
    if len(values) != 2:
        print("sweep needs exactly two --alpha-d-values", file=sys.stderr)
        return 2
    instances = _load_instances(args.instances)
    algos = [a for a in args.algos.split(",") if a]
    cfg = _config(args)
    batches = [
        run_batch(instances, algos, cfg.replace(alpha_delay=v),
                  with_average=False)
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
