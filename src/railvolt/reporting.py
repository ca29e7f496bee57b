"""Experiment harness: batch solves, measure tables, and paired t-tests.

Results are plain lists of dicts (one per instance x algorithm cell) so they
serialize to CSV/JSON without ceremony. Failures never abort a batch: a cell
that errors carries the message in its ``error`` field and is skipped by the
aggregate row.
"""
from __future__ import annotations

import csv
import math
from typing import Callable, Dict, List, Optional, Sequence

from scipy.special import betainc

from .benders import run_benders
from .domain import Instance, Metrics, RailvoltError, SolveConfig, Solution
from .fixalg import run_fix_algorithm
from .model import solve_pla
from .validator import recompute_metrics

__all__ = [
    "ALGORITHMS",
    "run_batch",
    "paired_t_test",
    "sensitivity_compare",
    "write_results_csv",
    "long_format",
    "write_long_csv",
]

SCHEMA = "railvolt-results-1"

ALGORITHMS: Dict[str, Callable[[Instance, SolveConfig], Solution]] = {
    "pla": lambda inst, cfg: solve_pla(inst, cfg),
    "fa": lambda inst, cfg: run_fix_algorithm(inst, cfg),
    "bd": lambda inst, cfg: run_benders(inst, cfg),
}

_RESULT_FIELDS = (
    ["instance", "algorithm"]
    + list(Metrics.FIELDS)
    + ["status", "gap", "wall_seconds", "error"]
)


def run_batch(instances: Sequence[Instance], algorithms: Sequence[str],
              config: Optional[SolveConfig] = None) -> List[dict]:
    """One row per (instance, algorithm), in the given order, plus one
    average row per algorithm over its non-error cells."""
    cfg = config or SolveConfig()
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm(s): {unknown}")

    rows: List[dict] = []
    for inst in instances:
        for algo in algorithms:
            row = {f: "" for f in _RESULT_FIELDS}
            row.update(instance=inst.name, algorithm=algo)
            try:
                sol = ALGORITHMS[algo](inst, cfg)
                row["status"] = sol.status
                row["gap"] = "" if sol.gap is None else float(sol.gap)
                row["wall_seconds"] = float(sol.wall_seconds)
                if not math.isfinite(sol.objective_value):
                    row["error"] = sol.status
                else:
                    metrics = recompute_metrics(inst, sol, cfg)
                    for f in Metrics.FIELDS:
                        row[f] = getattr(metrics, f)
            except RailvoltError as exc:
                row["status"] = "error"
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)

    for algo in algorithms:
        ok = [r for r in rows
              if r["algorithm"] == algo and not r["error"]]
        avg = {f: "" for f in _RESULT_FIELDS}
        avg.update(instance="Average", algorithm=algo,
                   status=f"n={len(ok)}")
        if ok:
            for f in list(Metrics.FIELDS) + ["wall_seconds"]:
                avg[f] = sum(float(r[f]) for r in ok) / len(ok)
        rows.append(avg)
    return rows


# ---------------------------------------------------------------------------
# Paired t-test
# ---------------------------------------------------------------------------

def paired_t_test(sample_a: Sequence[float],
                  sample_b: Sequence[float]) -> dict:
    """Two-sided paired t-test on (a - b).

    Conventions: identical samples give t = 0, p = 1; a nonzero mean with
    zero variance gives p = 0 with ``degenerate`` flagged (the statistic is
    unbounded). The p value comes from the t distribution via the
    regularized incomplete beta: p = I_{v/(v+t^2)}(v/2, 1/2), v = n - 1
    (``scipy.special.betainc``).
    """
    if len(sample_a) != len(sample_b):
        raise ValueError(
            f"paired samples differ in length: {len(sample_a)} vs "
            f"{len(sample_b)}")
    n = len(sample_a)
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    diffs = [float(x) - float(y) for x, y in zip(sample_a, sample_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    dof = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return {"t": 0.0, "p": 1.0, "dof": dof, "mean_difference": 0.0,
                    "degenerate": False, "sided": "two"}
        return {"t": math.copysign(math.inf, mean), "p": 0.0, "dof": dof,
                "mean_difference": mean, "degenerate": True, "sided": "two"}
    t = mean / (sd / math.sqrt(n))
    p = float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return {"t": t, "p": p, "dof": dof, "mean_difference": mean,
            "degenerate": False, "sided": "two"}


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------

def sensitivity_compare(results_low: List[dict],
                        results_high: List[dict]) -> dict:
    """Per-cell measure deltas (high - low) plus a paired t-test per
    (algorithm, measure) across instances, on the cells whose delta is not
    blank."""
    def cells(rows):
        return {
            (r["instance"], r["algorithm"]): r
            for r in rows if r["instance"] != "Average"
        }

    low, high = cells(results_low), cells(results_high)
    if set(low) != set(high):
        raise ValueError(
            "result sets cover different (instance, algorithm) cells: "
            f"{sorted(set(low) ^ set(high))}")

    deltas: List[dict] = []
    for key in sorted(low):
        a, b = low[key], high[key]
        row = {"instance": key[0], "algorithm": key[1]}
        for f in Metrics.FIELDS:
            if a["error"] or b["error"] or a[f] == "" or b[f] == "":
                row[f] = ""
            else:
                row[f] = float(b[f]) - float(a[f])
        deltas.append(row)

    algorithms = sorted({k[1] for k in low})
    tests: Dict[str, dict] = {}
    for algo in algorithms:
        for f in Metrics.FIELDS:
            d = [row[f] for row in deltas
                 if row["algorithm"] == algo and row[f] != ""]
            if len(d) >= 2:
                tests[f"{algo}/{f}"] = paired_t_test(d, [0.0] * len(d))
    return {"deltas": deltas, "tests": tests,
            "meta": {"schema": SCHEMA, "direction": "high minus low",
                     "sided": "two"}}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_results_csv(rows: List[dict], path: str,
                      fields: Optional[Sequence[str]] = None) -> None:
    """Deterministic CSV: schema comment line, header, then rows as given."""
    fields = list(fields) if fields is not None else [
        f for f in _RESULT_FIELDS if any(f in r for r in rows)
    ] or _RESULT_FIELDS
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(f, "")) for f in fields])


def long_format(rows: List[dict]) -> List[dict]:
    """(instance, algorithm, measure, value) records for direct charting."""
    out = []
    for row in rows:
        for f in Metrics.FIELDS:
            if row.get(f, "") != "":
                out.append({"instance": row["instance"],
                            "algorithm": row["algorithm"],
                            "measure": f, "value": float(row[f])})
    return out


def write_long_csv(rows: List[dict], path: str) -> None:
    write_results_csv(long_format(rows), path,
                      fields=["instance", "algorithm", "measure", "value"])
