"""The benchmark's frozen workloads and the correctness gate on each answer.

A workload is a list of plan requests. Each request names one planner call
(``pla``, ``fa``, ``bd``) or one model assembly (``build``) on one corridor.
This module imports nothing from ``railvolt`` at import time, so the runner
can list requests before any worker starts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

# Worked example: the acceptance fixture's documented pla answer.
GOLDEN_OBJECTIVE = 94.81
GOLDEN_TOLERANCE = 0.015
GOLDEN_DEPLOYED = [1, 2, 4]
GOLDEN_BUDGET_S = 120.0
PLANNER_BUDGET_S = 60.0

# The short-haul spec of acceptance item 6, optionally at another size class.
SHORT_HAUL = dict(n_trains=1, consists_per_train=1, max_batteries=1,
                  distance_mean_km=180.0, distance_sd_km=30.0)

# Instance seeds used when --instance-seed is 0.
FROZEN_SEEDS = {
    "shorthaul-bd": (4, 6, 11, 14, 19),
    "medium-fa": (1, 2, 3, 4),
    "build-scale": (1, 2, 3),
}

WORKLOADS = ("golden-pla", "shorthaul-bd", "medium-fa", "build-scale")


@dataclass(frozen=True)
class Request:
    """One plan request: ``planner`` on the corridor ``spec`` describes.

    ``spec`` holds ``GenSpec`` keyword arguments; ``None`` means the worked
    six-station example.
    """
    planner: str                 # pla | fa | bd | build
    label: str
    spec: Optional[Tuple[Tuple[str, object], ...]]
    budget_s: float


def instance_seeds(workload: str, instance_seed: int) -> Tuple[int, ...]:
    """The frozen seeds for 0; any other value derives a disjoint set."""
    frozen = FROZEN_SEEDS.get(workload, ())
    if instance_seed == 0 or not frozen:
        return frozen
    rng = random.Random(f"{workload}/{instance_seed}")
    pool = [s for s in range(20, 100_000) if s not in frozen]
    return tuple(rng.sample(pool, len(frozen)))


def requests(workload: str, instance_seed: int = 0,
             order_seed: int = 0) -> list:
    """The workload's requests, in the order ``order_seed`` shuffles them to.

    The order seed changes only the issue order, never the set of
    corridors, so runs under different order seeds measure the same work.
    """
    seeds = instance_seeds(workload, instance_seed)
    if workload == "golden-pla":
        reqs = [Request("pla", "worked-example", None, GOLDEN_BUDGET_S)]
    elif workload == "shorthaul-bd":
        reqs = [Request("bd", f"shorthaul-{s}",
                        gen_spec(seed=s, **SHORT_HAUL), PLANNER_BUDGET_S)
                for s in seeds]
    elif workload == "medium-fa":
        reqs = [Request("fa", f"medium-shorthaul-{s}",
                        gen_spec(seed=s, size_class="medium", **SHORT_HAUL),
                        PLANNER_BUDGET_S)
                for s in seeds]
    elif workload == "build-scale":
        reqs = [Request("build", f"{size}-{s}",
                        gen_spec(seed=s, size_class=size), 0.0)
                for size in ("medium", "large") for s in seeds]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    random.Random(order_seed).shuffle(reqs)
    return reqs


def gen_spec(**kw) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(kw.items()))


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check_plan(rv, req: Request, inst, cfg, answer):
    """Judge one planner answer.

    Returns ``(verdict, objective, reason)``; ``verdict`` is ``"ok"``,
    ``"failed"`` or ``"infeasible"``. An infeasible answer is a success only
    once :func:`confirm_infeasible` agrees, so it is returned unjudged.
    ``rv`` is the imported ``railvolt`` package.
    """
    if isinstance(answer, rv.domain.InfeasibleError):
        return "infeasible", None, str(answer)
    if isinstance(answer, BaseException):
        return "failed", None, f"raised {type(answer).__name__}: {answer}"
    if answer.status == "infeasible":
        return "infeasible", None, "status infeasible"
    if req.planner == "pla" and answer.status != "optimal-within-gap":
        return "failed", None, f"pla status {answer.status}"
    if req.planner == "bd":
        term = answer.info.get("termination")
        if term != "optimal" or answer.gap is None \
                or answer.gap > cfg.benders_gap + 1e-9:
            return "failed", None, f"bd termination {term}, gap {answer.gap}"
    report = rv.validator.simulate_schedule(inst, answer, config=cfg)
    if not report.ok:
        return "failed", None, "replay: " + "; ".join(report.violations[:3])
    objective = report.metrics.objective
    if req.spec is None:
        rel = abs(objective - GOLDEN_OBJECTIVE) / GOLDEN_OBJECTIVE
        if rel > GOLDEN_TOLERANCE or sorted(answer.deployed) != GOLDEN_DEPLOYED:
            return "failed", objective, (
                f"objective {objective:.4f} / deployed "
                f"{sorted(answer.deployed)} vs {GOLDEN_OBJECTIVE} ±1.5% / "
                f"{GOLDEN_DEPLOYED}")
    return "ok", objective, ""


def confirm_infeasible(rv, inst, cfg) -> Tuple[bool, str]:
    """Ask the one-shot MILP whether the corridor has no schedule at all."""
    proof = rv.model.solve_pla(inst, cfg)
    if proof.status == "infeasible":
        return True, ""
    return False, f"pla finds a schedule ({proof.status})"


def check_build(built) -> Tuple[bool, int, str]:
    """Structural checks on one assembly: ``(ok, rows, reason)``."""
    model, vm, split, cuts = built
    if split.n_v != vm.n_binary or split.n_v + split.n_u != model.n_cols:
        return False, model.n_rows, "split columns disagree with the model"
    if split.A.shape[0] != model.n_rows or split.Dm.shape[1] != split.n_v:
        return False, model.n_rows, "split rows disagree with the model"
    if any(ci >= split.n_v for _, entries, _, _ in cuts for ci, _ in entries):
        return False, model.n_rows, "a static cut touches a continuous column"
    return True, model.n_rows, ""
