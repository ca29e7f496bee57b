"""Greedy station-fixing heuristic.

Instead of letting the MILP choose the deployment, this module picks
stations one at a time by a benefit score and only asks the solver for the
operational schedule (charging, swapping, timing) under a *fixed*
deployment. The loop starts from a cheap energy-coverage seed and keeps
adding the best-scoring station until the restricted schedule problem
becomes feasible.

The score of an undeployed interior station combines how much charged
energy it can hand out, how far it is from its nearest deployed neighbours
(a proxy for how desperate trains are by the time they reach it), its
setup cost, and the planned waits it can hide delay behind.
"""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .domain import Instance, SolveConfig, Solution
from .model import _unserved_window, build_model, solve_pla

__all__ = [
    "compute_supply_demand",
    "compute_benefit",
    "initialize_deployment",
    "run_fix_algorithm",
]


def compute_supply_demand(instance: Instance) -> Tuple[float, float, float]:
    """Return (demand, onboard, deficit) in battery-equivalents.

    ``demand`` is the total traction energy over every train's full run,
    ``onboard`` the energy all trains carry out of the origin when fully
    loaded (each train's :attr:`~railvolt.domain.Train.full_load` full
    batteries, the load every round's schedule MILP fixes), and ``deficit``
    what the line itself has to provide.
    """
    n = instance.n_stations
    demand = sum(
        instance.leg_energy(j, i)
        for j in range(instance.n_trains)
        for i in range(n - 1)
    )
    onboard = float(sum(tr.full_load for tr in instance.trains))
    return demand, onboard, max(0.0, demand - onboard)


def _nearest_deployed(i: int, deployed: Set[int], n: int) -> Tuple[int, int]:
    """Neighbouring supply points of station i: (previous, next).

    Falls back to the origin/destination when no deployed station lies on
    that side (trains leave the origin full, and past the last station only
    the remaining run matters).
    """
    prev = max([0] + [d for d in deployed if d < i])
    nxt = min([n - 1] + [d for d in deployed if d > i])
    return prev, nxt


def station_supply(instance: Instance, i: int) -> float:
    """Charged energy station i can hand out: stocked batteries plus one
    charger-session per train."""
    return float(instance.full_batteries[i]) + instance.n_trains * float(
        instance.chargers[i]
    )


def compute_benefit(
    instance: Instance,
    deployed: Set[int],
    config: SolveConfig,
) -> Dict[int, float]:
    """Score every undeployed interior station against the current set."""
    n = instance.n_stations
    scores: Dict[int, float] = {}
    for i in instance.interior:
        if i in deployed:
            continue
        prev, nxt = _nearest_deployed(i, deployed, n)
        e_up = sum(
            float(instance.energy[j, prev, i]) for j in range(instance.n_trains)
        )
        e_down = sum(
            float(instance.energy[j, i, nxt]) for j in range(instance.n_trains)
        )
        waits = sum(
            float(instance.wait_time[i, j]) for j in range(instance.n_trains)
        )
        scores[i] = (
            station_supply(instance, i)
            + e_up
            + e_down
            - config.alpha_fixed * float(instance.fixed_cost[i])
            + config.alpha_delay * waits
        )
    return scores


def _argmax(scores: Dict[int, float], rng: np.random.Generator) -> int:
    best = max(scores.values())
    ties = sorted(i for i, s in scores.items() if s >= best - 1e-12)
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def initialize_deployment(
    instance: Instance,
    config: SolveConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Set[int], List[dict]]:
    """Greedy energy-coverage seed: add best-scoring stations until the
    deployed set can hand out at least the line's energy deficit, or every
    interior station is open.

    Whether a deployment can carry the trains is left to the rounds'
    schedule MILP, which restocks each station for every train.

    Returns the deployed set and one ``"seed"`` record per pick.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    deficit = compute_supply_demand(instance)[2]

    deployed: Set[int] = set()
    rounds: List[dict] = []
    covered = 0.0
    while covered < deficit and len(deployed) < len(instance.interior):
        scores = compute_benefit(instance, deployed, config)
        pick = _argmax(scores, rng)
        deployed.add(pick)
        covered += station_supply(instance, pick)
        rounds.append(
            {
                "phase": "seed",
                "picked": pick,
                "scores": dict(scores),
                "covered": covered,
                "deficit": deficit,
            }
        )
    return deployed, rounds


def run_fix_algorithm(
    instance: Instance,
    config: Optional[SolveConfig] = None,
) -> Solution:
    """Fix a deployment greedily, then solve only for the schedule.

    Each round is one :func:`~railvolt.model.solve_pla` call with the
    current stations forced open (and every other one closed) and all
    trains carrying a full battery load. If the restricted problem is
    infeasible, or the solver returns nothing within its slice of the time
    budget, the next best-scoring station is opened and the round repeats.
    A round whose stations leave some run of legs past a train's full load
    without a station inside is infeasible before HiGHS runs; its record
    names that window as ``reach_window`` ``[train, a, b]`` (see
    :func:`~railvolt.model.solve_pla`). The MILP is built at most once per
    call, at the first round that check leaves open, and that round and
    every later one solve it; a call whose rounds the check all proves
    builds none.

    The rounds start from :func:`initialize_deployment`'s seed. No plan is
    a status, never an exception: the status (infeasible or out of time)
    of the last round, which has every station open, the same fixing as
    ``bd``'s warm start.
    """
    config = config if config is not None else SolveConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()

    deployed, rounds = initialize_deployment(instance, config, rng)
    interior = list(instance.interior)
    built = None

    while True:
        remaining = max(1, len(interior) - len(deployed))
        budget_left = config.time_limit_seconds - (time.perf_counter() - start)
        round_limit = min(config.time_limit_seconds / remaining,
                          max(1.0, budget_left))
        fixing = sorted(deployed)
        # the first round the reach check leaves open builds the model that
        # this and every later round solve
        if built is None and _unserved_window(instance, fixing) is None:
            built = build_model(instance, config)
        solution = solve_pla(
            instance, config.replace(time_limit_seconds=round_limit),
            fixed_deployment=fixing, built=built)
        round_rec = {
            "phase": "solve",
            "deployed": fixing,
            "status": solution.status,
            "objective": solution.objective_value,
        }
        if "reach_window" in solution.info:
            round_rec["reach_window"] = solution.info["reach_window"]
        rounds.append(round_rec)
        # a plan (only decoded plans have a finite objective), or every
        # station open and still none: this round's status is the answer
        if np.isfinite(solution.objective_value) or \
                len(deployed) == len(interior):
            break
        scores = compute_benefit(instance, deployed, config)
        pick = _argmax(scores, rng)
        deployed.add(pick)
        round_rec["next_pick"] = pick
        round_rec["scores"] = dict(scores)

    solution.algorithm = "fa"
    solution.wall_seconds = time.perf_counter() - start
    demand, onboard, deficit = compute_supply_demand(instance)
    solution.info = dict(solution.info)
    solution.info.update(
        {
            "fix_rounds": rounds,
            "demand": demand,
            "onboard": onboard,
            "deficit": deficit,
            "deployed": sorted(deployed),
        }
    )
    return solution
