"""Independent schedule validation and a brute-force optimum for tiny cases.

Nothing here touches the MILP: schedules are re-simulated directly from the
declared actions (swap -> full battery, charge -> exact exponential curve)
under the sequential-drain rule (the front consist's battery empties before
the next one discharges). Two tolerance regimes exist. Every planner's plan
and the oracle's replay at the strict one (1e-4). The loose one (default
0.05 SOC) serves hand-tabulated schedules, whose figures are rounded:
``instances/illustrative_schedule.json`` has 27 violations at 1e-4 and 14
at 0.01, and passes at 0.05.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .domain import (Instance, Metrics, Solution, SolveConfig, RailvoltError,
                     empty_solution, plan_from_actions, soc_after_charging)


class SolutionShapeError(RailvoltError):
    """The solution's indices do not conform to the instance."""


class SearchSpaceError(RailvoltError):
    """The brute-force enumeration would be too large; refused."""


@dataclass
class ValidationReport:
    ok: bool
    violations: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    metrics: Optional[Metrics] = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": self.violations,
            "warnings": self.warnings,
            "metrics": self.metrics.as_dict() if self.metrics else None,
        }


def _check_shape(inst: Instance, sol: Solution) -> None:
    S, J = inst.n_stations, inst.n_trains
    def bad(msg):
        raise SolutionShapeError(msg)
    for i in sol.deployed:
        if i not in inst.interior:
            bad(f"deployed station {i} is not an interior station")
    for name in ("swap", "charge", "charge_hours", "soc_arrive",
                 "soc_depart", "battery_nonempty"):
        tri = getattr(sol, name)
        if len(tri) != J:
            bad(f"{name} has {len(tri)} trains, instance has {J}")
        for j, rows in enumerate(tri):
            if len(rows) != S:
                bad(f"{name}[{j}] has {len(rows)} stations, instance has {S}")
            for i, cell in enumerate(rows):
                if len(cell) != inst.consists(j):
                    bad(f"{name}[{j}][{i}] has {len(cell)} consists, "
                        f"train has {inst.consists(j)}")
    for name in ("arrive", "depart", "delay"):
        mat = getattr(sol, name)
        if len(mat) != J or any(len(r) != S for r in mat):
            bad(f"{name} is not {J} x {S}")
    if len(sol.has_battery) != J or any(
            len(sol.has_battery[j]) != inst.consists(j) for j in range(J)):
        bad("has_battery does not match train consists")


def _drain(soc: List[float], energy: float) -> Tuple[List[float], float]:
    """Sequential front-first drain; returns new SOCs and unmet energy."""
    out = list(soc)
    need = energy
    for k in range(len(out)):
        take = min(out[k], need)
        out[k] -= take
        need -= take
        if need <= 0:
            break
    return out, need


def _after_stop(soc, swap, charge, hours, r0: float) -> List[float]:
    """SOCs after one stop's per-consist actions: a swapped battery leaves
    full, and one charged for ``hours`` > 0 follows the exact curve."""
    out = list(soc)
    for k in range(len(out)):
        if swap[k]:
            out[k] = 1.0
        elif charge[k] and hours[k] > 0:
            out[k] = soc_after_charging(out[k], hours[k], r0)
    return out


def simulate_schedule(instance: Instance, solution: Solution,
                      tolerance: float = 0.05,
                      config: Optional[SolveConfig] = None
                      ) -> ValidationReport:
    """Re-simulate ``solution`` from its declared actions and compare.

    Checks semantics, not model algebra: energy conservation with
    sequential drain, the exact charging curve, swap duration, planned
    waits, per-stop station capacities, charge/swap exclusivity, full
    batteries at the origin, and the drain-order arrival pattern (while an
    earlier battery still holds charge, every later carried battery must
    still be full). Time bookkeeping gets tolerance/4 slack (two-decimal
    tabulated inputs round that much); SOC claims get ``tolerance``, which
    must be a finite number >= 0 (ValueError otherwise).
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(
            f"tolerance must be a finite number >= 0, got {tolerance!r}")
    inst = instance
    _check_shape(inst, solution)
    sol = solution
    tol = tolerance
    time_tol = max(1e-9, tolerance / 4.0)
    S, J = inst.n_stations, inst.n_trains
    deployed = set(sol.deployed)
    violations: List[str] = []
    warnings: List[str] = []
    v = violations.append

    for j in range(J):
        K = inst.consists(j)
        carried = [bool(sol.has_battery[j][k]) for k in range(K)]
        label = inst.trains[j].name

        if sum(carried) > inst.trains[j].max_batteries:
            v(f"{label}: carries {sum(carried)} batteries, allowed "
              f"{inst.trains[j].max_batteries}")

        # --- time chain ---------------------------------------------------
        if abs(sol.arrive[j][0]) > time_tol or abs(sol.depart[j][0]) > time_tol:
            v(f"{label}: clock does not start at 0 at the origin")
        for i in range(S - 1):
            want = sol.depart[j][i] + inst.leg_time(j, i)
            if abs(sol.arrive[j][i + 1] - want) > time_tol:
                v(f"{label}: arrival at station {i+1} is "
                  f"{sol.arrive[j][i+1]:.4f}, expected {want:.4f}")
        for i in range(S):
            dwell = sol.depart[j][i] - sol.arrive[j][i]
            if dwell < inst.wait_time[i, j] - time_tol:
                v(f"{label}: dwell {dwell:.4f} at station {i} is below the "
                  f"planned wait {inst.wait_time[i, j]:.4f}")
            want_delay = max(0.0, dwell - float(inst.wait_time[i, j]))
            if abs(sol.delay[j][i] - want_delay) > time_tol:
                v(f"{label}: claimed delay {sol.delay[j][i]:.4f} at station "
                  f"{i} vs recomputed {want_delay:.4f}")

        # --- actions ---------------------------------------------------------
        for i in range(S):
            swaps = [k for k in range(K) if sol.swap[j][i][k]]
            charges = [k for k in range(K) if sol.charge[j][i][k]]
            durations = sol.charge_hours[j][i]
            if i in (0, S - 1):
                if swaps or charges or any(d > time_tol for d in durations):
                    v(f"{label}: operations declared at endpoint station {i}")
                continue
            if (swaps or charges) and i not in deployed:
                v(f"{label}: operations at undeployed station {i}")
            if swaps and charges:
                v(f"{label}: swaps and charges mixed at station {i}")
            if len(swaps) > inst.full_batteries[i]:
                v(f"{label}: {len(swaps)} swaps at station {i} exceed the "
                  f"stock of {inst.full_batteries[i]}")
            if len(charges) > inst.chargers[i]:
                v(f"{label}: {len(charges)} charges at station {i} exceed "
                  f"the {inst.chargers[i]} chargers")
            for k in range(K):
                if (sol.swap[j][i][k] or sol.charge[j][i][k]) and not carried[k]:
                    v(f"{label}: operation on consist {k+1} which carries "
                      f"no battery (station {i})")
                if durations[k] > time_tol and not sol.charge[j][i][k]:
                    v(f"{label}: charge duration without a charge flag "
                      f"(station {i}, consist {k+1})")
                if sol.charge[j][i][k] and durations[k] <= time_tol:
                    warnings.append(
                        f"{label}: zero-duration charge flag at station {i}, "
                        f"consist {k+1}")
            dwell = sol.depart[j][i] - sol.arrive[j][i]
            if swaps and dwell < inst.swap_hours - time_tol:
                v(f"{label}: dwell {dwell:.4f} at station {i} is shorter "
                  f"than a {inst.swap_hours}-hour swap")
            longest = max(durations) if durations else 0.0
            if longest > dwell + time_tol:
                v(f"{label}: charging for {longest:.4f} h exceeds the dwell "
                  f"{dwell:.4f} at station {i}")

        # --- SOC chain -------------------------------------------------------
        sim = [1.0 if carried[k] else 0.0 for k in range(K)]
        for i in range(S):
            for k in range(K):
                if abs(sol.soc_arrive[j][i][k] - sim[k]) > tol:
                    v(f"{label}: claimed arrival SOC {sol.soc_arrive[j][i][k]:.4f} "
                      f"at station {i} consist {k+1} vs simulated {sim[k]:.4f}")
            # Drain-order pattern: zeros, then at most one partial battery,
            # then full ones (among carried consists).
            partial = next((k for k in range(K) if carried[k] and sim[k] >= tol),
                           None)
            if partial is not None:
                for k in range(partial + 1, K):
                    if carried[k] and sim[k] < 1.0 - tol:
                        v(f"{label}: battery order broken on arrival at "
                          f"station {i}: consist {partial+1} still holds "
                          f"charge while consist {k+1} is below full")
                        break
            # apply declared operations
            if 0 < i < S - 1:
                sim = _after_stop(sim, sol.swap[j][i], sol.charge[j][i],
                                  sol.charge_hours[j][i], inst.r0)
            for k in range(K):
                if abs(sol.soc_depart[j][i][k] - sim[k]) > tol:
                    v(f"{label}: claimed departure SOC "
                      f"{sol.soc_depart[j][i][k]:.4f} at station {i} consist "
                      f"{k+1} vs simulated {sim[k]:.4f}")
            if i < S - 1:
                sim, unmet = _drain(sim, inst.leg_energy(j, i))
                if unmet > tol:
                    v(f"{label}: runs out of energy between stations {i} and "
                      f"{i+1} (short {unmet:.4f} battery-equivalents)")

    metrics = recompute_metrics(instance, solution, config)
    return ValidationReport(ok=not violations, violations=violations,
                            warnings=warnings, metrics=metrics)


def recompute_metrics(instance: Instance, solution: Solution,
                      config: Optional[SolveConfig] = None) -> Metrics:
    """The eight reported measures, recomputed from the schedule alone."""
    cfg = config or SolveConfig()
    inst = instance
    J = inst.n_trains
    setup = float(sum(inst.fixed_cost[i] for i in solution.deployed))
    n_dep = len(solution.deployed)
    total_delay = float(sum(sum(row) for row in solution.delay))
    total_charge = float(sum(sum(sum(cell) for cell in rows)
                             for rows in solution.charge_hours))
    n_swaps = sum(sum(sum(cell) for cell in rows) for rows in solution.swap)
    total_swap_hours = inst.swap_hours * float(n_swaps)
    objective = cfg.alpha_fixed * setup + cfg.alpha_delay * total_delay
    return Metrics(
        objective=objective,
        stations_deployed=n_dep,
        setup_cost=setup,
        delay_hours_per_train=total_delay / J,
        charge_hours_per_train=total_charge / J,
        swap_hours_per_train=total_swap_hours / J,
        charge_hours_per_station=(total_charge / n_dep) if n_dep else 0.0,
        swap_hours_per_station=(total_swap_hours / n_dep) if n_dep else 0.0,
    )


# ---------------------------------------------------------------------------
# Brute force for tiny instances
# ---------------------------------------------------------------------------

_MAX_INTERIOR = 4
_MAX_TRAINS = 2
_MAX_CONSISTS = 2


def _station_actions(inst: Instance, j: int, i: int, durations: Sequence[float]
                     ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...],
                                     Tuple[float, ...]]]:
    """All legal per-stop actions for train j at a deployed station i.

    Returns (swap flag, charge flag, charge hours) triples, each one entry
    per consist, as :func:`_after_stop` takes them. Swaps and charges never
    mix at one stop, and station capacities cap the counts.
    """
    K = inst.consists(j)
    carried = list(range(inst.trains[j].full_load))
    none, idle = (0,) * K, (0.0,) * K
    out = [(none, none, idle)]
    max_swaps = min(len(carried), int(inst.full_batteries[i]))
    for r in range(1, max_swaps + 1):
        for combo in itertools.combinations(carried, r):
            swap = tuple(int(k in combo) for k in range(K))
            out.append((swap, none, idle))
    max_charges = min(len(carried), int(inst.chargers[i]))
    for r in range(1, max_charges + 1):
        for combo in itertools.combinations(carried, r):
            charge = tuple(int(k in combo) for k in range(K))
            for durs in itertools.product(durations, repeat=r):
                hours = [0.0] * K
                for k, d in zip(combo, durs):
                    hours[k] = d
                out.append((none, charge, tuple(hours)))
    return out


def _count_states(inst: Instance, deployed: Sequence[int],
                  n_durations: int) -> float:
    total = 0.0
    for j in range(inst.n_trains):
        K = inst.trains[j].full_load
        per = 1.0
        for i in deployed:
            swaps = sum(math.comb(K, r)
                        for r in range(1, min(K, int(inst.full_batteries[i])) + 1))
            charges = sum(math.comb(K, r) * n_durations ** r
                          for r in range(1, min(K, int(inst.chargers[i])) + 1))
            per *= 1 + swaps + charges
        total += per
    return total


def brute_force_best(instance: Instance, config: Optional[SolveConfig] = None,
                     time_step: float = 1.0,
                     max_states: float = 1e7
                     ) -> Tuple[float, Solution]:
    """Exhaustive optimum over deployments x per-stop actions.

    Charge durations are gridded at ``time_step`` (up to the configured
    maximum charge duration), so the result is exact up to that grid;
    ``time_step`` must be a finite number > 0 (ValueError otherwise). Only
    tiny instances are accepted; anything larger raises
    :class:`SearchSpaceError` with a size estimate.
    """
    if not (math.isfinite(time_step) and time_step > 0):
        raise ValueError(
            f"time_step must be a finite number > 0, got {time_step!r}")
    inst = instance
    cfg = config or SolveConfig()
    interior = list(inst.interior)
    if len(interior) > _MAX_INTERIOR or inst.n_trains > _MAX_TRAINS or \
            any(inst.consists(j) > _MAX_CONSISTS for j in range(inst.n_trains)):
        raise SearchSpaceError(
            f"brute force accepts at most {_MAX_INTERIOR} interior stations, "
            f"{_MAX_TRAINS} trains, {_MAX_CONSISTS} consists; got "
            f"{len(interior)}/{inst.n_trains}/"
            f"{max(inst.consists(j) for j in range(inst.n_trains))}")
    durations = [round(d * time_step, 12)
                 for d in range(1, int(cfg.t_max / time_step) + 1)]
    worst = sum(
        _count_states(inst, subset, len(durations))
        for r in range(len(interior) + 1)
        for subset in itertools.combinations(interior, r))
    if worst > max_states:
        raise SearchSpaceError(
            f"search space ~{worst:.3g} states exceeds the {max_states:.0g} cap")

    best_obj = math.inf
    best: Optional[Tuple[Tuple[int, ...], list]] = None

    for r in range(len(interior) + 1):
        for deployed in itertools.combinations(interior, r):
            setup = cfg.alpha_fixed * sum(inst.fixed_cost[i] for i in deployed)
            if setup >= best_obj:
                continue  # delay costs are nonnegative; cannot improve
            total = setup
            policies = []
            feasible = True
            for j in range(inst.n_trains):
                cost, policy = _best_train_plan(inst, cfg, j, deployed,
                                                durations)
                if cost is None:
                    feasible = False
                    break
                total += cost
                policies.append(policy)
                if total >= best_obj:
                    feasible = False  # dominated; lexicographic-first wins ties
                    break
            if feasible and total < best_obj:
                best_obj = total
                best = (deployed, policies)

    if best is None:
        return math.inf, empty_solution(instance, "infeasible", "brute-force")
    deployed, policies = best
    sol = plan_from_actions(
        inst, deployed, [[int(k < inst.trains[j].full_load)
                          for k in range(inst.consists(j))]
                         for j in range(inst.n_trains)],
        lambda j, i, soc: policies[j](i, soc), "optimal", "brute-force", cfg)
    sol.objective_value = sol.bound = float(best_obj)
    sol.gap = 0.0
    return best_obj, sol


def _best_train_plan(inst, cfg, j, deployed, durations):
    """Min extra-delay cost for one train and its optimal policy, or
    (None, None) if stranded.

    The policy maps a station and the SOCs the train arrives there with to
    the stop's best (swap, charge, hours), as :func:`_station_actions` gives
    them; following it from the origin gives the optimal plan.
    """
    S = inst.n_stations
    K = inst.consists(j)
    carried = [k < inst.trains[j].full_load for k in range(K)]
    dep_set = set(deployed)
    idle = ((0,) * K, (0,) * K, (0.0,) * K)
    action_cache = {i: _station_actions(inst, j, i, durations)
                    for i in dep_set}
    memo: Dict[Tuple[int, Tuple[int, ...]], Tuple[Optional[float], tuple]] = {}

    def arrival_ok(soc):
        # zeros, then one partial, then fulls (carried consists only)
        p = next((k for k in range(K) if carried[k] and soc[k] > 1e-9), None)
        if p is None:
            return True
        return all(soc[k] > 1.0 - 1e-9 for k in range(p + 1, K) if carried[k])

    def go(i, soc):
        if i == S - 1:
            return 0.0, idle
        key = (i, tuple(round(s, 9) for s in soc))
        if key in memo:
            return memo[key]
        best_cost, best_action = None, None
        options = action_cache.get(i) if i in dep_set else None
        if options is None or i == 0:
            options = [idle]
        for action in options:
            swap, charge, hours = action
            after = _after_stop(soc, swap, charge, hours, inst.r0)
            dwell = max(float(inst.wait_time[i, j]),
                        inst.swap_hours if any(swap) else 0.0,
                        max(hours))
            step_cost = cfg.alpha_delay * (dwell - float(inst.wait_time[i, j]))
            nxt, unmet = _drain(after, inst.leg_energy(j, i))
            if unmet > 1e-9 or not arrival_ok(nxt):
                continue
            rest, _ = go(i + 1, nxt)
            if rest is None:
                continue
            cost = step_cost + rest
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost, best_action = cost, action
        memo[key] = (best_cost, best_action)
        return memo[key]

    start = [1.0 if carried[k] else 0.0 for k in range(K)]
    cost, _ = go(0, start)
    return (None, None) if cost is None else \
        (cost, lambda i, soc: go(i, soc)[1])
