"""The linearized deployment + scheduling MILP.

One binary per interior station decides deployment; per (station, train,
consist) binaries decide swaps and charges; continuous variables track times
and SOC. The nonlinear charging curve enters through a rectangle-method
piecewise-linear approximation (PLA) of the surface

    g(s, t) = (1 - s) * (1 - r0) ** t

(the *uncharged fraction* after charging from SOC ``s`` for ``t`` hours):
binary selectors pick a grid rectangle, convex weights interpolate along the
SOC axis, and an offset variable interpolates along the time axis.

Column order is load-bearing: all binaries come first (deployment, carry,
charge/swap flags, nonempty-arrival flags, PLA selectors), then all
continuous columns. The decomposition solver relies on that split.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .domain import (Instance, SolveConfig, Solution, DecodeError,
                     InstanceError, SOC_BIG_M, validate_instance)
from . import backend as be


# ---------------------------------------------------------------------------
# PLA grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaGrid:
    """Uniform breakpoints and surface samples for the rectangle method.

    ``g[u, v]`` samples the uncharged-fraction surface at (s_u, t_v);
    ``w[u, v]`` is the safe (most negative is *not* wanted — the min of the
    two corner increments) per-rectangle time-slope constant.
    """
    s: np.ndarray          # n+1 SOC breakpoints, 0..1
    t: np.ndarray          # m+1 time breakpoints, 0..t_max
    g: np.ndarray          # (n+1, m+1) surface samples
    w: np.ndarray          # (n, m) interpolation slopes, all <= 0
    r0: float

    @property
    def n(self) -> int:
        return len(self.s) - 1

    @property
    def m(self) -> int:
        return len(self.t) - 1


def build_pla_grid(n: int, m: int, t_max: float, r0: float) -> PlaGrid:
    if n < 2 or m < 2:
        raise ValueError("need at least 2 segments per axis")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    s = np.linspace(0.0, 1.0, n + 1)
    t = np.linspace(0.0, t_max, m + 1)
    g = (1.0 - s)[:, None] * (1.0 - r0) ** t[None, :]
    dg = g[:, 1:] - g[:, :-1]          # time-direction increments
    w = np.minimum(dg[:-1, :], dg[1:, :])
    return PlaGrid(s=s, t=t, g=g, w=w, r0=r0)


# ---------------------------------------------------------------------------
# Variable map
# ---------------------------------------------------------------------------

@dataclass
class VarMap:
    """Column indices for every model variable, plus build metadata.

    Binary columns occupy indices [0, n_binary); everything after is
    continuous.
    """
    X: Dict[int, int] = field(default_factory=dict)
    Y: Dict[Tuple[int, int], int] = field(default_factory=dict)
    Zc: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    Zs: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    B: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    beta: Dict[Tuple[int, int, int, int], int] = field(default_factory=dict)
    tau: Dict[Tuple[int, int, int, int], int] = field(default_factory=dict)
    D: Dict[Tuple[int, int], int] = field(default_factory=dict)
    Tarr: Dict[Tuple[int, int], int] = field(default_factory=dict)
    Tdep: Dict[Tuple[int, int], int] = field(default_factory=dict)
    Tc: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    Sarr: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    Sdep: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    gamma: Dict[Tuple[int, int, int, int], int] = field(default_factory=dict)
    eta: Dict[Tuple[int, int, int, int], int] = field(default_factory=dict)
    F: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    n_binary: int = 0
    n_cols: int = 0
    grid: Optional[PlaGrid] = None
    config: Optional[SolveConfig] = None


def build_model(instance: Instance,
                config: Optional[SolveConfig] = None
                ) -> Tuple[be.AbstractModel, VarMap]:
    """Assemble the full MILP for ``instance``.

    Returns the abstract model and the column map needed to decode a primal
    point back into a schedule. Construction order is deterministic.
    """
    cfg = config or SolveConfig()
    problems = validate_instance(instance)
    if problems:
        raise InstanceError("; ".join(problems))

    inst = instance
    S = inst.n_stations
    interior = list(inst.interior)
    J = range(inst.n_trains)
    K = [range(inst.consists(j)) for j in J]
    max_k = max(inst.consists(j) for j in J)
    grid = build_pla_grid(cfg.n, cfg.m, cfg.t_max, inst.r0)
    M = cfg.big_M
    Ms = SOC_BIG_M
    eps = cfg.epsilon

    model = be.AbstractModel(name=f"plan[{inst.name}]")
    vm = VarMap(grid=grid, config=cfg)

    # ---- columns: binaries first ------------------------------------------
    aF, aD = cfg.alpha_fixed, cfg.alpha_delay
    for i in interior:
        vm.X[i] = model.add_column(
            f"X_{i}", be.BINARY, objective=aF * float(inst.fixed_cost[i]))
    for j in J:
        for k in K[j]:
            vm.Y[j, k] = model.add_column(f"Y_{j}_{k}", be.BINARY)
    for i in interior:
        for j in J:
            for k in K[j]:
                vm.Zc[i, j, k] = model.add_column(f"Zc_{i}_{j}_{k}", be.BINARY)
    for i in interior:
        for j in J:
            for k in K[j]:
                vm.Zs[i, j, k] = model.add_column(f"Zs_{i}_{j}_{k}", be.BINARY)
    for i in range(S):
        for j in J:
            for k in K[j]:
                vm.B[i, j, k] = model.add_column(f"B_{i}_{j}_{k}", be.BINARY)
    for i in interior:
        for j in J:
            for k in K[j]:
                for u in range(grid.n):
                    vm.beta[i, j, k, u] = model.add_column(
                        f"beta_{i}_{j}_{k}_{u}", be.BINARY)
    for i in interior:
        for j in J:
            for k in K[j]:
                for v in range(grid.m):
                    vm.tau[i, j, k, v] = model.add_column(
                        f"tau_{i}_{j}_{k}_{v}", be.BINARY)
    vm.n_binary = model.n_cols

    # ---- columns: continuous ----------------------------------------------
    for i in range(S):
        for j in J:
            vm.D[i, j] = model.add_column(f"D_{i}_{j}", objective=aD)
    for i in range(S):
        for j in J:
            vm.Tarr[i, j] = model.add_column(f"Tarr_{i}_{j}")
    for i in range(S):
        for j in J:
            vm.Tdep[i, j] = model.add_column(f"Tdep_{i}_{j}")
    for i in interior:
        for j in J:
            for k in K[j]:
                vm.Tc[i, j, k] = model.add_column(f"Tc_{i}_{j}_{k}")
    for i in range(S):
        for j in J:
            for k in K[j]:
                vm.Sarr[i, j, k] = model.add_column(
                    f"Sarr_{i}_{j}_{k}", upper=1.0)
    for i in range(S):
        for j in J:
            for k in K[j]:
                vm.Sdep[i, j, k] = model.add_column(
                    f"Sdep_{i}_{j}_{k}", upper=1.0)
    for i in interior:
        for j in J:
            for k in K[j]:
                for u in range(grid.n + 1):
                    vm.gamma[i, j, k, u] = model.add_column(
                        f"gamma_{i}_{j}_{k}_{u}", upper=1.0)
    for i in interior:
        for j in J:
            for k in K[j]:
                for v in range(grid.m + 1):
                    vm.eta[i, j, k, v] = model.add_column(
                        f"eta_{i}_{j}_{k}_{v}", upper=1.0)
    for i in interior:
        for j in J:
            for k in K[j]:
                vm.F[i, j, k] = model.add_column(f"F_{i}_{j}_{k}")
    vm.n_cols = model.n_cols

    # The objective counts delay beyond the planned waits: subtract the
    # constant sum of waits once, outside the solver.
    model.objective_offset = -aD * float(np.sum(inst.wait_time))

    # ---- rows ---------------------------------------------------------------
    add = model.add_row
    w_of = lambda i, j: float(inst.wait_time[i, j])

    # Delay measures dwell: D >= depart - arrive.
    for i in range(S):
        for j in J:
            add(f"delay_def_{i}_{j}",
                [(vm.D[i, j], 1.0), (vm.Tdep[i, j], -1.0),
                 (vm.Tarr[i, j], 1.0)], be.GE, 0.0)

    # Operations only happen at deployed stations, and a deployed station
    # must be used at least once.
    for i in interior:
        ops = [(vm.Zc[i, j, k], 1.0) for j in J for k in K[j]]
        ops += [(vm.Zs[i, j, k], 1.0) for j in J for k in K[j]]
        add(f"ops_need_deploy_{i}",
            ops + [(vm.X[i], -2.0 * inst.n_trains * max_k)], be.LE, 0.0)
        add(f"deploy_is_used_{i}", ops + [(vm.X[i], -1.0)], be.GE, 0.0)

    # A train cannot swap one battery and charge another in the same stop.
    for i in interior:
        for j in J:
            for k1 in K[j]:
                for k2 in K[j]:
                    add(f"swap_xor_charge_{i}_{j}_{k1}_{k2}",
                        [(vm.Zs[i, j, k1], 1.0), (vm.Zc[i, j, k2], 1.0)],
                        be.LE, 1.0)

    # Dwell covers the planned wait.
    for i in range(S):
        for j in J:
            add(f"dwell_wait_{i}_{j}",
                [(vm.Tdep[i, j], 1.0), (vm.Tarr[i, j], -1.0)],
                be.GE, w_of(i, j))

    # Carry allowance, and batteries fill a consecutive prefix of consists.
    for j in J:
        add(f"carry_cap_{j}", [(vm.Y[j, k], 1.0) for k in K[j]],
            be.LE, float(inst.trains[j].max_batteries))
        for k in K[j][:-1]:
            later = [(vm.Y[j, kk], 1.0) for kk in K[j] if kk > k]
            add(f"carry_prefix_{j}_{k}",
                later + [(vm.Y[j, k], -M)], be.LE, 0.0)

    # Station capacities bound one train's operations per stop.
    for i in interior:
        for j in J:
            add(f"swap_stock_{i}_{j}", [(vm.Zs[i, j, k], 1.0) for k in K[j]],
                be.LE, float(inst.full_batteries[i]))
            add(f"charger_cap_{i}_{j}", [(vm.Zc[i, j, k], 1.0) for k in K[j]],
                be.LE, float(inst.chargers[i]))

    # Power balance along each leg: total SOC on arrival at i+1 equals total
    # SOC at departure from i minus the leg's energy.
    for j in J:
        for i in range(S - 1):
            ent = [(vm.Sarr[i + 1, j, k], 1.0) for k in K[j]]
            ent += [(vm.Sdep[i, j, k], -1.0) for k in K[j]]
            add(f"power_balance_{j}_{i}", ent, be.EQ, -inst.leg_energy(j, i))

    # Sequential drain: an empty-flagged battery has zero arrival SOC, and
    # while an earlier consist still holds charge (and the next consist
    # carries a battery at all), the next battery is still full.
    for i in range(S):
        for j in J:
            for k in K[j]:
                add(f"nonempty_flag_{i}_{j}_{k}",
                    [(vm.Sarr[i, j, k], 1.0), (vm.B[i, j, k], -Ms)],
                    be.LE, 0.0)
            for k in K[j][:-1]:
                add(f"drain_order_{i}_{j}_{k}",
                    [(vm.Sarr[i, j, k + 1], 1.0), (vm.B[i, j, k], -Ms),
                     (vm.Y[j, k + 1], -Ms)], be.GE, 1.0 - 2.0 * Ms)

    # SOC can only rise during a stop, never between stations.
    for i in range(S):
        for j in J:
            for k in K[j]:
                add(f"stop_no_drain_{i}_{j}_{k}",
                    [(vm.Sdep[i, j, k], 1.0), (vm.Sarr[i, j, k], -1.0)],
                    be.GE, 0.0)
    for j in J:
        for i in range(S - 1):
            for k in K[j]:
                add(f"leg_no_gain_{j}_{i}_{k}",
                    [(vm.Sdep[i, j, k], 1.0), (vm.Sarr[i + 1, j, k], -1.0)],
                    be.GE, 0.0)

    # Swap effects: full battery on departure, and the stop lasts at least
    # the swap duration.
    for i in interior:
        for j in J:
            for k in K[j]:
                add(f"swap_full_{i}_{j}_{k}",
                    [(vm.Sdep[i, j, k], 1.0), (vm.Zs[i, j, k], -1.0)],
                    be.GE, 0.0)
                add(f"swap_dwell_{i}_{j}_{k}",
                    [(vm.Tdep[i, j], 1.0), (vm.Tarr[i, j], -1.0),
                     (vm.Zs[i, j, k], -inst.swap_hours)], be.GE, 0.0)

    # Charge duration: inside the dwell, zero unless charging is declared,
    # and strictly positive when it is declared.
    for i in interior:
        for j in J:
            for k in K[j]:
                add(f"charge_within_dwell_{i}_{j}_{k}",
                    [(vm.Tdep[i, j], 1.0), (vm.Tarr[i, j], -1.0),
                     (vm.Tc[i, j, k], -1.0)], be.GE, 0.0)
                add(f"charge_needs_flag_{i}_{j}_{k}",
                    [(vm.Tc[i, j, k], 1.0), (vm.Zc[i, j, k], -M)],
                    be.LE, 0.0)
                add(f"flag_needs_charge_{i}_{j}_{k}",
                    [(vm.Zc[i, j, k], 1.0), (vm.Tc[i, j, k], -M)],
                    be.LE, 0.0)

    # Untouched batteries keep their SOC (at endpoints no operations exist,
    # so departure SOC simply cannot exceed arrival SOC there).
    for i in range(S):
        for j in J:
            for k in K[j]:
                ent = [(vm.Sdep[i, j, k], 1.0), (vm.Sarr[i, j, k], -1.0)]
                if i in inst.interior:
                    ent += [(vm.Zc[i, j, k], -1.0), (vm.Zs[i, j, k], -1.0)]
                add(f"hold_soc_{i}_{j}_{k}", ent, be.LE, 0.0)

    # Carried batteries start full at the origin...
    for j in J:
        for k in K[j]:
            add(f"origin_full_dep_{j}_{k}",
                [(vm.Sdep[0, j, k], 1.0), (vm.Y[j, k], -1.0)], be.GE, 0.0)
            add(f"origin_full_arr_{j}_{k}",
                [(vm.Sarr[0, j, k], 1.0), (vm.Y[j, k], -1.0)], be.GE, 0.0)

    # ...and the clock starts at zero there.
    for j in J:
        add(f"origin_clock_{j}",
            [(vm.Tarr[0, j], 1.0), (vm.Tdep[0, j], 1.0)], be.EQ, 0.0)

    # Arrival time = previous departure + leg travel time.
    for j in J:
        for i in range(S - 1):
            add(f"timeline_{j}_{i}",
                [(vm.Tarr[i + 1, j], 1.0), (vm.Tdep[i, j], -1.0)],
                be.EQ, inst.leg_time(j, i))

    # Consists without a battery: no operations, no SOC anywhere.
    for j in J:
        for k in K[j]:
            ops = [(vm.Zc[i, j, k], 1.0) for i in interior]
            ops += [(vm.Zs[i, j, k], 1.0) for i in interior]
            add(f"no_battery_no_ops_{j}_{k}",
                ops + [(vm.Y[j, k], -2.0 * S)], be.LE, 0.0)
            soc = [(vm.Sarr[i, j, k], 1.0) for i in range(S)]
            soc += [(vm.Sdep[i, j, k], 1.0) for i in range(S)]
            add(f"no_battery_no_soc_{j}_{k}",
                soc + [(vm.Y[j, k], -2.0 * S)], be.LE, 0.0)

    # ---- PLA block: departure SOC after charging --------------------------
    # A slot's surface sandwich rows go in cell by cell (u-major), the upper
    # row before the lower. Only their columns vary by slot; each reads
    #   F - sum_u' g[u', v] gamma_u' - w[u, v] eta_v +/- Ms (tau_v + beta_u)
    # against +/- 2 Ms, with its entries in that order.
    cell_u = np.repeat(np.arange(grid.n), grid.m)
    cell_v = np.tile(np.arange(grid.m), grid.n)
    cell_ids = [f"_{u}_{v}" for u, v in zip(cell_u, cell_v)]
    common = np.column_stack([np.ones(len(cell_u)), -grid.g[:, cell_v].T,
                              -grid.w[cell_u, cell_v]])
    big = np.full((len(cell_u), 2), Ms)
    surface_values = np.stack(
        [np.hstack([common, big]), np.hstack([common, -big])], axis=1).ravel()
    surface_indptr = np.arange(0, len(surface_values) + 1, grid.n + 5)
    surface_senses = np.tile([be.LE, be.GE], len(cell_u))
    surface_rhs = np.tile([2.0 * Ms, -2.0 * Ms], len(cell_u))

    # Departure SOC = 1 - F when charging (F = uncharged fraction), with a
    # swap overriding to full and epsilon slack when the charge flag is up.
    for i in interior:
        for j in J:
            for k in K[j]:
                add(f"pla_dep_ub_{i}_{j}_{k}",
                    [(vm.Sdep[i, j, k], 1.0), (vm.F[i, j, k], 1.0),
                     (vm.Zs[i, j, k], -Ms)], be.LE, 1.0)
                add(f"pla_dep_lb_{i}_{j}_{k}",
                    [(vm.Sdep[i, j, k], 1.0), (vm.F[i, j, k], 1.0),
                     (vm.Zc[i, j, k], eps)], be.GE, 1.0)

                add(f"pla_pick_s_{i}_{j}_{k}",
                    [(vm.beta[i, j, k, u], 1.0) for u in range(grid.n)],
                    be.EQ, 1.0)
                add(f"pla_weights_one_{i}_{j}_{k}",
                    [(vm.gamma[i, j, k, u], 1.0) for u in range(grid.n + 1)],
                    be.EQ, 1.0)
                add(f"pla_pick_t_{i}_{j}_{k}",
                    [(vm.tau[i, j, k, v], 1.0) for v in range(grid.m)],
                    be.EQ, 1.0)

                add(f"pla_soc_interp_{i}_{j}_{k}",
                    [(vm.gamma[i, j, k, u], float(grid.s[u]))
                     for u in range(grid.n + 1)]
                    + [(vm.Sarr[i, j, k], -1.0)], be.EQ, 0.0)
                ent = [(vm.tau[i, j, k, v], float(grid.t[v]))
                       for v in range(grid.m)]
                ent += [(vm.eta[i, j, k, v], float(grid.t[v + 1] - grid.t[v]))
                        for v in range(grid.m)]
                add(f"pla_time_interp_{i}_{j}_{k}",
                    ent + [(vm.Tc[i, j, k], -1.0)], be.EQ, 0.0)

                # Weights live only on the selected interval's endpoints;
                # the offset lives only in the selected interval.
                for u in range(1, grid.n):
                    add(f"pla_weight_support_{i}_{j}_{k}_{u}",
                        [(vm.gamma[i, j, k, u], 1.0),
                         (vm.beta[i, j, k, u - 1], -1.0),
                         (vm.beta[i, j, k, u], -1.0)], be.LE, 0.0)
                for v in range(1, grid.m):
                    add(f"pla_offset_near_{i}_{j}_{k}_{v}",
                        [(vm.eta[i, j, k, v], 1.0),
                         (vm.tau[i, j, k, v - 1], -1.0),
                         (vm.tau[i, j, k, v], -1.0)], be.LE, 0.0)
                    add(f"pla_offset_in_{i}_{j}_{k}_{v}",
                        [(vm.eta[i, j, k, v], 1.0),
                         (vm.tau[i, j, k, v], -1.0)], be.LE, 0.0)
                add(f"pla_weight_low_{i}_{j}_{k}",
                    [(vm.gamma[i, j, k, 0], 1.0),
                     (vm.beta[i, j, k, 0], -1.0)], be.LE, 0.0)
                add(f"pla_offset_low_{i}_{j}_{k}",
                    [(vm.eta[i, j, k, 0], 1.0),
                     (vm.tau[i, j, k, 0], -1.0)], be.LE, 0.0)
                add(f"pla_weight_high_{i}_{j}_{k}",
                    [(vm.gamma[i, j, k, grid.n], 1.0),
                     (vm.beta[i, j, k, grid.n - 1], -1.0)], be.LE, 0.0)
                add(f"pla_offset_high_{i}_{j}_{k}",
                    [(vm.eta[i, j, k, grid.m], 1.0),
                     (vm.tau[i, j, k, grid.m - 1], -1.0)], be.LE, 0.0)

                # Surface sandwich, active only on the selected rectangle.
                gamma = np.array([vm.gamma[i, j, k, u]
                                  for u in range(grid.n + 1)])
                eta = np.array([vm.eta[i, j, k, v] for v in range(grid.m)])
                tau = np.array([vm.tau[i, j, k, v] for v in range(grid.m)])
                beta = np.array([vm.beta[i, j, k, u] for u in range(grid.n)])
                cols = np.column_stack([
                    np.full(len(cell_u), vm.F[i, j, k]),
                    np.broadcast_to(gamma, (len(cell_u), grid.n + 1)),
                    eta[cell_v], tau[cell_v], beta[cell_u]])
                prefixes = (f"pla_surface_ub_{i}_{j}_{k}",
                            f"pla_surface_lb_{i}_{j}_{k}")
                model.add_rows(
                    [p + cell for cell in cell_ids for p in prefixes],
                    surface_indptr, np.repeat(cols, 2, axis=0).ravel(),
                    surface_values, surface_senses, surface_rhs)

    return model, vm


# ---------------------------------------------------------------------------
# Fixing helpers (used by the greedy heuristic and the decomposition warm
# start)
# ---------------------------------------------------------------------------

def fix_deployment(model: be.AbstractModel, vm: VarMap,
                   deployed: Set[int]) -> None:
    """Pin every interior station's deployment decision (in or out)."""
    for i, col in vm.X.items():
        model.fix_column(col, 1.0 if i in deployed else 0.0)


def fix_max_loading(model: be.AbstractModel, vm: VarMap,
                    instance: Instance) -> None:
    """Pin each train to carry its allowance in the leading consists."""
    for j in range(instance.n_trains):
        limit = min(instance.trains[j].max_batteries, instance.consists(j))
        for k in range(instance.consists(j)):
            model.fix_column(vm.Y[j, k], 1.0 if k < limit else 0.0)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_BIN_TOL = 1e-4
_CLAMP_TOL = 1e-4


def _as_flag(x: float, what: str) -> int:
    r = round(x)
    if abs(x - r) > _BIN_TOL or r not in (0, 1):
        raise DecodeError(f"{what} = {x!r} is not binary")
    return int(r)


def _clamped(x: float, lo: float, hi: float, what: str) -> float:
    if x < lo - _CLAMP_TOL or x > hi + _CLAMP_TOL:
        raise DecodeError(f"{what} = {x!r} outside [{lo}, {hi}]")
    return min(hi, max(lo, x))


def decode_solution(outcome: be.SolveOutcome, vm: VarMap,
                    instance: Instance) -> Solution:
    """Turn a solver primal point into a schedule, with sanity checks.

    Binaries are rounded, SOC/time values clamped to their bounds; any
    violation beyond 1e-4, or an objective that does not recompute from the
    decoded variables, is a decode error (it would mean the model and the
    decoder disagree).
    """
    if outcome.primal is None:
        raise DecodeError(f"no primal point to decode (status {outcome.status})")
    x = np.asarray(outcome.primal)
    if len(x) < vm.n_cols:
        raise DecodeError(
            f"primal has {len(x)} columns, model needs {vm.n_cols}")

    inst = instance
    cfg = vm.config or SolveConfig()
    S = inst.n_stations
    J = range(inst.n_trains)

    deployed = sorted(i for i, c in vm.X.items()
                      if _as_flag(x[c], f"X[{i}]") == 1)
    has_battery = [[_as_flag(x[vm.Y[j, k]], f"Y[{j},{k}]")
                    for k in range(inst.consists(j))] for j in J]

    def per_ijk(source, default, clamp=None, flag=False):
        out = []
        for j in J:
            rows = []
            for i in range(S):
                cell = []
                for k in range(inst.consists(j)):
                    key = (i, j, k)
                    if key in source:
                        v = x[source[key]]
                        if flag:
                            cell.append(_as_flag(v, f"col{source[key]}"))
                        elif clamp:
                            cell.append(_clamped(v, *clamp, f"col{source[key]}"))
                        else:
                            cell.append(float(v))
                    else:
                        cell.append(default)
                rows.append(cell)
            out.append(rows)
        return out

    swap = per_ijk(vm.Zs, 0, flag=True)
    charge = per_ijk(vm.Zc, 0, flag=True)
    charge_hours = per_ijk(vm.Tc, 0.0, clamp=(0.0, math.inf))
    soc_arrive = per_ijk(vm.Sarr, 0.0, clamp=(0.0, 1.0))
    soc_depart = per_ijk(vm.Sdep, 0.0, clamp=(0.0, 1.0))
    nonempty = per_ijk(vm.B, 0, flag=True)

    arrive = [[_clamped(x[vm.Tarr[i, j]], 0.0, math.inf, "arrive")
               for i in range(S)] for j in J]
    depart = [[_clamped(x[vm.Tdep[i, j]], 0.0, math.inf, "depart")
               for i in range(S)] for j in J]
    delay = [[max(0.0, depart[j][i] - arrive[j][i] - inst.wait_time[i, j])
              for i in range(S)] for j in J]

    # Independent objective recomputation from the decoded columns.
    setup = sum(inst.fixed_cost[i] for i in deployed)
    d_term = sum(x[vm.D[i, j]] - inst.wait_time[i, j]
                 for i in range(S) for j in J)
    recomputed = cfg.alpha_fixed * setup + cfg.alpha_delay * d_term
    if outcome.objective is not None and \
            abs(recomputed - outcome.objective) > 1e-4 * max(1.0, abs(recomputed)):
        raise DecodeError(
            f"objective mismatch: solver {outcome.objective!r} vs "
            f"recomputed {recomputed!r}")

    status = {"optimal": "optimal-within-gap",
              "feasible-limit": "feasible-time-limit"}.get(
                  outcome.status, outcome.status)
    return Solution(
        deployed=deployed,
        has_battery=has_battery,
        swap=swap, charge=charge, charge_hours=charge_hours,
        arrive=arrive, depart=depart,
        soc_arrive=soc_arrive, soc_depart=soc_depart,
        delay=delay, battery_nonempty=nonempty,
        objective_value=float(recomputed),
        bound=outcome.best_bound, gap=outcome.gap,
        status=status, wall_seconds=outcome.wall_seconds,
        algorithm="pla",
        info={"solver_message": outcome.message},
    )


def empty_solution(instance: Instance, status: str, algorithm: str,
                   wall_seconds: float = 0.0, info: Optional[dict] = None
                   ) -> Solution:
    """A structurally valid all-zeros Solution for non-primal outcomes."""
    S = instance.n_stations
    J = range(instance.n_trains)

    def z3(fill):
        # fresh rows per call: several of these fields get mutated in place
        # by consumers, so none of them may share list objects
        return [[[fill for _ in range(instance.consists(j))]
                 for _ in range(S)] for j in J]

    def z2():
        return [[0.0] * S for _ in J]

    return Solution(
        deployed=[], has_battery=[[0] * instance.consists(j) for j in J],
        swap=z3(0), charge=z3(0),
        charge_hours=z3(0.0), arrive=z2(), depart=z2(),
        soc_arrive=z3(0.0), soc_depart=z3(0.0),
        delay=z2(), battery_nonempty=z3(0),
        objective_value=float("inf"), status=status,
        wall_seconds=wall_seconds, algorithm=algorithm, info=info or {},
    )


# ---------------------------------------------------------------------------
# One-shot solve
# ---------------------------------------------------------------------------

_NO_PLAN_STATUS = {"infeasible": "infeasible",
                   "limit-no-incumbent": "time-limit-no-incumbent"}


def solve_pla(instance: Instance, config: Optional[SolveConfig] = None,
              fixed_deployment: Optional[Set[int]] = None,
              max_loading: bool = False,
              dump_model: Optional[str] = None,
              keep_primal: bool = False) -> Solution:
    """Build and solve the full MILP; decode the incumbent.

    ``fixed_deployment``/``max_loading`` pin the deployment / carry binaries
    (used by the heuristic and the decomposition warm start). Infeasibility
    is a status on the returned Solution, not an exception. ``keep_primal``
    stashes the raw column vector in ``info["primal"]`` for consumers that
    need the solver's exact binary assignment (decoding rounds and clamps).
    ``wall_seconds`` runs from entry to return, as for the other planners.
    """
    started = time.perf_counter()
    cfg = config or SolveConfig()
    model, vm = build_model(instance, cfg)
    if fixed_deployment is not None:
        fix_deployment(model, vm, set(fixed_deployment))
    if max_loading:
        fix_max_loading(model, vm, instance)
    if dump_model:
        be.write_lp(model, dump_model)
    outcome = be.ScipyBackend().solve(model, gap=cfg.mip_gap,
                                      seconds=cfg.time_limit_seconds)
    if outcome.status in ("optimal", "feasible-limit"):
        sol = decode_solution(outcome, vm, instance)
        sol.info.update({"n_columns": model.n_cols, "n_rows": model.n_rows,
                         "n_binaries": vm.n_binary})
        if keep_primal:
            sol.info["primal"] = np.asarray(outcome.primal).tolist()
    elif outcome.status in _NO_PLAN_STATUS:
        sol = empty_solution(instance, _NO_PLAN_STATUS[outcome.status], "pla",
                             info={"solver_message": outcome.message})
    else:
        raise be.BackendError(
            f"solver failed: {outcome.status} ({outcome.message})")
    sol.wall_seconds = time.perf_counter() - started
    return sol

