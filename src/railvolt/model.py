"""The linearized deployment + scheduling MILP.

One binary per interior station decides deployment; per (station, train,
consist) binaries decide swaps and charges; continuous variables track times
and SOC. The nonlinear charging curve enters through its *charge clock*

    theta(s) = -ln(1 - s) / kappa,    kappa = -ln(1 - r0),

the hours that charge an empty battery to SOC ``s``. The curve composes with
itself, so an exact charge of Tc hours is the shift
``theta(Sdep) = theta(Sarr) + Tc``. The model reads the clock as ``phi``:
theta up to the SOC that ``t_max`` hours give an empty battery, continued by
its tangent there (:class:`PlaGrid`). Binary selectors pick an SOC interval
and convex weights interpolate the arrival SOC on it, which bounds the clock
at arrival by a chord of the convex ``phi``; tangents of ``phi`` bound the
clock at departure, and a charge must last at least their difference. Each
slot also gets one row per duration in :data:`TANGENT_HOURS`: a tangent of
the exact, concave gain ``1 - (1 - r0) ** t`` bounds the SOC a charge adds.
Every exact charge, swap and idle slot meets all these rows, so the MILP is
an outer approximation (Duran & Grossmann 1986) and its bound is a lower
bound on the exact-curve optimum.

The MILP only chooses the decisions. The decoder reads just those and
times the plan on the exact charge curve (:func:`decode_solution`), so no
approximation error reaches the plan a planner returns.

Column order is load-bearing: all binaries come first (deployment, carry,
charge/swap flags, nonempty-arrival flags, SOC-interval selectors), then all
continuous columns. The decomposition solver relies on that split.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Collection, Dict, Optional, Tuple

import numpy as np

from .domain import (Instance, SolveConfig, Solution, DecodeError,
                     InstanceError, SOC_BIG_M, charge_time_for_target,
                     empty_solution, plan_from_actions, validate_instance)
from . import backend as be


# ---------------------------------------------------------------------------
# PLA grid
# ---------------------------------------------------------------------------

# Charge durations (hours) at which each slot gets a tangent row of the
# exact charge curve (see build_model). Chosen by measurement over HiGHS
# random_seed 0-5 on the worked example: pla's median time with these four
# was about half that with {0, 2} or {0, 2, 4}, {0, 1, 2, 3, 4, 6} ended in
# "Solve error" at seed 0, and adding 8 h took bd on the five short-haul
# benchmark corridors from 267 to 333 integer masters.
TANGENT_HOURS = (0.0, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class PlaGrid:
    """SOC breakpoints and the charge clock the model samples on them.

    ``clock`` is phi: the charge clock theta(s) = -ln(1 - s) / kappa on
    [0, ``cap``], where ``cap = 1 - (1 - r0) ** t_max`` is the SOC that
    ``t_max`` hours give an empty battery, continued past ``cap`` by its
    tangent there, so ``clock(1) = t_max + 1 / kappa``. phi is convex, lies
    under theta and rises no faster than theta, so phi(Sdep) - phi(Sarr)
    never exceeds an exact charge's hours theta(Sdep) - theta(Sarr).
    """
    s: np.ndarray          # n+1 SOC breakpoints, 0..1
    t_max: float
    kappa: float           # -ln(1 - r0)

    @property
    def n(self) -> int:
        return len(self.s) - 1

    @property
    def cap(self) -> float:
        return 1.0 - math.exp(-self.kappa * self.t_max)

    @property
    def top(self) -> float:
        """phi(1) = t_max + 1/kappa, the largest clock reading."""
        return self.t_max + 1.0 / self.kappa

    def slope(self, soc) -> np.ndarray:
        """phi' at each SOC in ``soc``."""
        return 1.0 / (self.kappa * (1.0 - np.minimum(soc, self.cap)))

    def clock(self, soc) -> np.ndarray:
        """phi at each SOC in ``soc``."""
        soc = np.asarray(soc, dtype=float)
        return np.where(soc <= self.cap,
                        -np.log1p(-np.minimum(soc, self.cap)) / self.kappa,
                        self.top - (1.0 - soc) * self.slope(1.0))


def build_pla_grid(n: int, t_max: float, r0: float) -> PlaGrid:
    if n < 2:
        raise ValueError("need at least 2 SOC segments")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    return PlaGrid(s=np.linspace(0.0, 1.0, n + 1), t_max=float(t_max),
                   kappa=-math.log(1.0 - r0))


# ---------------------------------------------------------------------------
# Variable map
# ---------------------------------------------------------------------------

@dataclass
class VarMap:
    """Column indices of the model variables other modules read, plus
    build metadata.

    Binary columns occupy indices [0, n_binary); everything after is
    continuous. The stop times (Tarr, Tdep) and the charge-clock block's
    weights and clock readings (gamma, Theta) stay inside
    :func:`build_model`.
    """
    X: Dict[int, int] = field(default_factory=dict)
    Y: Dict[Tuple[int, int], int] = field(default_factory=dict)
    Zc: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    Zs: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    B: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    beta: Dict[Tuple[int, int, int, int], int] = field(default_factory=dict)
    D: Dict[Tuple[int, int], int] = field(default_factory=dict)
    Tc: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    Sarr: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    Sdep: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    n_binary: int = 0
    n_cols: int = 0


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
    grid = build_pla_grid(cfg.n, cfg.t_max, inst.r0)
    M = cfg.big_M
    Ms = SOC_BIG_M

    model = be.AbstractModel(name=f"plan[{inst.name}]")
    vm = VarMap()

    # Index sets: every (station, train) stop, every (station, train,
    # consist) cell, and the cells at interior stations, where operations
    # happen (slots).
    stops = [(i, j) for i in range(S) for j in J]
    cells = [(i, j, k) for i, j in stops for k in K[j]]
    slots = [(i, j, k) for i in interior for j in J for k in K[j]]

    def family(prefix, keys, kind=be.CONTINUOUS, upper=np.inf,
               objective=0.0) -> Dict:
        """One column per key, named ``prefix_<key parts>``, added as one
        block; ``objective`` is one cost for every key or a sequence of
        per-key costs."""
        ids = ["_".join(map(str, (prefix, *key))) if isinstance(key, tuple)
               else f"{prefix}_{key}" for key in keys]
        return dict(zip(keys, model.add_columns(ids, kind, upper=upper,
                                                objective=objective)))

    def per_slot(count):
        return [slot + (u,) for slot in slots for u in range(count)]

    # ---- columns: binaries first ------------------------------------------
    aF, aD = cfg.alpha_fixed, cfg.alpha_delay
    vm.X = family("X", interior, be.BINARY,
                  objective=[aF * float(inst.fixed_cost[i]) for i in interior])
    vm.Y = family("Y", [(j, k) for j in J for k in K[j]], be.BINARY)
    vm.Zc = family("Zc", slots, be.BINARY)
    vm.Zs = family("Zs", slots, be.BINARY)
    vm.B = family("B", cells, be.BINARY)
    vm.beta = family("beta", per_slot(grid.n), be.BINARY)
    vm.n_binary = model.n_cols

    # ---- columns: continuous ----------------------------------------------
    vm.D = family("D", stops, objective=aD)
    arrive = family("Tarr", stops)
    depart = family("Tdep", stops)
    vm.Tc = family("Tc", slots, upper=cfg.t_max)
    vm.Sarr = family("Sarr", cells, upper=1.0)
    vm.Sdep = family("Sdep", cells, upper=1.0)
    gamma_of = family("gamma", per_slot(grid.n + 1), upper=1.0)
    clock_arr = family("Theta_arr", slots)
    clock_dep = family("Theta_dep", slots, upper=grid.top)
    vm.n_cols = model.n_cols

    # The objective counts delay beyond the planned waits: subtract the
    # constant sum of waits once, outside the solver.
    model.objective_offset = -aD * float(np.sum(inst.wait_time))

    # ---- rows ---------------------------------------------------------------
    # Every row, in a fixed order, streamed into one model.add_rows.
    def rows():
        # Delay measures dwell: D >= depart - arrive.
        for i, j in stops:
            yield (f"delay_def_{i}_{j}",
                   [(vm.D[i, j], 1.0), (depart[i, j], -1.0),
                    (arrive[i, j], 1.0)], be.GE, 0.0)

        # Operations only happen at deployed stations, and a deployed station
        # must be used at least once.
        for i in interior:
            ops = [(vm.Zc[i, j, k], 1.0) for j in J for k in K[j]]
            ops += [(vm.Zs[i, j, k], 1.0) for j in J for k in K[j]]
            yield (f"ops_need_deploy_{i}",
                   ops + [(vm.X[i], -2.0 * inst.n_trains * max_k)], be.LE, 0.0)
            yield (f"deploy_is_used_{i}", ops + [(vm.X[i], -1.0)], be.GE, 0.0)

        # A train cannot swap one battery and charge another in the same stop.
        for i in interior:
            for j in J:
                for k1 in K[j]:
                    for k2 in K[j]:
                        yield (f"swap_xor_charge_{i}_{j}_{k1}_{k2}",
                               [(vm.Zs[i, j, k1], 1.0),
                                (vm.Zc[i, j, k2], 1.0)], be.LE, 1.0)

        # Dwell covers the planned wait.
        for i, j in stops:
            yield (f"dwell_wait_{i}_{j}",
                   [(depart[i, j], 1.0), (arrive[i, j], -1.0)],
                   be.GE, float(inst.wait_time[i, j]))

        # Carry allowance, and batteries fill a consecutive prefix of consists.
        for j in J:
            yield (f"carry_cap_{j}", [(vm.Y[j, k], 1.0) for k in K[j]],
                   be.LE, float(inst.trains[j].max_batteries))
            for k in K[j][:-1]:
                later = [(vm.Y[j, kk], 1.0) for kk in K[j] if kk > k]
                yield (f"carry_prefix_{j}_{k}",
                       later + [(vm.Y[j, k], -M)], be.LE, 0.0)

        # Station capacities bound one train's operations per stop.
        for i in interior:
            for j in J:
                yield (f"swap_stock_{i}_{j}",
                       [(vm.Zs[i, j, k], 1.0) for k in K[j]],
                       be.LE, float(inst.full_batteries[i]))
                yield (f"charger_cap_{i}_{j}",
                       [(vm.Zc[i, j, k], 1.0) for k in K[j]],
                       be.LE, float(inst.chargers[i]))

        # Power balance along each leg: total SOC on arrival at i+1 equals
        # total SOC at departure from i minus the leg's energy.
        for j in J:
            for i in range(S - 1):
                ent = [(vm.Sarr[i + 1, j, k], 1.0) for k in K[j]]
                ent += [(vm.Sdep[i, j, k], -1.0) for k in K[j]]
                yield (f"power_balance_{j}_{i}", ent, be.EQ,
                       -inst.leg_energy(j, i))

        # Sequential drain: an empty-flagged battery has zero arrival SOC, and
        # while an earlier consist still holds charge (and the next consist
        # carries a battery at all), the next battery is still full.
        for i, j in stops:
            for k in K[j]:
                yield (f"nonempty_flag_{i}_{j}_{k}",
                       [(vm.Sarr[i, j, k], 1.0), (vm.B[i, j, k], -Ms)],
                       be.LE, 0.0)
            for k in K[j][:-1]:
                yield (f"drain_order_{i}_{j}_{k}",
                       [(vm.Sarr[i, j, k + 1], 1.0), (vm.B[i, j, k], -Ms),
                        (vm.Y[j, k + 1], -Ms)], be.GE, 1.0 - 2.0 * Ms)

        # SOC can only rise during a stop, never between stations.
        for i, j, k in cells:
            yield (f"stop_no_drain_{i}_{j}_{k}",
                   [(vm.Sdep[i, j, k], 1.0), (vm.Sarr[i, j, k], -1.0)],
                   be.GE, 0.0)
        for j in J:
            for i in range(S - 1):
                for k in K[j]:
                    yield (f"leg_no_gain_{j}_{i}_{k}",
                           [(vm.Sdep[i, j, k], 1.0),
                            (vm.Sarr[i + 1, j, k], -1.0)], be.GE, 0.0)

        # Swap effects: full battery on departure, and the stop lasts at least
        # the swap duration.
        for i, j, k in slots:
            yield (f"swap_full_{i}_{j}_{k}",
                   [(vm.Sdep[i, j, k], 1.0), (vm.Zs[i, j, k], -1.0)],
                   be.GE, 0.0)
            yield (f"swap_dwell_{i}_{j}_{k}",
                   [(depart[i, j], 1.0), (arrive[i, j], -1.0),
                    (vm.Zs[i, j, k], -inst.swap_hours)], be.GE, 0.0)

        # Charge duration: inside the dwell, zero unless charging is declared,
        # and strictly positive when it is declared.
        for i, j, k in slots:
            yield (f"charge_within_dwell_{i}_{j}_{k}",
                   [(depart[i, j], 1.0), (arrive[i, j], -1.0),
                    (vm.Tc[i, j, k], -1.0)], be.GE, 0.0)
            yield (f"charge_needs_flag_{i}_{j}_{k}",
                   [(vm.Tc[i, j, k], 1.0), (vm.Zc[i, j, k], -M)], be.LE, 0.0)
            yield (f"flag_needs_charge_{i}_{j}_{k}",
                   [(vm.Zc[i, j, k], 1.0), (vm.Tc[i, j, k], -M)], be.LE, 0.0)

        # Untouched batteries keep their SOC (at endpoints no operations exist,
        # so departure SOC simply cannot exceed arrival SOC there).
        for i, j, k in cells:
            ent = [(vm.Sdep[i, j, k], 1.0), (vm.Sarr[i, j, k], -1.0)]
            if i in inst.interior:
                ent += [(vm.Zc[i, j, k], -1.0), (vm.Zs[i, j, k], -1.0)]
            yield (f"hold_soc_{i}_{j}_{k}", ent, be.LE, 0.0)

        # Carried batteries start full at the origin (and leave it full, by
        # stop_no_drain)...
        for j in J:
            for k in K[j]:
                yield (f"origin_full_arr_{j}_{k}",
                       [(vm.Sarr[0, j, k], 1.0), (vm.Y[j, k], -1.0)],
                       be.GE, 0.0)

        # ...and the clock starts at zero there.
        for j in J:
            yield (f"origin_clock_{j}",
                   [(arrive[0, j], 1.0), (depart[0, j], 1.0)], be.EQ, 0.0)

        # Arrival time = previous departure + leg travel time.
        for j in J:
            for i in range(S - 1):
                yield (f"timeline_{j}_{i}",
                       [(arrive[i + 1, j], 1.0), (depart[i, j], -1.0)],
                       be.EQ, inst.leg_time(j, i))

        # Consists without a battery: no operations, no SOC anywhere.
        for j in J:
            for k in K[j]:
                ops = [(vm.Zc[i, j, k], 1.0) for i in interior]
                ops += [(vm.Zs[i, j, k], 1.0) for i in interior]
                yield (f"no_battery_no_ops_{j}_{k}",
                       ops + [(vm.Y[j, k], -2.0 * S)], be.LE, 0.0)
                soc = [(vm.Sarr[i, j, k], 1.0) for i in range(S)]
                soc += [(vm.Sdep[i, j, k], 1.0) for i in range(S)]
                yield (f"no_battery_no_soc_{j}_{k}",
                       soc + [(vm.Y[j, k], -2.0 * S)], be.LE, 0.0)

        # ---- charge-clock block --------------------------------------------
        # Beta picks the SOC interval of Sarr and gamma interpolates Sarr on
        # it. Then, with entries in this order, a slot's rows read
        #   Theta_arr - sum_u phi(s_u) gamma_u <= 0
        # (Theta_arr is at most phi's chord at Sarr, which lies over phi),
        #   Theta_dep - phi'(s_p) Sdep - M_p Zc
        #       >= phi(s_p) - phi'(s_p) s_p - M_p
        # for each s_p in s_0 .. s_{n-1} and cap, with M_p the tangent's
        # value at SOC 1 (when charging, Theta_dep is at least every tangent
        # of phi at Sdep, which lie under phi; otherwise the row is void), and
        #   Tc - Theta_dep + Theta_arr - top Zc >= -top
        # (a charge lasts at least Theta_dep - Theta_arr). An exact charge of
        # Tc <= t_max hours takes theta(Sdep) - theta(Sarr) >= phi(Sdep) -
        # phi(Sarr) hours, so it meets them with Theta_arr at the chord and
        # Theta_dep at the largest tangent; so does every swap and idle slot.
        #
        # Then one tangent row per duration T in TANGENT_HOURS,
        #   kappa q^T Tc - Sdep + Sarr + Zs >= kappa q^T T - (1 - q^T)
        # with q = 1 - r0 and kappa = -ln q: an exact charge of Tc hours
        # gains Sdep - Sarr = (1 - Sarr)(1 - q^Tc) <= 1 - q^Tc, which lies
        # under every tangent of the concave 1 - q^t; a swap (Zs = 1) or an
        # idle slot (Tc = 0, Sdep <= Sarr) meets every row. Only the columns
        # vary by slot; the coefficients are computed once, with numpy (whose
        # powers can differ from Python's in the last bit).
        n = grid.n
        points = np.append(grid.s[:-1], grid.cap)
        at, rise = grid.clock(points), grid.slope(points)
        high = at + rise * (1.0 - points)
        q, hours = 1.0 - inst.r0, np.asarray(TANGENT_HOURS)
        slope = grid.kappa * q ** hours
        s_grid = grid.s.tolist()
        arr_coef = (-grid.clock(grid.s)).tolist()
        # per row: (id suffix, Sdep coefficient, Zc coefficient, rhs)
        dep_rows = [(f"_{p}", a, b, c) for p, (a, b, c) in enumerate(zip(
            (-rise).tolist(), (-high).tolist(),
            (at - rise * points - high).tolist()))]
        # per row: (id suffix, Tc coefficient, rhs)
        tan_rows = [(f"_{h}", a, b) for h, (a, b) in enumerate(zip(
            slope.tolist(), (slope * hours - (1.0 - q ** hours)).tolist()))]
        top = grid.top

        for slot in slots:
            tag = "_%d_%d_%d" % slot
            beta = [vm.beta[slot + (u,)] for u in range(n)]
            gamma = [gamma_of[slot + (u,)] for u in range(n + 1)]
            Tc, Sarr, Sdep = vm.Tc[slot], vm.Sarr[slot], vm.Sdep[slot]
            Zc, Zs = vm.Zc[slot], vm.Zs[slot]
            t_arr, t_dep = clock_arr[slot], clock_dep[slot]

            yield ("pla_pick_s" + tag, [(c, 1.0) for c in beta], be.EQ, 1.0)
            yield ("pla_weights_one" + tag, [(c, 1.0) for c in gamma],
                   be.EQ, 1.0)
            yield ("pla_soc_interp" + tag,
                   list(zip(gamma, s_grid)) + [(Sarr, -1.0)], be.EQ, 0.0)

            # Weights live only on the selected interval's endpoints.
            for u in range(1, n):
                yield (f"pla_weight_support{tag}_{u}",
                       [(gamma[u], 1.0), (beta[u - 1], -1.0),
                        (beta[u], -1.0)], be.LE, 0.0)
            yield (f"pla_weight_low{tag}", [(gamma[0], 1.0), (beta[0], -1.0)],
                   be.LE, 0.0)
            yield (f"pla_weight_high{tag}",
                   [(gamma[n], 1.0), (beta[n - 1], -1.0)], be.LE, 0.0)

            yield ("clock_arr" + tag,
                   [(t_arr, 1.0)] + list(zip(gamma, arr_coef)), be.LE, 0.0)
            for p, dsoc, dzc, b in dep_rows:
                yield ("clock_dep" + tag + p,
                       [(t_dep, 1.0), (Sdep, dsoc), (Zc, dzc)], be.GE, b)
            yield ("clock_charge" + tag,
                   [(Tc, 1.0), (t_dep, -1.0), (t_arr, 1.0), (Zc, -top)],
                   be.GE, -top)
            for h, a, b in tan_rows:
                yield ("charge_tangent" + tag + h,
                       [(Tc, a), (Sdep, -1.0), (Sarr, 1.0), (Zs, 1.0)],
                       be.GE, b)

    model.add_rows(rows())
    return model, vm


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


# Planner status of each backend outcome a planner reports; the first two
# come with a plan.
_PLAN_STATUS = {"optimal": "optimal-within-gap",
                "feasible-limit": "feasible-time-limit",
                "infeasible": "infeasible",
                "limit-no-incumbent": "time-limit-no-incumbent"}


def decode_solution(outcome: be.SolveOutcome, vm: VarMap,
                    instance: Instance, config: SolveConfig) -> Solution:
    """The plan a solver primal point's decisions make on the exact curve.

    Only the decisions are read: the deployment X, the loadout Y, each
    slot's swap and charge flags and departure SOC, and the delays D for
    the objective check. Flags are rounded and SOCs clamped to [0, 1]; a
    value beyond 1e-4 of either, or an objective that does not recompute
    from X and D, is a decode error (the model and the decoder disagree).

    Each flagged battery charges from its exact arrival SOC to its decoded
    departure SOC (for at most ``t_max`` hours, the longest charge the model
    knows; a departure SOC of 1 is unreachable and gets ``t_max``), and
    dwell, times, delay and the objective follow
    (:func:`~railvolt.domain.plan_from_actions`). A charge that needs no
    time loses its flag. The MILP's own objective goes to
    ``info["model_objective"]``; ``bound`` and ``gap`` stay the MILP's, and
    ``info["capped_charges"]`` counts the charges cut to ``t_max``.
    ``config`` is the one the model was built with: its weights recompute
    the objective and its ``t_max`` caps the charges.
    """
    if outcome.primal is None:
        raise DecodeError(f"no primal point to decode (status {outcome.status})")
    x = np.asarray(outcome.primal)
    if len(x) < vm.n_cols:
        raise DecodeError(
            f"primal has {len(x)} columns, model needs {vm.n_cols}")

    inst = instance
    cfg = config
    deployed = sorted(i for i, c in vm.X.items()
                      if _as_flag(x[c], f"X[{i}]") == 1)
    has_battery = [[_as_flag(x[vm.Y[j, k]], f"Y[{j},{k}]")
                    for k in range(inst.consists(j))]
                   for j in range(inst.n_trains)]
    # per slot (i, j, k); stops without a slot get no action
    swap = {slot: _as_flag(x[c], "Zs[%d,%d,%d]" % slot)
            for slot, c in vm.Zs.items()}
    charge = {slot: _as_flag(x[c], "Zc[%d,%d,%d]" % slot)
              for slot, c in vm.Zc.items()}
    target = {slot: _clamped(x[vm.Sdep[slot]], 0.0, 1.0,
                             "Sdep[%d,%d,%d]" % slot) for slot in vm.Zc}

    # Independent objective recomputation from the decoded columns.
    setup = sum(inst.fixed_cost[i] for i in deployed)
    d_term = sum(x[c] - inst.wait_time[i, j] for (i, j), c in vm.D.items())
    recomputed = float(cfg.alpha_fixed * setup + cfg.alpha_delay * d_term)
    if outcome.objective is not None and \
            abs(recomputed - outcome.objective) > 1e-4 * max(1.0, abs(recomputed)):
        raise DecodeError(
            f"objective mismatch: solver {outcome.objective!r} vs "
            f"recomputed {recomputed!r}")

    capped = 0

    def actions(j, i, soc):
        nonlocal capped
        hours = [0.0] * len(soc)
        for k, arrival in enumerate(soc):
            slot = (i, j, k)
            if charge.get(slot) and target[slot] > arrival:
                need = charge_time_for_target(arrival, target[slot], inst.r0) \
                    if target[slot] < 1.0 else math.inf
                hours[k] = min(need, cfg.t_max)
                capped += need > cfg.t_max
        return ([swap.get((i, j, k), 0) for k in range(len(soc))],
                [int(h > 0) for h in hours], hours)

    sol = plan_from_actions(inst, deployed, has_battery, actions,
                            _PLAN_STATUS.get(outcome.status, outcome.status),
                            "pla", cfg)
    sol.bound, sol.gap = outcome.best_bound, outcome.gap
    sol.wall_seconds = outcome.wall_seconds
    sol.info = {"solver_message": outcome.message,
                "model_objective": recomputed, "capped_charges": capped}
    return sol


# ---------------------------------------------------------------------------
# One-shot solve
# ---------------------------------------------------------------------------

def solve_pla(instance: Instance, config: Optional[SolveConfig] = None,
              fixed_deployment: Optional[Collection[int]] = None,
              keep_primal: bool = False,
              built: Optional[Tuple[be.AbstractModel, VarMap]] = None
              ) -> Solution:
    """Solve the full MILP, or the one under ``fixed_deployment``; decode
    the incumbent.

    ``fixed_deployment`` deploys exactly those interior stations and loads
    every train fully (a battery in each of its leading
    :attr:`~railvolt.domain.Train.full_load` consists):
    the restricted schedule MILP of the heuristic's rounds and the
    decomposition's warm start. Infeasibility is a status on the returned
    Solution, not an exception. ``keep_primal`` stashes the raw column
    vector in ``info["primal"]`` for consumers that need the solver's exact
    binary assignment (decoding rounds and clamps). ``wall_seconds`` runs
    from entry to return, as for the other planners.

    ``built`` is the ``(model, vm)`` pair of :func:`build_model` on this
    instance and a config that differs from ``config`` at most in its time
    limit, gap and seed; without it, the model is built here. Every call
    sets the X and Y bounds, free [0, 1] or pinned to the fixing, so a
    caller can solve one built model under one fixing after another; the
    model keeps the last call's bounds. The first solve of a model builds
    its HiGHS session, and each later call re-runs that session cold with
    the new bounds written in place (see
    :class:`~railvolt.backend.ScipyBackend`); adding a column or row to the
    model drops the session, and the next call builds a fresh one.
    """
    started = time.perf_counter()
    cfg = config or SolveConfig()
    model, vm = built or build_model(instance, cfg)
    cols = [*vm.X.values(), *vm.Y.values()]
    if fixed_deployment is None:
        model.set_bounds(cols, 0.0, 1.0)
    else:
        pinned = [i in fixed_deployment for i in vm.X] \
            + [k < instance.trains[j].full_load for j, k in vm.Y]
        model.set_bounds(cols, pinned, pinned)
    outcome = be.ScipyBackend().solve(model, gap=cfg.mip_gap,
                                      seconds=cfg.time_limit_seconds,
                                      seed=cfg.seed)
    if outcome.status in ("optimal", "feasible-limit"):
        sol = decode_solution(outcome, vm, instance, cfg)
        sol.info.update({"n_columns": model.n_cols, "n_rows": model.n_rows,
                         "n_binaries": vm.n_binary})
        if keep_primal:
            sol.info["primal"] = np.asarray(outcome.primal).tolist()
    elif outcome.status in _PLAN_STATUS:
        sol = empty_solution(instance, _PLAN_STATUS[outcome.status], "pla",
                             info={"solver_message": outcome.message})
    else:
        raise be.BackendError(
            f"solver failed: {outcome.status} ({outcome.message})")
    sol.wall_seconds = time.perf_counter() - started
    return sol

