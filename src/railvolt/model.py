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
from dataclasses import dataclass
from itertools import chain, compress
from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from .domain import (Instance, SolveConfig, Solution, DecodeError,
                     InstanceError, SOC_BIG_M, charge_time_for_target,
                     empty_solution, plan_from_actions, reach_windows,
                     validate_instance)
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

    Each field is its family's index grid, as :func:`build_model` makes it:
    an int array over (station, train, consist) (X over stations, Y over
    (train, consist), D over (station, train), beta with a last axis of SOC
    intervals) holding each key's column, and -1 where a key has no column:
    an endpoint's X, Zc, Zs, beta and Tc, and a consist past its train's
    count. Select ``grid >= 0`` before indexing with a grid: a -1 would
    read the last column. Binary columns occupy indices [0, n_binary);
    everything after is continuous. The stop times (Tarr, Tdep) and the
    charge-clock block's weights and clock readings (gamma, Theta) stay
    inside :func:`build_model`.
    """
    X: np.ndarray
    Y: np.ndarray
    Zc: np.ndarray
    Zs: np.ndarray
    B: np.ndarray
    beta: np.ndarray
    D: np.ndarray
    Tc: np.ndarray
    Sarr: np.ndarray
    Sdep: np.ndarray
    n_binary: int
    n_cols: int


class _Keys:
    """The True positions of ``mask`` in C order (``at``, one row each) and
    their id tags ``_<part>_<part>...`` (``tags``), made by one %-format
    and shared by every family keyed by them."""

    def __init__(self, mask):
        self.mask = np.asarray(mask)
        self.at = np.argwhere(self.mask)
        n, d = self.at.shape
        self.tags = (((("_%d" * d) + "\n") * n)
                     % tuple(self.at.ravel().tolist())).split("\n")[:-1]

    def __len__(self) -> int:
        return len(self.at)


def _ids(names: Sequence[str], keys: _Keys) -> List[str]:
    """``name % tag`` for each key's tag and, within it, each of ``names``,
    by one %-format."""
    args = keys.tags if len(names) == 1 else \
        np.repeat(np.array(keys.tags, object), len(names)).tolist()
    return ((("\n".join(names) + "\n") * len(keys)) % tuple(args)
            ).split("\n")[:-1]


def _per_key(columns) -> np.ndarray:
    """A term's columns as a (keys, m) array."""
    columns = np.asarray(columns)
    return columns if columns.ndim == 2 else columns[:, None]


def _row_family(keys: _Keys, kinds, mask=None):
    """One row family as arrays: ``(ids, counts, indices, values, senses,
    rhs)`` in :func:`backend.checked_rows`'s layout.

    A family is a few row kinds per key, each kind a name, terms, a sense
    and a right-hand side (one, or one per key). A kind's name holds one
    ``%s``, which each key's tag fills. A term is ``(columns,
    coefficient)``: one column per key, or a (keys, m) array of them, and
    coefficients that broadcast against those (keys, m) columns (one for
    all, one per column of the m, or a (keys, 1) column of one per key).
    Each key's rows come out in kind order and its entries in term order,
    one row per (key, kind) unless ``mask`` (keys, kinds) drops it. A
    column index of -1 marks a column the key does not have (a consist
    past its train's count, an endpoint's operation, a consist outside a
    ragged prefix or suffix of consists): its entry is zero padding, which
    the check drops.
    """
    n, r = len(keys), len(kinds)
    terms = [[(_per_key(c), v) for c, v in kind[1]] for kind in kinds]
    widths = [sum(c.shape[1] for c, _ in t) for t in terms]
    cols = np.empty((n, sum(widths)), np.int64)
    vals = np.empty((n, sum(widths)))
    counts = np.empty((n, r), np.int64)
    senses = np.empty((n, r), "<U2")
    rhs = np.empty((n, r))
    counts[:], senses[:] = widths, [kind[2] for kind in kinds]
    e = 0
    for q, t in enumerate(terms):
        for c, v in t:
            cols[:, e:e + c.shape[1]] = c
            vals[:, e:e + c.shape[1]] = v
            e += c.shape[1]
        rhs[:, q] = kinds[q][3]
    vals[cols < 0] = 0.0
    ids = _ids([kind[0] for kind in kinds], keys)
    counts, senses, rhs = counts.ravel(), senses.ravel(), rhs.ravel()
    cols, vals = cols.ravel(), vals.ravel()
    if mask is not None:
        entries = np.repeat(mask, widths, axis=1).ravel()
        keep = np.asarray(mask).ravel()
        ids = list(compress(ids, keep.tolist()))
        counts, senses, rhs = counts[keep], senses[keep], rhs[keep]
        cols, vals = cols[entries], vals[entries]
    return ids, counts, cols, vals, senses, rhs


def _stacked(families) -> list:
    """Row families, one after another, as one set of
    :func:`backend.checked_rows` arguments (ids to rhs)."""
    ids, *arrays = zip(*families)
    return [list(chain.from_iterable(ids)), *map(np.concatenate, arrays)]


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
    S, n_trains = inst.n_stations, inst.n_trains
    consists = np.array([inst.consists(j) for j in range(n_trains)])
    max_k = int(consists.max())
    grid = build_pla_grid(cfg.n, cfg.t_max, inst.r0)
    n = grid.n
    M = cfg.big_M
    Ms = SOC_BIG_M

    model = be.AbstractModel(name=f"plan[{inst.name}]")

    # Key grids, as masks over (station, train, consist): every (station,
    # train) stop, every cell (a consist its train has, at a stop), and the
    # cells at interior stations, where operations happen (slots).
    interior = np.zeros(S, bool)
    interior[1:-1] = True
    has = np.arange(max_k) < consists[:, None]        # (train, consist)
    cell = np.broadcast_to(has, (S, n_trains, max_k))
    slot = cell & interior[:, None, None]
    stops, cells, slots = _Keys(np.ones((S, n_trains), bool)), _Keys(cell), \
        _Keys(slot)
    stations, loads = _Keys(interior), _Keys(has)

    def family(prefix, keys, kind=be.CONTINUOUS, upper=np.inf,
               objective=0.0, count=0) -> np.ndarray:
        """One column per key of ``keys``, named ``prefix_<key parts>``, or
        ``count`` of them named ``prefix_<key parts>_<u>``, added as one
        block; ``objective`` is one cost for every column or one per
        column. Returns the grid of column indices over the keys' mask
        (with a last axis of ``count``), -1 off the mask."""
        names = ["%s%%s_%d" % (prefix, u) for u in range(count)] if count \
            else [prefix + "%s"]
        index = np.full(keys.mask.shape + ((count,) if count else ()), -1)
        cols = model.add_columns(_ids(names, keys), kind, upper=upper,
                                 objective=objective)
        index[keys.mask] = np.arange(cols.start, cols.stop).reshape(
            (len(keys),) + index.shape[keys.mask.ndim:])
        return index

    # ---- columns: binaries first ------------------------------------------
    aF, aD = cfg.alpha_fixed, cfg.alpha_delay
    X = family("X", stations, be.BINARY,
               objective=aF * np.asarray(inst.fixed_cost, float)[interior])
    Y = family("Y", loads, be.BINARY)
    Zc = family("Zc", slots, be.BINARY)
    Zs = family("Zs", slots, be.BINARY)
    B = family("B", cells, be.BINARY)
    beta = family("beta", slots, be.BINARY, count=n)
    n_binary = model.n_cols

    # ---- columns: continuous ----------------------------------------------
    D = family("D", stops, objective=aD)
    arrive = family("Tarr", stops)
    depart = family("Tdep", stops)
    Tc = family("Tc", slots, upper=cfg.t_max)
    Sarr = family("Sarr", cells, upper=1.0)
    Sdep = family("Sdep", cells, upper=1.0)
    gamma = family("gamma", slots, upper=1.0, count=n + 1)
    clock_arr = family("Theta_arr", slots)
    clock_dep = family("Theta_dep", slots, upper=grid.top)
    vm = VarMap(X, Y, Zc, Zs, B, beta, D, Tc, Sarr, Sdep, n_binary,
                model.n_cols)

    # The objective counts delay beyond the planned waits: subtract the
    # constant sum of waits once, outside the solver.
    model.objective_offset = -aD * float(np.sum(inst.wait_time))

    # ---- rows ---------------------------------------------------------------
    # Every row, in a fixed order: one array family after another, each
    # keyed by a key grid in C order as the columns are, all added to the
    # model as one checked block.
    families = []

    def rows(keys, kinds, mask=None):
        families.append(_row_family(keys, kinds, mask))

    GE, LE, EQ = be.GE, be.LE, be.EQ
    trains = _Keys(np.ones(n_trains, bool))
    legs = _Keys(np.ones((n_trains, S - 1), bool))      # (train, leg)
    lj, li = legs.at.T
    inner = np.flatnonzero(interior)

    # Delay measures dwell: D >= depart - arrive.
    rows(stops, [("delay_def%s", [(D.ravel(), 1.0),
                                  (depart.ravel(), -1.0),
                                  (arrive.ravel(), 1.0)], GE, 0.0)])

    # Operations only happen at deployed stations, and a deployed station
    # must be used at least once.
    ops = [(Zc[inner].reshape(len(inner), n_trains * max_k), 1.0),
           (Zs[inner].reshape(len(inner), n_trains * max_k), 1.0)]
    rows(stations, [
        ("ops_need_deploy%s", ops + [(X[inner], -2.0 * n_trains * max_k)],
         LE, 0.0),
        ("deploy_is_used%s", ops + [(X[inner], -1.0)], GE, 0.0)])

    # A train cannot swap one battery and charge another in the same stop.
    pairs = _Keys(slot[..., None] & cell[:, :, None, :])
    i, j, k1, k2 = pairs.at.T
    rows(pairs, [("swap_xor_charge%s", [(Zs[i, j, k1], 1.0),
                                        (Zc[i, j, k2], 1.0)], LE, 1.0)])

    # Dwell covers the planned wait.
    rows(stops, [("dwell_wait%s", [(depart.ravel(), 1.0),
                                   (arrive.ravel(), -1.0)],
                  GE, np.asarray(inst.wait_time, float).ravel())])

    # Carry allowance, and batteries fill a consecutive prefix of consists.
    rows(trains, [
        ("carry_cap%s", [(Y, 1.0)], LE,
         [float(t.max_batteries) for t in inst.trains])] + [
        ("carry_prefix%%s_%d" % k, [(Y[:, k + 1:], 1.0), (Y[:, k], -M)],
         LE, 0.0) for k in range(max_k - 1)],
        mask=np.column_stack([np.ones(n_trains, bool), has[:, 1:]]))

    # Station capacities bound one train's operations per stop.
    visits = _Keys(cell[:, :, 0] & interior[:, None])
    i, j = visits.at.T
    rows(visits, [
        ("swap_stock%s", [(Zs[i, j], 1.0)], LE,
         np.asarray(inst.full_batteries, float)[i]),
        ("charger_cap%s", [(Zc[i, j], 1.0)], LE,
         np.asarray(inst.chargers, float)[i])])

    # Power balance along each leg: total SOC on arrival at i+1 equals
    # total SOC at departure from i minus the leg's energy.
    rows(legs, [("power_balance%s", [(Sarr[li + 1, lj], 1.0),
                                     (Sdep[li, lj], -1.0)], EQ,
                 -inst.energy[lj, li, li + 1])])

    # Sequential drain: an empty-flagged battery has zero arrival SOC, and
    # while an earlier consist still holds charge (and the next consist
    # carries a battery at all), the next battery is still full.
    i, j = stops.at.T
    rows(stops, [
        ("nonempty_flag%%s_%d" % k, [(Sarr[i, j, k], 1.0),
                                     (B[i, j, k], -Ms)], LE, 0.0)
        for k in range(max_k)] + [
        ("drain_order%%s_%d" % k, [(Sarr[i, j, k + 1], 1.0),
                                   (B[i, j, k], -Ms), (Y[j, k + 1], -Ms)],
         GE, 1.0 - 2.0 * Ms) for k in range(max_k - 1)],
        mask=np.hstack([has, has[:, 1:]])[j])

    # SOC can only rise during a stop, never between stations.
    rows(cells, [("stop_no_drain%s", [(Sdep[cell], 1.0),
                                      (Sarr[cell], -1.0)], GE, 0.0)])
    leg_cells = _Keys(np.broadcast_to(has[:, None, :],
                                      (n_trains, S - 1, max_k)))
    j, i, k = leg_cells.at.T
    rows(leg_cells, [("leg_no_gain%s", [(Sdep[i, j, k], 1.0),
                                        (Sarr[i + 1, j, k], -1.0)],
                      GE, 0.0)])

    # Swap effects: full battery on departure, and the stop lasts at least
    # the swap duration.
    i, j, _ = slots.at.T
    dwell = [(depart[i, j], 1.0), (arrive[i, j], -1.0)]
    rows(slots, [
        ("swap_full%s", [(Sdep[slot], 1.0), (Zs[slot], -1.0)], GE, 0.0),
        ("swap_dwell%s", dwell + [(Zs[slot], -inst.swap_hours)], GE, 0.0)])

    # Charge duration: inside the dwell, zero unless charging is declared,
    # and strictly positive when it is declared.
    rows(slots, [
        ("charge_within_dwell%s", dwell + [(Tc[slot], -1.0)], GE, 0.0),
        ("charge_needs_flag%s", [(Tc[slot], 1.0), (Zc[slot], -M)], LE, 0.0),
        ("flag_needs_charge%s", [(Zc[slot], 1.0), (Tc[slot], -M)], LE, 0.0)])

    # Untouched batteries keep their SOC (at endpoints no operations exist,
    # so departure SOC simply cannot exceed arrival SOC there).
    rows(cells, [("hold_soc%s", [(Sdep[cell], 1.0), (Sarr[cell], -1.0),
                                 (Zc[cell], -1.0), (Zs[cell], -1.0)],
                  LE, 0.0)])

    # Carried batteries start full at the origin (and leave it full, by
    # stop_no_drain)...
    rows(loads, [("origin_full_arr%s", [(Sarr[0][has], 1.0),
                                        (Y[has], -1.0)], GE, 0.0)])

    # ...and the clock starts at zero there.
    rows(trains, [("origin_clock%s", [(arrive[0], 1.0),
                                      (depart[0], 1.0)], EQ, 0.0)])

    # Arrival time = previous departure + leg travel time.
    rows(legs, [("timeline%s", [(arrive[li + 1, lj], 1.0),
                                (depart[li, lj], -1.0)], EQ,
                 inst.travel_time[lj, li, li + 1])])

    # Consists without a battery: no operations, no SOC anywhere.
    j, k = loads.at.T
    no_battery = [(Y[has], -2.0 * S)]
    rows(loads, [
        ("no_battery_no_ops%s", [(Zc[inner][:, j, k].T, 1.0),
                                 (Zs[inner][:, j, k].T, 1.0)] + no_battery,
         LE, 0.0),
        ("no_battery_no_soc%s", [(Sarr[:, j, k].T, 1.0),
                                 (Sdep[:, j, k].T, 1.0)] + no_battery,
         LE, 0.0)])

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
    points = np.append(grid.s[:-1], grid.cap)
    at, rise = grid.clock(points), grid.slope(points)
    high = at + rise * (1.0 - points)
    q, hours = 1.0 - inst.r0, np.asarray(TANGENT_HOURS)
    slope = grid.kappa * q ** hours
    dep_rhs = at - rise * points - high
    tan_rhs = slope * hours - (1.0 - q ** hours)
    top = grid.top
    b, g = beta[slot], gamma[slot]
    tc, s_arr, s_dep = Tc[slot], Sarr[slot], Sdep[slot]
    zc, zs, t_arr, t_dep = Zc[slot], Zs[slot], clock_arr[slot], clock_dep[slot]
    rows(slots, [
        ("pla_pick_s%s", [(b, 1.0)], EQ, 1.0),
        ("pla_weights_one%s", [(g, 1.0)], EQ, 1.0),
        ("pla_soc_interp%s", [(g, grid.s), (s_arr, -1.0)], EQ, 0.0)] + [
        # Weights live only on the selected interval's endpoints.
        ("pla_weight_support%%s_%d" % u, [(g[:, u], 1.0), (b[:, u - 1], -1.0),
                                          (b[:, u], -1.0)], LE, 0.0)
        for u in range(1, n)] + [
        ("pla_weight_low%s", [(g[:, 0], 1.0), (b[:, 0], -1.0)], LE, 0.0),
        ("pla_weight_high%s", [(g[:, n], 1.0), (b[:, n - 1], -1.0)], LE, 0.0),
        ("clock_arr%s", [(t_arr, 1.0), (g, -grid.clock(grid.s))], LE, 0.0)] + [
        ("clock_dep%%s_%d" % p, [(t_dep, 1.0), (s_dep, -rise[p]),
                                 (zc, -high[p])], GE, dep_rhs[p])
        for p in range(len(points))] + [
        ("clock_charge%s", [(tc, 1.0), (t_dep, -1.0), (t_arr, 1.0),
                            (zc, -top)], GE, -top)] + [
        ("charge_tangent%%s_%d" % h, [(tc, slope[h]), (s_dep, -1.0),
                                      (s_arr, 1.0), (zs, 1.0)], GE, tan_rhs[h])
        for h in range(len(hours))])

    model.add_row_arrays(*_stacked(families))
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
    deployed = [i for (i,), c in np.ndenumerate(vm.X)
                if c >= 0 and _as_flag(x[c], f"X[{i}]") == 1]
    has_battery = [[_as_flag(x[vm.Y[j, k]], f"Y[{j},{k}]")
                    for k in range(inst.consists(j))]
                   for j in range(inst.n_trains)]
    # per slot (i, j, k); stops without a slot get no action
    swap = {slot: _as_flag(x[c], "Zs[%d,%d,%d]" % slot)
            for slot, c in np.ndenumerate(vm.Zs) if c >= 0}
    charge = {slot: _as_flag(x[c], "Zc[%d,%d,%d]" % slot)
              for slot, c in np.ndenumerate(vm.Zc) if c >= 0}
    target = {slot: _clamped(x[vm.Sdep[slot]], 0.0, 1.0,
                             "Sdep[%d,%d,%d]" % slot) for slot in charge}

    # Independent objective recomputation from the decoded columns.
    setup = sum(inst.fixed_cost[i] for i in deployed)
    d_term = sum(x[c] - inst.wait_time[i, j]
                 for (i, j), c in np.ndenumerate(vm.D))
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

def _unserved_window(instance: Instance, deployed: Sequence[int]
                     ) -> Optional[List[int]]:
    """The first window of :func:`~railvolt.domain.reach_windows` with no
    station of ``deployed`` strictly inside, as ``[train, a, b]`` Python
    ints; None when every window holds one. No schedule under that
    deployment and a full load exists then (see ``reach_windows``)."""
    opened = np.zeros(instance.n_stations, int)
    opened[deployed] = 1
    before = np.concatenate([[0], np.cumsum(opened)])  # open stations < s
    windows = reach_windows(instance)
    _, a, b = windows.T
    unserved = np.flatnonzero(before[b] == before[a + 1])
    return windows[unserved[0]].tolist() if len(unserved) else None


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
    decomposition's warm start. Before anything else, the fixing is
    checked against every reach window
    (:func:`~railvolt.domain.reach_windows`): when one has no deployed
    station strictly inside, no schedule exists, so the call returns
    ``"infeasible"`` without building, touching or solving a model and
    names that window in ``info["reach_window"]`` as ``[train, a, b]``.
    Infeasibility is a status on the returned Solution, not an exception.
    ``keep_primal`` stashes the raw column vector in ``info["primal"]`` for
    consumers that need the solver's exact binary assignment (decoding
    rounds and clamps). ``wall_seconds`` runs from entry to return, as for
    the other planners.

    ``built`` is the ``(model, vm)`` pair of :func:`build_model` on this
    instance and a config that differs from ``config`` at most in its time
    limit, gap and seed; without it, the model is built here. Every call
    the check does not prove sets the X and Y bounds, free [0, 1] or
    pinned to the fixing, so a caller can solve one built model under one
    fixing after another; the model keeps the bounds of the last call that
    reached the solver; a fixing the check proves leaves the model
    untouched. The first solve of a model builds its HiGHS session, and
    each later call re-runs that session cold with the new bounds written
    in place (see :class:`~railvolt.backend.ScipyBackend`); adding a column
    or row to the model drops the session, and the next call builds a
    fresh one.
    """
    started = time.perf_counter()
    cfg = config or SolveConfig()
    if fixed_deployment is not None:
        window = _unserved_window(instance, [
            i for i in instance.interior if i in fixed_deployment])
        if window is not None:
            sol = empty_solution(instance, "infeasible", "pla",
                                 info={"reach_window": window})
            sol.wall_seconds = time.perf_counter() - started
            return sol
    model, vm = built or build_model(instance, cfg)
    deploy, load = vm.X >= 0, vm.Y >= 0
    cols = np.concatenate([vm.X[deploy], vm.Y[load]])
    if fixed_deployment is None:
        model.set_bounds(cols, 0.0, 1.0)
    else:
        pinned = [i in fixed_deployment for i in np.flatnonzero(deploy)] + [
            k < instance.trains[j].full_load for j, k in np.argwhere(load)]
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

