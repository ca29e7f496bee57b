"""Decomposition solver: binary master problem plus continuous scheduling LP.

The full MILP separates cleanly: every binary (deployment X, battery loadout
Y, charge/swap actions Z, nonempty flags B, SOC-interval selectors beta)
goes to a relaxed master problem (RMP); every continuous column (times,
delays, SOC levels, interpolation weights, charge-clock readings) goes to a
linear subproblem that prices a candidate master assignment. Subproblem duals feed optimality cuts,
infeasibility certificates feed feasibility cuts, and static cuts keep the
master from proposing assignments that cannot carry trains between
stations: battery-order rows over one leg or consist at a time, reach rows
asking for a charge or swap inside every run of legs that needs more than
a train's full load, and SOC-interval rows making the interval each
arrival picks fit the leg before it. The warm start relaxes every
deployment, so its dual bound floors the master's epigraph term.

Conventions: rows are kept in their original order, with <= rows flipped to
>= (equalities stay equalities; their duals are free and only contribute
constants to cuts, since no equality row of the scheduling LP touches a
binary column). Finite upper bounds of continuous columns stay variable
bounds; their bound duals enter each cut as a constant term. Both choices
are pinned by the strong-duality identity checked on every priced
subproblem.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from . import backend as be
from .domain import (Instance, SolveConfig, Solution, empty_solution,
                     reach_windows)
from .model import (VarMap, _Keys, _row_family, _stacked, build_model,
                    build_pla_grid, decode_solution, solve_pla)

__all__ = [
    "BendersSplit",
    "Cut",
    "split_model",
    "solve_subproblem_dual",
    "build_rmp",
    "extra_feasibility_cuts",
    "run_benders",
]

_DUALITY_TOL = 1e-4
_RMP_GAP = 0.005        # relative MIP gap of every master solve
_RMP_SECONDS = 300.0    # cap on one solve: warm start, LP round or master
_SMALL_COEF = 1e-9      # HiGHS drops matrix entries this small


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------

@dataclass
class BendersSplit:
    """Row/column partition of the built MILP.

    ``A`` holds the continuous-column coefficients and ``Dm`` the binary-
    column coefficients of every original row (same order, <= rows negated);
    ``Au + Dm v {>=,=} b`` reproduces the original feasible set. Rows whose
    continuous part is empty form the master-only set V. ``DmT`` is ``Dm``
    transposed, kept as CSR for pricing's ``multipliers^T Dm``.
    """

    n_v: int
    n_u: int
    A: sp.csr_matrix
    Dm: sp.csr_matrix
    DmT: sp.csr_matrix
    b: np.ndarray
    senses: np.ndarray          # ">=" or "=" per row
    c_u: np.ndarray
    c_v: np.ndarray
    u_ub: np.ndarray            # the continuous columns' lower bounds are 0
    offset: float
    v_only: np.ndarray          # bool mask: rows for the master (set V)
    vm: Optional[VarMap] = None
    # HiGHS sessions of the scheduling LP ("lp") and its Farkas LP
    # ("farkas"), made by the first pricing that needs them
    sessions: Dict[str, object] = field(default_factory=dict, repr=False)


def split_model(model: be.AbstractModel,
                vm: Optional[VarMap] = None) -> BendersSplit:
    """Partition a built model into binary (v) and continuous (u) blocks."""
    c, lb, ub, integrality, A_all, senses, rhs = model.arrays()
    n_v = int(integrality.sum())
    if not np.all(integrality[:n_v] == 1) or np.any(integrality[n_v:] == 1):
        raise be.BackendError(
            "binary columns must form a contiguous leading block")
    if np.any(lb[n_v:] != 0.0):
        raise be.BackendError("continuous columns must have zero lower bounds")

    flip = np.where(senses == be.LE, -1.0, 1.0)
    A_norm = sp.diags(flip) @ A_all
    A = A_norm[:, n_v:].tocsr()

    # NOTE: no equality row with a continuous entry has a binary one (tests
    # pin it on the worked example), so the free duals of equalities never
    # reach a cut's coefficients; the ray program doubles equalities into
    # +/- pairs.
    Dm = A_norm[:, :n_v].tocsr()
    return BendersSplit(
        n_v=n_v, n_u=model.n_cols - n_v, A=A, Dm=Dm, DmT=Dm.T.tocsr(),
        b=rhs * flip, senses=np.where(senses == be.EQ, be.EQ, be.GE),
        c_u=c[n_v:].copy(), c_v=c[:n_v].copy(), u_ub=ub[n_v:].copy(),
        offset=model.objective_offset,
        v_only=np.asarray(A.getnnz(axis=1) == 0), vm=vm,
    )


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

class NoCertificateError(be.CapabilityError):
    """The scheduling LP is infeasible at a proposal, but its Farkas LP
    finds no ray that proves it by more than the ray tolerance."""


@dataclass
class Cut:
    """One Benders cut over the master's binary columns ``v``.

    A dual point of a feasible subproblem yields the optimality cut
    ``w + coef·v >= rhs`` with ``rhs = pi^T b + sigma^T ub``, and ``value``
    is the subproblem optimum at the priced v̂. An infeasibility ray yields
    the feasibility cut ``coef·v >= rhs`` (no epigraph term) with ``rhs =
    rho^T b - sigma^T ub``, and ``value`` is how far v̂ falls short.
    """

    coef: np.ndarray            # multipliers^T Dm over v, 1e-9 noise zeroed
    rhs: float
    value: float


def _is_new(seen: Set[bytes], kind: str, cut: Cut) -> bool:
    """Record ``cut`` in ``seen`` unless a cut of the same kind with the
    same coefficients and rhs (to 9 decimals) is there already."""
    key = kind.encode() + np.round(np.append(cut.coef, cut.rhs), 9).tobytes()
    if key in seen:
        return False
    seen.add(key)
    return True


def _cut_coef(split: BendersSplit, multipliers: np.ndarray) -> np.ndarray:
    """``multipliers^T Dm`` with every entry of size at most 1e-9 zeroed.

    HiGHS drops such entries from the rows it is given (its
    ``small_matrix_value``), so zeroing them here keeps the master's row
    equal to the recorded cut. Cuts priced at fractional proposals carry
    entries of about 1e-14.
    """
    coef = np.asarray((split.DmT @ multipliers).ravel())
    coef[np.abs(coef) <= _SMALL_COEF] = 0.0
    return coef


def _bound_constant(split: BendersSplit, sigma: np.ndarray) -> float:
    """sigma^T ub over finite upper bounds (sigma vanishes on infinite ones)."""
    finite = np.isfinite(split.u_ub)
    loose = np.abs(sigma[~finite])
    if loose.size and loose.max() > 1e-7:
        raise be.BackendError(
            "nonzero bound dual on an unbounded column: "
            f"{float(loose.max()):.2e}")
    return float(sigma[finite] @ split.u_ub[finite])


def solve_subproblem_dual(split: BendersSplit, v_hat: np.ndarray):
    """Price a master assignment: an optimality :class:`Cut` from a dual
    point if the scheduling LP is feasible, a feasibility cut from a Farkas
    ray otherwise.

    Also returns the primal continuous solution so the caller can assemble
    a full incumbent. Return shape: (kind, cut, u or None) with kind in
    {"point", "ray"}; ``cut.value`` is the subproblem optimum for a point
    and the ray's violation for a ray. The scheduling LP and its Farkas LP
    each stay in one HiGHS session on ``split.sessions``: a later proposal
    moves only the scheduling LP's right-hand sides that changed and runs
    it cold, and moves only the Farkas LP's costs.
    """
    rows = ~split.v_only
    rhs = (split.b - split.Dm @ np.asarray(v_hat, dtype=float))[rows]
    lp = split.sessions.get("lp")
    if lp is None:
        lp = split.sessions["lp"] = be.Session(
            split.c_u, split.A[rows], split.senses[rows], rhs,
            np.zeros(split.n_u), split.u_ub)
    else:
        # A degenerate LP has many optimal duals, and a warm run picks one
        # by history; every proposal is priced cold so its cut does not
        # depend on what was priced before.
        lp.set_rhs(rhs)
        lp.clear()
    out = lp.run()

    if out.status == "optimal":
        pi = np.zeros(len(split.b))
        pi[rows] = out.duals
        const = _bound_constant(split, out.bound_duals)
        dual_value = float(out.duals @ rhs) + const
        if abs(dual_value - out.objective) > \
                _DUALITY_TOL * max(1.0, abs(out.objective)):
            raise be.BackendError(
                f"strong duality violated: dual {dual_value!r} vs primal "
                f"{out.objective!r}")
        return "point", Cut(
            coef=_cut_coef(split, pi),
            rhs=float(pi @ split.b) + const,
            value=out.objective), out.primal

    if out.status == "infeasible":
        farkas = split.sessions.get("farkas")
        if farkas is None:
            farkas = split.sessions["farkas"] = be.FarkasLP(
                split.A[rows], split.senses[rows], split.u_ub)
        ray = farkas.ray(rhs)
        if ray is None:
            raise NoCertificateError(
                "no infeasibility certificate found for the scheduling LP")
        # The ray proves rho^T (b - Dm v) - sigma^T ub > 0 at v_hat, so every
        # schedulable v has rho^T Dm v >= rho^T b - sigma^T ub.
        rho = np.zeros(len(split.b))
        rho[rows] = ray.rows
        return "ray", Cut(
            coef=_cut_coef(split, rho),
            rhs=float(rho @ split.b) - _bound_constant(split, ray.upper),
            value=ray.violation), None

    raise be.CapabilityError(
        f"scheduling LP returned neither optimum nor certificate "
        f"(status {out.status}: {out.message})")


# ---------------------------------------------------------------------------
# Static cuts from battery-order logic
# ---------------------------------------------------------------------------

def extra_feasibility_cuts(instance: Instance, vm: VarMap,
                           config: Optional[SolveConfig] = None
                           ) -> be.RowBlock:
    """Master-only rows ruling out battery assignments no schedule can serve.

    All rows involve only binary columns, so they can sit in the master from
    iteration one. Families (one per comment) follow the drain-order logic:
    batteries empty front-to-back, consists without a battery (Y=0) get a
    slack term because their nonempty flag is unconstrained from above.
    The reach family, ``xc_reach_<train>_<a>_<b>``, reaches over several
    legs: ``sum Zc + Zs >= 1`` over the slots strictly between stations a
    and b, for each minimal window whose adjacent legs need more than the
    train's full load (:func:`~railvolt.domain.reach_windows`); a single
    leg past the load has no station inside it and gives no row. The last
    family, ``xc_soc_ceiling_<i>_<train>`` and ``xc_soc_floor_<i>_<train>``
    per interior station i, bounds the SOC intervals the train's arrivals
    at i pick (the beta selectors, weighted by the breakpoints of
    :func:`~railvolt.model.build_pla_grid`) by the leg e before i: their
    lower ends sum to at most ``sum Y - e``, their upper ends to at least
    ``sum Zs - e`` over the swaps at i - 1 (``sum Y - e`` after the
    origin).
    Each family is one array block over ``vm``'s index grids, with every
    non-vacuous index combination in C order; a ragged prefix or suffix of
    a train's consists is padded with -1. The rows come back as one
    :class:`backend.RowBlock`, checked by :func:`backend.checked_rows`
    against the ``vm.n_binary`` binary columns, so a cut on a continuous
    column is refused.
    """
    cfg = config or SolveConfig()
    M = cfg.big_M
    X, Y, Zc, Zs, B, beta = vm.X, vm.Y, vm.Zc, vm.Zs, vm.B, vm.beta
    lead = np.arange(B.shape[2])  # consist positions
    GE, LE = be.GE, be.LE

    def cell(keys):
        """Each (station, train, consist) key's parts, its B and Y columns,
        the mask of the consists behind it, how many of those its train
        has, and the next consist (clipped to the grid where there is
        none)."""
        i, j, k = keys.at.T
        behind = lead > k[:, None]
        after = (behind & (Y[j] >= 0)).sum(axis=1)
        return (i, j, k, B[i, j, k], Y[j, k], behind, after,
                np.minimum(k + 1, lead[-1]))

    # empties are contiguous from the front, carried batteries behind a
    # nonempty one are nonempty, and so is the next one
    cells = _Keys(B >= 0)
    i, j, k, b, y, behind, after, nxt = cell(cells)
    families = [_row_family(cells, [
        ("xc_front_empty%s", [(np.where(lead < k[:, None], B[i, j], -1), 1.0),
                              (b, -k[:, None]), (y, k[:, None])], LE, k),
        ("xc_back_nonempty%s", [(np.where(behind, B[i, j], -1), 1.0),
                                (b, -after[:, None]),
                                (np.where(behind, Y[j], -1), -1.0)],
         GE, -after),
        ("xc_adjacent%s", [(B[i, j, nxt], 1.0), (b, -1.0), (Y[j, nxt], -1.0)],
         GE, -1.0)],
        mask=np.column_stack([k > 0, after > 0, after > 0]))]

    # arriving with too little potential energy forces a deployment / an
    # action before the next leg (linear and expanded-product variants)
    legs = _Keys(np.ones((B.shape[0] - 1, B.shape[1]), bool))
    i, j = legs.at.T
    e = instance.energy[j, i, i + 1]
    deploy, action = [(X[i], M)], [(Zc[i, j], M), (Zs[i, j], M)]
    linear, product = [(B[i, j], 1.0)], [(B[i, j], e[:, None])]
    families.append(_row_family(legs, [
        ("xc_deploy_linear%s", deploy + linear, GE, e),
        ("xc_deploy_product%s", deploy + product, GE, e),
        ("xc_action_linear%s", action + linear, GE, e),
        ("xc_action_product%s", action + product, GE, e)]))

    # a loaded consist leaves the origin full (the converse direction is not
    # model-implied: an unloaded consist's flag is free, so it is dropped)
    loads = Y >= 0
    families.append(_row_family(_Keys(loads), [
        ("xc_origin_loaded%s", [(B[0][loads], 1.0), (Y[loads], -1.0)],
         GE, 0.0)]))

    # SOC-interval selectors must sit in the bottom/top interval when
    # the nonempty flags say empty/full
    slots = _Keys(Zc >= 0)
    i, j, k, b, y, behind, after, nxt = cell(slots)
    bottom, top = beta[i, j, :, 0], beta[i, j, :, -1]
    every = np.ones(len(slots), bool)
    families.append(_row_family(slots, [
        ("xc_cell_bottom_prefix%s", [(np.where(behind, -1, bottom), 1.0),
                                     (b, k[:, None] + 1),
                                     (y, -k[:, None] - 1)], GE, 0.0),
        ("xc_cell_bottom%s", [(beta[i, j, k, 0], 1.0), (b, 1.0)], GE, 1.0),
        ("xc_cell_top_suffix%s", [(np.where(behind, top, -1), 1.0),
                                  (b, -after[:, None]),
                                  (np.where(behind, Y[j], -1), -1.0)],
         GE, -after),
        ("xc_cell_top%s", [(beta[i, j, nxt, -1], 1.0), (b, -1.0),
                           (Y[j, nxt], -1.0)], GE, -1.0)],
        mask=np.column_stack([every, every, after > 0, after > 0])))

    # a run of stations a..b whose legs need E > full_load holds a charge or
    # swap, one row per window of domain.reach_windows (the definition
    # solve_pla's fixed-deployment check shares) with a station inside:
    #  1. a train leaves a with at most full_load SOC (Sdep <= 1,
    #     no_battery_no_soc, carry_cap);
    #  2. each slot inside adds at most Zc + Zs (hold_soc, swap_xor_charge);
    #  3. SOC >= 0 and power_balance over consists give sum (Zc + Zs) >=
    #     E - full_load > 0, so every integer point meets the row.
    families.append(_row_family(*_reach_windows(instance, Zc, Zs)))

    # the SOC interval a train's arrival at interior station i picks must
    # fit the leg e = energy[j, i-1, i] before it, summed over consists:
    #  1. power_balance gives sum Sarr_i = sum Sdep_{i-1} - e;
    #  2. Sdep <= 1 and no_battery_no_soc give sum Sdep_{i-1} <= sum Y, and
    #     swap_full gives Sdep_{i-1} >= Zs_{i-1} (at the origin,
    #     origin_full_arr and stop_no_drain give Sdep_0 >= Y);
    #  3. the charge-clock block puts Sarr in [s_u, s_{u+1}] when beta_u = 1,
    #     so every integer point meets the ceiling sum s_u beta - sum Y <= -e
    #     and the floor sum s_{u+1} beta - sum Zs_{i-1} (or Y) >= -e.
    s = build_pla_grid(cfg.n, cfg.t_max, instance.r0).s
    stops = _Keys(np.broadcast_to((X >= 0)[:, None], B.shape[:2]))
    i, j = stops.at.T
    picks = beta[i, j].reshape(len(stops), -1)
    full = np.where((i == 1)[:, None], Y[j], Zs[i - 1, j])
    e = instance.energy[j, i - 1, i]
    families.append(_row_family(stops, [
        ("xc_soc_ceiling%s", [(picks, np.tile(s[:-1], len(lead))),
                              (Y[j], -1.0)], LE, -e),
        ("xc_soc_floor%s", [(picks, np.tile(s[1:], len(lead))),
                            (full, -1.0)], GE, -e)]))
    return be.checked_rows(*_stacked(families), n_cols=vm.n_binary)


def _reach_windows(instance: Instance, Zc: np.ndarray, Zs: np.ndarray):
    """The keys and the ``xc_reach`` kind of the reach family: the windows
    of :func:`~railvolt.domain.reach_windows` with b >= a + 2, as (train,
    a, b) keys in C order, each holding the Zc and Zs columns strictly
    inside it (a single leg has no station inside and gives no row)."""
    j, a, b = reach_windows(instance).T
    windows = np.zeros((instance.n_trains,) + (instance.n_stations,) * 2,
                       bool)
    windows[j, a, b] = b >= a + 2
    keys = _Keys(windows)
    j, a, b = keys.at.T
    stations = a[:, None] + 1 + np.arange(int(np.max(b - a - 1, initial=0)))
    # station 0 has no operation columns, so it pads a window's outside
    stations = np.where(stations < b[:, None], stations, 0)
    inside = [(grid[stations, j[:, None]].reshape(
        len(keys), stations.shape[1] * grid.shape[2]), 1.0)
        for grid in (Zc, Zs)]
    return keys, [("xc_reach%s", inside, be.GE, 1.0)]


# ---------------------------------------------------------------------------
# Master problem
# ---------------------------------------------------------------------------

def build_rmp(split: BendersSplit, static: be.RowBlock,
              floor: float = -np.inf):
    """Master arrays over (v, w) before any cut: deployment costs plus the
    epigraph ``w`` of the continuous cost, under the v-only original rows
    and the ``static`` cuts (see :func:`extra_feasibility_cuts`).

    Returns ``(c, A, senses, rhs, lb, ub, integrality)`` for a
    :class:`backend.Session`. ``w`` is the last column, floored at the
    larger of ``floor`` (a known lower bound on the continuous cost of
    every servable v, as :func:`run_benders` takes from its warm start)
    and the least value the continuous cost can take (the sum of min(0,
    c_u) times u's upper bound: 0, since the only continuous costs are the
    delay weights on D >= 0); the rows are ``Dm[v_only]`` and then the
    static cuts, whose block's CSR arrays are stacked as they are (the
    block was checked against the binary columns when it was made). ``A`` is
    canonical CSR without stored zeros.
    :func:`run_benders` appends each cut to the live master.
    """
    n = split.n_v + 1
    master = split.Dm[split.v_only]
    A = sp.vstack([
        sp.csr_matrix((master.data, master.indices, master.indptr),
                      shape=(master.shape[0], n)),
        sp.csr_matrix((static.values, static.indices, static.indptr),
                      shape=(len(static), n))], format="csr")
    A.eliminate_zeros()
    A.sum_duplicates()
    senses = np.concatenate([split.senses[split.v_only], static.senses])
    rhs = np.concatenate([split.b[split.v_only], static.rhs])
    neg = split.c_u < 0
    lb = np.append(np.zeros(split.n_v),
                   max(floor, split.c_u[neg] @ split.u_ub[neg]))
    ub = np.append(np.ones(split.n_v), np.inf)
    integrality = np.append(np.ones(split.n_v, int), 0)
    return (np.append(split.c_v, 1.0), A, senses, rhs, lb, ub, integrality)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def _gap(ub: float, lb: float) -> float:
    if not np.isfinite(ub) or not np.isfinite(lb):
        return np.inf
    return (ub - lb) / max(abs(ub), 1e-9)


def _warm_start(instance: Instance, config: SolveConfig,
                model: be.AbstractModel, vm: VarMap,
                split: BendersSplit) -> Tuple[Solution, float]:
    """Solve the warm start on ``model`` (built for ``instance`` and split
    into ``split``) within ``config``'s time limit: every station open,
    every train fully loaded, and ``deploy_is_used`` void, so an open
    station need not be used. Returns the
    :func:`~railvolt.model.solve_pla` result and the floor it proves on
    Q(v), the least continuous cost of any deployment v the scheduling LP
    can serve (-inf when the solve returns no bound).
    """
    # The warm start relaxes every deployment once its deploy_is_used rows
    # read ops - X >= -1 (void; split has copied the rows, so the master
    # and the scheduling LP keep theirs). Take an integer v the scheduling
    # LP can serve and its schedule u:
    #  1. X = 1 voids ops_need_deploy, and no other row of the model holds X;
    #  2. a full load keeps u feasible: each consist v leaves empty gets a
    #     full battery that it carries untouched (B = 1, Sarr = Sdep = 1, no
    #     operation, beta in the top interval), which adds the same amount
    #     to both sides of power_balance and meets the drain order behind
    #     the batteries in use;
    #  3. so u, with that load, is a warm-start point of the same delay
    #     cost, and the warm start's dual bound, less the objective offset
    #     and every station's fixed cost, is at most Q(v).
    # This holds also when the warm start stops at its time limit, and a
    # warm start that proves infeasibility proves that no deployment has a
    # schedule.
    used = [r for r, rid in enumerate(model.row_ids)
            if rid.startswith("deploy_is_used_")]
    model.set_rhs(used, -1.0)
    warm = solve_pla(instance, config,
                     fixed_deployment=list(instance.interior),
                     keep_primal=True, built=(model, vm))
    if warm.bound is None:
        return warm, -np.inf
    return warm, (warm.bound - split.offset
                  - float(split.c_v[vm.X[vm.X >= 0]].sum()))


def run_benders(instance: Instance,
                config: Optional[SolveConfig] = None) -> Solution:
    """Iterate master assignments against the scheduling subproblem until
    the bound gap closes.

    Every solve (the warm start, each LP round and each master) runs for
    one time slice: the remaining budget, but at least 1 s and at most
    300 s.

    The MILP is built once per call: :func:`split_model` splits it, and
    the warm start solves it.

    Warm start: deploy everything, load every battery slot, make the
    ``deploy_is_used`` rows void in the built model (after the split, so
    the master keeps them), and solve that schedule MILP to ``mip_gap``.
    It is then a relaxation of every deployment (see :func:`_warm_start`):
    when it is infeasible, no deployment has a schedule; otherwise its dual
    bound, less the objective offset and every station's fixed cost, is a
    lower bound on the delay cost of every deployment. That number floors
    the master's ``w`` (0 when the warm start returns no bound), and
    ``info["delay_floor"]`` records the floor ``w`` got. Its incumbent is
    priced for the first cut and seeds the upper bound.

    LP phase (McDaniel & Devine's two-phase scheme): with the master's
    binaries relaxed in place, each round solves its LP relaxation (warm
    simplex) and prices the fractional proposal for its cut only. The phase
    stops at the first point cut whose LP objective does not improve on
    the best LP objective so far, at a cut the master already has, at an LP
    run that does not end optimal, at a proposal whose infeasibility the
    Farkas LP cannot certify, or at the time limit; then integrality is
    restored. A fractional proposal never sets the incumbent or the upper
    bound, and the LP bound never stops the loop. ``info`` records
    ``lp_rounds`` (LP proposals priced) and ``lp_stop`` ("no-progress",
    "repeat", "status", "certificate" or "time").

    Each integer round then solves the master to a 0.5 % MIP gap, raises
    the lower bound to the master's bound, prices the proposal while
    (UB-LB)/UB > benders_gap (a cut and possibly a better incumbent), and
    logs one entry. The loop stops once the gap is closed, when a proposal
    prices to a cut the master already has, when the Farkas LP cannot
    certify an infeasible proposal, or at the time limit;
    ``info["termination"]`` says which ("optimal", "stalled",
    "certificate" or "feasible-limit"). Every stop but "optimal" returns
    the incumbent as ``feasible-time-limit``, or
    ``time-limit-no-incumbent`` without one. ``iterations`` and
    ``benders_log`` count these rounds only. A lower bound past the
    incumbent is rounding noise and is clamped to it, so the reported gap
    is never negative.

    HiGHS keeps its models for the whole call and no longer: the master is
    built once by :func:`build_rmp`, before the warm start is priced, and
    stays in one session, which is the only store of the cuts. Pricing a
    proposal is the one place a cut joins it: each cut not seen before (same
    kind, coefficients and rhs to 9 decimals) is appended in arrival order,
    ``coef·v + w >= rhs`` for a point and ``coef·v >= rhs`` for a ray.
    Before each solve the master gets a MIP start at the incumbent v* with
    w = max over the optimality cuts of (rhs - coef·v*), and at least
    ``w``'s floor. Pricing keeps the scheduling LP and its Farkas LP in
    two sessions of their own (see
    :func:`solve_subproblem_dual`). ``info`` reports the cut counts and the
    bound log; to audit the cuts, read the master's rows back from its
    session.
    """
    cfg = config or SolveConfig()
    started = time.perf_counter()

    model, vm = build_model(instance, cfg)
    split = split_model(model, vm)
    static = extra_feasibility_cuts(instance, vm, cfg)

    def elapsed() -> float:
        return time.perf_counter() - started

    def remaining() -> float:
        return cfg.time_limit_seconds - elapsed()

    def time_slice() -> float:
        """The limit of the next solve: the rest of the budget, at least
        1 s and at most the cap on one solve."""
        return min(_RMP_SECONDS, max(1.0, remaining()))

    # -- warm start ---------------------------------------------------------
    warm, floor = _warm_start(instance,
                              cfg.replace(time_limit_seconds=time_slice()),
                              model, vm, split)
    if warm.status == "infeasible":
        # a relaxation of every deployment has no schedule: none has one
        return empty_solution(instance, "infeasible", "bd", elapsed(),
                              {"phase": "warm-start"})

    rmp = build_rmp(split, static, floor)
    floor = float(rmp[4][-1])  # the lower bound w got
    master = be.Session(*rmp, offset=split.offset, seed=cfg.seed)
    seen: Set[bytes] = set()
    optimality: List[Cut] = []  # for the MIP start's w
    upper_bound, lower_bound = np.inf, -np.inf
    log: List[dict] = []
    best_primal: Optional[np.ndarray] = None

    def price(v: np.ndarray, integral: bool = True) -> Tuple[str, bool]:
        """Price proposal ``v``, append its cut to the master if it is new,
        and keep an ``integral`` ``v`` as the incumbent if it schedules more
        cheaply; returns the kind of cut and whether it was new."""
        nonlocal best_primal, upper_bound, lower_bound
        kind, cut, u = solve_subproblem_dual(split, v)
        point = kind == "point"
        if point and integral:
            obj = float(split.c_v @ v) + cut.value + split.offset
            if obj < upper_bound - 1e-12:
                upper_bound = obj
                # a lower bound past the incumbent is rounding noise
                lower_bound = min(lower_bound, obj)
                best_primal = np.concatenate([v, u])
        fresh = _is_new(seen, kind, cut)
        if fresh:
            if point:
                optimality.append(cut)
            # w has coefficient 1 in the optimality cuts only
            master.add_rows(sp.csr_matrix(np.append(cut.coef, float(point))),
                            [be.GE], [cut.rhs])
        return ("optimality" if point else "feasibility"), fresh

    # The warm incumbent came from the full model, so it prices to a point;
    # a ray would still be a valid cut.
    if np.isfinite(warm.objective_value):
        price(np.round(np.asarray(warm.info["primal"])[:split.n_v]))

    # -- LP phase: cut the master's LP relaxation ---------------------------
    binaries = np.arange(split.n_v)
    master.set_integrality(binaries, False)
    lp_rounds, lp_stop, best_lp = 0, "time", -np.inf
    while remaining() > 0:
        relaxed = master.run(seconds=time_slice())
        if relaxed.status != "optimal":
            lp_stop = "status"
            break
        try:
            kind, fresh = price(relaxed.primal[:split.n_v], integral=False)
        except NoCertificateError:
            lp_stop = "certificate"
            break
        lp_rounds += 1
        if not fresh:
            lp_stop = "repeat"
            break
        if kind == "optimality" and relaxed.objective <= best_lp:
            lp_stop = "no-progress"
            break
        best_lp = max(best_lp, relaxed.objective)
    master.set_integrality(binaries, True)
    lp = {"lp_rounds": lp_rounds, "lp_stop": lp_stop}

    status = "feasible-limit"
    for it in itertools.count(1):
        if remaining() <= 0:
            break
        if best_primal is not None:
            v_star = best_primal[:split.n_v]
            w = max(cut.rhs - cut.coef @ v_star for cut in optimality)
            # HiGHS refuses a start below a column's bound, and the cuts
            # can put w a rounding error under its floor
            master.set_start(np.append(v_star, max(w, floor)))
        outcome = master.run(gap=_RMP_GAP, seconds=time_slice())
        if outcome.status == "infeasible":
            return empty_solution(instance, "infeasible", "bd", elapsed(),
                                  {"phase": f"master-{it}",
                                   "benders_log": log, **lp})
        if outcome.status not in ("optimal", "feasible-limit"):
            raise be.BackendError(
                f"master solve failed at iteration {it}: {outcome.status}")
        lower_bound = min(max(lower_bound, outcome.best_bound), upper_bound)

        kind, stop = None, None
        if _gap(upper_bound, lower_bound) > cfg.benders_gap:
            try:
                kind, fresh = price(np.round(outcome.primal[:split.n_v]))
            except NoCertificateError:
                stop = "certificate"
            else:
                # same cut twice: the master gap tolerance is hiding
                # progress; report what we have rather than loop forever
                stop = None if fresh else "stalled"
        if _gap(upper_bound, lower_bound) <= cfg.benders_gap:
            stop = "optimal"
        log.append({"iteration": it, "lower_bound": lower_bound,
                    "upper_bound": upper_bound, "cut": kind,
                    "master_status": outcome.status,
                    "wall_seconds": elapsed()})
        if stop is not None:
            status = stop
            break

    if best_primal is None:
        return empty_solution(
            instance, "time-limit-no-incumbent", "bd", elapsed(),
            {"benders_log": log, "termination": status, **lp})

    Q, R = len(optimality), len(seen) - len(optimality)
    outcome = be.SolveOutcome(
        status="optimal" if status == "optimal" else "feasible-limit",
        primal=best_primal, objective=upper_bound, best_bound=lower_bound,
        gap=_gap(upper_bound, lower_bound), wall_seconds=elapsed(),
        message=f"decomposition {status}: Q={Q} R={R}")
    solution = decode_solution(outcome, vm, instance, cfg)
    solution.algorithm = "bd"
    solution.info.update({
        "benders_log": log,
        "iterations": len(log),
        "n_optimality_cuts": Q,
        "n_feasibility_cuts": R,
        "n_static_cuts": len(static),
        "termination": status,
        "delay_floor": floor,
        **lp,
    })
    return solution
