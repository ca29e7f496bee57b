"""Decomposition solver: binary master problem plus continuous scheduling LP.

The full MILP separates cleanly: every binary (deployment X, battery loadout
Y, charge/swap actions Z, nonempty flags B, charge-surface cell selectors
beta/tau) goes to a relaxed master problem (RMP); every continuous column
(times, delays, SOC levels, surface weights) goes to a linear subproblem that
prices a candidate master assignment. Subproblem duals feed optimality cuts,
infeasibility certificates feed feasibility cuts, and a family of static
cuts derived from battery-order logic keeps the master from proposing
assignments that cannot carry trains between stations.

Conventions: rows are kept in their original order, with <= rows flipped to
>= (equalities stay equalities; their duals are free and only contribute
constants to cuts, since no equality row touches a binary column). Finite
upper bounds of continuous columns stay variable bounds; their bound duals
enter each cut as a constant term. Both choices are pinned by the
strong-duality identity checked on every priced subproblem.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from . import backend as be
from .domain import Instance, SolveConfig, Solution
from .model import VarMap, build_model, decode_solution, empty_solution, solve_pla

__all__ = [
    "BendersSplit",
    "CutPool",
    "ExtremePoint",
    "ExtremeRay",
    "split_model",
    "solve_subproblem_dual",
    "build_rmp",
    "extra_feasibility_cuts",
    "run_benders",
]

_DUALITY_TOL = 1e-4
_RAY_TOL = 1e-8
_W_FLOOR = -1e7


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------

@dataclass
class BendersSplit:
    """Row/column partition of the built MILP.

    ``A`` holds the continuous-column coefficients and ``Dm`` the binary-
    column coefficients of every original row (same order, <= rows negated);
    ``Au + Dm v {>=,=} b`` reproduces the original feasible set. Rows whose
    continuous part is empty form the master-only set V.
    """

    n_v: int
    n_u: int
    A: sp.csr_matrix
    Dm: sp.csr_matrix
    b: np.ndarray
    senses: np.ndarray          # ">=" or "=" per row
    c_u: np.ndarray
    c_v: np.ndarray
    u_lb: np.ndarray
    u_ub: np.ndarray
    offset: float
    row_ids: List[str]
    v_col_ids: List[str]
    v_only: np.ndarray          # bool mask: rows for the master (set V)
    vm: Optional[VarMap] = None

    @property
    def sp_rows(self) -> np.ndarray:
        return ~self.v_only

    def subproblem_rhs(self, v_hat: np.ndarray) -> np.ndarray:
        return self.b - self.Dm @ v_hat

    def reassemble(self) -> be.AbstractModel:
        """Stitch (Dm|A) back into one model; used to prove the split is
        lossless (it must solve to the same optimum as the original)."""
        m = be.AbstractModel()
        for cid in self.v_col_ids:
            m.add_column(cid, be.BINARY)
        for j in range(self.n_u):
            m.add_column(f"u_{j}", be.CONTINUOUS, lower=float(self.u_lb[j]),
                         upper=float(self.u_ub[j]),
                         objective=float(self.c_u[j]))
        for i, cid in enumerate(self.v_col_ids):
            m.columns[i].objective = float(self.c_v[i])
        m.objective_offset = self.offset
        full = sp.hstack([self.Dm, self.A]).tocsr()
        m.add_rows(self.row_ids, full.indptr, full.indices, full.data,
                   self.senses, self.b)
        return m


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
    b = rhs * flip
    senses_norm = np.where(senses == be.EQ, be.EQ, be.GE)

    A = A_norm[:, n_v:].tocsr()
    Dm = A_norm[:, :n_v].tocsr()
    v_only = np.asarray(A.getnnz(axis=1) == 0)

    # NOTE: equality rows may touch both blocks (the charge-duration
    # interpolation rows do); their duals are free, which the cut algebra
    # w >= pi^T (b - Dm v) tolerates by weak duality, and the ray program
    # doubles them into +/- pairs.
    return BendersSplit(
        n_v=n_v, n_u=model.n_cols - n_v,
        A=A, Dm=Dm, b=b, senses=senses_norm,
        c_u=c[n_v:].copy(), c_v=c[:n_v].copy(),
        u_lb=lb[n_v:].copy(), u_ub=ub[n_v:].copy(),
        offset=model.objective_offset,
        row_ids=list(model.row_ids),
        v_col_ids=[col.id for col in model.columns[:n_v]],
        v_only=v_only, vm=vm,
    )


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

@dataclass
class ExtremePoint:
    """Dual solution of a feasible subproblem: yields w + a·v >= rhs."""

    pi: np.ndarray              # duals per original row (0 on master rows)
    coef: np.ndarray            # a = pi^T Dm over v columns
    rhs: float                  # pi^T b + sigma^T ub
    objective: float            # subproblem optimum at the priced v̂

    def epigraph_value(self, v: np.ndarray) -> float:
        """Lower bound this cut puts on the continuous cost at v."""
        return self.rhs - float(self.coef @ v)


@dataclass
class ExtremeRay:
    """Infeasibility certificate: yields a·v >= rhs (no epigraph term)."""

    rho: np.ndarray
    coef: np.ndarray
    rhs: float
    violation: float

    def slack(self, v: np.ndarray) -> float:
        return float(self.coef @ v) - self.rhs


@dataclass
class CutPool:
    """All cuts accumulated so far plus the bound history."""

    optimality: List[ExtremePoint] = field(default_factory=list)
    feasibility: List[ExtremeRay] = field(default_factory=list)
    static: List[Tuple[str, List[Tuple[int, float]], str, float]] = \
        field(default_factory=list)
    upper_bound: float = np.inf
    lower_bound: float = -np.inf
    log: List[dict] = field(default_factory=list)
    _seen: Set[bytes] = field(default_factory=set)

    @property
    def Q(self) -> int:
        return len(self.optimality)

    @property
    def R(self) -> int:
        return len(self.feasibility)

    def _key(self, coef: np.ndarray, rhs: float) -> bytes:
        return np.round(np.append(coef, rhs), 9).tobytes()

    def add_point(self, cut: ExtremePoint) -> bool:
        key = b"P" + self._key(cut.coef, cut.rhs)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.optimality.append(cut)
        return True

    def add_ray(self, cut: ExtremeRay) -> bool:
        key = b"R" + self._key(cut.coef, cut.rhs)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.feasibility.append(cut)
        return True


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
    """Price a master assignment: ExtremePoint if the scheduling LP is
    feasible, ExtremeRay otherwise.

    Also returns the primal continuous solution so the caller can assemble
    a full incumbent. Return shape: (kind, cut, u or None) with kind in
    {"point", "ray"}.
    """
    rhs = split.subproblem_rhs(np.asarray(v_hat, dtype=float))
    rows = split.sp_rows
    system = (split.A[rows], split.senses[rows], rhs[rows],
              split.u_lb, split.u_ub)
    out = be.solve_lp(split.c_u, *system)

    if out.status == "optimal":
        pi = np.zeros(len(split.b))
        pi[rows] = out.duals
        const = _bound_constant(split, out.bound_duals)
        dual_value = float(pi @ rhs) + const
        if abs(dual_value - out.objective) > \
                _DUALITY_TOL * max(1.0, abs(out.objective)):
            raise be.BackendError(
                f"strong duality violated: dual {dual_value!r} vs primal "
                f"{out.objective!r}")
        cut = ExtremePoint(
            pi=pi,
            coef=np.asarray((split.Dm.T @ pi).ravel()),
            rhs=float(pi @ split.b) + const,
            objective=out.objective,
        )
        return "point", cut, out.primal

    if out.status == "infeasible":
        ray = be.farkas_ray(*system, tol=_RAY_TOL)
        if ray is None:
            raise be.CapabilityError(
                "no infeasibility certificate found for the scheduling LP")
        # The ray proves rho^T (b - Dm v) - sigma^T ub > 0 at v_hat, so every
        # schedulable v has rho^T Dm v >= rho^T b - sigma^T ub.
        rho = np.zeros(len(split.b))
        rho[rows] = ray.rows
        cut = ExtremeRay(
            rho=rho,
            coef=np.asarray((split.Dm.T @ rho).ravel()),
            rhs=float(rho @ split.b) - _bound_constant(split, ray.upper),
            violation=ray.violation,
        )
        return "ray", cut, None

    raise be.CapabilityError(
        f"scheduling LP returned neither optimum nor certificate "
        f"(status {out.status}: {out.message})")


# ---------------------------------------------------------------------------
# Static cuts from battery-order logic
# ---------------------------------------------------------------------------

def extra_feasibility_cuts(instance: Instance, vm: VarMap,
                           config: Optional[SolveConfig] = None
                           ) -> List[Tuple[str, List[Tuple[int, float]], str, float]]:
    """Master-only rows ruling out battery assignments no schedule can serve.

    All rows involve only binary columns, so they can sit in the master from
    iteration one. Families (one per comment) follow the drain-order logic:
    batteries empty front-to-back, consists without a battery (Y=0) get a
    slack term because their nonempty flag is unconstrained from above.
    Emits every non-vacuous index combination; entries reference original
    model column indices.
    """
    cfg = config or SolveConfig()
    M = cfg.big_M
    cuts: List[Tuple[str, List[Tuple[int, float]], str, float]] = []
    S = instance.n_stations
    J = range(instance.n_trains)
    top = vm.grid.n - 1

    for i in range(S):
        for j in J:
            K = instance.consists(j)
            for k in range(K):
                # empties are contiguous from the front
                if k >= 1:
                    ent = [(vm.B[i, j, kk], 1.0) for kk in range(k)]
                    ent += [(vm.B[i, j, k], -float(k)),
                            (vm.Y[j, k], float(k))]
                    cuts.append((f"xc_front_empty_{i}_{j}_{k}", ent,
                                 be.LE, float(k)))
                # carried batteries behind a nonempty one are nonempty
                if k < K - 1:
                    ent = [(vm.B[i, j, kk], 1.0) for kk in range(k + 1, K)]
                    ent += [(vm.B[i, j, k], -float(K - 1 - k))]
                    ent += [(vm.Y[j, kk], -1.0) for kk in range(k + 1, K)]
                    cuts.append((f"xc_back_nonempty_{i}_{j}_{k}", ent,
                                 be.GE, float(-(K - 1 - k))))
                    cuts.append((
                        f"xc_adjacent_{i}_{j}_{k}",
                        [(vm.B[i, j, k + 1], 1.0), (vm.B[i, j, k], -1.0),
                         (vm.Y[j, k + 1], -1.0)],
                        be.GE, -1.0))

    # arriving with too little potential energy forces a deployment / an
    # action before the next leg (linear and expanded-product variants)
    for i in range(S - 1):
        for j in J:
            K = instance.consists(j)
            e = instance.leg_energy(j, i)
            bsum = [(vm.B[i, j, k], 1.0) for k in range(K)]
            x_ent = [(vm.X[i], M)] if i in vm.X else []
            cuts.append((f"xc_deploy_linear_{i}_{j}", x_ent + bsum, be.GE, e))
            cuts.append((f"xc_deploy_product_{i}_{j}",
                         x_ent + [(vm.B[i, j, k], e) for k in range(K)],
                         be.GE, e))
            z_ent = [(vm.Zc[i, j, k], M) for k in range(K) if (i, j, k) in vm.Zc]
            z_ent += [(vm.Zs[i, j, k], M) for k in range(K) if (i, j, k) in vm.Zs]
            cuts.append((f"xc_action_linear_{i}_{j}", z_ent + bsum, be.GE, e))
            cuts.append((f"xc_action_product_{i}_{j}",
                         z_ent + [(vm.B[i, j, k], e) for k in range(K)],
                         be.GE, e))

    # a loaded consist leaves the origin full (the converse direction is not
    # model-implied: an unloaded consist's flag is free, so it is dropped)
    for j in J:
        for k in range(instance.consists(j)):
            cuts.append((f"xc_origin_loaded_{j}_{k}",
                         [(vm.B[0, j, k], 1.0), (vm.Y[j, k], -1.0)],
                         be.GE, 0.0))

    # surface-cell selectors must sit in the bottom/top SOC interval when
    # the nonempty flags say empty/full
    for i in instance.interior:
        for j in J:
            K = instance.consists(j)
            for k in range(K):
                ent = [(vm.beta[i, j, kk, 0], 1.0) for kk in range(k + 1)]
                ent += [(vm.B[i, j, k], float(k + 1)),
                        (vm.Y[j, k], -float(k + 1))]
                cuts.append((f"xc_cell_bottom_prefix_{i}_{j}_{k}", ent,
                             be.GE, 0.0))
                cuts.append((f"xc_cell_bottom_{i}_{j}_{k}",
                             [(vm.beta[i, j, k, 0], 1.0),
                              (vm.B[i, j, k], 1.0)],
                             be.GE, 1.0))
                if k < K - 1:
                    ent = [(vm.beta[i, j, kk, top], 1.0)
                           for kk in range(k + 1, K)]
                    ent += [(vm.B[i, j, k], -float(K - 1 - k))]
                    ent += [(vm.Y[j, kk], -1.0) for kk in range(k + 1, K)]
                    cuts.append((f"xc_cell_top_suffix_{i}_{j}_{k}", ent,
                                 be.GE, float(-(K - 1 - k))))
                    cuts.append((
                        f"xc_cell_top_{i}_{j}_{k}",
                        [(vm.beta[i, j, k + 1, top], 1.0),
                         (vm.B[i, j, k], -1.0), (vm.Y[j, k + 1], -1.0)],
                        be.GE, -1.0))
    return cuts


# ---------------------------------------------------------------------------
# Master problem
# ---------------------------------------------------------------------------

def build_rmp(split: BendersSplit, pool: CutPool,
              config: SolveConfig) -> be.AbstractModel:
    """Master model over (v, w): deployment costs plus the epigraph of the
    continuous cost, under the v-only original rows and every cut."""
    m = be.AbstractModel()
    for cid, cost in zip(split.v_col_ids, split.c_v):
        m.add_column(cid, be.BINARY, objective=float(cost))
    w_lower = _W_FLOOR if pool.Q == 0 else -np.inf
    w_idx = m.add_column("w", be.CONTINUOUS, lower=w_lower, objective=1.0)
    m.objective_offset = split.offset

    v_only = split.v_only
    master = split.Dm[v_only]
    m.add_rows([split.row_ids[r] for r in np.flatnonzero(v_only)],
               master.indptr, master.indices, master.data,
               split.senses[v_only], split.b[v_only])
    for rid, entries, sense, rhs in pool.static:
        m.add_row(rid, entries, sense, rhs)
    _add_cut_rows(m, "opt_cut", pool.optimality, w_idx)
    _add_cut_rows(m, "feas_cut", pool.feasibility, None)
    return m


def _add_cut_rows(m: be.AbstractModel, prefix: str, cuts, w_idx) -> None:
    """One ``>=`` row per cut over all v columns (zeros drop out), followed
    by ``w`` with coefficient 1 when ``w_idx`` is given."""
    if not cuts:
        return
    coef = np.vstack([cut.coef for cut in cuts])
    columns = np.arange(coef.shape[1])
    if w_idx is not None:
        coef = np.column_stack([coef, np.ones(len(cuts))])
        columns = np.append(columns, w_idx)
    width = len(columns)
    m.add_rows([f"{prefix}_{q}" for q in range(len(cuts))],
               np.arange(0, len(cuts) * width + 1, width),
               np.tile(columns, len(cuts)), coef.ravel(), be.GE,
               [cut.rhs for cut in cuts])


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def _gap(ub: float, lb: float) -> float:
    if not np.isfinite(ub) or not np.isfinite(lb):
        return np.inf
    return (ub - lb) / max(abs(ub), 1e-9)


def run_benders(instance: Instance, config: Optional[SolveConfig] = None,
                keep_pool: bool = False) -> Solution:
    """Iterate master assignments against the scheduling subproblem until
    the bound gap closes.

    Warm start: deploy everything, load every battery slot, and solve that
    schedule MILP to ``mip_gap`` for up to min(rmp_time_limit_seconds, the
    remaining budget but at least 1 s); its priced subproblem seeds the pool
    with one dual point and its incumbent seeds the upper bound. Each round
    then solves the master (lower bound), prices its proposal (cut and
    possibly a better incumbent), and stops once (UB-LB)/UB <= benders_gap,
    on a stalled pool, or at the time limit.

    ``keep_pool`` stashes the live CutPool in ``info["cut_pool"]`` so
    callers can audit the cuts; the result is then not JSON-serializable.
    """
    cfg = config or SolveConfig()
    started = time.perf_counter()

    model, vm = build_model(instance, cfg)
    split = split_model(model, vm)
    pool = CutPool()
    pool.static = extra_feasibility_cuts(instance, vm, cfg)

    def elapsed() -> float:
        return time.perf_counter() - started

    def remaining() -> float:
        return cfg.time_limit_seconds - elapsed()

    # -- warm start ---------------------------------------------------------
    warm_cfg = cfg.replace(time_limit_seconds=min(cfg.rmp_time_limit_seconds,
                                                  max(1.0, remaining())))
    warm = solve_pla(instance, warm_cfg,
                     fixed_deployment=list(instance.interior),
                     max_loading=True, keep_primal=True)
    if warm.status == "infeasible":
        # every resource maxed out and still no schedule: nothing can work
        return empty_solution(instance, "infeasible", "bd", elapsed(),
                              {"phase": "warm-start"})

    best_primal: Optional[np.ndarray] = None
    if np.isfinite(warm.objective_value) and "primal" in warm.info:
        v_warm = np.round(np.asarray(warm.info["primal"])[:split.n_v])
        kind, cut, u_warm = solve_subproblem_dual(split, v_warm)
        if kind == "point":
            pool.add_point(cut)
            obj = float(split.c_v @ v_warm) + cut.objective + split.offset
            pool.upper_bound = obj
            best_primal = np.concatenate([v_warm, u_warm])
        # an infeasible warm incumbent cannot happen (it came from the full
        # model), but a ray would still be a valid cut
        elif kind == "ray":
            pool.add_ray(cut)

    status = "feasible-limit"
    for it in range(1, cfg.benders_max_iterations + 1):
        if remaining() <= 0:
            break
        rmp = build_rmp(split, pool, cfg)
        outcome = be.ScipyBackend().solve(
            rmp, gap=cfg.rmp_gap,
            seconds=min(cfg.rmp_time_limit_seconds, max(1.0, remaining())))
        if outcome.status == "infeasible":
            return empty_solution(instance, "infeasible", "bd", elapsed(),
                                  {"phase": f"master-{it}",
                                   "benders_log": pool.log})
        if outcome.status not in ("optimal", "feasible-limit"):
            raise be.BackendError(
                f"master solve failed at iteration {it}: {outcome.status}")
        v_hat = np.round(outcome.primal[:split.n_v])
        if outcome.best_bound is not None:
            pool.lower_bound = max(pool.lower_bound, outcome.best_bound)

        entry = {"iteration": it, "lower_bound": pool.lower_bound,
                 "upper_bound": pool.upper_bound, "cut": None,
                 "master_status": outcome.status, "wall_seconds": elapsed()}
        if _gap(pool.upper_bound, pool.lower_bound) <= cfg.benders_gap:
            status = "optimal"
            pool.log.append(entry)
            break

        kind, cut, u_hat = solve_subproblem_dual(split, v_hat)
        fresh = True
        if kind == "point":
            fresh = pool.add_point(cut)
            obj = float(split.c_v @ v_hat) + cut.objective + split.offset
            if obj < pool.upper_bound - 1e-12:
                pool.upper_bound = obj
                best_primal = np.concatenate([v_hat, u_hat])
            entry["cut"] = "optimality"
        else:
            fresh = pool.add_ray(cut)
            entry["cut"] = "feasibility"
        entry["upper_bound"] = pool.upper_bound
        pool.log.append(entry)

        if _gap(pool.upper_bound, pool.lower_bound) <= cfg.benders_gap:
            status = "optimal"
            break
        if not fresh:
            # same cut twice: the master gap tolerance is hiding progress;
            # report what we have rather than loop forever
            status = "stalled"
            break

    if best_primal is None:
        return empty_solution(
            instance, "time-limit-no-incumbent", "bd", elapsed(),
            {"benders_log": pool.log})

    outcome = be.SolveOutcome(
        status="optimal" if status == "optimal" else "feasible-limit",
        primal=best_primal,
        objective=pool.upper_bound,
        best_bound=pool.lower_bound,
        gap=_gap(pool.upper_bound, pool.lower_bound),
        wall_seconds=elapsed(),
        message=f"decomposition {status}: Q={pool.Q} R={pool.R}",
        has_integers=True)
    solution = decode_solution(outcome, vm, instance)
    solution.algorithm = "bd"
    solution.info.update({
        "benders_log": pool.log,
        "iterations": len(pool.log),
        "n_optimality_cuts": pool.Q,
        "n_feasibility_cuts": pool.R,
        "n_static_cuts": len(pool.static),
        "termination": status,
    })
    if keep_pool:
        solution.info["cut_pool"] = pool
        solution.info["split"] = split
    return solution
