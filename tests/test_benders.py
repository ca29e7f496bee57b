"""Decomposition: split algebra, pricing, cut audits, the full loop."""

import numpy as np
import pytest

from railvolt import backend as be
from railvolt.benders import (CutPool, ExtremePoint, ExtremeRay, _gap,
                              build_rmp, extra_feasibility_cuts, run_benders,
                              solve_subproblem_dual, split_model)
from railvolt.domain import SolveConfig
from railvolt.model import build_model, solve_pla
from railvolt.validator import simulate_schedule

from conftest import tiny_corridor


@pytest.fixture(scope="module")
def reference_split(golden):
    model, vm = build_model(golden, SolveConfig())
    return model, vm, split_model(model, vm)


def _incumbent_v(split, pla_solution):
    return np.round(np.asarray(pla_solution.info["primal"])[:split.n_v])


# ---------------------------------------------------------------------------
# The partition
# ---------------------------------------------------------------------------


def test_split_census_on_reference(golden, reference_split):
    model, vm, split = reference_split
    assert split.n_v == 574
    assert split.n_u == model.n_cols - 574 == 684
    assert set(np.unique(split.senses)) <= {">=", "="}
    assert int(split.v_only.sum()) == 156
    # deployment costs sit in the binary block, delay costs in the
    # continuous one
    n_interior = len(list(golden.interior))
    assert int((split.c_v != 0).sum()) == n_interior
    assert int((split.c_u != 0).sum()) == golden.n_stations * golden.n_trains
    assert np.allclose(split.c_u[split.c_u != 0], 3.0)
    # the constant term refunds the planned waits
    total_wait = float(golden.wait_time.sum())
    assert split.offset == pytest.approx(-3.0 * total_wait, rel=1e-12)


def test_split_flips_le_rows(golden, reference_split):
    model, _, split = reference_split
    _, _, _, _, A, senses, rhs = model.arrays()
    le = np.flatnonzero(senses == be.LE)
    assert le.size, "expected <= rows in the original model"
    r = le[0]
    got = split.Dm.getrow(r).toarray().ravel()
    want = -A.getrow(r).toarray().ravel()[:split.n_v]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert split.b[r] == pytest.approx(-rhs[r])
    assert split.senses[r] == ">="


def test_split_rejects_wrong_layouts():
    m = be.AbstractModel()
    m.add_column("u", be.CONTINUOUS, 0.0, 1.0, 1.0)
    m.add_column("v", be.BINARY)
    m.add_row("r", [(0, 1.0), (1, 1.0)], ">=", 1.0)
    with pytest.raises(be.BackendError):
        split_model(m)

    m2 = be.AbstractModel()
    m2.add_column("v", be.BINARY)
    m2.add_column("u", be.CONTINUOUS, 0.5, 1.0, 1.0)
    m2.add_row("r", [(0, 1.0), (1, 1.0)], ">=", 1.0)
    with pytest.raises(be.BackendError):
        split_model(m2)


def test_reassembled_split_solves_to_same_optimum():
    inst = tiny_corridor(3, wait_hours=0.25)
    cfg = SolveConfig(time_limit_seconds=60.0)
    model, vm = build_model(inst, cfg)
    split = split_model(model, vm)
    direct = be.ScipyBackend().solve(model, gap=cfg.mip_gap, seconds=60.0)
    stitched = split.reassemble()
    assert stitched.n_cols == model.n_cols
    assert stitched.n_rows == model.n_rows
    redone = be.ScipyBackend().solve(stitched, gap=cfg.mip_gap, seconds=60.0)
    assert direct.status == redone.status == "optimal"
    # both are within the same 1% gap of one optimum; objectives already
    # include the (here nonzero) objective offset
    assert model.objective_offset == stitched.objective_offset != 0.0
    assert redone.objective == pytest.approx(direct.objective, rel=0.012)


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------


def test_pricing_the_reference_incumbent(golden, golden_pla, reference_split):
    _, _, split = reference_split
    v_star = _incumbent_v(split, golden_pla)
    kind, cut, u = solve_subproblem_dual(split, v_star)
    assert kind == "point"
    assert u is not None and len(u) == split.n_u
    # master cost + subproblem value + constant = the incumbent objective
    total = float(split.c_v @ v_star) + cut.objective + split.offset
    assert total == pytest.approx(golden_pla.objective_value, rel=1e-4)
    # the cut is tight at the point it was priced from (strong duality)
    assert cut.epigraph_value(v_star) == pytest.approx(cut.objective,
                                                       abs=1e-4)
    # master-only rows contribute no dual weight
    assert np.allclose(cut.pi[split.v_only], 0.0)


def test_pricing_an_impossible_assignment_yields_a_ray(
        golden, golden_pla, reference_split):
    _, _, split = reference_split
    v_zero = np.zeros(split.n_v)
    kind, cut, u = solve_subproblem_dual(split, v_zero)
    assert kind == "ray" and u is None
    assert cut.violation > 1e-8
    # the ray must cut off the priced point but keep the true incumbent
    assert cut.slack(v_zero) < -1e-8
    v_star = _incumbent_v(split, golden_pla)
    assert cut.slack(v_star) >= -1e-7


# ---------------------------------------------------------------------------
# Structural master cuts
# ---------------------------------------------------------------------------


def test_static_cut_census_on_reference(golden, reference_split):
    _, vm, split = reference_split
    cuts = extra_feasibility_cuts(golden, vm)
    assert len(cuts) == 198
    names = {rid.rsplit("_", 1)[0] for rid, *_ in cuts}
    assert len(names) >= 10  # every rule family contributes
    for rid, entries, sense, rhs in cuts:
        assert sense in (be.GE, be.LE)
        for ci, val in entries:
            assert 0 <= ci < split.n_v  # master-only rows
            assert np.isfinite(val)


def test_static_cuts_admit_the_reference_incumbent(
        golden, golden_pla, reference_split):
    _, vm, split = reference_split
    v_star = _incumbent_v(split, golden_pla)
    for rid, entries, sense, rhs in extra_feasibility_cuts(golden, vm):
        lhs = sum(val * v_star[ci] for ci, val in entries)
        if sense == be.GE:
            assert lhs >= rhs - 1e-6, rid
        else:
            assert lhs <= rhs + 1e-6, rid


# ---------------------------------------------------------------------------
# Cut pool and master assembly
# ---------------------------------------------------------------------------


def _point(coef, rhs):
    return ExtremePoint(pi=np.zeros(1), coef=np.asarray(coef, dtype=float),
                        rhs=rhs, objective=0.0)


def test_cut_pool_rejects_duplicates():
    pool = CutPool()
    assert pool.add_point(_point([1.0, 0.0], 2.0))
    assert not pool.add_point(_point([1.0, 0.0], 2.0))
    assert pool.add_point(_point([1.0, 0.0], 2.5))
    ray = ExtremeRay(rho=np.zeros(1), coef=np.array([1.0, 0.0]), rhs=2.0,
                     violation=0.1)
    assert pool.add_ray(ray)  # same numbers, different kind: still new
    assert not pool.add_ray(ray)
    assert pool.Q == 2 and pool.R == 1


def test_gap_convention():
    assert _gap(100.0, 95.0) == pytest.approx(0.05)
    assert _gap(100.0, 100.0) == 0.0
    assert _gap(np.inf, 0.0) == np.inf
    assert _gap(10.0, -np.inf) == np.inf
    assert _gap(-90.0, -100.0) == pytest.approx(10.0 / 90.0)


def test_rmp_grows_with_the_pool(reference_split):
    _, _, split = reference_split
    cfg = SolveConfig()
    pool = CutPool()
    base = build_rmp(split, pool, cfg)
    assert base.n_cols == split.n_v + 1
    assert base.n_rows == int(split.v_only.sum())
    # while no optimality cut exists the epigraph must be floored
    w = base.column_index("w")
    assert np.isfinite(base.columns[w].lower)

    pool.add_point(_point(np.zeros(split.n_v), 5.0))
    pool.add_ray(ExtremeRay(rho=np.zeros(1), coef=np.eye(split.n_v)[0],
                            rhs=1.0, violation=0.1))
    grown = build_rmp(split, pool, cfg)
    assert grown.n_rows == base.n_rows + 2
    assert not np.isfinite(grown.columns[grown.column_index("w")].lower)
    ids = set(grown.row_ids)
    assert "opt_cut_0" in ids and "feas_cut_0" in ids


def test_rmp_stacks_master_rows_static_rows_and_cuts(golden,
                                                     reference_split):
    _, vm, split = reference_split
    pool = CutPool()
    pool.static = extra_feasibility_cuts(golden, vm)
    rng = np.random.default_rng(5)
    point_coef = np.where(rng.uniform(size=split.n_v) < 0.3,
                          rng.normal(size=split.n_v), 0.0)
    ray_coef = np.where(rng.uniform(size=split.n_v) < 0.3,
                        rng.normal(size=split.n_v), 0.0)
    pool.add_point(_point(point_coef, 4.0))
    pool.add_ray(ExtremeRay(rho=np.zeros(1), coef=ray_coef, rhs=-1.5,
                            violation=0.1))
    rmp = build_rmp(split, pool, SolveConfig())
    c, lb, ub, integrality, A, senses, rhs = rmp.arrays()

    # [Dm[v_only]; static; point row; ray row], with w as the last column
    n = split.n_v
    static = np.zeros((len(pool.static), n + 1))
    for r, (_, entries, _, _) in enumerate(pool.static):
        for ci, val in entries:
            static[r, ci] += val
    want = np.vstack([
        np.hstack([split.Dm[split.v_only].toarray(),
                   np.zeros((int(split.v_only.sum()), 1))]),
        static,
        np.append(point_coef, 1.0),
        np.append(ray_coef, 0.0)])
    np.testing.assert_array_equal(A.toarray(), want)
    assert A.has_canonical_format
    assert list(senses) == (list(split.senses[split.v_only])
                            + [s for _, _, s, _ in pool.static]
                            + [be.GE, be.GE])
    np.testing.assert_array_equal(
        rhs, np.concatenate([split.b[split.v_only],
                             [b for _, _, _, b in pool.static], [4.0, -1.5]]))
    assert list(rmp.row_ids) == (
        [split.row_ids[r] for r in np.flatnonzero(split.v_only)]
        + [rid for rid, _, _, _ in pool.static] + ["opt_cut_0", "feas_cut_0"])
    np.testing.assert_array_equal(c, np.append(split.c_v, 1.0))
    np.testing.assert_array_equal(integrality, [1] * n + [0])
    assert lb[n] == -np.inf and ub[n] == np.inf


# ---------------------------------------------------------------------------
# The loop, end to end on corridors that close the gap in seconds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[7, 11, 19])
def tiny_bd(request):
    inst = tiny_corridor(request.param)
    cfg = SolveConfig(time_limit_seconds=120.0)
    sol = run_benders(inst, cfg, keep_pool=True)
    pla = solve_pla(inst, cfg, keep_primal=True)
    return inst, cfg, sol, pla


def test_loop_terminates_within_gap(tiny_bd):
    inst, cfg, sol, _ = tiny_bd
    assert sol.algorithm == "bd"
    assert sol.info["termination"] == "optimal"
    assert sol.status == "optimal-within-gap"
    assert sol.gap <= cfg.benders_gap + 1e-9


def test_loop_bounds_are_monotone(tiny_bd):
    _, _, sol, _ = tiny_bd
    log = sol.info["benders_log"]
    assert len(log) == sol.info["iterations"] >= 2
    lbs = [e["lower_bound"] for e in log]
    ubs = [e["upper_bound"] for e in log]
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
    for e in log:
        assert {"iteration", "lower_bound", "upper_bound", "cut",
                "master_status", "wall_seconds"} <= set(e)


def test_loop_matches_the_one_shot_solve(tiny_bd):
    inst, cfg, sol, pla = tiny_bd
    # the decomposition's incumbent is a feasible plan of the same model, so
    # it can undercut the one-shot incumbent by at most that solve's gap and
    # overshoot by at most its own
    assert sol.objective_value >= pla.objective_value * (1 - cfg.mip_gap) - 1e-6
    assert sol.objective_value <= pla.objective_value * (1 + cfg.benders_gap) + 1e-6


def test_loop_incumbent_replays_clean(tiny_bd):
    inst, _, sol, _ = tiny_bd
    report = simulate_schedule(inst, sol)
    assert report.ok, report.violations


def test_no_cut_excludes_the_one_shot_incumbent(tiny_bd):
    inst, _, sol, pla = tiny_bd
    pool = sol.info["cut_pool"]
    split = sol.info["split"]
    v_star = _incumbent_v(split, pla)
    kind, cut_star, _ = solve_subproblem_dual(split, v_star)
    assert kind == "point"
    w_star = cut_star.objective
    for cut in pool.optimality:
        assert w_star + float(cut.coef @ v_star) >= cut.rhs - 1e-5
    for cut in pool.feasibility:
        assert float(cut.coef @ v_star) >= cut.rhs - 1e-5
    for rid, entries, sense, rhs in pool.static:
        lhs = sum(val * v_star[ci] for ci, val in entries)
        if sense == be.GE:
            assert lhs >= rhs - 1e-6, rid
        else:
            assert lhs <= rhs + 1e-6, rid


def test_infeasible_line_is_reported_not_raised():
    inst = tiny_corridor(41, energy_lo=1.2, energy_hi=1.5)  # legs > 1 battery
    sol = run_benders(inst, SolveConfig(time_limit_seconds=30.0))
    assert sol.status == "infeasible"
    assert sol.algorithm == "bd"
