"""MILP assembly: grid construction, census, decode semantics."""

import hashlib
import time

import numpy as np
import pytest

from railvolt import backend as be
from railvolt import cli
from railvolt import model as model_mod
from railvolt.domain import (InstanceError, SolveConfig,
                             charge_time_for_target, empty_solution,
                             soc_after_charging)
from railvolt.generator import GenSpec, generate_instance
from railvolt.model import (TANGENT_HOURS, build_model, build_pla_grid,
                            decode_solution, exact_plan, solve_pla)
from railvolt.reporting import ALGORITHMS
from railvolt.validator import simulate_schedule

from conftest import tiny_corridor


# ---------------------------------------------------------------------------
# Breakpoint grid
# ---------------------------------------------------------------------------


def test_grid_samples_match_charge_surface():
    grid = build_pla_grid(10, 10, 10.0, 0.40)
    assert grid.n == 10 and grid.m == 10
    assert grid.s[0] == 0.0 and grid.s[-1] == 1.0
    assert grid.t[0] == 0.0 and grid.t[-1] == 10.0
    expect = (1.0 - grid.s)[:, None] * 0.6 ** grid.t[None, :]
    np.testing.assert_allclose(grid.g, expect, atol=1e-12)
    # full SOC row is identically zero: nothing left to charge
    np.testing.assert_allclose(grid.g[-1], 0.0, atol=1e-15)


def test_grid_slopes_take_the_steeper_corner():
    grid = build_pla_grid(8, 6, 9.0, 0.35)
    assert grid.w.shape == (8, 6)
    assert (grid.w <= 0).all()
    # Between the two SOC corners of a rectangle, the lower-SOC row loses
    # more per unit time; the safe slope must equal that row's increment.
    drop = grid.g[:, 1:] - grid.g[:, :-1]
    np.testing.assert_allclose(grid.w, drop[:-1, :], atol=1e-12)


@pytest.mark.parametrize("n,m,t_max", [(1, 10, 10.0), (10, 1, 10.0),
                                       (10, 10, 0.0), (10, 10, -1.0)])
def test_grid_rejects_degenerate_shapes(n, m, t_max):
    with pytest.raises(ValueError):
        build_pla_grid(n, m, t_max, 0.4)


def test_surface_fidelity_on_default_grid():
    """Dense-sampled max deviation of the linearised surface is < 0.05."""
    grid = build_pla_grid(10, 10, 10.0, 0.40)
    worst = 0.0
    for u in range(grid.n):
        for v in range(grid.m):
            ss = np.linspace(grid.s[u], grid.s[u + 1], 21)
            tt = np.linspace(grid.t[v], grid.t[v + 1], 21)
            true = (1.0 - ss)[:, None] * 0.6 ** tt[None, :]
            lam = (ss - grid.s[u]) / (grid.s[u + 1] - grid.s[u])
            at_tv = (1 - lam) * grid.g[u, v] + lam * grid.g[u + 1, v]
            frac = (tt - grid.t[v]) / (grid.t[v + 1] - grid.t[v])
            approx = at_tv[:, None] + frac[None, :] * grid.w[u, v]
            worst = max(worst, float(np.abs(true - approx).max()))
            # exact on the left edge of every rectangle: the SOC axis is
            # interpolated, only the time offset is approximated
            assert abs(true[0, 0] - approx[0, 0]) < 1e-12
            assert abs(true[-1, 0] - approx[-1, 0]) < 1e-12
    assert worst < 0.05


def test_surface_rows_give_every_rectangle_its_value():
    # One slot's offset and surface rows, at every cell (u*, v*) with beta
    # and tau fixed there and gamma, eta at each corner of the rectangle:
    # the rows hold, the selected interval's pair pins F to the rectangle's
    # value, and no other interval's pair needs more than its M_v.
    model, _ = build_model(tiny_corridor(7), SolveConfig())
    grid = build_pla_grid(SolveConfig.n, SolveConfig.m, SolveConfig.t_max,
                          tiny_corridor(7).r0)
    n, m, tag = grid.n, grid.m, "_1_0_0"
    col = {c.id: i for i, c in enumerate(model.columns)}
    prefixes = tuple(p + tag for p in ("pla_xi_in", "pla_xi_sum",
                                       "pla_surface_ub", "pla_surface_lb"))
    rows = [r for r, rid in enumerate(model.row_ids)
            if rid.startswith(prefixes)]
    assert len(rows) == 2 * m + n + 1
    _, _, _, _, A, senses, rhs = model.arrays()
    A, senses, rhs = A[rows], senses[rows], rhs[rows]
    surface, worst = slice(n + 1, None), np.zeros(m)
    for u in range(n):
        for v in range(m):
            for e in (u, u + 1):
                for eta in (0.0, 1.0):
                    x = np.zeros(model.n_cols)
                    x[col[f"beta{tag}_{u}"]] = x[col[f"tau{tag}_{v}"]] = 1.0
                    x[col[f"gamma{tag}_{e}"]] = 1.0
                    x[col[f"eta{tag}_{v}"]] = x[col[f"xi{tag}_{u}"]] = eta
                    x[col[f"F{tag}"]] = grid.g[e, v] + grid.w[u, v] * eta
                    lhs = A @ x
                    assert np.all(lhs[senses == "<="]
                                  <= rhs[senses == "<="] + 1e-12)
                    assert np.all(lhs[senses == ">="]
                                  >= rhs[senses == ">="] - 1e-12)
                    assert np.allclose(lhs[senses == "="], 0.0, atol=1e-12)
                    # F - sum g gamma - sum w xi, per time interval
                    value = lhs[surface][0::2] - grid.M * (np.arange(m) == v)
                    assert value[v] == pytest.approx(0.0, abs=1e-12)
                    worst = np.maximum(worst, np.abs(value))
    # each M_v is needed by some corner, and none needs more
    np.testing.assert_allclose(worst, grid.M, atol=1e-12)


def test_tangent_rows_hold_at_every_exact_charge(golden):
    # An exact charge of Tc hours from Sarr, a swap and an idle slot meet
    # every tangent row; at Sarr = 0 the row of duration T binds at Tc = T.
    model, vm = build_model(golden, SolveConfig())
    rows = [r for r, rid in enumerate(model.row_ids)
            if rid.startswith("charge_tangent_")]
    assert len(rows) == len(TANGENT_HOURS) * len(vm.Tc)
    _, _, _, _, A, senses, rhs = model.arrays()
    assert set(senses[rows]) == {">="}
    A, rhs = A[rows], rhs[rows]

    def slack(Sarr, Tc, Sdep, Zs):
        # every slot at the same point, every other column at zero; one
        # row per slot and tangent
        x = np.zeros(model.n_cols)
        for columns, value in ((vm.Sarr, Sarr), (vm.Tc, Tc),
                               (vm.Sdep, Sdep), (vm.Zs, Zs)):
            x[[columns[slot] for slot in vm.Tc]] = value
        return (A @ x - rhs).reshape(len(vm.Tc), len(TANGENT_HOURS))

    for Sarr in np.linspace(0.0, 1.0, 11):
        for Tc in (0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0):
            charged = slack(Sarr, Tc, soc_after_charging(Sarr, Tc, golden.r0),
                            0.0)
            assert charged.min() >= -1e-12, (Sarr, Tc)
            if Sarr == 0.0 and Tc in TANGENT_HOURS:
                np.testing.assert_allclose(
                    charged[:, TANGENT_HOURS.index(Tc)], 0.0, atol=1e-12)
        assert slack(Sarr, 0.0, 1.0, 1.0).min() >= -1e-12        # swap
        assert slack(Sarr, 0.0, Sarr, 0.0).min() >= -1e-12       # idle


def test_worked_example_lp_relaxation_is_pinned(golden):
    # The tangent rows lift the LP relaxation from 22.1056 (the PLA alone)
    # to 26.9067.
    model, _ = build_model(golden, SolveConfig())
    c, lb, ub, _, A, senses, rhs = model.arrays()
    relaxed = be.Session(c, A, senses, rhs, lb, ub,
                         offset=model.objective_offset).run()
    assert relaxed.status == "optimal"
    assert relaxed.objective == pytest.approx(26.9067, abs=1e-4)


# ---------------------------------------------------------------------------
# Assembly census on the worked corridor
# ---------------------------------------------------------------------------


def test_model_census_on_reference_corridor(golden):
    model, vm = build_model(golden, SolveConfig())
    assert model.n_cols == 1474
    assert vm.n_binary == 574
    assert model.n_rows == 1960
    _, _, _, integrality, *_ = model.arrays()
    # binaries occupy a contiguous prefix (the decomposition relies on it)
    assert (integrality[:vm.n_binary] == 1).all()
    assert (integrality[vm.n_binary:] == 0).all()
    # every interior station appears as a deployment column
    assert sorted(vm.X) == sorted(golden.interior)


def test_build_model_is_deterministic(golden):
    a, _ = build_model(golden, SolveConfig())
    b, _ = build_model(golden, SolveConfig())
    assert be.to_lp_string(a) == be.to_lp_string(b)


def test_worked_example_model_is_pinned(golden):
    # Digest of the worked example's LP text as the row-by-row assembly
    # produced it: row order, ids, coefficients (in entry order), senses,
    # right-hand sides, bounds and objective all stay exactly as they were.
    model, _ = build_model(golden, SolveConfig())
    digest = hashlib.sha256(be.to_lp_string(model).encode()).hexdigest()
    assert digest == (
        "b491d5ced712d02d195c982bed860f4fc872f4bb8a7f5c5d6cc5b0a1e32072bf")


def test_build_model_rejects_invalid_instance():
    inst = tiny_corridor(3)
    inst.fixed_cost[1] = -4.0
    with pytest.raises(InstanceError):
        build_model(inst, SolveConfig())


# ---------------------------------------------------------------------------
# Decoded incumbent semantics (worked corridor)
# ---------------------------------------------------------------------------


def test_decoded_objective_recomputes_from_columns(golden, golden_pla):
    sol = golden_pla
    setup = sum(golden.fixed_cost[i] for i in sol.deployed)
    delays = sum(sol.delay[j][i]
                 for j in range(golden.n_trains)
                 for i in range(golden.n_stations))
    assert sol.objective_value == pytest.approx(
        1.0 * setup + 3.0 * delays, rel=1e-5)
    assert sol.status == "optimal-within-gap"
    assert set(sol.deployed) <= set(golden.interior)


def test_decoded_actions_are_consistent(golden, golden_pla):
    sol = golden_pla
    for j in range(golden.n_trains):
        for i in range(golden.n_stations):
            for k in range(golden.consists(j)):
                sw = sol.swap[j][i][k]
                ch = sol.charge[j][i][k]
                assert sw in (0, 1) and ch in (0, 1)
                assert sw + ch <= 1
                if sw or ch:
                    assert i in sol.deployed
                if sw:
                    # a fresh battery departs full
                    assert sol.soc_depart[j][i][k] == pytest.approx(
                        1.0, abs=1e-3)
                if not sw and not ch:
                    # untouched batteries keep their arrival state
                    assert sol.soc_depart[j][i][k] == pytest.approx(
                        sol.soc_arrive[j][i][k], abs=1e-3)
                if sol.charge_hours[j][i][k] > 1e-6:
                    assert ch == 1
                assert sol.charge_hours[j][i][k] >= 0.0
            assert sol.depart[j][i] >= sol.arrive[j][i] - 1e-9
            assert sol.delay[j][i] >= 0.0


def test_charge_durations_respect_dwell(golden, golden_pla):
    sol = golden_pla
    for j in range(golden.n_trains):
        for i in range(golden.n_stations):
            dwell = sol.depart[j][i] - sol.arrive[j][i]
            for k in range(golden.consists(j)):
                used = sol.charge_hours[j][i][k] \
                    + golden.swap_hours * sol.swap[j][i][k]
                assert used <= dwell + 1e-6


def test_decode_refuses_truncated_primal(golden):
    model, vm = build_model(golden, SolveConfig())
    fake = be.SolveOutcome(status="optimal", primal=np.zeros(5),
                           objective=0.0, has_integers=True)
    from railvolt.domain import DecodeError
    with pytest.raises(DecodeError):
        decode_solution(fake, vm, golden)


# ---------------------------------------------------------------------------
# Plans re-timed on the exact charge curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("planner", ["pla", "fa", "bd"])
@pytest.mark.parametrize("corridor", ["worked-example", "short-haul-4"])
def test_plans_replay_exactly(request, corridor, planner):
    # Every plan is re-timed on the exact curve, so it replays at the strict
    # tolerance; the MILP's own value stays beside the plan's.
    if corridor == "worked-example":
        inst = request.getfixturevalue("golden")
        sol = request.getfixturevalue(
            {"pla": "golden_pla", "fa": "fa_60", "bd": "bd_150"}[planner])
    else:
        inst = generate_instance(GenSpec(
            n_trains=1, consists_per_train=1, max_batteries=1,
            distance_mean_km=180.0, distance_sd_km=30.0, seed=4))
        sol = ALGORITHMS[planner](inst, SolveConfig(time_limit_seconds=60.0))
    report = simulate_schedule(inst, sol, tolerance=1e-4)
    assert report.ok, report.violations
    assert not report.warnings, report.warnings
    assert report.metrics.objective == pytest.approx(sol.objective_value,
                                                     abs=1e-9)
    assert np.isfinite(sol.info["model_objective"])
    assert sol.info["capped_charges"] == 0


def test_exact_plan_keeps_decisions_and_retimes_charges():
    # One train, one battery, a charge at station 1: to a target above the
    # exact arrival SOC it takes exactly the hours the curve needs, to one
    # below it none (the flag goes), and to a full battery t_max (capped).
    inst = tiny_corridor(7)
    cfg = SolveConfig()
    arrival = 1.0 - inst.leg_energy(0, 0)
    for target, hours, flag, capped in (
            (arrival + 0.1,
             charge_time_for_target(arrival, arrival + 0.1, inst.r0), 1, 0),
            (arrival - 0.01, 0.0, 0, 0),
            (1.0, cfg.t_max, 1, 1)):
        decoded = empty_solution(inst, "optimal-within-gap", "pla")
        decoded.deployed, decoded.has_battery = [1], [[1]]
        decoded.charge[0][1] = [1]
        decoded.soc_depart[0][1] = [target]
        decoded.objective_value = 12.5
        sol = exact_plan(decoded, inst, cfg)
        assert sol.charge[0][1] == [flag]
        assert sol.charge_hours[0][1] == [pytest.approx(hours, abs=1e-12)]
        assert sol.soc_arrive[0][1] == [pytest.approx(arrival, abs=1e-12)]
        assert sol.depart[0][1] - sol.arrive[0][1] == pytest.approx(hours)
        assert sol.info["model_objective"] == 12.5
        assert sol.info["capped_charges"] == capped
        assert sol.objective_value == pytest.approx(
            inst.fixed_cost[1] + cfg.alpha_delay * hours)


# ---------------------------------------------------------------------------
# Fixing helpers through the solve entry point
# ---------------------------------------------------------------------------


def test_fixed_deployment_is_respected():
    inst = tiny_corridor(5, n_interior=2)
    cfg = SolveConfig(time_limit_seconds=60.0)
    sol = solve_pla(inst, cfg, fixed_deployment=set(inst.interior))
    assert sol.status == "optimal-within-gap"
    assert sol.deployed == sorted(inst.interior)
    free = solve_pla(inst, cfg)
    assert free.status == "optimal-within-gap"
    assert free.objective_value <= sol.objective_value + 1e-6


def test_pla_wall_seconds_cover_the_whole_call(monkeypatch):
    # A build that takes 0.2 s must show in wall_seconds: the time runs from
    # entry to return, not just around the solver call.
    real_build = model_mod.build_model

    def slow_build(*args, **kwargs):
        time.sleep(0.2)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(model_mod, "build_model", slow_build)
    sol = solve_pla(tiny_corridor(7), SolveConfig(time_limit_seconds=60.0))
    assert sol.status == "optimal-within-gap"
    assert sol.wall_seconds >= 0.2


def test_max_loading_pins_leading_consists():
    inst = tiny_corridor(9, consists=2, max_batteries=1)
    cfg = SolveConfig(time_limit_seconds=60.0)
    sol = solve_pla(inst, cfg, fixed_deployment=set(inst.interior))
    assert sol.status == "optimal-within-gap"
    for j in range(inst.n_trains):
        assert sol.has_battery[j] == [1, 0]


def test_dump_model_round_trips(tmp_path, capsys):
    # --dump-model writes the full model, the one pla solves and fa and bd
    # restrict, whichever planner runs; the LP text carries the objective
    # offset as the objective's constant term
    inst = tiny_corridor(2, wait_hours=0.25)
    inst_path = tmp_path / "tiny.json"
    inst.to_json(str(inst_path))
    model, _ = build_model(inst, SolveConfig(alpha_delay=5.0))
    assert model.objective_offset == -2.5
    for algo in ("pla", "fa", "bd"):
        path = tmp_path / f"{algo}.lp"
        assert cli.main(["solve", "--algo", algo, "--instance",
                         str(inst_path), "--alpha-d", "5",
                         "--time-limit", "60", "--dump-model",
                         str(path)]) == 0, algo
        assert f"algorithm: {algo}" in capsys.readouterr().out
        text = path.read_text()
        assert text == be.to_lp_string(model), algo
        assert text.splitlines()[2].endswith(" - 2.5")
