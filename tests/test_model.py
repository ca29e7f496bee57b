"""MILP assembly: the charge clock, census, decode semantics."""

import hashlib
import time

import numpy as np
import pytest

from railvolt import backend as be
from railvolt import cli
from railvolt import model as model_mod
from railvolt.domain import (InstanceError, SolveConfig, Train,
                             charge_time_for_target, soc_after_charging)
from railvolt.generator import GenSpec, generate_instance
from railvolt.model import (TANGENT_HOURS, build_model, build_pla_grid,
                            decode_solution, solve_pla)
from railvolt.reporting import ALGORITHMS
from railvolt.validator import brute_force_best, simulate_schedule

from conftest import tiny_corridor


# ---------------------------------------------------------------------------
# Breakpoint grid
# ---------------------------------------------------------------------------


def test_grid_samples_match_charge_surface():
    # The clock reads the hours that charge an empty battery to each SOC, so
    # on the surface s -> 1 - (1 - s)(1 - r0)^t it advances by exactly t up
    # to cap, the SOC t_max hours give an empty battery; past cap it is the
    # tangent there, ending at t_max + 1/kappa.
    grid = build_pla_grid(10, 10.0, 0.40)
    assert grid.n == 10
    assert grid.s[0] == 0.0 and grid.s[-1] == 1.0
    assert grid.kappa == pytest.approx(-np.log(0.6), rel=1e-15)
    assert grid.cap == pytest.approx(1.0 - 0.6 ** 10, rel=1e-15)
    for s in grid.s[:-1]:
        for t in (0.0, 0.5, 1.0, 3.0, 7.5):
            after = soc_after_charging(float(s), t, 0.40)
            if after <= grid.cap:
                assert grid.clock(after) - grid.clock(s) == pytest.approx(
                    t, abs=1e-9)
    assert grid.clock(0.0) == 0.0
    assert grid.clock(grid.cap) == pytest.approx(10.0, abs=1e-9)
    assert grid.clock(1.0) == grid.top == 10.0 + 1.0 / grid.kappa


@pytest.mark.parametrize("n,t_max", [(1, 10.0), (10, 0.0), (10, -1.0)])
def test_grid_rejects_degenerate_shapes(n, t_max):
    with pytest.raises(ValueError):
        build_pla_grid(n, t_max, 0.4)


@pytest.mark.parametrize("t_max,r0", [(10.0, 0.40), (10.0, 0.05),
                                      (2.0, 0.40)])
def test_clock_bounds_the_charge_curve(t_max, r0):
    # phi lies under theta and rises no faster, every tangent the model
    # takes lies under phi and every chord between breakpoints over it:
    # the rows that read them hold at every exact charge. At 2 h and
    # r0 = 0.4 the top breakpoints lie past cap.
    grid = build_pla_grid(10, t_max, r0)
    ss = np.linspace(0.0, 1.0 - 1e-9, 4001)
    theta = -np.log1p(-ss) / grid.kappa
    phi = grid.clock(ss)
    assert np.all(phi <= theta + 1e-9)
    inside = ss <= grid.cap
    np.testing.assert_allclose(phi[inside], theta[inside], rtol=1e-12)
    assert np.all(grid.slope(ss) <= 1.0 / (grid.kappa * (1.0 - ss)) + 1e-9)
    chords = np.interp(ss, grid.s, grid.clock(grid.s))
    assert np.all(chords >= phi - 1e-9)
    points = np.append(grid.s[:-1], grid.cap)
    tangents = (grid.clock(points)[:, None] + grid.slope(points)[:, None]
                * (ss[None, :] - points[:, None]))
    assert np.all(tangents <= phi + 1e-9)


def test_grid_slopes_take_the_steeper_corner():
    grid = build_pla_grid(8, 9.0, 0.35)
    corners = grid.slope(grid.s)
    assert (corners > 0).all()
    # phi is convex, so its slope never falls from one breakpoint to the
    # next, and each interval's chord rises at least as fast as the lower
    # corner's tangent and no faster than the steeper, upper corner's.
    assert (np.diff(corners) >= 0).all()
    chord = np.diff(grid.clock(grid.s)) / np.diff(grid.s)
    assert (chord >= corners[:-1] - 1e-12).all()
    assert (chord <= corners[1:] + 1e-12).all()
    # past cap phi is the tangent there, one slope to SOC 1
    np.testing.assert_allclose(grid.slope([grid.cap, 1.0]),
                               1.0 / (grid.kappa * (1.0 - grid.cap)),
                               rtol=1e-15)


def test_surface_fidelity_on_default_grid():
    """Dense-sampled overshoot of the linearised charge curve in SOC.

    The model reads Sarr's clock as the chord between breakpoints and
    Sdep's as the largest tangent at s_0 .. s_{n-1} and cap, so a charge of
    t hours from Sarr may depart at any Sdep whose tangents all stay within
    chord(Sarr) + t. That Sdep is never below the exact SOC; it overshoots
    by less than 0.05 when Sarr is below the top interval, and by less than
    0.065 inside it, where phi(1) is the tangent's value.
    """
    grid = build_pla_grid(10, 10.0, 0.40)
    points = np.append(grid.s[:-1], grid.cap)
    phi_p, slope_p = grid.clock(points), grid.slope(points)
    worst_below = worst_top = 0.0
    for u in range(grid.n):
        ss = np.linspace(grid.s[u], grid.s[u + 1], 21)
        chord = np.interp(ss, grid.s, grid.clock(grid.s))
        for t in np.linspace(0.0, grid.t_max, 41):
            rhs = chord + t
            admitted = np.clip(np.min(
                points[:, None] + (rhs[None, :] - phi_p[:, None])
                / slope_p[:, None], axis=0), 0.0, 1.0)
            exact = np.array([soc_after_charging(float(s), float(t), 0.40)
                              for s in ss])
            assert (admitted >= exact - 1e-9).all()
            over = float((admitted - exact).max())
            if u < grid.n - 1:
                worst_below = max(worst_below, over)
            else:
                worst_top = max(worst_top, over)
    assert worst_below < 0.05
    assert worst_top < 0.065


def test_clock_rows_hold_at_every_exact_charge():
    # One slot's clock rows, with gamma interpolating Sarr on its interval,
    # Theta_arr at phi's chord there and Theta_dep at phi's largest tangent
    # at Sdep: an exact charge of Tc <= t_max hours from every Sarr on a
    # grid, a swap and an idle slot meet them. The slot is a 2-consist
    # train's second battery, which can arrive full (Sarr = 1).
    inst = tiny_corridor(7, consists=2, max_batteries=2)
    model, vm = build_model(inst, SolveConfig())
    grid = build_pla_grid(SolveConfig.n, SolveConfig.t_max, inst.r0)
    n, slot = grid.n, (1, 0, 1)
    tag = "_%d_%d_%d" % slot
    col = {cid: i for i, cid in enumerate(model.col_ids)}
    prefixes = tuple(p + tag for p in (
        "pla_pick_s", "pla_weights_one", "pla_soc_interp",
        "pla_weight_support", "pla_weight_low", "pla_weight_high",
        "clock_arr", "clock_dep", "clock_charge"))
    rows = [r for r, rid in enumerate(model.row_ids)
            if rid.startswith(prefixes)]
    assert len(rows) == 3 + (n - 1) + 2 + 1 + (n + 1) + 1
    _, lb, ub, _, A, senses, rhs = model.arrays()
    A, senses, rhs = A[rows], senses[rows], rhs[rows]
    assert ub[col["Theta_arr" + tag]] == np.inf
    assert ub[col["Theta_dep" + tag]] == grid.top
    assert ub[vm.Tc[slot]] == SolveConfig.t_max
    points = np.append(grid.s[:-1], grid.cap)

    def slack(Sarr, Tc, Sdep, Zc, Zs):
        u = min(int(Sarr * n), n - 1)
        lam = (Sarr - grid.s[u]) / (grid.s[u + 1] - grid.s[u])
        x = np.zeros(model.n_cols)
        x[vm.beta[slot + (u,)]] = 1.0
        x[col[f"gamma{tag}_{u}"]] = 1.0 - lam
        x[col[f"gamma{tag}_{u + 1}"]] = lam
        x[col["Theta_arr" + tag]] = (1.0 - lam) * grid.clock(grid.s[u]) \
            + lam * grid.clock(grid.s[u + 1])
        theta_dep = np.max(grid.clock(points)
                           + grid.slope(points) * (Sdep - points))
        assert theta_dep <= grid.top + 1e-12
        x[col["Theta_dep" + tag]] = theta_dep
        for columns, value in ((vm.Sarr, Sarr), (vm.Tc, Tc), (vm.Sdep, Sdep),
                               (vm.Zc, Zc), (vm.Zs, Zs)):
            x[columns[slot]] = value
        lhs = A @ x
        np.testing.assert_allclose(lhs[senses == "="], rhs[senses == "="],
                                   atol=1e-12)
        assert np.all(lhs[senses == "<="] <= rhs[senses == "<="] + 1e-12)
        return (lhs - rhs)[senses == ">="]

    for Sarr in np.append(np.linspace(0.0, 1.0, 21), [0.013, 0.537, 0.991]):
        for Tc in (0.01, 0.25, 1.0, 2.0, 3.5, 6.0, SolveConfig.t_max):
            charged = slack(Sarr, Tc, soc_after_charging(Sarr, Tc, inst.r0),
                            1.0, 0.0)
            assert charged.min() >= -1e-9, (Sarr, Tc)
        assert slack(Sarr, 0.0, 1.0, 0.0, 1.0).min() >= -1e-9       # swap
        assert slack(Sarr, 0.0, Sarr, 0.0, 0.0).min() >= -1e-9      # idle
    # exact where the clock is: a full t_max charge of an empty battery
    # needs exactly the hours it takes
    assert slack(0.0, SolveConfig.t_max, grid.cap, 1.0, 0.0)[-1] \
        == pytest.approx(0.0, abs=1e-9)


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
    # The tangent rows lifted the LP relaxation from 22.1056 (the rectangle
    # PLA alone) to 26.9067; the charge clock in its place keeps it there.
    model, _ = build_model(golden, SolveConfig())
    c, lb, ub, _, A, senses, rhs = model.arrays()
    relaxed = be.Session(c, A, senses, rhs, lb, ub,
                         offset=model.objective_offset).run()
    assert relaxed.status == "optimal"
    assert relaxed.objective == pytest.approx(26.9067, abs=1e-4)


@pytest.mark.parametrize("battery", [
    {}, {"consists": 2, "max_batteries": 2, "energy_lo": 0.7,
         "energy_hi": 1.7}], ids=["1-consist", "2-consist"])
def test_pla_bound_never_exceeds_the_oracle(battery):
    # The MILP is an outer approximation: every exact schedule whose charges
    # last at most t_max hours is feasible in it, so its bound cannot exceed
    # the exhaustive optimum over such schedules.
    for seed in (7, 11, 13, 17, 19):
        inst = tiny_corridor(seed, **battery)
        sol = solve_pla(inst, SolveConfig(time_limit_seconds=60.0))
        assert sol.status == "optimal-within-gap", seed
        assert sol.bound <= brute_force_best(inst, time_step=0.5)[0] + 1e-6
        # the re-timed plan is one of those schedules unless a charge was
        # cut to t_max
        if sol.info["capped_charges"] == 0:
            assert sol.bound <= sol.objective_value + 1e-6, seed


def test_bound_never_exceeds_the_retimed_objective(golden_pla):
    assert golden_pla.info["capped_charges"] == 0
    assert golden_pla.bound <= golden_pla.objective_value + 1e-6


# ---------------------------------------------------------------------------
# Assembly census on the worked corridor
# ---------------------------------------------------------------------------


def test_model_census_on_reference_corridor(golden):
    model, vm = build_model(golden, SolveConfig())
    assert model.n_cols == 778
    assert vm.n_binary == 334
    assert model.n_rows == 1192
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
        "33ee731b0cc9e040a6e07b3aed24b2e827b9ed7c216f4903538e4d881601a6dc")


def test_medium_corridor_model_is_pinned():
    # Digest of default medium seed 1's LP text: two trains and multi-digit
    # ids, beyond what the worked example's digest covers.
    model, _ = build_model(generate_instance(GenSpec("medium", seed=1)),
                           SolveConfig())
    digest = hashlib.sha256(be.to_lp_string(model).encode()).hexdigest()
    assert digest == (
        "0ce381ccc7fc74aa80313fd35f05e6f73f03770807db24c3616b0952a64ee4ef")


def test_large_corridor_model_is_pinned():
    # Digest of default large seed 2's LP text: 25 stations, so station,
    # train and consist ids of one and two digits share each family.
    model, _ = build_model(generate_instance(GenSpec("large", seed=2)),
                           SolveConfig())
    assert model.n_rows == 6436
    digest = hashlib.sha256(be.to_lp_string(model).encode()).hexdigest()
    assert digest == (
        "f2bfe0e3f296ece979a2d0217cc34e09614145805dc92b7d288ea0897663325f")


def test_mixed_consist_corridor_model_is_pinned():
    # Digest of a corridor whose trains have 3 and 1 consists: every family
    # keyed by consist has fewer keys for the second train.
    inst = tiny_corridor(7, n_interior=3, n_trains=2, consists=3,
                         max_batteries=2)
    inst.trains[1] = Train("Train 2", consists=1, max_batteries=1)
    model, _ = build_model(inst, SolveConfig())
    assert model.n_rows == 620
    digest = hashlib.sha256(be.to_lp_string(model).encode()).hexdigest()
    assert digest == (
        "cf16552be074ac863e9a614a87b5e42629d022398b15e89c08453ff059167121")


def test_build_model_adds_every_row_in_one_block(golden, monkeypatch):
    # Every row reaches the model through one call of the one checked row
    # entry, and each column family as one add_columns block; nothing goes
    # through add_row or add_column one at a time.
    calls = {"add_row": 0, "add_column": 0}
    checked = []
    blocks = []
    checked_rows = be.checked_rows
    add_row = be.AbstractModel.add_row
    add_columns = be.AbstractModel.add_columns

    def counted(ids, *args, **kwargs):
        checked.append(len(ids))
        return checked_rows(ids, *args, **kwargs)

    def single(self, *row):
        calls["add_row"] += 1
        return add_row(self, *row)

    def column_block(self, ids, *args, **kwargs):
        blocks.append(list(ids))
        return add_columns(self, blocks[-1], *args, **kwargs)

    def one_column(self, cid, *args, **kwargs):
        calls["add_column"] += 1
        return add_columns(self, [cid], *args, **kwargs)[0]

    monkeypatch.setattr(be, "checked_rows", counted)
    monkeypatch.setattr(be.AbstractModel, "add_row", single)
    monkeypatch.setattr(be.AbstractModel, "add_columns", column_block)
    monkeypatch.setattr(be.AbstractModel, "add_column", one_column)
    model, _ = build_model(golden, SolveConfig())
    assert calls == {"add_row": 0, "add_column": 0}
    assert checked == [1192]
    assert model.n_rows == 1192
    # one block per family, in column order
    assert [ids[0] for ids in blocks] == [
        "X_1", "Y_0_0", "Zc_1_0_0", "Zs_1_0_0", "B_0_0_0", "beta_1_0_0_0",
        "D_0_0", "Tarr_0_0", "Tdep_0_0", "Tc_1_0_0", "Sarr_0_0_0",
        "Sdep_0_0_0", "gamma_1_0_0_0", "Theta_arr_1_0_0", "Theta_dep_1_0_0"]
    assert sum(map(len, blocks)) == model.n_cols == 778


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
        decode_solution(fake, vm, golden, SolveConfig())


# ---------------------------------------------------------------------------
# Plans re-timed on the exact charge curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corridor, planner", [
    ("worked-example", "pla"), ("worked-example", "fa"),
    pytest.param("worked-example", "bd", marks=pytest.mark.slow),  # bd_150
    ("short-haul-4", "pla"), ("short-haul-4", "fa"), ("short-haul-4", "bd")])
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


def test_decode_keeps_decisions_and_retimes_charges():
    # One train, one battery, a charge at station 1: to a target above the
    # exact arrival SOC it takes exactly the hours the curve needs, to one
    # below it none (the flag goes), and to a full battery t_max (capped).
    inst = tiny_corridor(7)
    cfg = SolveConfig()
    _, vm = build_model(inst, cfg)
    arrival = 1.0 - inst.leg_energy(0, 0)
    model_objective = inst.fixed_cost[1] + cfg.alpha_delay * 12.5
    for target, hours, flag, capped in (
            (arrival + 0.1,
             charge_time_for_target(arrival, arrival + 0.1, inst.r0), 1, 0),
            (arrival - 0.01, 0.0, 0, 0),
            (1.0, cfg.t_max, 1, 1)):
        x = np.zeros(vm.n_cols)
        x[[vm.X[1], vm.Y[0, 0], vm.Zc[1, 0, 0]]] = 1.0
        x[vm.Sdep[1, 0, 0]] = target
        x[vm.D[1, 0]] = 12.5
        sol = decode_solution(be.SolveOutcome(status="optimal", primal=x),
                              vm, inst, cfg)
        assert sol.charge[0][1] == [flag]
        assert sol.charge_hours[0][1] == [pytest.approx(hours, abs=1e-12)]
        assert sol.soc_arrive[0][1] == [pytest.approx(arrival, abs=1e-12)]
        assert sol.depart[0][1] - sol.arrive[0][1] == pytest.approx(hours)
        assert sol.info["model_objective"] == pytest.approx(model_objective)
        assert sol.info["capped_charges"] == capped
        assert sol.objective_value == pytest.approx(
            inst.fixed_cost[1] + cfg.alpha_delay * hours)


def test_decode_reads_only_decisions(golden, golden_config, golden_pla):
    # The plan comes from X, Y, Zs, Zc and Sdep alone, and D feeds only the
    # objective check: scrambling every other column, past its bounds too,
    # decodes to the same plan.
    _, vm = build_model(golden, golden_config)
    x = np.asarray(golden_pla.info["primal"], dtype=float)
    keep = [c for columns in (vm.X, vm.Y, vm.Zs, vm.Zc, vm.Sdep, vm.D)
            for c in columns.values()]
    scrambled = np.where(np.arange(vm.n_cols) < vm.n_binary, 0.5, -3.0)
    scrambled[keep] = x[keep]
    sol = decode_solution(be.SolveOutcome(
        status="optimal", primal=scrambled,
        objective=golden_pla.info["model_objective"],
        best_bound=golden_pla.bound, gap=golden_pla.gap,
        message=golden_pla.info["solver_message"]),
        vm, golden, golden_config)
    want = golden_pla.to_dict()
    for key in ("n_columns", "n_rows", "n_binaries", "primal"):
        del want["info"][key]
    got = sol.to_dict()
    got["wall_seconds"] = want["wall_seconds"]
    assert got == want


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


def test_one_built_model_solves_each_fixing_as_a_fresh_build(golden):
    # Every call sets the X and Y bounds afresh, so no fixing leaks into a
    # later call on the same model: a feasible and an infeasible subset,
    # every station, then the free model.
    cfg = SolveConfig(time_limit_seconds=60.0)
    built = build_model(golden, cfg)

    def plain(sol):
        return {k: v for k, v in sol.to_dict().items() if k != "wall_seconds"}

    for fixed in ([1, 2, 4], [2], list(golden.interior), None):
        reused = solve_pla(golden, cfg, fixed, built=built)
        assert plain(reused) == plain(solve_pla(golden, cfg, fixed)), fixed
    assert reused.objective_value == pytest.approx(94.5624, abs=1e-4)


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
