"""MILP assembly: grid construction, census, decode semantics."""

import hashlib
import time

import numpy as np
import pytest

from railvolt import backend as be
from railvolt import model as model_mod
from railvolt.domain import InstanceError, SolveConfig
from railvolt.model import (build_model, build_pla_grid, decode_solution,
                            solve_pla)

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


# ---------------------------------------------------------------------------
# Assembly census on the worked corridor
# ---------------------------------------------------------------------------


def test_model_census_on_reference_corridor(golden):
    model, vm = build_model(golden, SolveConfig())
    assert model.n_cols == 1258
    assert vm.n_binary == 574
    assert model.n_rows == 6166
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
        "9d67f95153f5f97172ac9b9e1b8d75558b87ac34c0c42be2efc96f6c0299cd8d")


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
    sol = solve_pla(inst, cfg, fixed_deployment=set(inst.interior),
                    max_loading=True)
    assert sol.status == "optimal-within-gap"
    for j in range(inst.n_trains):
        assert sol.has_battery[j] == [1, 0]


def test_dump_model_round_trips(tmp_path):
    # --dump-model writes exactly the model that is solved; the LP text
    # carries the objective offset as the objective's constant term
    inst = tiny_corridor(2, wait_hours=0.25)
    path = tmp_path / "model.lp"
    cfg = SolveConfig(time_limit_seconds=60.0)
    sol = solve_pla(inst, cfg, dump_model=str(path))
    assert sol.status == "optimal-within-gap"
    model, _ = build_model(inst, cfg)
    assert model.objective_offset == -1.5
    text = path.read_text()
    assert text == be.to_lp_string(model)
    assert text.splitlines()[2].endswith(" - 1.5")
