"""Greedy deployment heuristic: scores, seeding, the full walk."""

import copy
import json

import numpy as np
import pytest

from railvolt import backend as be, fixalg, model as model_mod
from railvolt.domain import SolveConfig
from railvolt.fixalg import (_argmax, _nearest_deployed, compute_benefit,
                             compute_supply_demand, initialize_deployment,
                             run_fix_algorithm, station_supply)
from railvolt.generator import GenSpec, generate_instance
from railvolt.validator import simulate_schedule

from conftest import count_builds, restocked_corridor, tiny_corridor


def dry_corridor():
    """Tiny corridor 31 with no chargers and no stock: no deployment can
    carry its trains."""
    inst = tiny_corridor(31, energy_lo=0.6, energy_hi=0.9)
    inst.chargers[:] = 0
    inst.full_batteries[:] = 0
    return inst


@pytest.fixture(scope="module")
def fa_reference(golden):
    return run_fix_algorithm(golden, SolveConfig(time_limit_seconds=120.0))


# ---------------------------------------------------------------------------
# Energy bookkeeping and scores (frozen by hand from the worked corridor)
# ---------------------------------------------------------------------------


def test_supply_demand_on_reference(golden):
    demand, onboard, deficit = compute_supply_demand(golden)
    assert demand == pytest.approx(15.98, abs=0.02)
    assert onboard == pytest.approx(6.0, abs=1e-12)
    assert deficit == pytest.approx(9.98, abs=0.02)


def test_onboard_counts_only_batteries_a_consist_can_hold():
    # two trains of 2 consists with an allowance of 3 carry 2 batteries each
    inst = tiny_corridor(37, n_trains=2, consists=2, max_batteries=3)
    demand, onboard, deficit = compute_supply_demand(inst)
    assert onboard == 4.0
    assert deficit == pytest.approx(max(0.0, demand - 4.0), abs=1e-12)


def test_seed_covers_the_deficit_of_the_full_load():
    # the deficit of 4 batteries aboard, not 6, takes a third station
    inst = generate_instance(GenSpec(size_class="medium", n_trains=2,
                                     consists_per_train=2, seed=1))
    deployed, _ = initialize_deployment(inst, SolveConfig())
    assert sorted(deployed) == [4, 8, 10]


def test_station_supply_counts_stock_and_charger_sessions(golden):
    # 8 stocked batteries + 2 trains x 7 chargers
    assert station_supply(golden, 1) == pytest.approx(22.0)


def test_first_round_scores_on_reference(golden):
    scores = compute_benefit(golden, set(), SolveConfig())
    assert sorted(scores) == [1, 2, 3, 4]
    assert scores[1] == pytest.approx(17.10, abs=0.02)
    assert scores[2] == pytest.approx(14.01, abs=0.02)
    assert scores[3] == pytest.approx(8.38, abs=0.02)
    assert scores[4] == pytest.approx(5.70, abs=0.02)


def test_scores_skip_deployed_stations(golden):
    scores = compute_benefit(golden, {1, 3}, SolveConfig())
    assert sorted(scores) == [2, 4]


def test_delay_weight_raises_scores_of_waity_stations(golden):
    lo = compute_benefit(golden, set(), SolveConfig(alpha_delay=3.0))
    hi = compute_benefit(golden, set(), SolveConfig(alpha_delay=5.0))
    for i in lo:
        waits = sum(float(golden.wait_time[i, j])
                    for j in range(golden.n_trains))
        assert hi[i] - lo[i] == pytest.approx(2.0 * waits, abs=1e-9)


def test_neighbour_lookup_falls_back_to_endpoints():
    assert _nearest_deployed(2, {1, 3}, 6) == (1, 3)
    assert _nearest_deployed(2, set(), 6) == (0, 5)
    assert _nearest_deployed(4, {1}, 6) == (1, 5)


def test_tie_break_is_seeded_and_stable():
    scores = {3: 5.0, 1: 5.0, 2: 4.0}
    picks = {_argmax(scores, np.random.default_rng(0)) for _ in range(5)}
    assert len(picks) == 1  # same rng state, same pick
    assert picks.pop() in (1, 3)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def test_seed_deploys_best_scorer_until_covered(golden):
    deployed, rounds = initialize_deployment(golden, SolveConfig())
    assert deployed == {1}
    assert [r["phase"] for r in rounds] == ["seed"]
    assert rounds[-1]["deficit"] == pytest.approx(9.98, abs=0.02)
    assert rounds[-1]["covered"] >= rounds[-1]["deficit"]
    assert rounds[0]["picked"] == 1


def test_seed_opens_every_station_when_supply_falls_short():
    # no station can supply anything, so the seed opens them all and leaves
    # the rounds' schedule MILP to decide whether that deployment works
    inst = dry_corridor()
    deployed, rounds = initialize_deployment(inst, SolveConfig())
    assert deployed == set(inst.interior)
    assert [r["phase"] for r in rounds] == ["seed"] * len(inst.interior)
    assert sorted(r["picked"] for r in rounds) == list(inst.interior)


# ---------------------------------------------------------------------------
# Full walk on the worked corridor
# ---------------------------------------------------------------------------


def test_walk_opens_stations_until_schedulable(golden, fa_reference):
    sol = fa_reference
    assert sol.algorithm == "fa"
    assert sol.deployed == [1, 2, 3, 4]
    assert sol.status in ("optimal-within-gap", "feasible-time-limit")
    setup = sum(golden.fixed_cost[i] for i in sol.deployed)
    assert setup == pytest.approx(102.21, abs=0.01)
    # The last round is a time-sliced solve, so only bound the incumbent:
    # it pays at least the setup and should land well under twice it.
    assert sol.objective_value >= setup - 1e-6
    assert sol.objective_value < 2.0 * setup


def test_walk_trace_records_each_round(golden, fa_reference):
    rounds = fa_reference.info["fix_rounds"]
    phases = [r["phase"] for r in rounds]
    assert phases[0] == "seed"
    assert phases.count("solve") >= 1
    solves = [r for r in rounds if r["phase"] == "solve"]
    # every failed round names its next pick; the last one succeeded
    for r in solves[:-1]:
        assert "next_pick" in r
    assert "next_pick" not in solves[-1]
    assert fa_reference.info["deficit"] == pytest.approx(9.98, abs=0.02)


def test_walk_result_replays_clean(golden, fa_reference):
    report = simulate_schedule(golden, fa_reference)
    assert report.ok, report.violations


def test_walk_never_beats_the_free_optimum(golden_pla, fa_reference):
    # the heuristic solves a restriction, so it can only do worse (or tie)
    assert golden_pla.objective_value <= fa_reference.objective_value + 1e-6


def test_no_plan_is_a_status_not_an_exception():
    # every leg needs more than one battery, so even all stations open
    # leave no schedule: the last round's "infeasible" is the answer
    inst = tiny_corridor(41, energy_lo=1.2, energy_hi=1.5)
    sol = run_fix_algorithm(inst, SolveConfig(time_limit_seconds=30.0))
    assert sol.status == "infeasible"
    assert sol.algorithm == "fa"
    assert sol.info["deployed"] == list(inst.interior)
    # a line without chargers or stock: the seed opens every station, and
    # the all-open round's "infeasible" is the answer
    dry = dry_corridor()
    sol = run_fix_algorithm(dry, SolveConfig(time_limit_seconds=30.0))
    assert (sol.status, sol.algorithm) == ("infeasible", "fa")
    assert sol.info["deployed"] == list(dry.interior)
    last = sol.info["fix_rounds"][-1]
    assert (last["phase"], last["status"], last["deployed"]) == (
        "solve", "infeasible", list(dry.interior))


@pytest.mark.parametrize("make, plan", [
    (restocked_corridor, (96.0, [1, 2, 3])),
    (lambda: tiny_corridor(41, energy_lo=1.2, energy_hi=1.5), None),
    (dry_corridor, None),
], ids=["restocked", "tiny-41", "dry-31"])
def test_fa_finds_a_plan_exactly_when_pla_does(make, plan):
    # stock is restocked for every train, so a line whose deficit exceeds
    # the summed stock can still have a plan (the restocked corridor)
    inst = make()
    cfg = SolveConfig(time_limit_seconds=30.0)
    fa = run_fix_algorithm(inst, cfg)
    pla = model_mod.solve_pla(inst, cfg)
    assert np.isfinite(fa.objective_value) == \
        np.isfinite(pla.objective_value) == (plan is not None)
    if plan is None:
        assert fa.status == pla.status == "infeasible"
        return
    assert fa.objective_value == pytest.approx(plan[0], abs=1e-6)
    assert fa.objective_value == pytest.approx(pla.objective_value,
                                               abs=1e-6)
    assert fa.deployed == plan[1]
    report = simulate_schedule(inst, fa, tolerance=1e-4)
    assert report.ok, report.violations


def test_walk_on_tiny_corridor_respects_budget():
    inst = tiny_corridor(37)
    sol = run_fix_algorithm(inst, SolveConfig(time_limit_seconds=30.0))
    assert sol.status in ("optimal-within-gap", "feasible-time-limit")
    assert sol.wall_seconds < 60.0
    report = simulate_schedule(inst, sol)
    assert report.ok, report.violations


def test_every_round_solves_the_one_model_built_per_call(monkeypatch):
    # Medium short-haul 1 takes 13 rounds, and one build serves them all:
    # the reach check proves the first 12, so the build waits for the 13th.
    calls = count_builds(monkeypatch, model_mod, fixalg)
    given = []

    def recorded(instance, config, fixed_deployment, built):
        given.append(built)
        return model_mod.solve_pla(instance, config, fixed_deployment,
                                   built=built)

    monkeypatch.setattr(fixalg, "solve_pla", recorded)
    inst = generate_instance(GenSpec(
        size_class="medium", n_trains=1, consists_per_train=1,
        max_batteries=1, distance_mean_km=180.0, distance_sd_km=30.0, seed=1))
    sol = run_fix_algorithm(inst, SolveConfig(time_limit_seconds=60.0))
    rounds = [r for r in sol.info["fix_rounds"] if r["phase"] == "solve"]
    assert sol.status == "optimal-within-gap" and len(rounds) == 13
    assert calls == [inst.name]
    assert given[:12] == [None] * 12 and given[12] is not None


def test_every_round_reruns_one_live_session(monkeypatch):
    # One HiGHS session serves all 13 rounds of medium short-haul 1, and
    # each round answers as a fresh session on its fixing does.
    inst = generate_instance(GenSpec(
        size_class="medium", n_trains=1, consists_per_train=1,
        max_batteries=1, distance_mean_km=180.0, distance_sd_km=30.0, seed=1))
    sessions, rounds = [], []

    def answer(sol):
        d = sol.to_dict()   # a deep copy: fa relabels its last round's plan
        del d["wall_seconds"]
        return d

    class CountedSession(be.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    def recorded(instance, config, fixed_deployment, built):
        sol = model_mod.solve_pla(instance, config, fixed_deployment,
                                  built=built)
        rounds.append((config, fixed_deployment, answer(sol)))
        return sol

    with monkeypatch.context() as mp:
        mp.setattr(be, "Session", CountedSession)
        mp.setattr(fixalg, "solve_pla", recorded)
        run_fix_algorithm(inst, SolveConfig(time_limit_seconds=60.0))
    assert len(sessions) == 1 and len(rounds) == 13
    for config, fixed, got in rounds:
        assert got == answer(
            model_mod.solve_pla(inst, config, fixed_deployment=fixed))


def _medium_short_haul(seed):
    return generate_instance(GenSpec(
        size_class="medium", n_trains=1, consists_per_train=1,
        max_batteries=1, distance_mean_km=180.0, distance_sd_km=30.0,
        seed=seed))


def test_rounds_proved_by_reach_windows_run_no_milp(monkeypatch):
    # Medium short-haul 1's first 12 rounds each leave a reach window
    # without an open station, so the one HiGHS MILP run is the last
    # round's; each proved round names its window, and the whole answer is
    # plain JSON.
    sessions = []

    class CountedSession(be.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(be, "Session", CountedSession)
    sol = run_fix_algorithm(_medium_short_haul(1),
                            SolveConfig(time_limit_seconds=60.0))
    rounds = [r for r in sol.info["fix_rounds"] if r["phase"] == "solve"]
    assert sol.status == "optimal-within-gap" and len(rounds) == 13
    assert [s.runs for s in sessions] == [1]
    assert sessions[0].has_integers
    for r in rounds[:-1]:
        _, a, b = r["reach_window"]
        assert r["status"] == "infeasible"
        assert not any(a < s < b for s in r["deployed"])
    assert "reach_window" not in rounds[-1]
    assert rounds[0]["reach_window"] == [0, 0, 2]
    assert all(type(x) is int for r in rounds[:-1] for x in r["reach_window"])
    json.dumps(sol.to_dict())   # numpy integers would be refused


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_every_round_the_reach_check_proves_is_infeasible(monkeypatch, seed):
    # Soundness: each fixing the check proves is infeasible when the backend
    # solves it without the check, on one model the test builds (a proved
    # round leaves fa's model unbuilt or untouched).
    inst = _medium_short_haul(seed)
    own = model_mod.build_model(inst, SolveConfig())
    proved = []

    def checked(instance, config, fixed_deployment, built):
        sol = model_mod.solve_pla(instance, config, fixed_deployment,
                                  built=built)
        if "reach_window" in sol.info:
            with monkeypatch.context() as mp:
                mp.setattr(model_mod, "_unserved_window", lambda *args: None)
                unchecked = model_mod.solve_pla(
                    instance, config.replace(time_limit_seconds=60.0),
                    fixed_deployment, built=own)
            proved.append((fixed_deployment, unchecked.status))
        return sol

    monkeypatch.setattr(fixalg, "solve_pla", checked)
    run_fix_algorithm(inst, SolveConfig(time_limit_seconds=60.0))
    assert len(proved) >= 12
    assert all(status == "infeasible" for _, status in proved), proved


def test_rounds_the_check_all_proves_build_no_model(monkeypatch):
    # The check proves all 13 rounds of medium short-haul 2, so no model
    # is built for it.
    calls = count_builds(monkeypatch, model_mod, fixalg)
    sol = run_fix_algorithm(_medium_short_haul(2),
                            SolveConfig(time_limit_seconds=60.0))
    rounds = [r for r in sol.info["fix_rounds"] if r["phase"] == "solve"]
    assert sol.status == "infeasible" and len(rounds) == 13
    assert all("reach_window" in r for r in rounds)
    assert calls == []
