"""Greedy deployment heuristic: scores, seeding, the full walk."""

import copy

import numpy as np
import pytest

from railvolt import backend as be, fixalg, model as model_mod
from railvolt.domain import InfeasibleError, SolveConfig
from railvolt.fixalg import (_argmax, _nearest_deployed, compute_benefit,
                             compute_supply_demand, initialize_deployment,
                             run_fix_algorithm, station_supply)
from railvolt.generator import GenSpec, generate_instance
from railvolt.validator import simulate_schedule

from conftest import count_builds, tiny_corridor


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


def test_seed_refuses_uncoverable_lines():
    inst = tiny_corridor(31, energy_lo=0.6, energy_hi=0.9)
    for i in range(inst.n_stations):
        inst.chargers[i] = 0
        inst.full_batteries[i] = 0
    with pytest.raises(InfeasibleError):
        initialize_deployment(inst, SolveConfig())


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
    # a line whose stations cannot cover the deficit stops at the seed
    dry = tiny_corridor(31, energy_lo=0.6, energy_hi=0.9)
    dry.chargers[:] = 0
    dry.full_batteries[:] = 0
    sol = run_fix_algorithm(dry, SolveConfig(time_limit_seconds=30.0))
    assert (sol.status, sol.algorithm, sol.info["phase"]) == (
        "infeasible", "fa", "seed")


def test_walk_on_tiny_corridor_respects_budget():
    inst = tiny_corridor(37)
    sol = run_fix_algorithm(inst, SolveConfig(time_limit_seconds=30.0))
    assert sol.status in ("optimal-within-gap", "feasible-time-limit")
    assert sol.wall_seconds < 60.0
    report = simulate_schedule(inst, sol)
    assert report.ok, report.violations


def test_every_round_solves_the_one_model_built_per_call(monkeypatch):
    # Medium short-haul 1 takes 13 rounds, and one build serves them all.
    calls = count_builds(monkeypatch, model_mod, fixalg)
    inst = generate_instance(GenSpec(
        size_class="medium", n_trains=1, consists_per_train=1,
        max_batteries=1, distance_mean_km=180.0, distance_sd_km=30.0, seed=1))
    sol = run_fix_algorithm(inst, SolveConfig(time_limit_seconds=60.0))
    rounds = [r for r in sol.info["fix_rounds"] if r["phase"] == "solve"]
    assert sol.status == "optimal-within-gap" and len(rounds) == 13
    assert calls == [inst.name]


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
