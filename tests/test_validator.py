"""Independent schedule replay and the exhaustive tiny-instance search."""

import copy
import hashlib
import math
import random

import pytest

from railvolt.domain import Instance, SolveConfig, Solution
from railvolt.generator import GenSpec, generate_instance
from railvolt.validator import (SearchSpaceError, SolutionShapeError,
                                brute_force_best, recompute_metrics,
                                simulate_schedule)

from conftest import tiny_corridor

FIXTURE_INSTANCE = "instances/illustrative.json"
FIXTURE_SCHEDULE = "instances/illustrative_schedule.json"


@pytest.fixture(scope="module")
def fixture_pair():
    return (Instance.from_json(FIXTURE_INSTANCE),
            Solution.from_json(FIXTURE_SCHEDULE))


def _mutable(sol: Solution) -> Solution:
    return copy.deepcopy(sol)


# ---------------------------------------------------------------------------
# Replay of the checked-in worked schedule
# ---------------------------------------------------------------------------


def test_fixture_schedule_replays_clean(fixture_pair):
    inst, sol = fixture_pair
    report = simulate_schedule(inst, sol)
    assert report.ok, report.violations
    assert report.violations == []
    m = report.metrics
    assert m is not None
    assert m.stations_deployed == 3
    assert m.setup_cost == pytest.approx(73.19, abs=0.01)
    assert m.delay_hours_per_train == pytest.approx(3.60, abs=0.01)
    assert m.charge_hours_per_train == pytest.approx(2.89, abs=0.01)
    assert m.swap_hours_per_station == pytest.approx(6.00, abs=0.01)


def test_report_round_trips_to_dict(fixture_pair):
    inst, sol = fixture_pair
    d = simulate_schedule(inst, sol).as_dict()
    assert d["ok"] is True and d["violations"] == []
    assert set(d["metrics"]) >= {"objective", "setup_cost"}


def test_recompute_metrics_matches_decoded_objective(golden, golden_pla):
    m = recompute_metrics(golden, golden_pla)
    assert m.objective == pytest.approx(golden_pla.objective_value, rel=1e-6)
    assert m.stations_deployed == len(golden_pla.deployed)


# ---------------------------------------------------------------------------
# Each class of violation is actually caught
# ---------------------------------------------------------------------------


def _first_swap(inst, sol):
    for j in range(inst.n_trains):
        for i in inst.interior:
            for k in range(inst.consists(j)):
                if sol.swap[j][i][k]:
                    return j, i, k
    pytest.skip("fixture has no swap to mutate")


def _first_charge(inst, sol):
    for j in range(inst.n_trains):
        for i in inst.interior:
            for k in range(inst.consists(j)):
                if sol.charge[j][i][k]:
                    return j, i, k
    pytest.skip("fixture has no charge to mutate")


def test_detects_operations_at_undeployed_station(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    j, i, k = _first_swap(inst, sol)
    bad.deployed = [s for s in bad.deployed if s != i]
    report = simulate_schedule(inst, bad)
    assert not report.ok
    assert any("undeployed" in v for v in report.violations)


def test_detects_broken_time_chain(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    bad.arrive[0][2] += 0.5
    report = simulate_schedule(inst, bad)
    assert not report.ok
    assert any("arrival at station" in v for v in report.violations)


def test_detects_understated_delay(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    j, i, _ = _first_charge(inst, sol)
    bad.delay[j][i] = 0.0 if bad.delay[j][i] > 0.1 else 5.0
    report = simulate_schedule(inst, bad)
    assert not report.ok
    assert any("claimed delay" in v for v in report.violations)


def test_detects_soc_jump_without_charging(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    j, i, k = _first_charge(inst, sol)
    bad.charge[j][i][k] = 0
    bad.charge_hours[j][i][k] = 0.0
    report = simulate_schedule(inst, bad)
    assert not report.ok
    assert any("departure SOC" in v or "arrival SOC" in v
               for v in report.violations)


def test_detects_wrong_charge_curve_claim(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    j, i, k = _first_charge(inst, sol)
    bad.soc_depart[j][i][k] = min(1.0, bad.soc_depart[j][i][k] + 0.2)
    report = simulate_schedule(inst, bad)
    assert not report.ok
    assert any("departure SOC" in v for v in report.violations)


def test_detects_mixed_actions_and_missing_battery(fixture_pair):
    inst, sol = fixture_pair
    j, i, k = _first_swap(inst, sol)
    mixed = _mutable(sol)
    mixed.charge[j][i][k] = 1
    mixed.charge_hours[j][i][k] = 1.0
    report = simulate_schedule(inst, mixed)
    assert any("mixed" in v for v in report.violations)

    empty = _mutable(sol)
    empty.has_battery[j][k] = 0
    report = simulate_schedule(inst, empty)
    assert any("carries no battery" in v for v in report.violations)


def test_detects_swap_stock_exhaustion(fixture_pair):
    inst, sol = fixture_pair
    j, i, k = _first_swap(inst, sol)
    starved = copy.deepcopy(inst)
    starved.full_batteries[i] = 0
    report = simulate_schedule(starved, sol)
    assert any("exceed the stock" in v for v in report.violations)


def test_detects_short_swap_dwell(fixture_pair):
    inst, sol = fixture_pair
    j, i, k = _first_swap(inst, sol)
    bad = _mutable(sol)
    shift = (bad.depart[j][i] - bad.arrive[j][i]) - 0.5
    for s in range(i, inst.n_stations):
        bad.depart[j][s] -= shift
        if s > i:
            bad.arrive[j][s] -= shift
    report = simulate_schedule(inst, bad)
    assert not report.ok
    assert any("swap" in v and "dwell" in v for v in report.violations)


def test_detects_energy_shortfall(fixture_pair):
    inst, sol = fixture_pair
    hungry = copy.deepcopy(inst)
    hungry.energy = hungry.energy * 50.0
    report = simulate_schedule(hungry, sol)
    assert any("runs out of energy" in v for v in report.violations)


def test_detects_operations_at_endpoints(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    bad.charge[0][0][0] = 1
    bad.charge_hours[0][0][0] = 1.0
    report = simulate_schedule(inst, bad)
    assert any("endpoint" in v for v in report.violations)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.01])
def test_tolerance_must_be_a_finite_number_at_least_zero(fixture_pair,
                                                         tolerance):
    # every comparison with nan is false: a nan tolerance would pass any
    # SOC claim, and this one is off by a full battery
    inst, sol = fixture_pair
    bad = _mutable(sol)
    bad.soc_depart[0][1][0] = 0.0
    assert any("departure SOC" in v
               for v in simulate_schedule(inst, bad).violations)
    with pytest.raises(ValueError, match="tolerance"):
        simulate_schedule(inst, bad, tolerance=tolerance)


def test_shape_mismatch_is_refused(fixture_pair):
    inst, sol = fixture_pair
    bad = _mutable(sol)
    bad.arrive = bad.arrive[:-1]
    with pytest.raises(SolutionShapeError):
        simulate_schedule(inst, bad)


def test_validates_solver_output_end_to_end(golden, golden_pla):
    report = simulate_schedule(golden, golden_pla)
    assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Exhaustive search on tiny corridors
# ---------------------------------------------------------------------------


def test_brute_force_result_replays_clean():
    inst = tiny_corridor(11)
    obj, sol = brute_force_best(inst)
    assert math.isfinite(obj)
    assert sol.objective_value == pytest.approx(obj, abs=1e-9)
    report = simulate_schedule(inst, sol)
    assert report.ok, report.violations


def test_brute_force_is_deterministic():
    inst = tiny_corridor(13)
    obj1, sol1 = brute_force_best(inst)
    obj2, sol2 = brute_force_best(inst)
    assert obj1 == obj2
    assert sol1.to_dict() == sol2.to_dict()


def test_brute_force_skips_stations_when_energy_allows():
    # Legs so cheap the origin battery covers the whole trip: the best plan
    # deploys nothing and pays nothing.
    inst = tiny_corridor(17, energy_lo=0.05, energy_hi=0.12, wait_hours=0.0)
    obj, sol = brute_force_best(inst)
    assert sol.deployed == []
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_brute_force_objective_beats_or_ties_single_plans():
    # The enumerated optimum can never lose to the all-stations plan it
    # itself enumerates.
    inst = tiny_corridor(19)
    obj, sol = brute_force_best(inst)
    full_setup = sum(inst.fixed_cost[i] for i in inst.interior)
    assert obj <= full_setup + 1e-9 or sol.deployed != sorted(inst.interior)


def test_brute_force_grid_refinement_never_hurts():
    inst = tiny_corridor(23)
    coarse, _ = brute_force_best(inst, time_step=2.0)
    fine, _ = brute_force_best(inst, time_step=0.5)
    assert fine <= coarse + 1e-9


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _tampered(inst, sol, rng):
    """A copy of ``sol`` with one seeded field of one stop changed."""
    bad = _mutable(sol)
    j = rng.randrange(inst.n_trains)
    i = rng.randrange(inst.n_stations)
    k = rng.randrange(inst.consists(j))
    what = rng.randrange(10)
    if what == 0:
        bad.swap[j][i][k] ^= 1
    elif what == 1:
        bad.charge[j][i][k] ^= 1
    elif what == 2:
        bad.charge_hours[j][i][k] = rng.uniform(0.0, 3.0)
    elif what == 3:
        bad.soc_arrive[j][i][k] = rng.random()
    elif what == 4:
        bad.soc_depart[j][i][k] = rng.random()
    elif what == 5:
        bad.arrive[j][i] += rng.uniform(-1.0, 1.0)
    elif what == 6:
        bad.depart[j][i] += rng.uniform(-1.0, 1.0)
    elif what == 7:
        bad.delay[j][i] = rng.uniform(0.0, 2.0)
    elif what == 8:
        bad.has_battery[j][k] ^= 1
    else:
        bad.deployed = sorted(set(bad.deployed)
                              ^ {rng.choice(list(inst.interior))})
    return bad


def test_replay_reports_are_pinned(fixture_pair):
    # the replay's verdicts on 40 seeded tampered copies of the worked
    # schedule, at the loose and the strict tolerance, pinned by hash so a
    # refactor of the oracle cannot change one unnoticed
    inst, sol = fixture_pair
    reports = []
    for seed in range(40):
        bad = _tampered(inst, sol, random.Random(seed))
        for tolerance in (0.05, 1e-4):
            reports.append(
                simulate_schedule(inst, bad, tolerance=tolerance).as_dict())
    assert sum(not r["ok"] for r in reports) > 40
    assert _digest(reports) == "c272e9f45fda0c85"


def test_brute_force_results_are_pinned():
    # optima of tiny corridors with 1 or 2 trains, 1 or 2 consists and
    # allowances below, at and above the consist count, pinned by hash
    results = []
    for seed in range(4):
        for n_trains in (1, 2):
            for consists in (1, 2):
                for max_batteries in (1, 2, 3):
                    inst = tiny_corridor(
                        seed, n_interior=2 + seed % 2, n_trains=n_trains,
                        consists=consists, max_batteries=max_batteries,
                        energy_lo=(0.35, 0.2, 0.8, 0.35)[seed],
                        energy_hi=(0.85, 0.6, 1.6, 0.85)[seed],
                        wait_hours=0.3 * seed)
                    obj, sol = brute_force_best(inst)
                    results.append((obj, sol.to_dict()))
    assert {math.isinf(obj) for obj, _ in results} == {False, True}
    assert any(any(map(any, sum(sol["charge"], [])))
               for _, sol in results)
    assert _digest(results) == "81f78124da2966a5"


def test_brute_force_refuses_generated_instances():
    inst = generate_instance(GenSpec(size_class="small", seed=1))
    with pytest.raises(SearchSpaceError):
        brute_force_best(inst)


def test_brute_force_refuses_explosive_state_counts():
    inst = tiny_corridor(29, n_interior=4, consists=2, max_batteries=2)
    with pytest.raises(SearchSpaceError):
        brute_force_best(inst, time_step=0.01, max_states=1000)


@pytest.mark.parametrize("time_step", [0.0, -1.0, math.nan, math.inf])
def test_brute_force_refuses_a_bad_time_step(time_step):
    # a step of 0 divides by zero, NaN cannot grid, and a negative step
    # grids no charge durations at all: each is refused up front
    with pytest.raises(ValueError, match="time_step"):
        brute_force_best(tiny_corridor(11), time_step=time_step)
