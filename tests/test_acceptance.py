"""Acceptance gate: one test per sign-off item, each printing a single
PASS/FAIL verdict line (run with ``pytest tests/test_acceptance.py -v -s``).

Reference numbers are the worked six-station example's documented results
and the oracle values recomputed independently in the unit suites.  One
check is marked strict-xfail: the greedy heuristic's historically reported
plan is not reproducible by a faithful implementation (details in the
repository notes).  It is asserted as stated and expected to fail, never
weakened.
"""

import math
import time

import numpy as np
import pytest

from railvolt.benders import run_benders
from railvolt.domain import (Instance, SolveConfig, Solution,
                             charge_time_for_target, soc_after_charging)
from railvolt.fixalg import run_fix_algorithm
from railvolt.generator import GenSpec, generate_instance
from railvolt.model import solve_pla
from railvolt.reporting import paired_t_test, run_batch, sensitivity_compare
from railvolt.validator import (brute_force_best, recompute_metrics,
                                simulate_schedule)

from conftest import count_overcuts, run_benders_with_master, tiny_corridor

FIXTURE_INSTANCE = "instances/illustrative.json"
FIXTURE_SCHEDULE = "instances/illustrative_schedule.json"

# the worked example's documented outcomes
PLA_OBJECTIVE = 94.81
PLA_DEPLOYED = [1, 2, 4]
PLA_SETUP = 73.19
FA_OBJECTIVE = 108.45
FA_DEPLOYED = [1, 3, 4]
FA_SETUP = 80.74

ORACLE_SEEDS = (7, 11, 13, 17, 19)
CONVERGENCE_SEEDS = (4, 6, 11, 14, 19)
SWEEP_SEEDS = (1, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def _verdict(item: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {item}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance item {item}: {detail}"


# ---------------------------------------------------------------------------
# 1. One-shot linearized model on the worked example
# ---------------------------------------------------------------------------


def test_1_reference_solve(golden, golden_pla):
    sol = golden_pla
    rel = abs(sol.objective_value - PLA_OBJECTIVE) / PLA_OBJECTIVE
    setup = sum(float(golden.fixed_cost[i]) for i in sol.deployed)
    ok = (rel <= 0.015
          and sorted(sol.deployed) == PLA_DEPLOYED
          and abs(setup - PLA_SETUP) <= 0.01
          and sol.wall_seconds < 60.0)
    _verdict("1", ok,
             f"objective {sol.objective_value:.4f} (target {PLA_OBJECTIVE} "
             f"±1.5%), deployed {sorted(sol.deployed)} (target "
             f"{PLA_DEPLOYED}), setup {setup:.2f} (target {PLA_SETUP} "
             f"±0.01), {sol.wall_seconds:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Heuristic and decomposition on the worked example
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the greedy walk, implemented as documented, deploys station 2 "
           "as well: its benefit score dominates in every round, so the "
           "historically reported three-station plan is unreachable")
def test_2a_greedy_matches_reported_plan(golden, fa_60):
    setup = sum(float(golden.fixed_cost[i]) for i in fa_60.deployed)
    rel = abs(fa_60.objective_value - FA_OBJECTIVE) / FA_OBJECTIVE
    ok = (sorted(fa_60.deployed) == FA_DEPLOYED
          and abs(setup - FA_SETUP) <= 0.01
          and rel <= 0.015)
    _verdict("2a", ok,
             f"greedy deployed {sorted(fa_60.deployed)} / setup {setup:.2f} "
             f"/ objective {fa_60.objective_value:.4f} vs reported "
             f"{FA_DEPLOYED} / {FA_SETUP} / {FA_OBJECTIVE} ±1.5%")


@pytest.mark.slow
def test_2b_decomposition_reaches_reference_quality(bd_150):
    rel = abs(bd_150.objective_value - PLA_OBJECTIVE) / PLA_OBJECTIVE
    ok = rel <= 0.05
    _verdict("2b", ok,
             f"decomposition objective {bd_150.objective_value:.4f} vs "
             f"{PLA_OBJECTIVE} ±5% (deviation {rel:.1%})")


@pytest.mark.slow
def test_2c_decomposition_no_worse_than_greedy(fa_60, bd_150):
    ok = bd_150.objective_value <= fa_60.objective_value + 1e-6
    _verdict("2c", ok,
             f"decomposition {bd_150.objective_value:.4f} ≤ greedy "
             f"{fa_60.objective_value:.4f} (decomposition got 150s, "
             f"greedy 60s)")


# ---------------------------------------------------------------------------
# 3. Checked-in schedule replays through the independent simulator
# ---------------------------------------------------------------------------


def test_3_fixture_schedule_replay():
    inst = Instance.from_json(FIXTURE_INSTANCE)
    sol = Solution.from_json(FIXTURE_SCHEDULE)
    report = simulate_schedule(inst, sol)
    m = report.metrics
    ok = (report.ok
          and m is not None
          and abs(m.delay_hours_per_train - 3.60) <= 0.01
          and abs(m.charge_hours_per_train - 2.89) <= 0.01
          and abs(m.swap_hours_per_station - 6.00) <= 0.01)
    detail = "replay rejected: " + "; ".join(report.violations[:3]) \
        if not report.ok else (
            f"replay clean; delay/train {m.delay_hours_per_train:.2f} "
            f"(3.60 ±0.01), charge/train {m.charge_hours_per_train:.2f} "
            f"(2.89 ±0.01), swap/station {m.swap_hours_per_station:.2f} "
            f"(6.00 ±0.01)")
    _verdict("3", ok, detail)


# ---------------------------------------------------------------------------
# 4. Tiny corridors against the exhaustive oracle
# ---------------------------------------------------------------------------


def test_4_tiny_instances_match_oracle():
    """The one-shot model must land in a window around the exhaustive
    optimum.  Upper side: the linearized model is an outer approximation of
    the charge curve, so every exact schedule whose charges last at most
    t_max hours is feasible in it, the 1h-gridded oracle's optimum among
    them; the model's optimum cannot exceed that beyond its own MIP gap,
    and the plan re-timed on the exact curve keeps the model's decisions
    (the window gives it 0.5 % more).  Lower side: the re-timed plan is an
    exact schedule, so it cannot undercut the continuous optimum, which can
    sit below the oracle's 0.5h duration grid by up to half an hour of
    charging per charge operation; the window allows that plus an hour."""
    cfg = SolveConfig(time_limit_seconds=60.0)
    t0 = time.perf_counter()
    lines = []
    ok = True
    for seed in ORACLE_SEEDS:
        inst = tiny_corridor(seed)
        oracle_1h, _ = brute_force_best(inst, time_step=1.0)
        oracle_05h, best = brute_force_best(inst, time_step=0.5)
        ops = sum(f for row in best.charge for st in row for f in st)
        pla = solve_pla(inst, cfg)
        bd = run_benders(inst, cfg)
        lo = oracle_05h - cfg.alpha_delay * (0.5 * max(1, ops) + 1.0)
        hi = oracle_1h * (1 + cfg.mip_gap / (1 - cfg.mip_gap) + 0.005) + 1e-6
        in_window = lo <= pla.objective_value <= hi
        bd_close = (bd.objective_value
                    <= pla.objective_value * (1 + cfg.benders_gap
                                              + cfg.mip_gap) + 1e-6
                    and bd.objective_value
                    >= pla.objective_value * (1 - cfg.mip_gap) - 1e-6)
        ok = ok and in_window and bd_close
        lines.append(f"seed {seed}: oracle {oracle_05h:.3f} model "
                     f"{pla.objective_value:.3f} in [{lo:.2f}, {hi:.2f}] "
                     f"{in_window}, decomposition {bd.objective_value:.3f} "
                     f"within gap {bd_close}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict("4", ok,
             f"{len(ORACLE_SEEDS)} corridors in {elapsed:.1f}s (< 300s); "
             + " | ".join(lines))


# ---------------------------------------------------------------------------
# 5. Charge physics identities in bulk
# ---------------------------------------------------------------------------


def test_5_physics_property_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10_000
    s = rng.uniform(0.0, 1.0 - 1e-9, size=n)
    t = rng.uniform(0.0, 30.0, size=n)
    r0 = rng.uniform(0.05, 0.95, size=n)
    after = 1.0 - (1.0 - s) * (1.0 - r0) ** t

    bounded = bool(np.all(after >= s - 1e-12) and np.all(after <= 1.0))
    monotone = bool(np.all(
        1.0 - (1.0 - s) * (1.0 - r0) ** (t + 0.25) >= after - 1e-12))
    # two consecutive charges compose into one of the summed duration
    mid = 1.0 - (1.0 - s) * (1.0 - r0) ** (0.4 * t)
    rest = 1.0 - (1.0 - mid) * (1.0 - r0) ** (0.6 * t)
    composes = bool(np.allclose(rest, after, atol=1e-9))

    scalar_ok = True
    for i in range(0, n, 97):
        si, ri = float(s[i]), float(r0[i])
        scalar_ok &= math.isclose(
            soc_after_charging(si, float(t[i]), ri), float(after[i]),
            abs_tol=1e-12)
        target = si + 0.5 * (1.0 - si)
        hours = charge_time_for_target(si, target, ri)
        scalar_ok &= math.isclose(
            soc_after_charging(si, hours, ri), target, abs_tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = bounded and monotone and composes and scalar_ok and elapsed < 10.0
    _verdict("5", ok,
             f"{n} samples in {elapsed:.2f}s (< 10s); bounds {bounded}, "
             f"monotone {monotone}, composition {composes}, scalar "
             f"round-trips {scalar_ok}")


# ---------------------------------------------------------------------------
# 6. Decomposition converges cleanly on generated instances
# ---------------------------------------------------------------------------


def _short_haul(seed: int) -> GenSpec:
    return GenSpec(n_trains=1, consists_per_train=1, max_batteries=1,
                   distance_mean_km=180.0, distance_sd_km=30.0, seed=seed)


def test_6_decomposition_converges_on_generated_instances():
    cfg = SolveConfig(time_limit_seconds=60.0)
    t0 = time.perf_counter()
    lines = []
    ok = True
    for seed in CONVERGENCE_SEEDS:
        inst = generate_instance(_short_haul(seed))
        bd, master = run_benders_with_master(inst, cfg)
        pla = solve_pla(inst, cfg, keep_primal=True)
        converged = (bd.info["termination"] == "optimal"
                     and bd.gap <= cfg.benders_gap + 1e-9)
        log = bd.info["benders_log"]
        lbs = [e["lower_bound"] for e in log]
        ubs = [e["upper_bound"] for e in log]
        monotone = (all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
                    and all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:])))
        overcuts = count_overcuts(inst, cfg, master, pla)
        replay = simulate_schedule(inst, bd).ok
        ok = ok and converged and monotone and overcuts == 0 and replay
        lines.append(f"seed {seed}: gap {bd.gap:.4f} "
                     f"iters {bd.info['iterations']} monotone {monotone} "
                     f"overcuts {overcuts} replay {replay}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _verdict("6", ok,
             f"{len(CONVERGENCE_SEEDS)} instances in {elapsed:.1f}s "
             f"(< 600s); " + " | ".join(lines))


# ---------------------------------------------------------------------------
# 7. Delay-weight sensitivity with the paired test
# ---------------------------------------------------------------------------


def _zero_wait(seed: int) -> Instance:
    # The short-haul corridor without planned waits. The generator draws the
    # waits last, so the other numbers are those of the corridor with waits.
    inst = generate_instance(_short_haul(seed))
    inst.wait_time[:] = 0.0
    return inst


@pytest.fixture(scope="module")
def weight_sweep():
    instances = [_zero_wait(s) for s in SWEEP_SEEDS]
    algos = ["pla", "fa", "bd"]
    low = run_batch(instances, algos,
                    SolveConfig(alpha_delay=3.0, time_limit_seconds=30.0))
    high = run_batch(instances, algos,
                     SolveConfig(alpha_delay=5.0, time_limit_seconds=30.0))
    return sensitivity_compare(low, high)


def test_7_delay_weight_sensitivity(weight_sweep):
    # the paired test itself, on its documented worked example
    t_ok = paired_t_test([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    stats_ok = (abs(t_ok["t"] - 4.242640687119285) <= 1e-9
                and abs(t_ok["p"] - 0.013235599563682107) <= 1e-3)

    deltas = weight_sweep["deltas"]
    clean = [d for d in deltas if d["objective"] != ""]
    all_cells = len(clean) == len(deltas) == len(SWEEP_SEEDS) * 3
    dearer = all(float(d["objective"]) > 0.0 for d in clean)
    greedy_setup_fixed = all(
        abs(float(d["setup_cost"])) <= 1e-9
        for d in clean if d["algorithm"] == "fa")
    tests = weight_sweep["tests"]
    significant = all(
        tests[f"{a}/objective"]["t"] > 0 and tests[f"{a}/objective"]["p"] < 0.05
        for a in ("pla", "fa", "bd"))

    ok = stats_ok and all_cells and dearer and greedy_setup_fixed \
        and significant
    _verdict("7", ok,
             f"paired test worked example t={t_ok['t']:.4f} "
             f"p={t_ok['p']:.4f} ({stats_ok}); objective rose in all "
             f"{len(clean)} cells under the heavier delay weight ({dearer}); "
             f"greedy setup unchanged ({greedy_setup_fixed}); per-algorithm "
             f"t-tests significant ({significant})")


# ---------------------------------------------------------------------------
# 8. Scope note on the larger benchmark tables
# ---------------------------------------------------------------------------


def test_8_large_scale_aggregates_out_of_scope():
    _verdict("8", True,
             "medium/large benchmark aggregates are averages over private "
             "instance pools and are NOT asserted here; items 4-7 cover "
             "the same claims (oracle accuracy, convergence, sensitivity) "
             "on reproducible seeded instances instead")
