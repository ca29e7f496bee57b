"""The benchmark's own tests (not part of the package suite).

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import time
from pathlib import Path

import pytest

import workloads as wl
from spans import Span, layer_metrics, self_times
from worker import import_railvolt, run_pass

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def rv():
    return import_railvolt()


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("request.bd", 0.0, 10.0),
        Span("benders.warm", 1.0, 4.0, parent=0),
        Span("backend.solve", 2.0, 3.0, parent=1, tag=("milp", "optimal")),
        Span("benders.pricing", 5.0, 9.0, parent=0, tag="point"),
        Span("validator.replay", 11.0, 11.5, tag=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5]
    m = layer_metrics(spans, [{"cuts": 1}])
    assert m["benders.self_s"] == 7.0    # root 3 + pricing 4
    assert m["model.self_s"] == 2.0      # warm start's own glue
    assert m["backend.self_s"] == 1.0
    assert m["benders.pricing_point_calls"] == 1
    assert m["benders.fresh_cut_ratio"] == 1.0
    assert m["benders.master_calls"] == 0  # the solve sits under the warm start
    timed = sum(m[f"{x}.self_s"] for x in ("model", "backend", "benders",
                                           "fixalg", "bench"))
    assert timed == spans[0].seconds


def test_tracing_changes_no_answer(rv):
    reqs = [wl.Request("bd", "small-shorthaul-4",
                       wl.gen_spec(seed=4, **wl.SHORT_HAUL), 60.0),
            wl.Request("fa", "medium-shorthaul-1",
                       wl.gen_spec(seed=1, size_class="medium", **wl.SHORT_HAUL),
                       60.0)]
    plain = run_pass(rv, reqs, time.monotonic(), traced=False)
    traced = run_pass(rv, reqs, time.monotonic(), traced=True)
    for a, b in zip(plain["requests"], traced["requests"]):
        assert a["ok"] and b["ok"], (a["reason"], b["reason"])
        assert a["objective"] == b["objective"]
        assert a.get("iterations") == b.get("iterations")
        assert a.get("rounds") == b.get("rounds")
    layers = traced["layers"]
    assert layers["benders.iterations"] == plain["requests"][0]["iterations"]
    assert layers["fixalg.rounds"] == plain["requests"][1]["rounds"] > 1
    assert layers["trace.coverage"] == pytest.approx(1.0, abs=0.01)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(layers) == sorted(m["name"] for m in declared)


def test_a_tampered_soc_value_fails_the_gate(rv):
    inst = rv.generator.illustrative_instance()
    cfg = rv.domain.SolveConfig(time_limit_seconds=wl.GOLDEN_BUDGET_S)
    plan = rv.domain.Solution.from_json(
        str(ROOT / "instances" / "illustrative_schedule.json"))
    plan.status = "optimal-within-gap"
    req = wl.requests("golden-pla")[0]
    verdict, objective, reason = wl.check_plan(rv, req, inst, cfg, plan)
    assert verdict == "ok", reason

    soc = plan.soc_depart[0][1]
    soc[0] = soc[0] - 0.5 if soc[0] > 0.5 else soc[0] + 0.5
    verdict, _, reason = wl.check_plan(rv, req, inst, cfg, plan)
    assert verdict == "failed" and "replay" in reason


def test_instance_seed_zero_is_frozen_and_others_differ():
    assert wl.instance_seeds("shorthaul-bd", 0) == (4, 6, 11, 14, 19)
    other = wl.instance_seeds("shorthaul-bd", 7)
    assert other == wl.instance_seeds("shorthaul-bd", 7)
    assert not set(other) & set(wl.FROZEN_SEEDS["shorthaul-bd"])
    assert sorted(r.label for r in wl.requests("medium-fa", 0, 1)) == \
        sorted(r.label for r in wl.requests("medium-fa", 0, 2))
