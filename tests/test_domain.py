"""Charging-curve physics, instance validation, and serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from railvolt.domain import (
    Instance, SolveConfig, Train,
    charge_rate_at_soc, charge_time_for_target, soc_after_charging,
    validate_instance,
)

R0 = 0.4

socs = st.floats(min_value=0.0, max_value=1.0 - 1e-9)
hours = st.floats(min_value=0.0, max_value=50.0)
rates = st.floats(min_value=0.05, max_value=0.95)


# ---------------------------------------------------------------------------
# Curve identities
# ---------------------------------------------------------------------------

def test_curve_closed_form_matches_definition():
    # s(t) = 1 - (1 - s0)(1 - r0)^t at a few hand points
    assert soc_after_charging(0.0, 1.0, R0) == pytest.approx(0.4, abs=1e-12)
    assert soc_after_charging(0.0, 2.0, R0) == pytest.approx(0.64, abs=1e-12)
    assert soc_after_charging(0.5, 1.0, R0) == pytest.approx(0.7, abs=1e-12)
    assert soc_after_charging(0.2, 0.0, R0) == pytest.approx(0.2, abs=1e-15)


@given(s=socs, r0=rates)
def test_rate_is_exact_unit_hour_increment(s, r0):
    # the advertised per-hour rate r0*(1-s) is the curve's one-hour gain
    gain = soc_after_charging(s, 1.0, r0) - s
    assert gain == pytest.approx(charge_rate_at_soc(s, r0), abs=1e-9)


@given(s=socs, t1=st.floats(0, 20), t2=st.floats(0, 20), r0=rates)
def test_semigroup(s, t1, t2, r0):
    # charging t1 then t2 equals charging t1 + t2 in one go
    two_step = soc_after_charging(soc_after_charging(s, t1, r0), t2, r0)
    one_step = soc_after_charging(s, t1 + t2, r0)
    assert two_step == pytest.approx(one_step, abs=1e-9)


@given(s=socs, target=socs, r0=rates)
def test_inverse_round_trip(s, target, r0):
    if target < s:
        with pytest.raises(ValueError):
            charge_time_for_target(s, target, r0)
        return
    t = charge_time_for_target(s, target, r0)
    assert t >= 0.0
    assert soc_after_charging(s, t, r0) == pytest.approx(target, abs=1e-9)


@given(s=socs, t=hours, r0=rates)
def test_monotone_and_bounded(s, t, r0):
    out = soc_after_charging(s, t, r0)
    # mathematically < 1, but long durations saturate in float64
    assert s - 1e-12 <= out <= 1.0
    # nondecreasing in t (strict until float saturation)
    if t > 0:
        assert out >= soc_after_charging(s, t / 2, r0) - 1e-12


@given(s=st.floats(min_value=0.0, max_value=0.999), r0=rates)
def test_instantaneous_slope_is_log_law(s, r0):
    # d/dt soc_after_charging = -ln(1 - r0) * (1 - s), checked by central
    # difference; this is steeper than the unit-hour rate r0 * (1 - s)
    h = 1e-6
    fd = (soc_after_charging(s, h, r0) - s) / h
    assert fd == pytest.approx(-math.log1p(-r0) * (1.0 - s), abs=1e-4)


def test_full_target_unreachable():
    with pytest.raises(ValueError):
        charge_time_for_target(0.5, 1.0, R0)
    with pytest.raises(ValueError):
        soc_after_charging(1.01, 1.0, R0)
    with pytest.raises(ValueError):
        charge_rate_at_soc(0.5, 1.0)


def test_property_suite_speed_bulk():
    # the same identities over 10^4 numpy samples in well under 10 s
    rng = np.random.default_rng(0)
    s = rng.uniform(0, 1 - 1e-9, size=10_000)
    t = rng.uniform(0, 30, size=10_000)
    out = 1.0 - (1.0 - s) * (1.0 - R0) ** t
    for i in range(0, 10_000, 997):
        assert soc_after_charging(float(s[i]), float(t[i]), R0) == \
            pytest.approx(float(out[i]), abs=1e-12)
    gain1 = 1.0 - (1.0 - s) * (1.0 - R0) - s
    assert np.allclose(gain1, R0 * (1.0 - s), atol=1e-12)


# ---------------------------------------------------------------------------
# Instance validation and serialization
# ---------------------------------------------------------------------------

def _toy() -> Instance:
    e = np.array([[[0, 0.5, 1.0], [0.5, 0, 0.5], [1.0, 0.5, 0]]])
    t = np.array([[[0, 2.0, 4.0], [2.0, 0, 2.0], [4.0, 2.0, 0]]])
    return Instance(
        stations=["Origin", "Station 1", "Destination"],
        fixed_cost=np.array([0.0, 20.0, 0.0]),
        chargers=np.array([0, 2, 0]),
        full_batteries=np.array([0, 3, 0]),
        trains=[Train(name="Train 1", consists=1, max_batteries=1)],
        energy=e, travel_time=t,
        wait_time=np.zeros((3, 1)),
        r0=0.4, swap_hours=2.0, name="toy", meta={},
    )


def test_validate_clean_instance():
    assert validate_instance(_toy()) == []


def test_validate_catches_non_additive_energy():
    inst = _toy()
    inst.energy[0, 0, 2] = 2.5  # no longer the sum of the two legs
    msgs = validate_instance(inst)
    assert any("additiv" in m or "sum" in m for m in msgs), msgs


def test_validate_catches_negative_cost():
    inst = _toy()
    inst.fixed_cost[1] = -1.0
    assert validate_instance(inst)


def test_instance_json_round_trip(tmp_path):
    inst = _toy()
    path = tmp_path / "toy.json"
    inst.to_json(str(path))
    back = Instance.from_json(str(path))
    assert back.stations == inst.stations
    assert np.allclose(back.energy, inst.energy)
    assert np.allclose(back.wait_time, inst.wait_time)
    assert back.trains[0].max_batteries == 1
    # file is plain JSON with the documented keys
    doc = json.loads(path.read_text())
    for key in ("stations", "trains", "fixed_cost", "chargers",
                "full_batteries", "energy", "travel_time", "wait_time",
                "physics"):
        assert key in doc, key


def test_config_replace_is_functional():
    cfg = SolveConfig()
    other = cfg.replace(alpha_delay=5.0)
    assert other.alpha_delay == 5.0
    assert cfg.alpha_delay == 3.0
    assert other.n == cfg.n
    assert other == SolveConfig(alpha_delay=5.0)
    # an unknown field and a class constant are refused
    for bad in ({"alpha": 1.0}, {"n": 5}):
        with pytest.raises(TypeError):
            cfg.replace(**bad)


def test_validate_reports_inconsistent_shapes():
    inst = _toy()
    bad = Instance(
        stations=inst.stations,
        fixed_cost=np.array([0.0, 20.0]),  # wrong length
        chargers=inst.chargers,
        full_batteries=inst.full_batteries,
        trains=inst.trains,
        energy=inst.energy,
        travel_time=inst.travel_time,
        wait_time=inst.wait_time,
        r0=0.4, swap_hours=2.0, name="bad", meta={},
    )
    msgs = validate_instance(bad)
    assert any("shape" in m for m in msgs), msgs
