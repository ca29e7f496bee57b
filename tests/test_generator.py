"""Random corridor generator: determinism, clamps, and well-formedness."""
import dataclasses
import hashlib

import numpy as np
import pytest

from railvolt.domain import validate_instance
from railvolt.generator import (
    GenSpec, generate_instance, illustrative_instance, MIN_LEG_KM,
)


def test_same_seed_same_instance():
    a = generate_instance(GenSpec(seed=7))
    b = generate_instance(GenSpec(seed=7))
    assert a.stations == b.stations
    assert np.array_equal(a.energy, b.energy)
    assert np.array_equal(a.fixed_cost, b.fixed_cost)
    assert np.array_equal(a.wait_time, b.wait_time)


def test_different_seed_different_instance():
    a = generate_instance(GenSpec(seed=1))
    b = generate_instance(GenSpec(seed=2))
    assert not np.array_equal(a.energy, b.energy)


@pytest.mark.parametrize("size,stations", [("small", 6), ("medium", 15),
                                           ("large", 25)])
def test_size_classes(size, stations):
    inst = generate_instance(GenSpec(size_class=size, seed=0))
    assert inst.n_stations == stations
    assert inst.n_trains == 2
    assert inst.trains[0].consists == 3


def test_bad_size_class_rejected():
    with pytest.raises(ValueError):
        GenSpec(size_class="huge")
    with pytest.raises(ValueError):
        GenSpec(n_trains=0)


def test_generated_instances_validate_clean():
    for seed in range(5):
        inst = generate_instance(GenSpec(seed=seed))
        assert validate_instance(inst) == [], (seed, validate_instance(inst))


def test_station_parameter_clamps():
    inst = generate_instance(GenSpec(seed=3))
    interior = slice(1, -1)
    assert (inst.fixed_cost[interior] >= 15.0 - 1e-9).all()
    assert (inst.fixed_cost[interior] <= 30.0 + 1e-9).all()
    assert (inst.chargers[interior] >= 1).all()
    assert (inst.chargers[interior] <= 10).all()
    assert (inst.full_batteries[interior] >= 5).all()
    assert (inst.full_batteries[interior] <= 15).all()
    # endpoints carry no resources
    assert inst.fixed_cost[0] == inst.fixed_cost[-1] == 0.0
    assert inst.chargers[0] == inst.chargers[-1] == 0
    assert inst.full_batteries[0] == inst.full_batteries[-1] == 0


def test_energy_time_matrices_telescope():
    inst = generate_instance(GenSpec(seed=11))
    for j in range(inst.n_trains):
        e, t = inst.energy[j], inst.travel_time[j]
        assert np.allclose(e, e.T) and np.allclose(t, t.T)
        assert np.allclose(np.diag(e), 0) and np.allclose(np.diag(t), 0)
        s = inst.n_stations
        for a in range(s):
            for b in range(a + 1, s):
                legs = sum(e[i, i + 1] for i in range(a, b))
                assert e[a, b] == pytest.approx(legs, abs=1e-9)
        # distances respect the 50 km clamp
        min_leg_hours = MIN_LEG_KM / 100.0
        assert all(t[i, i + 1] >= min_leg_hours - 1e-9 for i in range(s - 1))


def test_mean_distance_matches_distribution():
    # mean leg distance should sit near the configured 373 km; average
    # adjacent-leg travel time at 100 km/h ≈ 3.73 h over many legs
    legs = []
    for seed in range(40):
        inst = generate_instance(GenSpec(size_class="medium", seed=seed))
        t = inst.travel_time[0]
        legs.extend(t[i, i + 1] for i in range(inst.n_stations - 1))
    assert 3.3 <= float(np.mean(legs)) <= 4.2


def test_illustrative_instance_fixed_numbers():
    inst = illustrative_instance()
    assert inst.n_stations == 6
    assert inst.n_trains == 2
    assert [t.consists for t in inst.trains] == [3, 3]
    # Station 1 column: cost 21.72, 7 chargers, 8 batteries
    assert inst.fixed_cost[1] == pytest.approx(21.72)
    assert inst.chargers[1] == 7
    assert inst.full_batteries[1] == 8
    assert validate_instance(inst) == []


def test_spec_fields_are_what_callers_set():
    assert [f.name for f in dataclasses.fields(GenSpec)] == [
        "size_class", "n_trains", "consists_per_train", "max_batteries",
        "distance_mean_km", "distance_sd_km", "seed"]
    assert GenSpec().cost_mean == 22.0
    with pytest.raises(TypeError):
        GenSpec(cost_mean=30.0)
    inst = generate_instance(GenSpec(seed=3))
    assert set(inst.meta["spec"]) == {
        f.name for f in dataclasses.fields(GenSpec)}


_SHORT_HAUL = dict(n_trains=1, consists_per_train=1, max_batteries=1,
                   distance_mean_km=180.0, distance_sd_km=30.0)


@pytest.mark.parametrize("spec,digest", [
    (dict(size_class="small", seed=0), "abc3573702772405"),
    (dict(size_class="small", seed=1), "280dcd1e461a18f6"),
    (dict(size_class="small", seed=2), "28d7b0a784f4d436"),
    (dict(size_class="medium", seed=0), "1ca0d7e4a4f99842"),
    (dict(size_class="medium", seed=1), "058228b4f7f6c114"),
    (dict(size_class="medium", seed=2), "ec76fc2901cd9b1d"),
    (dict(size_class="large", seed=0), "97ac51396760afff"),
    (dict(size_class="large", seed=1), "ecebe76e0fb45cc0"),
    (dict(size_class="large", seed=2), "206c8ddb475ce5f6"),
    (dict(_SHORT_HAUL, seed=4), "a57a3fb43902d09e"),
], ids=["small-0", "small-1", "small-2", "medium-0", "medium-1", "medium-2",
        "large-0", "large-1", "large-2", "short-haul-4"])
def test_generated_instances_are_pinned(spec, digest):
    # The draws and their order fix every number of an instance; this pins
    # them (the meta block, which records the spec, is left out).
    doc = generate_instance(GenSpec(**spec)).to_dict()
    del doc["meta"]
    assert hashlib.sha256(repr(doc).encode()).hexdigest()[:16] == digest
