"""Seeded random instance generation.

Instances come in three size classes (station counts include the origin and
destination). Leg distances, station costs and capacities are drawn from
clamped normals; energy and travel-time matrices are derived from cumulative
leg distances, so they are additive over intermediate stations by
construction.

Draw order for a fixed seed (documented so instances are reproducible):
leg distances per train, then fixed costs, charger counts, battery stocks,
wait indicators, wait magnitudes. The generator is numpy's
``default_rng`` (PCG64); its name and the seed are recorded in the
instance's ``meta`` block.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import ClassVar

import numpy as np

from .domain import Instance, Train, leg_sums

SIZE_CLASS_STATIONS = {"small": 6, "medium": 15, "large": 25}

# Legs shorter than this are clamped away: zero-length legs make the
# marginal-benefit bookkeeping of the greedy heuristic degenerate.
MIN_LEG_KM = 50.0


@dataclass(frozen=True)
class GenSpec:
    """Distribution parameters for random corridor instances.

    The fields are what a caller sets: the size class, the fleet, the
    leg-distance normal (km) and the seed. The rest are class constants,
    read as ``spec.cost_mean`` but not settable. Costs are in millions of
    dollars, durations in hours; each (mean, sd, min, max) quadruple
    describes a clamped normal, with counts rounded to integers. There is
    no physics: instances take ``Instance``'s default r0 and swap time.
    """
    size_class: str = "small"
    n_trains: int = 2
    consists_per_train: int = 3
    max_batteries: int = 3
    distance_mean_km: float = 373.0
    distance_sd_km: float = 146.0
    seed: int = 0

    speed_kmh: ClassVar[float] = 100.0
    consumption_kwh_per_km: ClassVar[float] = 30.0
    battery_kwh: ClassVar[float] = 7000.0
    cost_mean: ClassVar[float] = 22.0
    cost_sd: ClassVar[float] = 3.0
    cost_min: ClassVar[float] = 15.0
    cost_max: ClassVar[float] = 30.0
    chargers_mean: ClassVar[float] = 5.0
    chargers_sd: ClassVar[float] = 1.0
    chargers_min: ClassVar[float] = 1.0
    chargers_max: ClassVar[float] = 10.0
    batteries_mean: ClassVar[float] = 10.0
    batteries_sd: ClassVar[float] = 2.0
    batteries_min: ClassVar[float] = 5.0
    batteries_max: ClassVar[float] = 15.0
    wait_probability: ClassVar[float] = 0.5
    wait_sd_hours: ClassVar[float] = 0.3

    def __post_init__(self):
        if self.size_class not in SIZE_CLASS_STATIONS:
            raise ValueError(
                f"size_class must be one of {sorted(SIZE_CLASS_STATIONS)}, "
                f"got {self.size_class!r}"
            )
        for name in ("n_trains", "consists_per_train", "max_batteries",
                     "distance_mean_km", "distance_sd_km"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def n_stations(self) -> int:
        return SIZE_CLASS_STATIONS[self.size_class]


def _clamped_normal(rng, mean, sd, lo, hi, size, integer=False):
    x = np.clip(rng.normal(mean, sd, size=size), lo, hi)
    return np.rint(x).astype(int) if integer else x


def generate_instance(spec: GenSpec) -> Instance:
    """Draw one random corridor instance from ``spec``'s distributions."""
    rng = np.random.default_rng(spec.seed)
    s = spec.n_stations
    legs = s - 1

    # One distance per (train, leg); it drives both energy and travel time.
    dist = np.maximum(
        rng.normal(spec.distance_mean_km, spec.distance_sd_km,
                   size=(spec.n_trains, legs)),
        MIN_LEG_KM,
    )

    fixed_cost = np.zeros(s)
    chargers = np.zeros(s, dtype=int)
    stock = np.zeros(s, dtype=int)
    n_int = s - 2
    fixed_cost[1:-1] = _clamped_normal(
        rng, spec.cost_mean, spec.cost_sd, spec.cost_min, spec.cost_max, n_int)
    chargers[1:-1] = _clamped_normal(
        rng, spec.chargers_mean, spec.chargers_sd,
        spec.chargers_min, spec.chargers_max, n_int, integer=True)
    stock[1:-1] = _clamped_normal(
        rng, spec.batteries_mean, spec.batteries_sd,
        spec.batteries_min, spec.batteries_max, n_int, integer=True)

    wait = np.zeros((s, spec.n_trains))
    has_wait = rng.random(size=(n_int, spec.n_trains)) < spec.wait_probability
    magnitudes = np.abs(rng.normal(0.0, spec.wait_sd_hours,
                                   size=(n_int, spec.n_trains)))
    wait[1:-1] = np.where(has_wait, magnitudes, 0.0)

    # Full matrices from cumulative distances: additive by construction.
    dmat = leg_sums(dist)
    energy = dmat * spec.consumption_kwh_per_km / spec.battery_kwh
    time = dmat / spec.speed_kmh

    trains = [
        Train(name=f"Train {j + 1}", consists=spec.consists_per_train,
              max_batteries=spec.max_batteries)
        for j in range(spec.n_trains)
    ]
    stations = (["Origin"]
                + [f"Station {i}" for i in range(1, s - 1)]
                + ["Destination"])
    return Instance(
        stations=stations,
        fixed_cost=fixed_cost,
        chargers=chargers,
        full_batteries=stock,
        trains=trains,
        energy=energy,
        travel_time=time,
        wait_time=wait,
        name=f"{spec.size_class}-{spec.seed}",
        meta={
            "generator": "numpy.random.default_rng(PCG64)",
            "seed": spec.seed,
            "spec": asdict(spec),
            "notes": "legs clamped at 50 km; waits half-normal",
        },
    )


def illustrative_instance() -> Instance:
    """The six-station, two-train worked example shipped with the package.

    Adjacent-leg energies and times are the authoritative figures; longer
    entries are their cumulative sums (shipped as instances/illustrative.json).
    """
    energy = leg_sums([
        [1.73, 1.67, 1.00, 1.83, 2.27],
        [1.41, 1.64, 0.65, 2.24, 1.54],
    ])
    time = leg_sums([
        [7.00, 2.18, 3.38, 3.60, 4.10],
        [2.10, 4.06, 3.48, 3.50, 5.12],
    ])
    wait = np.array([
        [0.00, 0.00],
        [0.00, 0.28],
        [0.20, 0.30],
        [0.14, 0.00],
        [0.24, 0.00],
        [0.00, 0.00],
    ])
    return Instance(
        stations=["Origin", "Station 1", "Station 2", "Station 3",
                  "Station 4", "Destination"],
        fixed_cost=np.array([0.0, 21.72, 21.47, 29.02, 30.00, 0.0]),
        chargers=np.array([0, 7, 5, 6, 3, 0]),
        full_batteries=np.array([0, 8, 8, 9, 13, 0]),
        trains=[Train("Train 1", 3, 3), Train("Train 2", 3, 3)],
        energy=energy,
        travel_time=time,
        wait_time=wait,
        name="illustrative",
        meta={"source": "bundled worked example"},
    )
