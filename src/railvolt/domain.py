"""Core domain types for battery-electric freight corridors.

A corridor is an ordered list of stations (origin, interior candidate
stations, destination). Trains run origin -> destination, carrying up to one
battery per consist. Batteries drain sequentially (consist 1 first) and can
be recharged or swapped at deployed interior stations.

Charging follows an SOC-proportional rate: the instantaneous rate at state of
charge ``s`` is ``r0 * (1 - s)``, which integrates to the exponential
saturation curve ``s(t) = 1 - (1 - s0) * (1 - r0) ** t``. All SOC values are
fractions of one full battery; energy amounts are expressed in
battery-equivalents, times in hours.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, ClassVar, List, Optional, Tuple

import numpy as np


class RailvoltError(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(RailvoltError):
    """An instance is malformed or violates a structural invariant."""


class DecodeError(RailvoltError):
    """A solver vector could not be decoded into a clean schedule."""


class InfeasibleError(RailvoltError):
    """A problem (or restricted problem) has no feasible schedule."""


# ---------------------------------------------------------------------------
# Charging physics
# ---------------------------------------------------------------------------

def _check_soc(soc: float, what: str = "soc") -> None:
    if not (-1e-12 <= soc <= 1.0 + 1e-12):
        raise ValueError(f"{what} must lie in [0, 1], got {soc!r}")


def _check_rate(r0: float) -> None:
    if not (0.0 < r0 < 1.0):
        raise ValueError(f"r0 must lie in (0, 1), got {r0!r}")


def charge_rate_at_soc(soc: float, r0: float) -> float:
    """Battery fraction gained over the next hour when starting at ``soc``.

    The rate decays linearly in the state of charge: full batteries gain
    nothing, empty batteries gain ``r0``. This is exactly the unit-hour
    increment of :func:`soc_after_charging` (the curve compounds hourly;
    its instantaneous slope is ``-ln(1-r0) * (1-soc)``).
    """
    _check_soc(soc)
    _check_rate(r0)
    return r0 * (1.0 - soc)


def soc_after_charging(soc: float, hours: float, r0: float) -> float:
    """State of charge after charging from ``soc`` for ``hours`` hours.

    Solves ds/dt = r0 * (1 - s):  s(t) = 1 - (1 - soc) * (1 - r0) ** t.
    Defined for any non-negative real duration (the curve is continuous,
    not stepwise).
    """
    _check_soc(soc)
    _check_rate(r0)
    if hours < 0:
        raise ValueError(f"charging duration must be >= 0, got {hours!r}")
    return 1.0 - (1.0 - soc) * (1.0 - r0) ** hours


def charge_time_for_target(soc: float, target: float, r0: float) -> float:
    """Hours of charging needed to go from ``soc`` to ``target``.

    Inverse of :func:`soc_after_charging`. A target of 100% is unreachable in
    finite time (the curve only saturates asymptotically) and raises.
    """
    _check_soc(soc, "start soc")
    _check_soc(target, "target soc")
    _check_rate(r0)
    if target >= 1.0:
        raise ValueError("target soc 1.0 is unreachable in finite time")
    if target < soc:
        raise ValueError(f"target {target!r} below start {soc!r}")
    if target == soc:
        return 0.0
    return math.log((1.0 - target) / (1.0 - soc)) / math.log(1.0 - r0)


def write_json(payload, path: str) -> None:
    """Write ``payload`` to ``path`` as indented JSON (numpy scalars as
    floats), ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=float)
        fh.write("\n")


def _read_json(path: str, error: type):
    """The JSON document in the file at ``path``; raises ``error`` when the
    file is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise error(f"{path} is not a JSON document: {exc}") from exc


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Train:
    """One train: a fixed consist count and a battery allowance."""
    name: str
    consists: int
    max_batteries: int

    @property
    def full_load(self) -> int:
        """Batteries aboard when fully loaded: one in each of the leading
        consists, up to the allowance."""
        return min(self.max_batteries, self.consists)


@dataclass
class Instance:
    """A corridor instance.

    Attributes:
        stations: Ordered station names; stations[0] is the origin and
            stations[-1] the destination. Only interior stations can be
            deployed.
        fixed_cost: Deployment cost per station (0 at the endpoints).
        chargers: Charger count per station (cap on simultaneous charges
            per train).
        full_batteries: Charged-battery stock per station (cap on swaps
            per train; restocked between trains).
        trains: Train definitions.
        energy: energy[j][a][b] = battery-equivalents train j needs from
            station a to station b. Symmetric, zero diagonal, and additive
            over intermediate stations.
        travel_time: travel_time[j][a][b] = hours of travel, same layout.
        wait_time: wait_time[i][j] = planned (cost-free) wait of train j at
            station i.
        r0: Charge-rate coefficient of the SOC curve.
        swap_hours: Fixed duration of a battery swap (restores SOC to 100%).
    """
    stations: List[str]
    fixed_cost: np.ndarray
    chargers: np.ndarray
    full_batteries: np.ndarray
    trains: List[Train]
    energy: np.ndarray
    travel_time: np.ndarray
    wait_time: np.ndarray
    r0: float = 0.40
    swap_hours: float = 2.0
    name: str = "instance"
    meta: dict = field(default_factory=dict)

    # -- shape helpers ------------------------------------------------------

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_trains(self) -> int:
        return len(self.trains)

    @property
    def interior(self) -> range:
        """Indices of deployable (interior) stations."""
        return range(1, self.n_stations - 1)

    def consists(self, j: int) -> int:
        return self.trains[j].consists

    def leg_energy(self, j: int, i: int) -> float:
        """Energy of the leg from station i to station i+1 for train j."""
        return float(self.energy[j, i, i + 1])

    def leg_time(self, j: int, i: int) -> float:
        return float(self.travel_time[j, i, i + 1])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "stations": list(self.stations),
            "trains": [asdict(t) for t in self.trains],
            "fixed_cost": np.asarray(self.fixed_cost, float).tolist(),
            "chargers": np.asarray(self.chargers, int).tolist(),
            "full_batteries": np.asarray(self.full_batteries, int).tolist(),
            "energy": np.asarray(self.energy, float).tolist(),
            "travel_time": np.asarray(self.travel_time, float).tolist(),
            "wait_time": np.asarray(self.wait_time, float).tolist(),
            "physics": {"r0": self.r0, "swap_hours": self.swap_hours},
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        """The instance ``d`` describes; raises :class:`InstanceError` when
        ``d`` is malformed or :func:`validate_instance` finds problems."""
        try:
            physics = d.get("physics", {})
            inst = cls(
                stations=list(d["stations"]),
                fixed_cost=np.asarray(d["fixed_cost"], float),
                chargers=np.asarray(d["chargers"], int),
                full_batteries=np.asarray(d["full_batteries"], int),
                trains=[Train(**t) for t in d["trains"]],
                energy=np.asarray(d["energy"], float),
                travel_time=np.asarray(d["travel_time"], float),
                wait_time=np.asarray(d["wait_time"], float),
                r0=float(physics.get("r0", cls.r0)),
                swap_hours=float(physics.get("swap_hours", cls.swap_hours)),
                name=str(d.get("name", "instance")),
                meta=dict(d.get("meta", {})),
            )
            problems = validate_instance(inst)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed instance document: {exc}") from exc
        if problems:
            raise InstanceError("invalid instance: " + "; ".join(problems))
        return inst

    def to_json(self, path: str) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path: str) -> "Instance":
        return cls.from_dict(_read_json(path, InstanceError))


# Largest gap allowed between a long-range energy/time entry and the sum of
# its adjacent legs.
_ADDITIVITY_TOL = 1e-6


def leg_sums(legs) -> np.ndarray:
    """The station-to-station matrix whose entry [a, b] sums the adjacent
    legs (last axis of ``legs``) between stations a and b."""
    cum = np.cumsum(np.insert(legs, 0, 0.0, axis=-1), axis=-1)
    return np.abs(cum[..., None, :] - cum[..., :, None])


def validate_instance(inst: Instance) -> List[str]:
    """Structural checks on an instance; returns a list of problems.

    An empty list means the instance is well formed. This checks shapes,
    signs, endpoint conventions, matrix symmetry and that long-range
    energy/time entries telescope from the adjacent legs.
    """
    problems: List[str] = []
    s = inst.n_stations
    jn = inst.n_trains
    if s < 2:
        return [f"need at least origin and destination, got {s} stations"]
    if jn < 1:
        return ["instance has no trains"]

    def shape(name, arr, want):
        if tuple(np.shape(arr)) != want:
            problems.append(f"{name} has shape {np.shape(arr)}, expected {want}")
            return False
        return True

    ok = shape("fixed_cost", inst.fixed_cost, (s,))
    ok &= shape("chargers", inst.chargers, (s,))
    ok &= shape("full_batteries", inst.full_batteries, (s,))
    ok &= shape("energy", inst.energy, (jn, s, s))
    ok &= shape("travel_time", inst.travel_time, (jn, s, s))
    ok &= shape("wait_time", inst.wait_time, (s, jn))
    if not ok:
        return problems

    if np.any(inst.fixed_cost < 0):
        problems.append("negative fixed cost")
    if np.any(inst.chargers < 0) or np.any(inst.full_batteries < 0):
        problems.append("negative station capacity")
    if np.any(inst.wait_time < 0):
        problems.append("negative wait time")
    for endpoint in (0, s - 1):
        if np.any(inst.wait_time[endpoint] != 0):
            problems.append(
                f"station {endpoint} is an endpoint and must have zero wait"
            )

    if not (0.0 < inst.r0 < 1.0):
        problems.append(f"r0 must lie in (0, 1), got {inst.r0}")
    if inst.swap_hours <= 0:
        problems.append("swap_hours must be positive")

    for j, train in enumerate(inst.trains):
        if train.consists < 1:
            problems.append(f"train {j} has no consists")
        if train.max_batteries < 1:
            problems.append(f"train {j} cannot carry any battery")

    for label, mat in (("energy", inst.energy), ("travel_time", inst.travel_time)):
        for j in range(jn):
            m = mat[j]
            if np.any(m < 0):
                problems.append(f"train {j} has a negative {label} entry")
            if np.any(np.abs(np.diag(m)) > 1e-12):
                problems.append(f"train {j} {label} diagonal is not zero")
            if not np.allclose(m, m.T, atol=1e-9):
                problems.append(f"train {j} {label} matrix is not symmetric")
            # legs must telescope: m[a, b] == sum of adjacent legs a..b
            want = leg_sums(np.diagonal(m, 1))
            if np.max(np.abs(m - want)) > _ADDITIVITY_TOL:
                a, b = np.unravel_index(np.argmax(np.abs(m - want)), m.shape)
                problems.append(
                    f"train {j} {label}[{a},{b}]={m[a, b]:g} is not the sum of "
                    f"its legs ({want[a, b]:g})"
                )
    return problems


# ---------------------------------------------------------------------------
# Solve configuration
# ---------------------------------------------------------------------------

# Big-M for rows on the SOC scale (sequential-battery linking). SOC lives
# in [0, 1], so 2 is always enough.
SOC_BIG_M = 2.0


@dataclass
class SolveConfig:
    """Weights, limits and the seed: the settings a caller chooses.

    The model's fixed values are class constants, read as ``cfg.n`` and so
    on but not settable: ``n = 10`` SOC intervals on which the model samples
    the charge clock, ``t_max = 10`` hours of longest modelled charge,
    ``big_M = 1000`` for the big-M rows off the SOC scale (battery carry,
    charge duration, the decomposition's static cuts), and
    ``benders_gap = 0.05``, the relative bound gap at which the
    decomposition stops.
    """
    alpha_fixed: float = 1.0
    alpha_delay: float = 3.0
    mip_gap: float = 0.01
    time_limit_seconds: float = 1800.0
    seed: int = 0

    big_M: ClassVar[float] = 1000.0
    n: ClassVar[int] = 10
    t_max: ClassVar[float] = 10.0
    benders_gap: ClassVar[float] = 0.05

    def replace(self, **kw) -> "SolveConfig":
        """A copy with the fields ``kw`` changed; an unknown field or a
        class constant is refused with ``TypeError``."""
        return dataclasses.replace(self, **kw)


# ---------------------------------------------------------------------------
# Solution and metrics
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """A full schedule: deployment plus per-train, per-station decisions.

    Indexing: ``[j][i]`` is train j at station i, ``[j][i][k]`` adds the
    consist. ``delay[j][i]`` stores the *excess* delay beyond the planned
    wait (what the objective penalizes). SOC values are fractions in [0, 1].
    """
    deployed: List[int]
    has_battery: List[List[int]]
    swap: List[List[List[int]]]
    charge: List[List[List[int]]]
    charge_hours: List[List[List[float]]]
    arrive: List[List[float]]
    depart: List[List[float]]
    soc_arrive: List[List[List[float]]]
    soc_depart: List[List[List[float]]]
    delay: List[List[float]]
    battery_nonempty: List[List[List[int]]]
    objective_value: float
    bound: Optional[float] = None
    gap: Optional[float] = None
    status: str = "unknown"
    wall_seconds: float = 0.0
    algorithm: str = ""
    info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Solution":
        fields = {f for f in cls.__dataclass_fields__}
        try:
            return cls(**{k: v for k, v in d.items() if k in fields})
        except (AttributeError, TypeError) as exc:
            raise RailvoltError(f"malformed solution document: {exc}") from exc

    def to_json(self, path: str) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path: str) -> "Solution":
        return cls.from_dict(_read_json(path, RailvoltError))


def empty_solution(instance: Instance, status: str, algorithm: str,
                   wall_seconds: float = 0.0, info: Optional[dict] = None
                   ) -> Solution:
    """A structurally valid all-zeros Solution for non-primal outcomes."""
    S = instance.n_stations
    J = range(instance.n_trains)

    def z3(fill):
        # fresh rows per call: several of these fields get mutated in place
        # by consumers, so none of them may share list objects
        return [[[fill for _ in range(instance.consists(j))]
                 for _ in range(S)] for j in J]

    def z2():
        return [[0.0] * S for _ in J]

    return Solution(
        deployed=[], has_battery=[[0] * instance.consists(j) for j in J],
        swap=z3(0), charge=z3(0),
        charge_hours=z3(0.0), arrive=z2(), depart=z2(),
        soc_arrive=z3(0.0), soc_depart=z3(0.0),
        delay=z2(), battery_nonempty=z3(0),
        objective_value=float("inf"), status=status,
        wall_seconds=wall_seconds, algorithm=algorithm, info=info or {},
    )


def plan_from_actions(instance: Instance, deployed, has_battery,
                      actions: Callable, status: str, algorithm: str,
                      config: Optional[SolveConfig] = None) -> Solution:
    """The plan that per-stop actions make, simulated forward from the
    origin on the exact charge curve.

    Each train leaves the origin at time 0 with its carried batteries
    (``has_battery[j]``) full. At station i, ``actions(j, i, soc)`` gives
    its (swap flags, charge flags, charge hours), one entry per consist,
    from the SOCs it arrives with. A swapped battery leaves full, and one
    charged for hours > 0 follows :func:`soc_after_charging`. The stop lasts
    the planned wait, the swap time when a battery is swapped, or the
    longest charge, whichever is longest, and the legs drain the batteries
    front first. The objective is the weighted setup cost plus the weighted
    delay beyond the planned waits.
    """
    cfg = config or SolveConfig()
    S = instance.n_stations
    sol = empty_solution(instance, status, algorithm)
    sol.deployed = sorted(deployed)
    for j in range(instance.n_trains):
        K = instance.consists(j)
        sol.has_battery[j] = [int(c) for c in has_battery[j]]
        soc = [1.0 if c else 0.0 for c in has_battery[j]]
        clock = 0.0
        for i in range(S):
            wait = float(instance.wait_time[i, j])
            sol.arrive[j][i] = clock
            sol.battery_nonempty[j][i] = [int(s > 1e-9) for s in soc]
            sol.soc_arrive[j][i] = list(soc)
            swap, charge, hours = actions(j, i, soc)
            sol.swap[j][i] = list(swap)
            sol.charge[j][i] = list(charge)
            sol.charge_hours[j][i] = list(hours)
            soc = [1.0 if swap[k] else
                   soc_after_charging(soc[k], hours[k], instance.r0)
                   if charge[k] and hours[k] > 0 else soc[k]
                   for k in range(K)]
            sol.soc_depart[j][i] = list(soc)
            dwell = max(wait, instance.swap_hours if any(swap) else 0.0,
                        max(hours))
            clock += dwell
            sol.depart[j][i] = clock
            sol.delay[j][i] = max(0.0, dwell - wait)
            if i < S - 1:
                # front-first drain
                need = instance.leg_energy(j, i)
                for k in range(K):
                    take = min(soc[k], need)
                    soc[k] -= take
                    need -= take
                    if need <= 0:
                        break
                clock += instance.leg_time(j, i)
    setup = sum(float(instance.fixed_cost[i]) for i in sol.deployed)
    sol.objective_value = float(cfg.alpha_fixed * setup + cfg.alpha_delay
                                * sum(sum(row) for row in sol.delay))
    return sol


@dataclass
class Metrics:
    """The eight reported measures of a schedule."""
    objective: float
    stations_deployed: int
    setup_cost: float
    delay_hours_per_train: float
    charge_hours_per_train: float
    swap_hours_per_train: float
    charge_hours_per_station: float
    swap_hours_per_station: float

    FIELDS: ClassVar[Tuple[str, ...]]     # the field names, in order

    def as_dict(self) -> dict:
        return asdict(self)


Metrics.FIELDS = tuple(f.name for f in fields(Metrics))
