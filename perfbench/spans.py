"""Spans around railvolt's layer boundaries, recorded from outside the package.

Tracing rebinds the names callers look up (module globals and class
attributes) to wrappers that record a span per call, and restores them on
exit. Spans stay in memory; :func:`layer_metrics` reduces them at the end.
The package itself is not modified.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from typing import Callable, Dict, List, Optional

# Owner of each span's self time. solve_pla is model code, so the warm start
# and each greedy round charge their own glue to ``model``.
LAYER_OF = {
    "request.pla": "model",
    "request.fa": "fixalg",
    "request.bd": "benders",
    "request.build": "bench",
    "model.build": "model",
    "model.decode": "model",
    "benders.warm": "model",
    "fixalg.round": "model",
    "backend.solve": "backend",
    "backend.arrays": "backend",
    "benders.split": "benders",
    "benders.cuts": "benders",
    "benders.rmp": "benders",
    "benders.pricing": "benders",
    "validator.replay": "validator",
}
TIMED_LAYERS = ("model", "backend", "benders", "fixalg", "bench")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "tag")

    def __init__(self, name, start, end, parent=None, request=None, tag=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index of the enclosing span, or None
        self.request = request    # plan-request id shared by its spans
        self.tag = tag            # outcome detail (status, kind, sizes)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded worker."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self.overhead_s = 0.0     # time spent in the wrappers themselves
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             tag: Optional[Callable] = None):
        enter = time.perf_counter()
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, 0.0, parent, self.request)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if tag is not None:
            span.tag = tag(out)
        self.overhead_s += (span.start - enter) + (time.perf_counter() - span.end)
        return out


def _sizes(built):
    model, vm = built
    return model.n_rows, vm.n_binary


def _solve_kind(outcome):
    return ("milp" if outcome.has_integers else "lp", outcome.status)


def boundaries(rv):
    """(owner, attribute, span name, tag) for every wrapped boundary."""
    be = rv.backend
    return [
        (rv.model, "build_model", "model.build", _sizes),
        (rv.benders, "build_model", "model.build", _sizes),
        (rv.model, "decode_solution", "model.decode", None),
        (rv.benders, "decode_solution", "model.decode", None),
        (be.ScipyBackend, "solve", "backend.solve", _solve_kind),
        (be.AbstractModel, "arrays", "backend.arrays", None),
        (rv.benders, "solve_pla", "benders.warm", None),
        (rv.fixalg, "solve_pla", "fixalg.round", lambda sol: sol.status),
        (rv.benders, "split_model", "benders.split", None),
        (rv.benders, "extra_feasibility_cuts", "benders.cuts", None),
        (rv.benders, "build_rmp", "benders.rmp", None),
        (rv.benders, "solve_subproblem_dual", "benders.pricing",
         lambda out: out[0]),
        (rv.validator, "simulate_schedule", "validator.replay",
         lambda report: len(report.violations)),
    ]


@contextlib.contextmanager
def tracing(rv, tracer: Tracer):
    """Route every boundary in :func:`boundaries` through ``tracer``."""
    saved = []
    try:
        for owner, attr, name, tag in boundaries(rv):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, tag))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapper(tracer, name, fn, tag):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, tag)
    return traced


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential, so children never overlap and their durations add.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: List[Span], records: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one pass.

    ``records`` are the pass's request records; they carry the iteration and
    cut counts the planners returned in ``Solution.info``.
    """
    def total(name, pred=lambda s: True):
        picked = [s for s in spans if s.name == name and pred(s)]
        return sum(s.seconds for s in picked), len(picked)

    build = [s for s in spans if s.name == "model.build"]
    milp_s, milp_n = total("backend.solve", lambda s: s.tag[0] == "milp")
    lp_s, lp_n = total("backend.solve", lambda s: s.tag[0] == "lp")
    point_s, point_n = total("benders.pricing", lambda s: s.tag == "point")
    ray_s, ray_n = total("benders.pricing", lambda s: s.tag == "ray")
    master_s, master_n = total(
        "backend.solve",
        lambda s: s.parent is not None and spans[s.parent].name == "request.bd")
    rounds = [s for s in spans if s.name == "fixalg.round"]
    useful = sum(1 for s in rounds
                 if s.tag in ("optimal-within-gap", "feasible-time-limit"))
    distinct_cuts = sum(r.get("cuts", 0) for r in records)
    replay = [s for s in spans if s.name == "validator.replay"]

    m = {
        "model.build_s": sum(s.seconds for s in build),
        "model.build_calls": len(build),
        "model.rows": sum(s.tag[0] for s in build if s.tag),
        "model.binaries": sum(s.tag[1] for s in build if s.tag),
        "model.decode_s": total("model.decode")[0],
        "backend.arrays_s": total("backend.arrays")[0],
        "backend.milp_s": milp_s,
        "backend.milp_calls": milp_n,
        "backend.milp_infeasible_calls": total(
            "backend.solve", lambda s: s.tag == ("milp", "infeasible"))[1],
        "backend.milp_limit_calls": total(
            "backend.solve",
            lambda s: s.tag in (("milp", "feasible-limit"),
                                ("milp", "limit-no-incumbent")))[1],
        "backend.lp_s": lp_s,
        "backend.lp_calls": lp_n,
        "benders.warm_s": total("benders.warm")[0],
        "benders.master_s": master_s,
        "benders.master_calls": master_n,
        "benders.rmp_build_s": total("benders.rmp")[0],
        "benders.pricing_point_s": point_s,
        "benders.pricing_point_calls": point_n,
        "benders.pricing_ray_s": ray_s,
        "benders.pricing_ray_calls": ray_n,
        "benders.iterations": sum(r.get("iterations", 0) for r in records),
        "benders.split_s": total("benders.split")[0],
        "benders.fresh_cut_ratio": (distinct_cuts / (point_n + ray_n)
                                    if point_n + ray_n else 0.0),
        "fixalg.rounds": len(rounds),
        "fixalg.infeasible_rounds": sum(1 for s in rounds
                                        if s.tag == "infeasible"),
        "fixalg.useful_round_ratio": useful / len(rounds) if rounds else 0.0,
        "fixalg.round_s": sum(s.seconds for s in rounds),
        "validator.replay_s": sum(s.seconds for s in replay),
        "validator.replay_violations": sum(s.tag or 0 for s in replay),
    }
    own = self_times(spans)
    for layer in TIMED_LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                   if LAYER_OF[s.name] == layer)
    m["trace.spans"] = len(spans)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "1"
    return "count"


def median_metrics(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over passes (counts repeat, so they pass through)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
