"""One pass of one workload, in a fresh process.

Run by ``run.py``; not meant to be started by hand. The pass sets up (imports,
instance generation, one tiny HiGHS solve so lazy solver start-up lands in
set-up), then issues its plan requests one at a time and times each call
from outside with ``time.perf_counter``. ``Solution.wall_seconds`` is never
read: for ``pla`` it covers only the HiGHS call. Each answer is checked
right after its timed call and then dropped; infeasibility proofs run after
the last one.

HiGHS writes to file descriptor 1, so the worker moves its own stdout to
stderr and sends its one JSON result over the original stdout descriptor.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from spans import Tracer, TIMED_LAYERS, layer_metrics, tracing  # noqa: E402


def import_railvolt():
    """Import the package from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import railvolt
    if Path(railvolt.__file__).resolve().parent != (src / "railvolt").resolve():
        raise ImportError(f"railvolt imported from {railvolt.__file__}, "
                          f"not from {src}")
    import railvolt.backend, railvolt.benders, railvolt.fixalg  # noqa: E401
    import railvolt.generator, railvolt.model, railvolt.validator  # noqa: E401
    return railvolt


def make_instance(rv, req: wl.Request):
    if req.spec is None:
        return rv.generator.illustrative_instance()
    return rv.generator.generate_instance(rv.generator.GenSpec(**dict(req.spec)))


def warm_up(rv) -> None:
    """One tiny MILP and one tiny LP through the backend."""
    be = rv.backend
    for kind in (be.BINARY, be.CONTINUOUS):
        m = be.AbstractModel("warm-up")
        x = m.add_column("x", kind, upper=1.0, objective=-1.0)
        m.add_row("cap", [(x, 1.0)], be.LE, 1.0)
        be.ScipyBackend().solve(m)


def reference_task() -> float:
    """Fixed work that runs no railvolt code; returns its own seconds.

    Every worker imports numpy and scipy and runs this before anything
    else; the time from spawn to its end is the process's reference time.
    The host this was written on switched between speed states up to 2x
    apart, and the runner divides wall time by the reference time measured
    around each pass. One small HiGHS branch-and-bound, sparse-matrix
    assembly and building a dict: about 0.25 s.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    weights = rng.integers(5, 40, size=(7, 40)).astype(float)
    values = rng.integers(5, 60, size=40).astype(float)
    milp(-values, integrality=np.ones(40), bounds=Bounds(0, 1),
         constraints=LinearConstraint(weights, 0, weights.sum(axis=1) * 0.3))
    rows = rng.integers(0, 20000, 300000)
    cols = rng.integers(0, 5000, 300000)
    data = rng.random(300000)
    for _ in range(4):
        sp.csr_matrix((data, (rows, cols)), shape=(20000, 5000)).sum()
    dict((i, i * 0.5) for i in range(150_000))
    return time.perf_counter() - start


def issue(rv, req: wl.Request, inst, cfg, call):
    """Make one request through ``call(name, fn, *args)``."""
    if req.planner == "pla":
        return call("request.pla", rv.model.solve_pla, inst, cfg)
    if req.planner == "bd":
        return call("request.bd", rv.benders.run_benders, inst, cfg)
    if req.planner == "fa":
        return call("request.fa", rv.fixalg.run_fix_algorithm, inst, cfg)

    def build():
        model, vm = rv.model.build_model(inst, cfg)
        model.arrays()
        split = rv.benders.split_model(model, vm)
        cuts = rv.benders.extra_feasibility_cuts(inst, vm, cfg)
        return model, vm, split, cuts
    return call("request.build", build)


def run_pass(rv, reqs, spawned_at: float, traced: bool,
             setup_only: bool = False) -> dict:
    """Set up, issue ``reqs`` in order, check every answer; return the record.

    ``spawned_at`` is the ``time.monotonic()`` reading taken by the parent
    just before it started this process (the clock is system-wide).
    """
    t0 = time.perf_counter()
    work = []
    for req in reqs:
        cfg = rv.domain.SolveConfig(time_limit_seconds=req.budget_s) \
            if req.budget_s else rv.domain.SolveConfig()
        work.append((req, make_instance(rv, req), cfg))
    generate_s = time.perf_counter() - t0
    warm_up(rv)
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer()
    if traced:
        call = lambda name, fn, *a: tracer.call(name, fn, a)  # noqa: E731
    else:
        call = lambda name, fn, *a: fn(*a)  # noqa: E731

    records = []
    cpu_s = 0.0
    with tracing(rv, tracer) if traced else contextlib.nullcontext():
        for i, (req, inst, cfg) in enumerate(work):
            tracer.request = f"{i}:{req.label}"
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                answer = issue(rv, req, inst, cfg, call)
            except Exception as exc:  # a failed request, counted, not fatal
                answer = exc
            seconds = time.perf_counter() - start
            cpu_s += time.process_time() - cpu_start
            rec = {"label": req.label, "planner": req.planner,
                   "seconds": seconds}
            rec.update(_judge(rv, req, inst, cfg, answer))
            records.append(rec)
            # Drop the answer and collect now, so that the next request
            # starts from the same heap whatever the request order.
            del answer
            gc.collect()
    for rec, (req, inst, cfg) in zip(records, work):
        if rec.pop("verdict") == "infeasible":
            rec["ok"], why = wl.confirm_infeasible(rv, inst, cfg)
            rec["reason"] = (f"{rec['reason']}; {why}" if why
                             else "infeasible, confirmed by pla")

    wall_s = sum(r["seconds"] for r in records)
    out = {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests": records,
        "versions": {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if traced:
        layers = layer_metrics(tracer.spans, records)
        layers["generator.generate_s"] = generate_s
        layers["trace.wall_s"] = wall_s
        layers["trace.overhead_s"] = tracer.overhead_s
        layers["trace.coverage"] = (
            sum(layers[f"{x}.self_s"] for x in TIMED_LAYERS) / wall_s)
        out["layers"] = layers
    return out


def _judge(rv, req, inst, cfg, answer) -> dict:
    """What the record keeps about one answer (the gate's verdict first)."""
    if req.planner == "build":
        if isinstance(answer, BaseException):
            return {"verdict": "failed", "ok": False, "rows": 0,
                    "reason": f"raised {type(answer).__name__}: {answer}"}
        ok, rows, reason = wl.check_build(answer)
        return {"verdict": "ok" if ok else "failed", "ok": ok, "rows": rows,
                "binaries": answer[1].n_binary, "reason": reason}
    verdict, objective, reason = wl.check_plan(rv, req, inst, cfg, answer)
    rec = {"verdict": verdict, "ok": verdict == "ok", "objective": objective,
           "reason": reason}
    if not isinstance(answer, BaseException):
        rec["status"] = answer.status
        info = answer.info
        if req.planner == "bd" and "iterations" in info:
            rec["iterations"] = info["iterations"]
            rec["cuts"] = info["n_optimality_cuts"] + info["n_feasibility_cuts"]
        if req.planner == "fa":
            rec["rounds"] = sum(1 for r in info.get("fix_rounds", ())
                                if r.get("phase") == "solve")
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--order-seed", type=int, required=True)
    p.add_argument("--instance-seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    result_fd = os.dup(1)
    os.dup2(2, 1)
    task_s = reference_task()
    ref_s = time.monotonic() - args.spawned_at
    rv = import_railvolt()
    reqs = wl.requests(args.workload, args.instance_seed, args.order_seed)
    # set-up excludes the reference task, which is not the program's work
    out = run_pass(rv, reqs, args.spawned_at + task_s, bool(args.trace),
                   args.setup_only)
    out["ref_s"] = ref_s
    with os.fdopen(result_fd, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
