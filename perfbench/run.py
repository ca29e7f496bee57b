"""railvolt benchmark: time-to-plan and plan quality on frozen workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload golden-pla --seed 1 --seconds 10 --trace 0

One client issues plan requests one at a time (a closed loop). Each pass of
the workload runs in a fresh worker process; passes repeat until ``--seconds``
of timed work has been measured (at least one pass). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced pass.

``--seed`` only shuffles the order of the workload's requests, so every seed
measures the same work. ``--instance-seed`` (default 0, the frozen set) swaps
in other generated corridors, to re-check a claim on unseen instances.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it are a readable summary and a JSON report with
the seeds, the machine and each pass.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import median_metrics, unit_of  # noqa: E402

RUN_LIMIT_S = 170.0     # every run must end within 180 s
SETUP_SAMPLES = 3       # set-up and reference time come from this many processes
ISOLATION = (
    "each pass and each set-up probe runs in a fresh worker process, one at "
    "a time; requests run sequentially from one client (closed loop); "
    "PYTHONHASHSEED=0; each answer is checked, dropped and garbage-collected "
    "before the next request. Fresh processes because repeating the "
    "worked-example solve inside one process was seen to drift from 24 s to "
    "32 s. wall_ref divides by the mean reference time of the run's worker "
    "processes, because the host's speed drifts.")


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline: float, trace: int = 0, setup_only: bool = False):
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--order-seed", str(args.seed),
           "--instance-seed", str(args.instance_seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker passed the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "loadavg_at_start": os.getloadavg()}


def answer_of(p: dict) -> float:
    """Plan workloads: summed objectives. build-scale: summed model rows."""
    return sum(r.get("objective") or r.get("rows") or 0.0
               for r in p["requests"])


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S

    passes, probes, measured = [], [], 0.0
    while not passes or measured < args.seconds:
        passes.append(spawn(args, deadline, trace=args.trace))
        measured += passes[-1]["wall_s"]
    while not args.trace and len(passes) + len(probes) < SETUP_SAMPLES:
        probes.append(spawn(args, deadline, setup_only=True))
    setups = [p["setup_s"] for p in passes + probes]
    refs = [p["ref_s"] for p in passes + probes]

    reqs = [r for p in passes for r in p["requests"]]
    failed = sum(1 for r in reqs if not r["ok"])
    if args.trace:
        layers = median_metrics([p["layers"] for p in passes])
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    else:
        wall = statistics.median(p["wall_s"] for p in passes)
        metrics = {
            "wall_ref": (wall / statistics.mean(refs), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "answer": (statistics.median(answer_of(p) for p in passes), "1"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
    return {
        "passes": passes, "setups": setups, "refs": refs, "attempted": len(reqs),
        "failed": failed, "metrics": metrics,
    }


def summary(args, res) -> list:
    lines = []
    w = args.workload
    for name, (value, unit) in res["metrics"].items():
        lines.append(f"{w}  {name:32s} {value:.6g} {unit}")
    if not args.trace:
        wall = statistics.median(p["wall_s"] for p in res["passes"])
        lines.append(f"{w}  {'wall_s':32s} {wall:.6g} s")
        planned = [r for p in res["passes"] for r in p["requests"]]
        label = ("objective" if planned[0]["planner"] != "build"
                 else "model_rows")
        lines.append(f"{w}  {label:32s} {res['metrics']['answer'][0]:.6g} "
                     f"(the answer metric on this workload)")
    lines.append(f"{w}  {'fail_rate':32s} "
                 f"{res['failed'] / res['attempted']:.6g} 1 "
                 f"({res['failed']} of {res['attempted']} requests)")
    for p in res["passes"]:
        for r in p["requests"]:
            if not r["ok"]:
                lines.append(f"{w}  FAILED {r['label']}: {r['reason']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="railvolt benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="shuffles the request order; the work is the same")
    p.add_argument("--seconds", type=float, required=True,
                   help="timed work to measure, in whole passes (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seed", type=int, default=0,
                   help="0 = frozen corridors; other values derive new ones")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "railvolt" / "__init__.py").is_file():
        print(f"no railvolt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run(args)
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "order_seed": args.seed,
        "instance_seed": args.instance_seed,
        "instance_seeds": list(wl.instance_seeds(args.workload,
                                                 args.instance_seed)),
        "request_order": [r.label for r in wl.requests(
            args.workload, args.instance_seed, args.seed)],
        "trace": args.trace, "seconds": args.seconds,
        "machine": machine(), "versions": res["passes"][0]["versions"],
        "isolation": ISOLATION, "setup_samples_s": res["setups"],
        "reference_s": res["refs"],
        "passes": res["passes"],
    }
    print("\n".join(summary(args, res)))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
