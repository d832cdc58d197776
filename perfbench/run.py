"""Benchmark of affpoints: whole-body ops on four workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload points --seed 1 --seconds 20 --trace 0

``--workload`` is one of points, regions, large_n, cli, or ``all`` for each
in turn.  ``--trace 0`` reports the end-to-end metrics (set-up time, time
of the fixed op list and median op time over it, each op at its mean over
the passes, the last two scaled to the reference speed of
``worker.SpeedProbe``, and peak RSS); ``--trace 1`` runs one pass of the fixed
op list untraced and traced and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report, with sample counts, the unscaled times, the tail percentile and the
environment.
BLAS threads are pinned to 1, and every process the benchmark starts runs on
one CPU.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("points", "regions", "large_n", "cli")
SETUP_REPS = 3           # set-up is measured in this many fresh processes
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
# every workload run ends within this many seconds (a run may take at most
# 180 s); runs take 25-35 s, so a commit up to four times slower is still
# measured
DEADLINE_S = 175.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment(root: str, seed: int, versions: dict) -> dict:
    env = {k: os.environ.get(k) for k in BLAS_ENV}
    env.update(versions)
    env.update(seed=seed, nproc=os.cpu_count(),
               cpus_allowed=len(os.sched_getaffinity(0)),
               python=sys.version.split()[0])
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        env["commit"] = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "affpoints", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    env["source_sha256"] = digest.hexdigest()
    return env


def worker(root: str, args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role,
           "--spawned-at", repr(time.monotonic())]
    # a session of its own, so that a timeout also ends the worker's children
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{role} worker ran past the deadline") from exc
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(times_ms: list[float]):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times_ms)
    if n <= TAIL_BEYOND:
        return None
    ranked = sorted(times_ms)
    k = n - 1 - TAIL_BEYOND
    return {"value": ranked[k], "unit": "ms",
            "percentile": round(100.0 * k / (n - 1), 2), "samples": n}


def run_workload(root: str, args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        res = worker(root, args, "trace", deadline)
        metrics = {name: {"value": v, "unit": unit_of(name)}
                   for name, v in sorted(res["layers"].items())}
        report = {k: res[k] for k in ("spans_file", "spans", "untraced_wall_s",
                                      "traced_wall_s", "fixed_ops")}
        setups = [res["setup_s"]]
    else:
        setups = [worker(root, args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_REPS - 1)]
        res = worker(root, args, "measure", deadline)
        setups.append(res["setup_s"])
        times_ms = [1e3 * t for t in res["op_times_s"]]
        per_op = res["op_mean_times_s"]
        # Op times at the reference speed of worker.SpeedProbe.  Set-up is
        # mostly imports, whose speed did not follow the probe's (scaled, it
        # spread more than raw), so it stays unscaled.
        scale = res["scale"]
        values = {"setup_s": statistics.median(setups),
                  "wall_s": scale * sum(per_op),
                  "op_p50_ms": 1e3 * scale * statistics.median(per_op),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": UNITS[name]}
                   for name, v in values.items()}
        report = {"samples": {"setup_s": len(setups), "wall_s": len(per_op),
                              "op_p50_ms": len(per_op), "passes": res["passes"],
                              "probes": res["probes"]},
                  "unscaled": {"wall_s": sum(per_op),
                               "op_p50_ms": 1e3 * statistics.median(per_op)},
                  "scale": scale,
                  "probe_mean_s": res["probe_mean_s"],
                  "op_tail_ms": tail(times_ms), "measured_s": res["measured_s"],
                  "op_times_ms": times_ms}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    report.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  setup_samples_s=setups, errors=res["errors"],
                  environment=environment(root, args.seed, res["versions"]), result=result)
    return result, report


def unit_of(name: str) -> str:
    measure = name.rsplit(".", 1)[-1]
    return {"calls": "count", "self_s": "s", "import_s": "s", "p50_ms": "ms",
            "ms": "ms", "evals_per_ray": "count", "overhead_ratio": "ratio",
            "point_evals": "count", "distinct_point_evals": "count"}[measure]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "affpoints", "__init__.py")):
        print("error: run from the root of an affpoints checkout "
              "(src/affpoints not found)", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    # One CPU for the workers and their children, so that the speed probes
    # run on the CPU the cli processes run on: the two CPUs of a shared
    # host slow down at different times.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, tails = {}, {}
    try:
        for name in names:
            args.workload = name
            result, report = run_workload(root, args)
            results[name] = result
            tails[name] = report.get("op_tail_ms")
            print(json.dumps({"report": report}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, r in results.items():
            for metric, m in r["metrics"].items():
                print(f"{name:8s} {metric:40s} {m['value']:14.6g} {m['unit']}")
            t = tails[name]
            if t:
                label = f"op_tail_ms (p{t['percentile']:g} of {t['samples']} ops)"
                print(f"{name:8s} {label:40s} {t['value']:14.6g} {t['unit']}")
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
