"""One benchmark process: set up a workload, then time its ops.

Started by ``run.py``, never directly.  Prints one JSON object on stdout.
``--role setup`` stops after set-up and reports only ``setup_s``;
``--role measure`` runs ops in a closed loop (one caller, one op at a time):
every pass of the fixed op list, then more ops until ``--seconds`` have
passed, with speed probes between the steps;
``--role trace`` runs each op of the fixed op list once untraced and once
traced, and writes the spans to ``OUT_DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import affpoints  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

MAX_ERRORS_SHOWN = 5
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Reference speed: the time one probe takes at the speed that the reported
# times are scaled to (about its mean on a 2.0 GHz Xeon vCPU).
PROBE_REF_S = 1.5e-3
PROBE_EVERY_S = 0.05      # between steps, probe when this long has passed
# Probes before each op: a cli op is one 0.9 s subprocess with no steps to
# probe between, and 2 probes per op left 8% noise in the scale.
PROBES_PER_OP = 10


class SpeedProbe:
    """Samples how fast the machine runs right now.

    A shared host runs the same code at speeds that differ by up to 2x, in
    stretches from a fraction of a second to minutes, so raw op times, and
    even the fastest of ten passes, moved by 20-30% between runs.  The probe
    is a fixed loop of interpreter and small-array numpy work, the mix the
    library runs, and touches no affpoints code.  It runs before each op and
    between steps, so its mean time over a run tracks the mean slowdown that
    the ops met; times scaled by PROBE_REF_S over that mean spread 3-13%
    between runs.  A change to the library does not change the probe's work.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._a = numpy.arange(64.0)
        self._last = 0.0

    def run(self) -> None:
        a, acc = self._a, 0.0
        t0 = time.perf_counter()
        for i in range(400):
            acc += float((a * i).sum()) % 7.0
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def between_steps(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.run()

    def scale(self, stop: int) -> float:
        """PROBE_REF_S over the mean time of the first ``stop`` probes."""
        return PROBE_REF_S / statistics.fmean(self.samples[:stop])


class Runner:
    """Runs ops of one workload and counts attempts, failures and times."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, inp, run, between=None):
        """Time one op, then check it outside the timed region.

        ``between`` runs between steps, outside their times.  Returns the
        sum of the step times and whether the op passed."""
        self.attempted += 1
        steps = []
        try:
            out = run(inp, steps, between)
        except Exception:
            return sum(steps), self._fail(traceback.format_exc(limit=3))
        dt = sum(steps)
        try:
            self.w.check(inp, out)
        except CheckFailed as exc:
            return dt, self._fail(f"check failed: {exc}")
        except Exception:
            return dt, self._fail("check failed: " + traceback.format_exc(limit=3))
        return dt, True

    def _fail(self, msg: str) -> bool:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(msg)
            print(f"op {self.attempted - 1} failed: {msg}", file=sys.stderr)
        return False


def set_up(args):
    """Inputs of every pass of the fixed op list plus one untimed warm-up op."""
    w = WORKLOADS[args.workload](args.seed, ROOT)
    inputs = [w.draw(j % w.fixed_ops) for j in range(w.passes * w.fixed_ops)]
    runner = Runner(w)
    warm = w.warmup_input()
    runner.op(warm, w.run_traced if args.role == "trace" else w.run)
    setup_s = time.monotonic() - args.spawned_at
    return w, inputs, runner, setup_s


def op_time(times, passed) -> float:
    """Mean time of one op of the fixed list over its passes; passes that
    failed count only when every pass failed."""
    ok = [t for t, p in zip(times, passed) if p]
    return statistics.fmean(ok or times)


def measure(args, w, inputs, runner, probe) -> dict:
    times, passed = [], []

    def op(inp):
        for _ in range(PROBES_PER_OP):
            probe.run()
        dt, ok = runner.op(inp, w.run, probe.between_steps)
        times.append(dt)
        passed.append(ok)

    t_start = time.monotonic()
    for inp in inputs:
        op(inp)
    # the metrics cover the passes of the fixed list only, so that every
    # commit covers the same ops; later ops feed only the tail and the
    # failure counts
    probes_in_list = len(probe.samples)
    n, f = len(inputs), w.fixed_ops
    while time.monotonic() - t_start < args.seconds:
        op(w.draw(len(times) % f))
    per_op = [op_time(times[i:n:f], passed[i:n:f]) for i in range(f)]
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    return {
        "op_mean_times_s": per_op,
        "scale": probe.scale(probes_in_list),
        "probes": probes_in_list,
        "probe_mean_s": statistics.fmean(probe.samples[:probes_in_list]),
        "op_times_s": times,
        "measured_s": time.monotonic() - t_start,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def import_seconds(reps: int = 3) -> float:
    """Median time of a cold ``import affpoints.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import affpoints.cli"], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trace(args, w, inputs, runner) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    traced = untraced = 0.0
    for i, inp in enumerate(inputs[:w.fixed_ops]):
        def run(x, times, between, i=i):
            tracer.op = i
            try:
                return w.run_traced(x, times, between)
            finally:
                tracer.op = None

        # alternate which run goes first, so first-call costs and drift of
        # the machine fall on both sides alike
        for traced_now in (i % 2 == 1, i % 2 == 0):
            if not traced_now:
                untraced += runner.op(inp, w.run_traced)[0]
                continue
            tracer.install()
            try:
                traced += runner.op(inp, run)[0]
            finally:
                tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["cli.import_s"] = import_seconds()
    layers["trace.overhead_ratio"] = traced / untraced
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(spans)
    return {"layers": layers, "spans_file": os.path.relpath(spans, ROOT),
            "spans": len(tracer.start), "untraced_wall_s": untraced,
            "traced_wall_s": traced}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    w, inputs, runner, setup_s = set_up(args)
    result = {"setup_s": setup_s}
    if args.role == "measure":
        result.update(measure(args, w, inputs, runner, SpeedProbe()))
    elif args.role == "trace":
        result.update(trace(args, w, inputs, runner))
    result["versions"] = {"backend": affpoints.BACKEND, "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result.update(attempted=runner.attempted, failed=runner.failed,
                  errors=runner.errors, fixed_ops=w.fixed_ops, passes=w.passes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
