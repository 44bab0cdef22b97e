"""stabdb benchmark: one workload, measured closed-loop for a fixed time.

    python3 perfbench/run.py --workload census-n5 --seed 1 --seconds 18 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client runs the workload's ops back to back, single-threaded.  A pass is
the whole op list (one certified census for census-n5); after three,
passes repeat while the next one is predicted to end within ``--seconds``.  The last
stdout line is a JSON object with the keys correct, attempted, failed and
metrics: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.  The lines before it print every metric by
name with its unit, the seed and the sample counts.  See README.md.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of the run's own set-up and 2 to 10 more in fresh
# processes, as many as fit in about this many seconds: a short set-up is
# noisier, so it gets more samples
PROBE_SECONDS = 4
MAX_REPORTED_FAILURES = 20


def tail_percentile(samples):
    """p90 when at least 10 samples lie beyond it, else the largest sample."""
    s = sorted(samples)
    i = math.ceil(0.9 * len(s)) - 1
    return s[i] if len(s) - 1 - i >= 10 else s[-1]


class Runner:
    """Runs passes over a workload's op list and counts failed checks."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def fail(self, where, names):
        self.failed += 1
        if self.reported < MAX_REPORTED_FAILURES:
            print(f"FAIL {self.wl.name} {where}: {', '.join(names)}", file=sys.stderr)
            self.reported += 1

    def one_pass(self, run_op, tracer=None, pass_no=0):
        """Latencies (s) of every op of one pass, and, when traced, the op
        outputs; untraced passes drop them so memory does not grow."""
        latencies, outs = [], []
        for i, op in enumerate(self.wl.ops):
            if tracer is not None:
                tracer.op = (pass_no, i)
            t = perf_counter()
            try:
                out, error = run_op(op), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t)
            self.attempted += 1
            names = [error] if error else self.wl.check(op, out)
            if names:
                self.fail(f"pass {pass_no} op {i}", names)
            if tracer is not None:
                outs.append(out)
        return latencies, outs

    def passes(self, seconds, min_passes, run_op, tracer=None, first=0):
        """At least min_passes whole passes, then more while the next is
        predicted to end within seconds."""
        done = []
        t0 = perf_counter()
        while True:
            done.append(self.one_pass(run_op, tracer, first + len(done)))
            elapsed = perf_counter() - t0
            if len(done) >= min_passes and elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def end_to_end(runner, seconds, setup_s, setup_probe):
    """End-to-end metrics.  setup_s is the run's own set-up time;
    setup_probe(count) returns the set-up times of count fresh processes,
    which run half before and half after the passes."""
    setup = [setup_s]
    count = max(2, min(10, round(PROBE_SECONDS / setup_s)))
    setup += setup_probe(count // 2)
    passes = runner.passes(seconds, 3, runner.wl.run)
    setup += setup_probe(count - count // 2)
    latencies = [x for lat, _ in passes for x in lat]
    summary = {"passes": len(passes), "op_samples": len(latencies),
               "setup_samples": [round(x, 4) for x in setup]}
    metrics = {
        "wall_s": (statistics.median(sum(lat) for lat, _ in passes), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * tail_percentile(latencies), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, summary


def traced(runner, seconds, trace_path):
    """Half the time untraced, half traced; per-layer metrics per pass."""
    import tracing

    plain = runner.passes(seconds / 2, 1, runner.wl.run)
    tracer = tracing.Tracer()
    with tracer.installed():
        run_op = tracer.wrap(tracing.OP_SPAN, runner.wl.run)
        done = runner.passes(seconds / 2, 1, run_op, tracer, first=len(plain))
    tracer.dump(trace_path)
    n = len(done)
    plain_wall = statistics.median(sum(lat) for lat, _ in plain)
    traced_wall = statistics.median(sum(lat) for lat, _ in done)
    op_total = sum(sum(lat) for lat, _ in done)
    self_total = sum(t["self_s"] for t in tracer.totals().values())
    metrics = tracing.layer_metrics(tracer, n)
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.self_sum_share": (self_total / op_total, "ratio"),
    })
    # self times must cover the traced op time, up to the wrappers' own cost
    runner.attempted += 1
    if not 0.98 <= self_total / op_total <= 1.0 + 1e-9:
        runner.fail("trace", [f"self times add up to {self_total:.6f} s of {op_total:.6f} s"])
    names = work_count_failures(runner.wl, tracer, done)
    runner.attempted += 1
    if names:
        runner.fail("trace", names)
    return metrics, {"passes": n, "untraced_passes": len(plain), "trace_file": str(trace_path)}


def work_count_failures(wl, tracer, done) -> list:
    """Work counts must repeat exactly between passes and agree with len()
    of the outputs."""
    by_pass = tracer.counts_by_pass()
    counts = list(by_pass.values())
    failed = [] if all(c == counts[0] for c in counts) else ["work_counts_repeat"]
    for (_, outs), c in zip(done, counts):
        if not any(out is None for out in outs):  # a raised op is already a failure
            failed += wl.work_failures(c, outs)
    return sorted(set(failed))


def setup_probe_times(args, count):
    """Set-up seconds of count fresh processes, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stabdb" / "__init__.py").is_file():
        print(f"error: no stabdb package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("STABDB_THREADS", None)  # the serial path
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = perf_counter() - t_start
        if args.setup_probe:
            print(setup_s)
            return 0
        runner = Runner(wl)
        if args.trace:
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, summary = traced(runner, args.seconds, trace_path)
        else:
            metrics, summary = end_to_end(
                runner, args.seconds, setup_s, lambda count: setup_probe_times(args, count))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in summary.items()))
    fail_ratio = runner.failed / runner.attempted
    for name, (value, unit) in {**metrics, "fail_ratio": (fail_ratio, "ratio")}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
