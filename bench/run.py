"""hashlearn benchmark: one seeded workload, its metrics and correctness checks.

Run from the repository root:

    python3 bench/run.py --workload train_unsup --seed 1 --seconds 30 --trace 0

Workloads: train_unsup, train_sup, retrieval (see bench/workloads.py and
BENCHMARK.json for why each exists).  The run sets up SETUP_REPEATS times,
then runs the workload's operation one at a time until --seconds have passed,
never starting one that the last one's duration says would overrun, but
always completing at least one operation of each kind it reports.
--trace 0 reports the end-to-end metrics as medians over operations (or
set-ups), except the millisecond stages named in a workload's ``fastest``.  --trace 1 alternates untraced and traced operations and reports
per-layer metrics of the traced ones, plus the tracing overhead.
--quick shrinks every size for a smoke test; its numbers mean nothing.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Every operation's
outputs are checked; a failed check counts the operation as failed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One client runs one operation at a time, and the workloads' matrices are
# small enough that a second BLAS thread did not help on a 2-core machine.
# numpy reads these variables when it loads, so they are set before any import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# the library under test is the checkout's own source tree, never an installed copy
if not os.path.isdir(os.path.join(SRC, "hashlearn")):
    raise SystemExit("error: %s has no hashlearn package to benchmark" % SRC)
sys.path.insert(0, SRC)

import hashlearn  # noqa: E402
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(hashlearn.__file__))) != SRC:
    raise SystemExit("error: imported hashlearn from %s, not from %s" % (hashlearn.__file__, SRC))

SETUP_REPEATS = 3

# name -> unit of each end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "encode_s": "s",
    "gt_s": "s",
    "eval_s": "s",
    "final_loss": "1",
    "map": "ratio",
    "precision_at_2": "ratio",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def per_layer_units(names):
    """Unit of each per-layer metric, read from its name's suffix."""
    units = {}
    for name in names:
        if name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.startswith("dataio.bytes_"):
            units[name] = "B"
        elif name.endswith(".s") or name.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "count"
    return units


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train_unsup", "train_sup", "retrieval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes for a smoke test")
    return p.parse_args(argv)


def machine_record():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "machine": platform.machine()}


class Run:
    """Counts, failures and samples of one benchmark run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.first = {}        # outputs and counts of the first operation that had them

    def fail(self, what, messages):
        self.failed += 1
        for msg in messages:
            print("FAILED %s: %s" % (what, msg), file=sys.stderr)

    def repeat_failures(self, values, keys):
        """Messages for each of keys whose value differs from its first value."""
        out = []
        for key in keys:
            if key not in values:
                continue
            if key not in self.first:
                self.first[key] = values[key]
            elif values[key] != self.first[key]:
                out.append("%s changed between repeats: %r then %r" % (key, self.first[key], values[key]))
        return out

    def setup(self):
        """Set up SETUP_REPEATS times; returns {metric: [values]} with setup_s."""
        samples = {"setup_s": []}
        for i in range(SETUP_REPEATS):
            self.attempted += 1
            t0 = time.perf_counter()
            values = self.wl.setup()
            samples["setup_s"].append(time.perf_counter() - t0)
            for key, value in values.items():
                samples.setdefault(key, []).append(value)
            problems = self.repeat_failures(values, self.wl.repeatable)
            if problems:
                self.fail("set-up %d" % i, problems)
        return samples

    def operation(self, tracer=None):
        """One timed operation and its checks; counts of traced ones must repeat.

        Returns (metrics, op seconds), also when a check failed, or None when
        the operation raised.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                output, metrics = self.wl.op()
            else:
                with tracer.installed():
                    output, metrics = self.wl.op()
            op_s = time.perf_counter() - t0
            more, problems = self.wl.finish(output)
        except Exception:  # any error in one operation is that operation's failure
            self.fail("operation %d" % self.attempted, [traceback.format_exc()])
            return None
        metrics.update(more)
        problems += self.repeat_failures(metrics, self.wl.repeatable)
        if tracer is not None:
            tracer.metrics = tracer.layer_metrics()
            problems += self.repeat_failures(tracer.metrics, tracing.COUNTS)
        if problems:
            self.fail("operation %d" % self.attempted, problems)
        return metrics, op_s


def _median(values):
    return float(statistics.median(values))


def measure(run, seconds, trace):
    """Operations until the deadline, and at least one of each kind the run needs.

    Returns (samples of untraced operations, tracers, op times by kind).
    """
    samples = {}
    tracers = []
    op_times = {"untraced": [], "traced": []}
    deadline = time.perf_counter() + seconds
    last = 0.0
    traced_next = False
    while True:
        done = op_times["untraced"] and (op_times["traced"] or not trace)
        if done and time.perf_counter() + last > deadline:
            break
        tracer = tracing.Tracer() if traced_next else None
        kind = "untraced" if tracer is None else "traced"
        t0 = time.perf_counter()
        result = run.operation(tracer)
        last = time.perf_counter() - t0
        if result is None:
            if not op_times[kind]:
                break  # the first operation of its kind raised; later ones would too
            continue
        metrics, op_s = result
        op_times[kind].append(op_s)
        if tracer is None:
            for key, value in metrics.items():
                samples.setdefault(key, []).append(value)
        else:
            tracers.append(tracer)
        if trace:
            traced_next = not traced_next
    return samples, tracers, op_times


def end_to_end_metrics(setup_samples, samples, fastest):
    """{name: (value, how it was taken)}: the median over the run's operations
    or set-ups, or the minimum for the names in fastest."""
    merged = dict(samples)
    for key, values in setup_samples.items():
        merged.setdefault(key, values)
    out = {}
    for name in END_TO_END:
        if name in ("peak_rss_mb", "success_rate"):
            continue
        if name not in merged:
            raise RuntimeError("no samples of %s" % name)
        values = merged[name]
        if name in fastest:
            out[name] = (float(min(values)), "fastest call in %d operations" % len(values))
            continue
        how = "median of %d" % len(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            how += ", quartiles %.6g .. %.6g" % (q1, q3)
        out[name] = (_median(values), how)
    return out


def per_layer_metrics(tracers, op_times):
    """Medians of the traced operations' layer metrics, and the tracing overhead."""
    if not tracers:
        raise RuntimeError("no traced operation completed")
    out = {}
    for name in tracers[0].metrics:
        values = [t.metrics[name] for t in tracers]
        if name in tracing.COUNTS:  # equal in every traced operation, or it failed
            out[name] = (values[0], "count, %d operations" % len(values))
        else:
            out[name] = (_median(values), "median of %d" % len(values))
    # share of each traced operation's wall time that its spans account for
    coverage = [t.metrics["trace.self_sum_s"] / op_s for t, op_s in zip(tracers, op_times["traced"])]
    out["trace.coverage_ratio"] = (_median(coverage), "median of %d" % len(coverage))
    n = min(len(op_times["untraced"]), len(op_times["traced"]))
    overhead = [op_times["traced"][i] - op_times["untraced"][i] for i in range(n)]
    out["trace.overhead_s"] = (_median(overhead), "median of %d pairs" % n)
    untraced = op_times["untraced"]
    out["trace.untraced_s"] = (_median(untraced), "median of %d" % len(untraced))
    return out


def main(argv=None):
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    machine = machine_record()
    print("machine: " + " ".join("%s=%s" % kv for kv in machine.items()))
    sizes = (workloads.QUICK if args.quick else workloads.FULL)[args.workload]
    work_dir = os.path.join(ROOT, ".bench_out", "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir)
    try:
        run = Run(workloads.WORKLOADS[args.workload](args.seed, sizes, work_dir))
        setup_samples = run.setup()
        samples, tracers, op_times = measure(run, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        measured = per_layer_metrics(tracers, op_times)
        units = per_layer_units(measured)
        path = os.path.join(ROOT, ".bench_out", "spans-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start_s", "end_s", "parent"],
                       "operations": [t.spans for t in tracers]}, f)
        print("spans of %d traced operations -> %s" % (len(tracers), os.path.relpath(path, ROOT)))
    else:
        measured = end_to_end_metrics(setup_samples, samples, run.wl.fastest)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured["peak_rss_mb"] = (rss_mb, "whole process")
        measured["success_rate"] = (1.0 - run.failed / run.attempted, "of %d attempted" % run.attempted)
        units = END_TO_END
    print("workload %s seed %d: %d attempted, %d failed%s"
          % (args.workload, args.seed, run.attempted, run.failed, " (quick sizes)" if args.quick else ""))
    for name, (value, how) in measured.items():
        print("  %-40s %14.6g %-6s %s" % (name, value, units[name], how))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in measured.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
