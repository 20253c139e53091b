#!/usr/bin/env python3
"""Benchmark of sublin's two-stage protocol (`run_protocol`) on three workloads.

    python3 perfbench/run.py --workload protocol-exact --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`. One caller
in one process (a closed loop), with BLAS/OpenMP pinned to one thread.

With `--trace 0` a run times the set-up `setup_repeats` times, then calls
`run_protocol` on a freshly loaded copy of the dataset until `--seconds` are
used, checking every output. With `--trace 1` it traces one set-up, then
alternates untraced and traced `run_protocol` calls, checks that both give the
same report, and reports per-layer metrics (see tracing.py); spans are written
to `.perfbench/spans-<workload>-seed<seed>.jsonl`.

The last line of standard output is the result, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
details (machine facts, sample counts, medians and tails, accuracy).
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import sublin from this checkout's sources, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "sublin", "__init__.py")):
        sys.exit(f"perfbench: no sublin sources under {SRC}")
    sys.path.insert(0, SRC)
    import sublin
    if os.path.dirname(os.path.dirname(os.path.abspath(sublin.__file__))) != SRC:
        sys.exit(f"perfbench: sublin was imported from {sublin.__file__}, not {SRC}")


def machine_facts():
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Ops:
    """Counts operations (a set-up, a run_protocol call or a check, with its
    output checks) and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, what, fn):
        """Call fn() -> (value, problems); return value, or None on failure."""
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception:
            value, problems = None, [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
            return None
        return value


# Calibration time that `wall_s` and `setup_s` are rescaled to (see calibrated()).
CALIBRATION_REF_S = 0.04


def calibration():
    """Mean time of a fixed piece of work independent of sublin: permutation
    scoring by fancy indexing, small-array reductions and a pure-Python loop,
    the three kinds of work the program does."""
    import numpy as np

    rng = np.random.default_rng(0)
    scoring = []
    for n, repeats in ((6, 25), (7, 4)):
        compat = rng.normal(size=(n, n, n, n))
        perms = np.array(list(itertools.permutations(range(n))))
        ii, jj = np.arange(n).reshape(1, n, 1), np.arange(n).reshape(1, 1, n)
        scoring.append((compat, perms, ii, jj, repeats))
    soft = rng.random((9, 9))

    def work():
        for compat, perms, ii, jj, repeats in scoring:
            for _ in range(repeats):
                compat[ii, jj, perms[:, :, None], perms[:, None, :]].sum(axis=(1, 2)).argmax()
        a = soft.copy()
        for _ in range(2000):
            a /= a.sum(axis=1, keepdims=True)
            a /= a.sum(axis=0, keepdims=True)
        total = 0
        for i in range(300000):
            total += i * i

    return statistics.fmean(timed(work)[1] for _ in range(5))


def calibrated(fn, *args):
    """Call fn(*args); return (value, seconds, scale).

    On a shared host, other tenants can slow the process by 2.5x or more, in
    bursts and for minutes at a time. The calibration runs just before and just after
    the call see the same slowdown; `seconds * scale` is the time the call
    would take where the calibration takes CALIBRATION_REF_S.
    """
    before = calibration()
    value, seconds = timed(fn, *args)
    scale = CALIBRATION_REF_S / statistics.fmean((before, calibration()))
    return value, seconds, scale


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def summary(raw, scales=()):
    """Sample count, minimum, median and maximum of raw timings, and the range
    of their calibration scales."""
    out = {"n": len(raw), "min": min(raw), "median": statistics.median(raw), "max": max(raw)}
    if scales:
        out.update(scale_min=min(scales), scale_max=max(scales))
    return out


def set_up(workload, ops, times):
    def one():
        dataset, seconds, scale = calibrated(workload.setup)
        times.append((seconds, scale))
        return dataset, workload.check_dataset(dataset)
    return ops.run("set-up", one)


def measure(workload, seconds, ops, detail):
    """Untraced run: the end-to-end metrics."""
    from sublin import protocol

    calibration()  # warm-up: a process's first calibrations run slow
    setup_times = []
    for _ in range(workload.setup_repeats):
        dataset = set_up(workload, ops, setup_times)
    ops.run("check outside timing", lambda: (None, workload.check_outside_timing(dataset)))

    walls, reports = [], []

    def call():
        report, wall, scale = calibrated(protocol.run_protocol, workload.config(workload.load()))
        walls.append((wall, scale))  # a report that fails its checks still took this long
        reports.append(report)
        return None, workload.check_report(report)

    deadline = time.perf_counter() + seconds
    while True:
        ops.run("run_protocol", call)
        if not walls or deadline - time.perf_counter() < statistics.median(w for w, _ in walls):
            break
    if not walls or not setup_times:
        return None
    detail.update(wall_s=summary(*zip(*walls)), setup_s=summary(*zip(*setup_times)),
                  accuracy=reports[-1].test_mean, matcher_calls=reports[-1].matcher_calls)
    return {
        "wall_s": (statistics.median(w * k for w, k in walls), "s"),
        "setup_s": (statistics.median(t * k for t, k in setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace(workload, seconds, ops, detail, spans_path):
    """Traced run: the per-layer metrics, from spans recorded around sublin's
    public functions."""
    from sublin import matching, protocol
    from tracing import Tracer, metric_unit

    tracer = Tracer()
    tracer.patch(("data_io",))
    try:
        dataset = set_up(workload, ops, [])
    finally:
        tracer.restore()

    def pair():
        reference, untraced = timed(protocol.run_protocol, workload.config(workload.load()))
        dataset = workload.load()
        tracer.op += 1
        calls_before = matching.matcher_call_count()
        tracer.patch()
        try:
            report, traced = timed(protocol.run_protocol, workload.config(dataset))
        finally:
            tracer.restore()
        solver_calls = matching.matcher_call_count() - calls_before
        problems = workload.check_report(reference) + workload.check_report(report)
        if report.to_json() | {"wall_time_s": 0} != reference.to_json() | {"wall_time_s": 0}:
            problems.append("traced report differs from the untraced one")
        if solver_calls != report.matcher_calls:
            problems.append(f"{solver_calls} solver calls, report says {report.matcher_calls}")
        return (untraced, traced, solver_calls), problems

    pairs = []
    deadline = time.perf_counter() + seconds
    while True:
        done = ops.run("untraced + traced run_protocol", pair)
        if done:
            pairs.append(done)
        if not pairs or deadline - time.perf_counter() < statistics.median(
                u + t for u, t, _ in pairs):
            break
    tracer.write_spans(spans_path)
    if dataset is None or not pairs:
        return None
    untraced, traced, solver_calls = zip(*pairs)
    detail.update(untraced_wall_s=summary(untraced), traced_wall_s=summary(traced),
                  spans=len(tracer.spans), spans_file=os.path.relpath(spans_path, ROOT))
    layer = tracer.metrics(len(pairs), sum(solver_calls), min(traced) - min(untraced))
    return {name: (value, metric_unit(name)) for name, value in layer.items()}


def main(argv=None):
    import_program()
    from workloads import INPUT_SEEDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    input_seed = args.seed % INPUT_SEEDS
    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    ops = Ops()
    detail = {"workload": args.workload, "seed": args.seed, "input_seed": input_seed,
              "trace": args.trace, "machine": machine_facts()}
    try:
        workload.prepare(workdir, input_seed)
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = trace(workload, args.seconds, ops, detail, spans)
        else:
            metrics = measure(workload, args.seconds, ops, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in ops.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if metrics is None:
        sys.exit("perfbench: no operation succeeded, nothing to report")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
