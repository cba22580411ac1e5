"""Benchmark runner for lokmeans.

    python3 perfbench/run.py --workload escape-sqe --seed 1 --seconds 45 --trace 0

Builds the workload's inputs from the seed, then runs ops in a closed
loop (the next op starts when the previous one ends) for ``--seconds``
and checks every op's outputs. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs each op twice, once
plain and once with every public lokmeans function wrapped in spans,
and prints the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts ops in which a call raised or a check failed, and
``correct`` is true only when no op failed. Run it from the
root of a checkout that holds ``src/lokmeans``; without the package it
exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "lokmeans" / "__init__.py").is_file():
    sys.exit(f"error: no lokmeans package under {ROOT / 'src'}; run from a lokmeans checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
# End-to-end metrics the JSON line carries with --trace 0, with units.
# ops_per_s, op_s_tail and failed_share are printed but not reported: see
# perfbench/README.md for why none of them can carry a bound.
END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("peak_mem_mb", "MB"),
    ("loss_ratio", "ratio"),
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.OPS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_benchmark_json() -> None:
    """BENCHMARK.json must list workloads this runner has and exactly its metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    metrics = (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    )
    if not names <= set(workloads.OPS) or metrics != (list(END_TO_END), list(layers.PER_LAYER)):
        raise ValueError("BENCHMARK.json does not match the workloads and metrics of perfbench")


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "LOKMEANS_THREADS": os.environ["LOKMEANS_THREADS"],
        "blas_threads": "library default, capped at nproc",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var, "unset")
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    fields = dict(line.split(":", 1) for line in lscpu.splitlines() if ":" in line)
    for key, label in (("Model name", "cpu"), ("L2 cache", "l2"), ("L3 cache", "l3")):
        info[label] = fields.get(key, "unknown").strip()
    return info


def quantile_tail(times: list[float]) -> tuple[float, int] | None:
    """The highest percentile with at least ten ops above it, and which one."""
    ordered = sorted(times)
    rank = len(ordered) - 10  # 1-based rank leaving ten ops beyond
    if rank < 1:
        return None
    return ordered[rank - 1], int(100 * rank / len(ordered))


def setup_round(workload: str, seed: int, workdir: str):
    """Build the inputs and warm up once; returns (inputs, seconds)."""
    start = time.perf_counter()
    inputs = workloads.BUILD_INPUTS[workload](seed, workdir)
    workloads.WARMUPS[workload](inputs)
    return inputs, time.perf_counter() - start


def peak_memory_mb(op, inputs) -> float:
    """Peak bytes allocated during op 0, from tracemalloc (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        op(inputs, 0)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def attempt(op, inputs, index):
    """(seconds, results, problems); a raised call becomes a 'raised' problem."""
    start = time.perf_counter()
    try:
        results = op(inputs, index)
    except Exception as exc:  # counted as a failed op, never aborted on
        elapsed = time.perf_counter() - start
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return elapsed, None, [("raised", f"op {index}: {detail}")]
    return time.perf_counter() - start, results, None


def measure(args, inputs, workdir, setup_times):
    """Closed loop of untraced ops; returns (op times, tally, loss ratios).

    Between ops, set-up rounds are repeated at even intervals until
    ``setup_times`` holds SETUP_REPEATS of them. The machine's speed
    holds for a second or so and then shifts, so rounds made back to
    back would all time one state of it; spread out, their median sees
    the machine over the whole run, as the op times do. Their time is
    added to the loop's end, so the ops still get ``--seconds``.
    Op 0's checks wait until the loop ends, so that the workload's
    ``CERTIFY_FIRST`` certificates, if any, cost no time of the loop.
    """
    op = workloads.OPS[args.workload]
    tally = checks.Tally()
    times, ratios, first = [], [], None
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() < start + args.seconds:
        elapsed, results, problems = attempt(op, inputs, index)
        times.append(elapsed)
        if results is not None:
            ratios += checks.loss_ratios(results)
        if index == 0:
            first = (results, problems)
        else:
            tally.record(problems if results is None else checks.check_op(results))
        index += 1
        due = len(setup_times) * args.seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
            seconds = setup_round(args.workload, args.seed, workdir)[1]
            setup_times.append(seconds)
            start += seconds
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_round(args.workload, args.seed, workdir)[1])
    results, problems = first
    if results is not None:
        if args.workload in workloads.CERTIFY_FIRST:
            workloads.CERTIFY_FIRST[args.workload](results)
        problems = checks.check_op(results)
    tally.record(problems)
    return times, tally, ratios


def _losses(results) -> list[float]:
    return [res.final_loss for res in results]


def measure_traced(args, inputs):
    """Each op plain and traced, alternating which goes first.

    The functions are patched only around the traced attempt, so the
    plain one runs the program as it is.
    """
    op = workloads.OPS[args.workload]
    recorder = spans.SpanRecorder()
    targets, function_of = layers.instrument(recorder)
    tally = checks.Tally()
    plain_times, diffs = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with spans.patched(targets), recorder.op_scope(index):
                    runs[traced] = attempt(op, inputs, index)
            else:
                runs[traced] = attempt(op, inputs, index)
        plain, traced_run = runs[False], runs[True]
        for traced, (elapsed, results, problems) in runs.items():
            if results is not None:
                problems = checks.check_op(results)
                if traced and plain[1] is not None and _losses(results) != _losses(plain[1]):
                    problems.append(("trace-changed-result", f"op {index}"))
            tally.record(problems)
        plain_times.append(plain[0])
        diffs.append(traced_run[0] - plain[0])
        index += 1
    metrics = layers.per_layer(recorder, function_of, index)
    metrics["trace.untraced_op_s"] = statistics.median(plain_times)
    metrics["trace.overhead_s"] = statistics.median(diffs)
    arr = recorder.arrays()
    nesting = spans.nesting_violations(arr["start"], arr["end"], arr["parent"])
    if nesting:
        raise RuntimeError(f"span recorder fault: {nesting} spans lie outside their parent")
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(str(out_dir / f"spans-{args.workload}.npz"))
    return metrics, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["LOKMEANS_THREADS"] = "1"
    check_benchmark_json()
    selftest.run_all()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        inputs, first_setup = setup_round(args.workload, args.seed, workdir)
        if args.trace:
            metrics, tally = measure_traced(args, inputs)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            for name, unit in units.items():
                label = " (computed)" if name in layers.COMPUTED else ""
                print(f"{name} = {metrics[name]:.6g} {unit}{label}")
        else:
            peak_mb = peak_memory_mb(workloads.OPS[args.workload], inputs)
            setup_times = [first_setup]
            times, tally, ratios = measure(args, inputs, workdir, setup_times)
            setup_s = statistics.median(setup_times)
            metrics = {
                "setup_s": setup_s,
                "op_s_p50": statistics.median(times),
                "peak_mem_mb": peak_mb,
                # Workloads without escape variants compare none with itself.
                "loss_ratio": statistics.fmean(ratios) if ratios else 1.0,
            }
            units = dict(END_TO_END)
            print(
                f"setup_s = {setup_s:.6g} s (median of {SETUP_REPEATS} builds and warm-ups spread over"
                f" the run; the first, cold, before op 0 took {first_setup:.6g} s)"
            )
            print(f"op_s_p50 = {metrics['op_s_p50']:.6g} s (median of {len(times)} ops)")
            print("op times (s): " + " ".join(f"{t:.3f}" for t in times))
            tail = quantile_tail(times)
            if tail:
                print(f"op_s_tail = {tail[0]:.6g} s (p{tail[1]} of {len(times)} ops, 10 beyond it)")
            else:
                print(f"op_s_tail = n/a ({len(times)} ops; no percentile has ten ops beyond it)")
            print(f"ops_per_s = {len(times) / sum(times):.6g} 1/s (closed loop, 1 client)")
            print(f"peak_mem_mb = {peak_mb:.6g} MB (tracemalloc, op 0 run apart from the timed ones)")
            print(f"loss_ratio = {metrics['loss_ratio']:.6g} ratio (over {len(ratios)} escape-variant runs)")
        print(f"failed_share = {tally.share:.6g} ({tally.failed}/{tally.attempted} ops)")
        for kind, count in sorted(tally.kinds.items()):
            print(f"problem {kind}: {count}, e.g. {tally.examples[kind]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
