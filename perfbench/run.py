"""handpass benchmark: ingest, crossval and gate, end to end and layer by layer.

Run from the root of a handpass checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --compare BASE_RUNS NEW_RUNS
    python3 perfbench/run.py --selftest

A run prints its environment, one line per metric with its unit, the
operations attempted and failed, and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
record of the run is also written under .perfbench/runs/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread: the gate's server and load generator share two cores,
# and a fixed setting keeps runs comparable.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench", "runs")
WORKLOAD_NAMES = ("ingest", "crossval", "gate")


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int, sizes) -> dict:
    import numpy

    import speed

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    from dataclasses import asdict

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "sizes": asdict(sizes),
        "speed_ref_s": speed.REF_S,
        "speed_interval_s": speed.INTERVAL_S,
    }


def pin_to_one_cpu() -> None:
    """Keeps this process and every process it starts on one CPU, so that
    the speed sampler times its kernel on the CPU that does the measured
    work, also while a set-up child or the gate's server computes."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (Result, record)."""
    import workloads

    run = workloads.Run(ROOT, workload, seed, seconds, trace, size)
    try:
        result = workloads.WORKLOADS[workload](run)
    finally:
        if run.tracer:
            run.tracer.unpatch()
        shutil.rmtree(run.work, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(seed, run.size),
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": result.metrics, "layers": result.layers,
        "problems": result.problems[:20], "extra": result.extra,
    }
    return result, record


def print_result(record: dict, units: dict) -> None:
    trace = "on" if record["trace"] else "off"
    print(f"workload {record['workload']} (seed {record['seed']}, {record['seconds']} s,"
          f" trace {trace}): attempted {record['attempted']}, failed {record['failed']},"
          f" correct {str(record['correct']).lower()}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    shown = record["layers"] if record["trace"] else record["metrics"]
    for name, value in shown.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")


def save_record(record: dict) -> str:
    os.makedirs(RUNS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RUNS, f"{record['workload']}-s{record['seed']}-t{record['trace']}"
                              f"-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return os.path.relpath(path, ROOT)


def cmd_run(args) -> int:
    import workloads

    units = {**workloads.END_TO_END, **workloads.PER_LAYER}
    result, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(record["env"]))
    print_result(record, units)
    print(f"record: {save_record(record)}")
    shown = result.layers if args.trace else result.metrics
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


def cmd_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    lines, ok = [], True
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload}: exit code {proc.returncode}")
            ok = False
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and last["correct"]
        lines.append((workload, last))
    print("\nsummary")
    for workload, last in lines:
        print(f"  {workload:9s} attempted {last['attempted']:6d} failed {last['failed']:4d}"
              f" correct {str(last['correct']).lower()}")
        for name, m in last["metrics"].items():
            print(f"    {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": ok and len(lines) == len(WORKLOAD_NAMES),
        "attempted": sum(last["attempted"] for _, last in lines),
        "failed": sum(last["failed"] for _, last in lines),
        "metrics": {f"{w}.{name}": m for w, last in lines for name, m in last["metrics"].items()},
    }))
    return 0 if ok else 1


# --- compare ------------------------------------------------------------------

def load_records(path: str) -> list:
    """Untraced run records from a directory of record files (.perfbench/runs)."""
    records = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name), encoding="ascii") as fh:
                records.append(json.load(fh))
    return [r for r in records if not r["trace"]]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_compare(base_path: str, new_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    base, new = load_records(base_path), load_records(new_path)
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print(f"{workload}: no runs in {'base' if not b else 'new'}")
            continue
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]] for r in b]
            nv = [r["metrics"][m["name"]] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = nm / bm - 1.0 if m["better"] == "lower" else bm / nm - 1.0
            inside = change <= m["bound"]
            worse += not inside
            print(f"  {m['name']:18s} base {bm:12.6g} new {nm:12.6g} {m['unit']:5s}"
                  f" new/base {nm / bm:7.4f}"
                  f" spread {spread(bv):.3f}/{spread(nv):.3f}"
                  f" bound {m['bound']:.2f}: {'inside' if inside else 'WORSE, outside'} bound")
        fb = [r["failed"] / r["attempted"] for r in b]
        fn = [r["failed"] / r["attempted"] for r in n]
        print(f"  failed share base {statistics.median(fb):.4f} new {statistics.median(fn):.4f}")
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    # A shell that starts us in the background ignores SIGINT, and children
    # would inherit that; the servers are stopped with SIGINT, like ctrl-c.
    # SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return cmd_compare(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "handpass", "__init__.py")):
        print("error: src/handpass not found; run from the root of a handpass checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.selftest:
        import selftest

        return selftest.main(ROOT, run_one)
    if args.workload is None:
        p.error("one of --workload, --compare or --selftest is required")
    if args.workload == "all":
        return cmd_all(args)
    pin_to_one_cpu()
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
