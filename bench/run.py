"""kcdr benchmark: one workload per process, seeded inputs, checked outputs.

    python3 bench/run.py --workload stream-sketch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports kcdr from its src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones, taken
from spans recorded around kcdr's public functions (see spans.py).  Lines
before it report each metric under its per-workload name (ingest_updates_per_s,
query_p50_ms, sweep_s, failed_frac, ...) with unit and sample count,
the failures by exception class, and the pinned environment.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GATED = ("stream-sketch", "stream-exact", "sweep-oracle", "sweep-greedy")
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Share of the traced wall time that may sit outside every kcdr span (the
# benchmark's own loop and timers) before the trace is called incomplete.
UNACCOUNTED_TOLERANCE = 0.05


def pin_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(ncpu)


def import_kcdr():
    """kcdr from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "kcdr", "__init__.py")):
        sys.exit(f"bench: no kcdr package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import kcdr

    if os.path.dirname(os.path.dirname(os.path.abspath(kcdr.__file__))) != SRC:
        sys.exit(f"bench: imported kcdr from {kcdr.__file__}, not from {SRC}")


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as the ceil(q n)-th smallest value (so p90 of 100
    samples has ten samples above it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up: interpreter start, import kcdr and, on streams,
    init_stream, up to the point the first timed operation could begin."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.exit("bench: set-up probe failed")
        times.append(elapsed)
    return times


def report(workload: str, name: str, value: float, unit: str, samples: int):
    print(json.dumps({"workload": workload, "metric": name, "value": value, "unit": unit, "samples": samples}))


def run_workload(args) -> dict:
    import numpy
    import scipy

    import spans as tr
    from workloads import WORKLOADS, failures, outcome_key

    wl = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    inputs = wl.make_inputs(args.seed)

    tracer = tr.Tracer() if args.trace else None
    plain, traced = [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        if tracer is None:
            plain.append(wl.run_pass(inputs))
            if peak_rss_mb is None:
                # Freed heap stays resident and glibc's fragmentation grows
                # with every pass (about 40 MB per sweep-greedy pass), so the
                # peak is read after a fixed amount of work, not after however
                # many passes fit in --seconds.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            # alternate which side goes first, so warm-up does not count as overhead
            for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
                if not with_trace:
                    plain.append(wl.run_pass(inputs))
                    continue
                patch = tr.install(tracer)
                try:
                    traced.append(wl.run_pass(inputs, tracer))
                finally:
                    patch.restore()
        done = plain + traced
        per_round = statistics.median(p.wall_s for p in done) * (2 if tracer else 1)
        if time.perf_counter() - start + per_round > args.seconds:
            break

    problems = wl.check(inputs, plain[0])
    first = [outcome_key(r) for r in plain[0].outputs]
    for p in done[1:]:
        if [outcome_key(r) for r in p.outputs] != first:
            problems.append("a repeated pass over the same inputs gave different outputs")
            break
    attempted = sum(len(p.outputs) for p in plain)
    failed_by_class = failures(r for p in plain for r in p.outputs)
    failed = sum(failed_by_class.values())

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpus": int(os.environ["OMP_NUM_THREADS"]), "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(), "passes": len(plain), "traced_passes": len(traced),
    }
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": args.workload, "failures_by_class": dict(failed_by_class), "attempted": attempted}))

    latency = [x for p in plain for x in p.op_latency_s]
    intake = [x for p in plain for x in p.intake_per_s]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
            "batch_s": (statistics.median(p.wall_s for p in plain), "s", len(plain)),
            "op_p50_ms": (1e3 * nearest_rank(latency, 0.5), "ms", len(latency)),
            "op_p90_ms": (1e3 * nearest_rank(latency, 0.9), "ms", len(latency)),
            "ingest_per_s": (statistics.median(intake), "1/s", len(intake)),
        }
        # the same numbers under per-workload names
        named = {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
        if wl.kind == "stream":
            named.update(ingest_per_s="ingest_updates_per_s", op_p50_ms="query_p50_ms", op_p90_ms="query_p90_ms",
                         batch_s="stream_pass_s")
        else:
            named.update(batch_s="sweep_s", op_p50_ms="instance_p50_ms", op_p90_ms="instance_p90_ms",
                         ingest_per_s="points_per_s")
        for key, (value, unit, n) in metrics.items():
            report(args.workload, named[key], value, unit, n)
        report(args.workload, "failed_frac", failed / attempted, "ratio", attempted)
        out = {k: v for k, (v, _, _) in metrics.items()}
    else:
        out = tr.layer_metrics(tracer, len(traced))
        out.update(wl.space(traced[-1]))
        traced_wall = sum(p.wall_s for p in traced) / len(traced)
        untraced = statistics.median(p.wall_s for p in plain)
        roots = sum(t1 - t0 for t0, t1, parent in zip(tracer.start, tracer.end, tracer.parent) if parent < 0)
        roots = roots / 1e9 / len(traced)
        out.update({
            "trace.wall_ms": 1e3 * traced_wall,
            "trace.untraced_ms": 1e3 * untraced,
            "trace.overhead_frac": traced_wall / untraced - 1.0,
            "trace.unaccounted_frac": out["bench.self_ms"] / 1e3 / roots,
            "trace.spans": len(tracer.start) / len(traced),
        })
        if out["trace.unaccounted_frac"] > UNACCOUNTED_TOLERANCE:
            problems.append(
                f"layer self times leave {out['trace.unaccounted_frac']:.3f} of the traced wall unaccounted"
            )
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write_csv(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.csv"))
    for msg in problems:
        print(json.dumps({"workload": args.workload, "check_failed": msg}))
    print(json.dumps({"workload": args.workload, "checks_passed": not problems, "problems": len(problems)}))
    spec = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(out) != set(spec):
        sys.exit(f"bench: metrics {sorted(set(out) ^ set(spec))} disagree with BENCHMARK.json")
    metrics = {name: {"value": float(out[name]), "unit": unit} for name, unit in spec.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each gated workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in GATED:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    import_kcdr()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.probe:
        WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
