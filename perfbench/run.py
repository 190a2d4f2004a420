"""Benchmark of the totalfree package, one workload per run.

    python3 perfbench/run.py --workload analyze_braid --seed 1 --seconds 54 --trace 0

Run it from the root of a checkout: it imports ``totalfree`` from ``src/``
and needs nothing else outside the standard library.  Every set-up and
every loop runs in a fresh interpreter (perfbench/worker.py), one process
at a time, one call at a time.

``--trace 0`` measures end to end, untraced: as many whole input cycles
as take ``--seconds`` of calls at the reference machine's speed, in one
interpreter, then the same set-up twice more in new interpreters, and
reports throughput, median and tail latency, the median set-up time and
peak memory.  Every time is expressed at the reference machine's speed: it
is divided by the speed factor of the probes timed around it in the same
interpreter (speed.py), and the raw value is printed beside it.  ``--trace 1`` runs a fixed number of cycles untraced and then
the same inputs traced, and reports the per-layer metrics and the tracing
overhead.  The last line of output is one JSON object: correct, attempted,
failed and metrics.  Workloads, metrics and bounds are listed in
BENCHMARK.json at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 3          # set-ups per end-to-end run; setup_s is their median
TAIL_BEYOND = 10    # samples that must lie beyond the tail percentile
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def tail_latency(samples) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples for
    the rule, the maximum is returned with 0 samples beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_latencies(loop: dict) -> list[float]:
    """A worker loop's latencies at the reference machine's speed."""
    return speed.at_reference_speed(loop["latencies"], loop["starts"], loop["probe_s"],
                                    loop["probe_starts"])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    run = run_worker(common + ["--mode", "time", "--seconds", str(seconds)], deadline)
    workers = [run] + [run_worker(common + ["--mode", "setup"], deadline)
                       for _ in range(SETUPS - 1)]
    setups = [w["setup_s"] / speed.factor(w["setup_probe_s"]) for w in workers]
    lat = run["latencies"]
    scaled = scaled_latencies(run)
    attempted = len(lat)
    tail, percentile, beyond = tail_latency(scaled)
    metrics = {
        "throughput_per_s": (run["ok"] / sum(scaled), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (run["rss_kib"] / 1024, "MiB"),
    }
    raw = {
        "throughput_per_s": run["ok"] / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_latency(lat)[0],
    }
    notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    notes["latency_tail_ms"] += f", p{percentile:.1f} of {attempted} calls, {beyond} beyond"
    notes["setup_s"] = "median of " + ", ".join(
        f"{s:.4f} (raw {w['setup_s']:.4f})" for s, w in zip(setups, workers))
    notes["throughput_per_s"] += (f", {run['ok']} checked calls in {sum(lat):.3f} s of "
                                  f"calls, {run['cycles']} cycles")
    print(f"speed_factor {speed.factor(run['probe_s']):.4f} (mean of "
          f"{len(run['probe_s'])} probes in the loop; 1 = reference machine, "
          "above 1 = slower)")
    print(f"failed_ratio {run['failed'] / attempted:.4f} ratio "
          f"({run['failed']} of {attempted} calls)")
    return metrics, notes, attempted, run["failed"], run["failures"]


def traced(workload: str, seed: int, deadline: float):
    cycles = str(workloads.WORKLOADS[workload].trace_cycles)
    common = ["--workload", workload, "--seed", str(seed), "--mode", "count",
              "--cycles", cycles]
    plain = run_worker(common, deadline)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    spans = os.path.join(ROOT, ".perfbench", f"spans-{workload}-seed{seed}.tsv")
    run = run_worker(common + ["--spans", spans], deadline)
    metrics = {}
    for name, value in run["layers"].items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    if run.get("cache") is not None:
        hits, misses = run["cache"]
        if hits + misses:
            metrics["rank2.cache_hit_ratio"] = (hits / (hits + misses), "ratio")
    metrics["trace.overhead_ratio"] = (sum(scaled_latencies(run))
                                       / sum(scaled_latencies(plain)), "ratio")
    total = sum(run["self_by_layer"].values())
    notes = {"trace.overhead_ratio": f"{cycles} cycles, spans in {os.path.relpath(spans, ROOT)}"}
    for layer, t in sorted(run["self_by_layer"].items(), key=lambda kv: -kv[1]):
        print(f"self-time share {layer} {t / total:.3f}")
    attempted = len(run["latencies"]) + len(plain["latencies"])
    failed = run["failed"] + plain["failed"]
    return metrics, notes, attempted, failed, run["failures"] + plain["failures"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the totalfree package.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "totalfree", "__init__.py")):
        print(f"error: no src/totalfree under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            metrics, notes, attempted, failed, failures = traced(
                args.workload, args.seed, deadline)
        else:
            metrics, notes, attempted, failed, failures = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in failures:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
