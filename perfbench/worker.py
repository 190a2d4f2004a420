"""One fresh interpreter: set up one workload, then call totalfree in a closed loop.

Started by run.py, one at a time.  Set-up time runs from the top of this
file: importing totalfree from ``src/``, generating the inputs and, for
verify_cert, building the certificates.  The loop makes one call at a time
and checks every output.  The last line of output is one JSON object.

Modes: ``setup`` stops after set-up; ``time`` runs as many whole input
cycles as take ``--seconds`` of calls at the reference machine's speed
(``Workload.cycles_for``); ``count`` runs ``--cycles`` cycles, traced with
``--spans PATH``.  After set-up, and between calls, the worker times the
machine speed probe (speed.py); probes are never inside a timed call.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_REPORTED_FAILURES = 20
WALL_LIMIT = 1.25


def import_package():
    """Import totalfree from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import totalfree
    import totalfree.cli  # noqa: F401  (bound as totalfree.cli for the workloads)
    if not os.path.abspath(totalfree.__file__).startswith(SRC + os.sep):
        raise ImportError(f"totalfree imported from {totalfree.__file__}, not {SRC}")
    return totalfree


def cache_counts(tf):
    """Hits and misses of the rank-2 exponent cache, or None without one."""
    cached = getattr(getattr(tf, "rank2", None), "_min_degree", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


def run_loop(workload, tf, pool, expect, cycles, wall_limit=None):
    """``cycles`` whole cycles, one call at a time.

    The loop also times the speed probe at its start and then after any call
    that ends ``speed.EVERY_S`` or more after the last probe.  With
    ``wall_limit`` given it stops at a cycle boundary once that many seconds
    of wall time have passed, so that a run in a phase much slower than the
    reference machine keeps to its time limit.
    """
    clock = time.perf_counter
    latencies, starts, failures, probes, probe_starts = [], [], [], [], []
    ok = done = 0
    start = last_probe = clock()

    def timed_probe():
        probe_starts.append(clock() - start)
        probes.append(speed.probe())

    timed_probe()
    for cycle in pool:
        if done == cycles:
            break
        if wall_limit is not None and clock() - start >= wall_limit:
            break
        for case in cycle:
            t0 = clock()
            starts.append(t0 - start)
            try:
                output = workload.call(tf, case)
                error = None
            except Exception as exc:  # a failed call is counted, not fatal
                output, error = None, f"{case.label}: raised {exc!r}"
            latencies.append(clock() - t0)
            if error is None:
                try:
                    error = workload.check(case, output, expect)
                except Exception as exc:  # malformed output fails its check
                    error = f"{case.label}: unreadable output ({exc!r})"
            if error is None:
                ok += 1
            else:
                failures.append(error)
            if clock() - last_probe >= speed.EVERY_S:
                timed_probe()
                last_probe = clock()
        done += 1
    return {"latencies": latencies, "starts": starts, "ok": ok, "failures": failures,
            "cycles": done, "loop_s": clock() - start, "probe_s": probes,
            "probe_starts": probe_starts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "time", "count"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--spans", help="trace the loop and write its spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tf = import_package()
        pool = workload.setup(tf, args.seed, workdir)
        result = {"setup_s": time.perf_counter() - _START,
                  "setup_probe_s": [speed.probe() for _ in range(speed.AFTER_SETUP)]}
        if args.mode != "setup":
            expect = workload.expectations()
            tracer = Tracer() if args.spans else None
            if tracer is not None:
                tracer.install()
            before = cache_counts(tf)
            if args.mode == "time":
                loop = run_loop(workload, tf, pool, expect,
                                workload.cycles_for(args.seconds),
                                WALL_LIMIT * args.seconds)
            else:
                loop = run_loop(workload, tf, pool, expect, args.cycles)
            after = cache_counts(tf)
            failures = loop.pop("failures")
            result.update(loop, failed=len(failures),
                          failures=failures[:MAX_REPORTED_FAILURES],
                          rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            if before is not None and after is not None:
                result["cache"] = [a - b for a, b in zip(after, before)]
            if tracer is not None:
                summary = tracer.summary()
                result["layers"] = tracer.layer_metrics(summary)
                result["self_by_layer"] = summary["self_by_layer"]
                tracer.write(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
