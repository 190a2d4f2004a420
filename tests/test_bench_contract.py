"""The benchmark's per-layer metrics stay reportable by this package.

perfbench's tracer wraps package functions by name and silently leaves out
every metric whose function the package no longer has, and the rank-2
cache hit ratio needs ``rank2._min_degree.cache_info``.  A result missing a
metric that BENCHMARK.json lists is not a result, so this test traces each
workload's path the way the benchmark worker does, one braid-4
``analyze --json`` and one ``verify_certificate``, and checks that every
listed metric is there and that the path reads the rank-2 cache.  Each path
runs in its own subprocess with the cache cleared first, so a path that
bypasses the cache shows, and the tracer's wrapping cannot leak into other
tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Computed by perfbench/run.py itself, not by the tracer.
RUN_METRICS = {"rank2.cache_hit_ratio", "trace.overhead_ratio"}

SCRIPT = r"""
import contextlib, io, json, os, sys
root, path = sys.argv[1:3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import totalfree
import totalfree.cli
from tracing import Tracer
from worker import cache_counts

arr = totalfree.braid_arrangement(4)
if path == "verify_cert":
    cert = totalfree.decide_totally_free(arr).witness.certificate
totalfree.rank2._min_degree.cache_clear()
tracer = Tracer()
tracer.install()
if path == "analyze_braid":
    with contextlib.redirect_stdout(io.StringIO()):
        ok = totalfree.cli.main(
            ["analyze", "--json", "-i", os.path.join(root, "tests", "golden", "braid4.arr")]) == 0
else:
    ok = totalfree.verify_certificate(arr, cert) is True
print(json.dumps({"ok": ok, "cache": cache_counts(totalfree),
                  "layers": tracer.layer_metrics(tracer.summary())}))
"""


def _trace(path: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, path], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_reports_every_listed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert RUN_METRICS <= listed
    for path in ("analyze_braid", "verify_cert"):
        result = _trace(path)
        assert result["ok"] is True, path
        assert sorted(listed - RUN_METRICS - set(result["layers"])) == [], path
        assert result["cache"] is not None, path
        hits, _ = result["cache"]
        assert hits > 0, path
