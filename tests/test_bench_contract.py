"""The benchmark's per-layer metrics stay reportable by this package.

perfbench's tracer wraps package functions by name and silently leaves out
every metric whose function the package no longer has, and the rank-2
cache hit ratio needs ``rank2._min_degree.cache_info``.  A result missing a
metric that BENCHMARK.json lists is not a result, so this test traces one
braid-4 ``analyze --json`` and one ``verify_certificate`` the way the
benchmark worker does and checks that every listed metric is there.  The
tracer runs in a subprocess so that its wrapping cannot leak into other
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
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import totalfree
import totalfree.cli
from tracing import Tracer
from worker import cache_counts

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = totalfree.cli.main(
        ["analyze", "--json", "-i", os.path.join(root, "tests", "golden", "braid4.arr")])
arr = totalfree.braid_arrangement(4)
verified = totalfree.verify_certificate(
    arr, totalfree.decide_totally_free(arr).witness.certificate)
print(json.dumps({"code": code, "verified": verified, "cache": cache_counts(totalfree),
                  "layers": tracer.layer_metrics(tracer.summary())}))
"""


def test_tracer_reports_every_listed_metric():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT], capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["verified"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert RUN_METRICS <= listed
    assert sorted(listed - RUN_METRICS - set(result["layers"])) == []
    assert result["cache"] is not None
    hits, _ = result["cache"]
    assert hits > 0
