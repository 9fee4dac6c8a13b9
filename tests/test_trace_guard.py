"""The traced benchmark wraps skewgt names where callers look them up
(perfbench/tracer.py).  A refactor that deletes such a name, or that
imports it into another module so calls bypass the wrapper, breaks the
traced run or leaves a span with no calls.  One small job per command
reaches every span; this test runs them in a fresh interpreter with the
tracer installed and reads only perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

JOBS = [
    ["compute", "--expr", "c22", "--n", "2"],
    ["gt", "--top", "2,1,0", "--check"],
    ["gt", "--generic", "1/3; 1,0", "--window", "1", "--check"],
    ["verify", "--suite", "gl2", "--json", "-"],
    ["toy", "--f", "x+2", "--target", "1/(x-3)"],
]

SCRIPT = """
import contextlib, io, json, sys
import tracer
t = tracer.install(0)
from skewgt import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "layers": t.summary()["layers"]}))
"""


def test_every_traced_span_is_called():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(JOBS)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(JOBS)
    layers = out["layers"]
    assert layers
    uncalled = sorted(name for name, row in layers.items() if row["calls"] == 0)
    assert not uncalled, f"traced spans with no call: {uncalled} of {len(layers)}"
