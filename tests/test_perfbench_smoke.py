"""Smoke test of the benchmark in perfbench/: one item of each workload it
can run quickly, the assemble workloads' final checks, and one tracer
install/uninstall round trip.  It runs in a subprocess, because
perfbench's modules have generic names (inputs, checks) and live outside
the package."""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

SCRIPT = r"""
import json

import numpy as np
import scipy.sparse.linalg

import tracer
import workloads
from symstrat import lattice

problems = []
for name in ("toeplitz_index", "analyze_cube", "assemble_n32"):
    wl = workloads.make(name, 1)
    problems += [f"{name}: {p}" for p in wl.check(0, wl.run(0))]
for name in ("assemble_n32", "assemble_n64"):
    problems += [f"{name} final: {p}"
                 for p in workloads.make(name, 1).final_checks()]

wl = workloads.make("toeplitz_index", 1)
plain = wl.run(0)
original = lattice.numerical_index
t = tracer.Tracer()
t.item = 0
t.install()
try:
    traced = wl.run(0)
finally:
    t.uninstall()
if traced != plain:
    problems.append(f"traced item {traced} != untraced {plain}")
if "lattice.numerical_index" not in {span[0] for span in t.spans}:
    problems.append("no lattice.numerical_index span")
if (lattice.np is not np or lattice.svds is not scipy.sparse.linalg.svds
        or lattice.numerical_index is not original):
    problems.append("uninstall left a patched binding in lattice")
print(json.dumps(problems))
"""


def test_benchmark_items_and_tracer_round_trip():
    # a change that makes the benchmark's items fail their checks, or that
    # drops a name the tracer patches (lattice.np, lattice.svds, the
    # functions of __all__), fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
