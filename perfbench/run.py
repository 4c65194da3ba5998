"""symstrat benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  Each invocation starts one workload process and SETUP_PROBES
set-up-only processes, one after another, with BLAS_THREADS BLAS threads.
The workload process runs items of one kind back to back (a closed loop,
one client) for S seconds, finishing the item in progress, and checks
every output (see checks.py).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The line before it records the machine and versions;
the full record goes to .perfbench_out/.  Exit code 0 when every output
passed its checks, 1 when a check failed, 2 when nothing could be run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("toeplitz_index", "analyze_cube", "assemble_n32",
             "assemble_n64")
SETUP_PROBES = 4
BLAS_THREADS = 1
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _start_worker(args, env, t_start, extra) -> dict:
    """Run worker.py to completion and return its last JSON line."""
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    if remaining <= 0:
        raise RunFailed("out of time before a workload process could start")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd + ["--t0", repr(t0)] + extra, env=env,
                          cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunFailed("workload process did not finish in time")
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RunFailed(f"workload process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("workload process printed no result")
    return json.loads(lines[-1])


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()
    if not (ROOT / "src" / "symstrat" / "__init__.py").is_file():
        print(f"no symstrat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _child_env()
    try:
        # half the set-up probes before the workload process and half
        # after, so that the median spans the run, not one moment of it
        probes = [_start_worker(args, env, t_start, ["--setup-only"])
                  for _ in range(SETUP_PROBES // 2)]
        res = _start_worker(args, env, t_start, [])
        probes += [_start_worker(args, env, t_start, ["--setup-only"])
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    setups = [p["setup"] for p in probes] + [res["setup"]]

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    lat = res["latencies_s"]
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["setup.import_s"] = _metric(setup_median("import_s"), "s")
        metrics["setup.inputs_s"] = _metric(setup_median("inputs_s"), "s")
    else:
        metrics = {
            "items_per_s": _metric(len(lat) / res["elapsed_s"], "items/s"),
            "item_p50_s": _metric(statistics.median(lat), "s"),
            "setup_s": _metric(setup_median("setup_s"), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    correct = not res["problems"]
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "blas_threads": BLAS_THREADS, "machine": platform.machine(),
             **res["versions"], "items": len(lat),
             "setup_samples": len(setups), "controls": res["controls"]}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"facts": facts, "metrics": metrics, "worker": res,
              "setup_samples": setups}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1),
                                encoding="utf-8")
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(facts))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
