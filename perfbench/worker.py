"""One workload process: set up, then run items in a closed loop.

``run.py`` starts this script and reads the JSON line it prints last.
``--t0`` is the starter's ``time.perf_counter()`` just before the start;
on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so the
set-up time includes interpreter start-up.  With ``--setup-only`` the
process stops once set up.  With ``--trace 1`` items run in pairs, one
untraced and one traced, and the traced ones give the per-layer numbers.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import symstrat.analysis
    where = Path(symstrat.analysis.__file__).resolve().parent
    if where != (ROOT / "src" / "symstrat").resolve():
        raise SystemExit(f"symstrat imported from {where}, not from this "
                         "checkout's src/")
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def _run_item(wl, i, state):
    """Run and check one item; return (wall s, CPU s), or None if it raised."""
    state["attempted"] += 1
    t, c = time.perf_counter(), time.process_time()
    try:
        out = wl.run(i)
    except Exception:  # an item that raises is a failed operation
        state["failed"] += 1
        traceback.print_exc(file=sys.stderr)
        return None
    took = (time.perf_counter() - t, time.process_time() - c)
    problems = wl.check(i, out)
    state["problems"].extend(f"item {i}: {p}" for p in problems)
    if not problems:
        # negative controls start from outputs that passed their checks
        state["outputs"].setdefault(i, out)
    return took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t = time.perf_counter()
    versions = _import_program()
    import checks
    import workloads
    setup = {"import_s": time.perf_counter() - t}
    t = time.perf_counter()
    wl = workloads.make(args.workload, args.seed)
    setup["inputs_s"] = time.perf_counter() - t
    t = time.perf_counter()
    wl.warmup()
    setup["warmup_s"] = time.perf_counter() - t
    setup["setup_s"] = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    state = {"attempted": 0, "failed": 0, "outputs": {}, "problems": []}
    plain, traced = [], []
    t_run = time.perf_counter()
    k = 0
    while True:
        i = k % len(wl.cases)
        # traced pairs alternate which half runs first, so that a slower
        # first item does not bias the overhead one way
        order = (False,) if tracer is None else (k % 2 == 1, k % 2 == 0)
        for traced_half in order:
            if traced_half:
                tracer.item = k
                tracer.install()
            try:
                took = _run_item(wl, i, state)
            finally:
                if traced_half:
                    tracer.uninstall()
            if took is not None:
                (traced if traced_half else plain).append(took)
        k += 1
        if time.perf_counter() - t_run >= args.seconds:
            break
    elapsed = time.perf_counter() - t_run

    problems = state["problems"]
    problems.extend(wl.final_checks())
    controls = {}
    for i, out in sorted(state["outputs"].items())[:2]:
        for name, flagged in checks.negative_controls(
                args.workload, wl.cases[i], out).items():
            controls[name] = controls.get(name, True) and flagged
    problems.extend(f"negative control {name} not flagged"
                    for name, flagged in controls.items() if not flagged)

    result = {"attempted": state["attempted"], "failed": state["failed"],
              "problems": problems, "controls": controls,
              "setup": setup, "versions": versions, "elapsed_s": elapsed,
              "latencies_s": [w for w, _c in plain],
              "item_cpu_s": [c for _w, c in plain],
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced))
        ratio = (statistics.median(w for w, _c in traced)
                 / statistics.median(w for w, _c in plain))
        layers["trace.overhead_pct"] = {"value": 100.0 * (ratio - 1.0),
                                        "unit": "%"}
        layers["trace.spans"] = {"value": len(tracer.spans) / len(traced),
                                 "unit": "count/item"}
        result["per_layer"] = layers
        result["traced_latencies_s"] = [w for w, _c in traced]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    t_run)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
