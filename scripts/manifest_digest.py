"""Print one sha256 over the comparable output of a fixed set of runs.

The digest covers ``dump_json(run_analysis(cfg).comparable_dict())`` for
every configuration below, followed by the toeplitz, additivity, paired
and locality verification suites at seed 0.  Two checkouts whose digests
agree produce byte-identical manifests and suite reports on this set.

Usage: python scripts/manifest_digest.py [--each]

Run it from the root of a source checkout; it imports ``symstrat`` from
that checkout's ``src/`` and the cube inputs from its ``perfbench/``.
``--each`` also prints one digest per entry, to locate a difference.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from symstrat.analysis import (AnalysisConfig, dump_json,  # noqa: E402
                               run_analysis, run_verify_suite)

CUBE_SEEDS = (1, 2, 3)
SUITES = ("toeplitz", "additivity", "paired", "locality")

# (symbol, alpha, s_order) on square and wedge2d: elliptic, x-dependent,
# nonzero-winding, non-elliptic, erroring (division by zero, overflow) and
# tail-jump symbols
PLANE_SYMBOLS = (
    ("(1+abs2(k))^(1/2)", 1.0, 0.3),
    ("(1+abs2(k))^(1/2)", 1.0, 0.7),
    ("(2+x1-x2)*(1+abs2(k))", 2.0, 0.5),
    ("(x1-0.3)^2+abs2(k)", 2.0, 0.0),
    ("(1+normx2(x))*((k2-i)/(k2+i))*(1+abs2(k))^(1/2)", 1.0, 0.2),
    ("((k1-i)/(k1+i))^2*(1+abs2(k))^(1/2)", 1.0, 0.4),
    ("k1", 1.0, 0.0),
    ("abs2(k)", 2.0, 0.0),
    ("abs2(k)/x1", 2.0, 0.0),
    ("(k2+2*i)/(k2+i)", 0.0, 0.1),
    ("exp(i*k1)", 0.0, 0.0),
    ("2+((k2-i)/(k2+i))^3*x1", 0.0, 0.2),
    ("exp(x1*1000)", 0.0, 0.0),
    ("exp(20*i*k2/(1+abs2(k))^(1/2))", 0.0, 0.2),
)


def configs():
    for seed in CUBE_SEEDS:
        for c in inputs.cube_cases(seed, inputs.INPUTS_PER_RUN["analyze_cube"]):
            yield AnalysisConfig(symbol_text=c["symbol"],
                                 alpha=float(c["alpha"]), model="cube",
                                 s_order=c["s_order"])
    for model in ("square", "wedge2d"):
        for text, alpha, s_order in PLANE_SYMBOLS:
            yield AnalysisConfig(symbol_text=text, alpha=alpha, model=model,
                                 s_order=s_order)
    yield AnalysisConfig(symbol_text="(x1-0.3)^2+abs2(k)", alpha=2.0,
                         model="cube")


def entries():
    for cfg in configs():
        label = f"{cfg.model} {cfg.symbol_text} s={cfg.s_order}"
        yield label, dump_json(run_analysis(cfg).comparable_dict())
    for name in SUITES:
        yield f"suite {name}", dump_json(run_verify_suite(name, 0))


def main(argv):
    each = "--each" in argv
    total = hashlib.sha256()
    count = 0
    for label, text in entries():
        blob = text.encode("utf-8")
        total.update(blob + b"\n")
        count += 1
        if each:
            print(f"{hashlib.sha256(blob).hexdigest()[:16]}  {label}")
    print(f"{total.hexdigest()}  {count} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
