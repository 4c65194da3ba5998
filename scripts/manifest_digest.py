"""Print one sha256 over the comparable output of a fixed set of runs.

The digest covers ``dump_json(run_analysis(cfg).comparable_dict())`` for
every configuration below, followed by the toeplitz, additivity, paired,
locality and assembly verification suites at seed 0, and by the
``float.hex`` of the ``assembly_convergence`` proxies of the first two
``assemble_n32`` benchmark inputs of seed 1 on the 32 x 32 grid.  Two
checkouts whose digests agree produce byte-identical manifests, suite
reports and ladder proxies on this set.  The three index suites count
the banded sections of T(a), T(a)T(b) and a P + b Q of one engine
(``lattice._kernel_count``), so a change to its numerics shows in each.

Usage: python scripts/manifest_digest.py [--each]

Run it from the root of a source checkout; it imports ``symstrat`` from
that checkout's ``src/`` and the cube inputs from its ``perfbench/``.
``--each`` also prints one digest per entry, to locate a difference.

The BLAS thread count matters: with two OpenBLAS threads the assembly
suite's report differs in its last bits.  The script therefore pins one
thread before numpy is imported, and prints the thread count, the numpy
and scipy versions and the BLAS library above the digest.

Beside them, ``ladder_norm_threads=`` is the number of threads that ran
the norms of each ladder (see ``lattice._ladder_norm_threads``).  With
one BLAS thread pinned, a machine with two or more usable CPUs takes the
concurrent path: the caller and one helper thread each take one of the
two rung pairs, and it reads 2.  On one CPU it reads 1, the sequential
loop.  Both paths give the same proxies bit for bit.
"""

import hashlib
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402  (perfbench/inputs.py)
from workloads import LADDER  # noqa: E402  (perfbench/workloads.py)
from symstrat.analysis import (AnalysisConfig, dump_json,  # noqa: E402
                               run_analysis)
from symstrat.geometry import stratify_model  # noqa: E402
from symstrat.lattice import (LatticeGrid,  # noqa: E402
                              _ladder_norm_threads, assembly_convergence)
from symstrat.suites import run_verify_suite  # noqa: E402
from symstrat.symbols import Symbol  # noqa: E402

CUBE_SEEDS = (1, 2, 3)
SUITES = ("toeplitz", "additivity", "paired", "locality", "assembly")
LADDER_N = 32

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
    grid = LatticeGrid(2, LADDER_N, 1.0 / LADDER_N)
    strat = stratify_model("square", 2)
    for scale in inputs.assemble_scales(1, 2):
        sym = Symbol.parse(f"(1+{scale:.4f}*normx2(x))*(1+abs2(k))^(1/2)",
                           1.0, 2)
        table = assembly_convergence(sym, strat, LADDER, grid, s_order=1.0)
        yield (f"ladder N={LADDER_N} scale={scale}",
               dump_json([float(row["proxy"]).hex() for row in table]))


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
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    norm_threads = _ladder_norm_threads(len(LADDER) - 1)
    print(f"blas_threads={BLAS_THREADS} ladder_norm_threads={norm_threads} "
          f"numpy={np.__version__} "
          f"scipy={scipy.__version__} blas={blas['name']} {blas['version']}")
    print(f"{total.hexdigest()}  {count} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
