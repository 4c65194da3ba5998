"""Command-line front end.

Subcommands: analyze, verify, stratify, winding, wave-validate, assemble.
All outputs are UTF-8 JSON (CSV for convergence tables); there is no
environment-variable configuration.  Exit codes: 0 = completed (a failed
Fredholm verdict is still a completed analysis), 2 = a pipeline stage
errored, 3 = invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


from . import __version__
from .analysis import (MODEL_DIMS, VERIFY_SUITES, AnalysisConfig,
                       run_analysis, run_verify_suite)
from .dsl import parse_symbol
from .errors import ConfigError, SymstratError
from .factorization import WaveFactorCandidate, validate_wave_factors, winding_index
from .geometry import Cone, build_covering, partition_of_unity, stratify_model
from .lattice import (DiscreteSobolevSpace, LatticeGrid,
                      assemble_frozen_family, assembly_convergence,
                      check_dense_size, export_operator)
from .symbols import Symbol

EXIT_OK = 0
EXIT_STAGE_ERROR = 2
EXIT_CONFIG = 3


def _build_parser():
    p = argparse.ArgumentParser(
        prog="symstrat",
        description="Symbol calculus on stratified model domains: "
                    "ellipticity, factorization indices, Fredholm checks, "
                    "and discrete lattice verifications.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full pipeline: ellipticity, "
                        "stratification, indices, Fredholm verdict")
    pa.add_argument("--symbol", required=True)
    pa.add_argument("--alpha", type=float, required=True)
    pa.add_argument("--model", default="square", choices=sorted(MODEL_DIMS))
    pa.add_argument("--s-order", type=float, default=0.0)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", default=None, help="output directory")

    pv = sub.add_parser("verify", help="run a seeded property suite")
    pv.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)

    ps = sub.add_parser("stratify", help="stratify a model domain")
    ps.add_argument("--model", required=True, choices=sorted(MODEL_DIMS))
    ps.add_argument("--out", default=None)

    pw = sub.add_parser("winding", help="half-space factorization index "
                        "along the last frequency axis")
    pw.add_argument("--symbol", required=True)
    pw.add_argument("--alpha", type=float, required=True)
    pw.add_argument("--dim", type=int, required=True)
    pw.add_argument("--x0", default=None, help="comma-separated point")
    pw.add_argument("--xi-prime", default=None)
    pw.add_argument("--cutoff", type=float, default=1.0e4)
    pw.add_argument("--quad-samples", type=int, default=2 ** 16)
    pw.add_argument("--out", default=None)

    pq = sub.add_parser("wave-validate", help="validate a factorization "
                        "candidate for a cone")
    pq.add_argument("--symbol", required=True)
    pq.add_argument("--alpha", type=float, required=True)
    pq.add_argument("--dim", type=int, required=True)
    pq.add_argument("--a-neq", required=True)
    pq.add_argument("--a-eq", required=True)
    pq.add_argument("--cone", required=True,
                    help="JSON generator list, e.g. [[1,0],[0,1]]")
    pq.add_argument("--k", type=int, default=0)
    pq.add_argument("--declared-ae", type=float, required=True)
    pq.add_argument("--rays", type=int, default=3,
                    help="number of interior dual-cone rays for the growth fit")
    pq.add_argument("--out", default=None)

    pm = sub.add_parser("assemble", help="assemble the frozen-coefficient "
                        "patch operator on a lattice and export it")
    pm.add_argument("--symbol", required=True)
    pm.add_argument("--alpha", type=float, required=True)
    pm.add_argument("--model", default="square", choices=sorted(MODEL_DIMS))
    pm.add_argument("--eps", type=float, default=0.3)
    pm.add_argument("--grid-n", type=int, default=16)
    pm.add_argument("--grid-h", type=float, default=None)
    pm.add_argument("--s-order", type=float, default=0.0)
    pm.add_argument("--convergence-eps", default=None,
                    help="comma list; also emit the convergence table CSV")
    pm.add_argument("--out", required=True)
    return p


def _emit(payload: dict, out: str | None, name: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out is None:
        print(text)
    else:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text + "\n", encoding="utf-8")
        print(str(out_dir / name))


def _parse_floats(text, expect=None):
    if text is None:
        return None
    vals = [float(v) for v in text.split(",") if v.strip() != ""]
    if expect is not None and len(vals) != expect:
        raise ConfigError(f"expected {expect} comma-separated values, "
                          f"got {len(vals)}")
    return vals


def _parse_expr(text, dim):
    """A symbol argument; malformed text is a configuration error (exit 3)
    on every subcommand, as in AnalysisConfig.validate."""
    try:
        return parse_symbol(text, dim)
    except SymstratError as exc:
        raise ConfigError(f"bad symbol: {exc}") from exc


def _cmd_analyze(args) -> int:
    cfg = AnalysisConfig(
        symbol_text=args.symbol, alpha=args.alpha, model=args.model,
        s_order=args.s_order, seed=args.seed, out_dir=args.out)
    manifest = run_analysis(cfg)
    if args.out is None:
        print(manifest.to_json())
    else:
        print(str(Path(args.out) / "manifest.json"))
    return EXIT_OK if manifest.ok else EXIT_STAGE_ERROR


def _cmd_verify(args) -> int:
    report = run_verify_suite(args.suite, args.seed)
    _emit(report, args.out, f"verify-{args.suite}.json")
    return EXIT_OK if report["passed"] else EXIT_STAGE_ERROR


def _cmd_stratify(args) -> int:
    strat = stratify_model(args.model, MODEL_DIMS[args.model])
    _emit(strat.to_dict(), args.out, f"stratification-{args.model}.json")
    return EXIT_OK


def _cmd_winding(args) -> int:
    sym = Symbol(_parse_expr(args.symbol, args.dim), args.alpha, args.dim)
    x0 = _parse_floats(args.x0, args.dim) if args.x0 else [0.0] * args.dim
    xip = (_parse_floats(args.xi_prime, args.dim - 1)
           if args.xi_prime else [0.0] * (args.dim - 1))
    value = winding_index(sym, x0, xip, cutoff=args.cutoff,
                          quad_samples=args.quad_samples)
    _emit({"symbol": args.symbol, "alpha": args.alpha, "x0": x0,
           "xi_prime": xip, "index": value}, args.out, "winding.json")
    return EXIT_OK


def _cmd_wave_validate(args) -> int:
    sym = Symbol(_parse_expr(args.symbol, args.dim), args.alpha, args.dim)
    cone = Cone.make(json.loads(args.cone))
    cand = WaveFactorCandidate(
        _parse_expr(args.a_neq, args.dim), _parse_expr(args.a_eq, args.dim),
        cone, args.k, args.declared_ae)
    report = validate_wave_factors(cand, sym, n_rays=args.rays,
                                   raise_on_fail=False)
    _emit(report.to_dict(), args.out, "wave-validation.json")
    return EXIT_OK if report.ok else EXIT_STAGE_ERROR


def _cmd_assemble(args) -> int:
    dim = MODEL_DIMS[args.model]
    h = args.grid_h if args.grid_h is not None else 1.0 / args.grid_n
    grid = LatticeGrid(dim, args.grid_n, h)
    check_dense_size(grid.size)     # the export is dense: refuse up front
    sym = Symbol(_parse_expr(args.symbol, dim), args.alpha, dim)
    strat = stratify_model(args.model, dim)
    src = DiscreteSobolevSpace(grid, args.s_order)
    dst = DiscreteSobolevSpace(grid, args.s_order - args.alpha)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cov = build_covering(strat, args.eps, cover_points=grid.points())
    pou = partition_of_unity(cov, grid.points())
    op = assemble_frozen_family(sym, pou, grid, src, dst)
    export_operator(op, out_dir / "assembled")
    print(str(out_dir / "assembled.bin"))

    if args.convergence_eps:
        eps_seq = _parse_floats(args.convergence_eps)
        table = assembly_convergence(sym, strat, eps_seq, grid,
                                     s_order=args.s_order)
        csv_path = out_dir / "convergence.csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("eps_coarse,eps_fine,proxy\n")
            for row in table:
                fh.write(f"{row['eps_coarse']},{row['eps_fine']},"
                         f"{row['proxy']!r}\n")
        print(str(csv_path))
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "stratify": _cmd_stratify,
    "winding": _cmd_winding,
    "wave-validate": _cmd_wave_validate,
    "assemble": _cmd_assemble,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for bad arguments
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SymstratError, ZeroDivisionError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
