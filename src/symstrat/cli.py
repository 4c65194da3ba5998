"""Command-line front end.

Subcommands: analyze, verify, stratify, winding, wave-validate, assemble.
All outputs are UTF-8 JSON (CSV for convergence tables); there is no
environment-variable configuration.  Exit codes: 0 = completed (a failed
Fredholm verdict is still a completed analysis), 2 = a pipeline stage
errored, 3 = invalid configuration or arguments, among them a float that
is not finite, a ``--cone`` that is not a generator list and an ``--out``
that cannot be written.  Every ``--out`` file is written once the work
has succeeded.  A value may start with '-', as in ``--x0 -0.5,0.2``.

The numerics no caller varies are fixed: ``winding`` winds over
|t| <= factorization.CUTOFF = 1e4, ``wave-validate`` fits growth along
factorization.N_RAYS = 3 rays, and ``assemble`` uses the lattice spacing
1/N, so its torus is the unit box.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analysis import MODEL_DIMS, AnalysisConfig, dump_json, run_analysis
from .dsl import parse_symbol
from .errors import ConfigError, SymstratError
from .factorization import (QUAD_SAMPLES, WaveFactorCandidate,
                            validate_wave_factors, winding_index)
from .geometry import Cone, build_covering, partition_of_unity, stratify_model
from .symbols import Symbol

EXIT_OK = 0
EXIT_STAGE_ERROR = 2
EXIT_CONFIG = 3


def _finite_float(text: str) -> float:
    """The value of a float flag.  NaN, infinity and non-numbers are
    refused before anything runs: no JSON report could hold the first two."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


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
    pa.add_argument("--alpha", type=_finite_float, required=True)
    pa.add_argument("--model", default="square", choices=sorted(MODEL_DIMS))
    pa.add_argument("--s-order", type=_finite_float, default=0.0)
    pa.add_argument("--out", default=None, help="output directory")

    pv = sub.add_parser("verify", help="run a seeded property suite")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)

    ps = sub.add_parser("stratify", help="stratify a model domain")
    ps.add_argument("--model", required=True, choices=sorted(MODEL_DIMS))
    ps.add_argument("--out", default=None)

    pw = sub.add_parser("winding", help="half-space factorization index "
                        "along the last frequency axis")
    pw.add_argument("--symbol", required=True)
    pw.add_argument("--alpha", type=_finite_float, required=True)
    pw.add_argument("--dim", type=int, required=True)
    pw.add_argument("--x0", default=None, help="comma-separated point")
    pw.add_argument("--xi-prime", default=None)
    pw.add_argument("--quad-samples", type=int, default=QUAD_SAMPLES,
                    help="node cap of the adaptive winding grid; an "
                    "interval still unresolved at the cap is an error")
    pw.add_argument("--out", default=None)

    pq = sub.add_parser("wave-validate", help="validate a factorization "
                        "candidate for a cone")
    pq.add_argument("--symbol", required=True)
    pq.add_argument("--alpha", type=_finite_float, required=True)
    pq.add_argument("--dim", type=int, required=True)
    pq.add_argument("--a-neq", required=True)
    pq.add_argument("--a-eq", required=True)
    pq.add_argument("--cone", required=True,
                    help="JSON generator list, e.g. [[1,0],[0,1]]")
    pq.add_argument("--k", type=int, default=0)
    pq.add_argument("--declared-ae", type=_finite_float, required=True)
    pq.add_argument("--out", default=None)

    pm = sub.add_parser("assemble", help="assemble the frozen-coefficient "
                        "patch operator on a lattice and export it")
    pm.add_argument("--symbol", required=True)
    pm.add_argument("--alpha", type=_finite_float, required=True)
    pm.add_argument("--model", default="square", choices=sorted(MODEL_DIMS))
    pm.add_argument("--eps", type=_finite_float, default=0.3)
    pm.add_argument("--grid-n", type=int, default=16)
    pm.add_argument("--s-order", type=_finite_float, default=0.0)
    pm.add_argument("--convergence-eps", default=None,
                    help="comma list; also emit the convergence table CSV")
    pm.add_argument("--out", required=True)
    return p, sub.choices


def _join_flag_values(argv, commands):
    """argv with each value-taking flag of its subcommand and the next
    token joined as ``flag=value``, unless that token is an option string:
    argparse alone reads a value that starts with '-' as an option."""
    actions = next((commands[t]._actions for t in argv if t in commands), [])
    options = {o for a in actions for o in a.option_strings}
    valued = {o for a in actions if a.nargs is None for o in a.option_strings}
    out = []
    for tok in argv:
        if out and out[-1] in valued and tok not in options:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _emit(payload: dict, out: str | None, name: str) -> None:
    text = dump_json(payload)
    if out is None:
        print(text)
    else:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text + "\n", encoding="utf-8")
        print(str(out_dir / name))


def _parse_floats(text, flag, expect=None):
    """The comma-separated values of a list flag, each checked as
    _finite_float checks a float flag."""
    try:
        vals = [_finite_float(v) for v in text.split(",") if v.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if expect is not None and len(vals) != expect:
        raise ConfigError(f"{flag}: expected {expect} comma-separated "
                          f"values, got {len(vals)}")
    return vals


def _parse_expr(text, dim):
    """A symbol argument; malformed text is a configuration error (exit 3)
    on every subcommand, as in AnalysisConfig.validate."""
    try:
        return parse_symbol(text, dim)
    except SymstratError as exc:
        raise ConfigError(f"bad symbol: {exc}") from exc


def _cmd_analyze(args) -> int:
    manifest = run_analysis(AnalysisConfig(
        symbol_text=args.symbol, alpha=args.alpha, model=args.model,
        s_order=args.s_order))
    _emit(manifest.to_dict(), args.out, "manifest.json")
    return EXIT_OK if manifest.ok else EXIT_STAGE_ERROR


def _cmd_verify(args) -> int:
    from .suites import run_verify_suite  # imports scipy, via lattice
    report = run_verify_suite(args.suite, args.seed)
    _emit(report, args.out, f"verify-{args.suite}.json")
    return EXIT_OK if report["passed"] else EXIT_STAGE_ERROR


def _cmd_stratify(args) -> int:
    strat = stratify_model(args.model, MODEL_DIMS[args.model])
    _emit(strat.to_dict(), args.out, f"stratification-{args.model}.json")
    return EXIT_OK


def _cmd_winding(args) -> int:
    sym = Symbol(_parse_expr(args.symbol, args.dim), args.alpha)
    x0 = (_parse_floats(args.x0, "--x0", args.dim) if args.x0
          else [0.0] * args.dim)
    xip = (_parse_floats(args.xi_prime, "--xi-prime", args.dim - 1)
           if args.xi_prime else [0.0] * (args.dim - 1))
    value = winding_index(sym, x0, xip, quad_samples=args.quad_samples)
    _emit({"symbol": args.symbol, "alpha": args.alpha, "x0": x0,
           "xi_prime": xip, "index": value}, args.out, "winding.json")
    return EXIT_OK


def _cmd_wave_validate(args) -> int:
    sym = Symbol(_parse_expr(args.symbol, args.dim), args.alpha)
    a_neq, a_eq = (_parse_expr(t, args.dim) for t in (args.a_neq, args.a_eq))
    if not 0 <= args.k < args.dim:
        raise ConfigError(f"--k: need 0 <= k <= {args.dim - 1}, got {args.k}")
    try:
        # the candidate refuses a flat, non-pointed or wrong-dimension cone
        cand = WaveFactorCandidate(a_neq, a_eq, Cone.make(json.loads(
            args.cone)), args.k, args.declared_ae)
    except (ArithmeticError, TypeError, ValueError, SymstratError) as exc:
        raise ConfigError(f"--cone: {exc}") from exc
    report = validate_wave_factors(cand, sym)
    _emit(report.to_dict(), args.out, "wave-validation.json")
    return EXIT_OK if report.ok else EXIT_STAGE_ERROR


def _cmd_assemble(args) -> int:
    from . import lattice  # imports scipy, which the other commands skip
    dim = MODEL_DIMS[args.model]
    eps_seq = (_parse_floats(args.convergence_eps, "--convergence-eps")
               if args.convergence_eps else None)
    grid = lattice.LatticeGrid(dim, args.grid_n, 1.0 / args.grid_n)
    lattice.check_dense_size(grid.size)  # the export is dense: refuse first
    sym = Symbol(_parse_expr(args.symbol, dim), args.alpha)
    strat = stratify_model(args.model, dim)
    src = lattice.DiscreteSobolevSpace(grid, args.s_order)
    dst = lattice.DiscreteSobolevSpace(grid, args.s_order - args.alpha)

    cov = build_covering(strat, args.eps, cover_points=grid.points())
    pou = partition_of_unity(cov, grid.points())
    op = lattice.assemble_frozen_family(sym, pou, grid, src, dst)
    table = (lattice.assembly_convergence(sym, strat, eps_seq, grid,
                                          s_order=args.s_order)
             if eps_seq is not None else None)
    # every file is written once the work has succeeded, so a refused run
    # (exit 3) or a stage error (exit 2) leaves no --out behind
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lattice.export_operator(op, out_dir / "assembled", {
        "construction": "assembled", "n_patches": len(cov.balls)})
    print(str(out_dir / "assembled.bin"))
    if table is not None:
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
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_flag_values(argv, commands))
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
    except OSError as exc:      # only --out is ever written
        print(f"configuration error: cannot write --out: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
