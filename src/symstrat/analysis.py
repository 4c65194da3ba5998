"""End-to-end analysis pipeline and the seeded verification suites.

``run_analysis`` drives: model stratification -> ellipticity certificate ->
per-stratum factorization indices -> Fredholm verdict, collecting every
stage into a reproducible manifest.  A failed Fredholm condition is a
successful analysis (the tool classifies, it does not chase green); a
stage that cannot run (e.g. a non-elliptic symbol) is an error and the
remaining stages are recorded as skipped.

Boundary strata of half-space type get their index from the line winding.
Wedge strata without a user-supplied factorization candidate fall back to
the same reduced-symbol line winding as a desk-scale proxy: exact for
symbols with even frequency dependence (where the factorization index is
order/2 on every stratum), and recorded as a proxy in the report
diagnostics so the caller can tell it apart from a validated candidate.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from .dsl import depends_on_x
from .errors import ConfigError, SymstratError
from .factorization import (FactorizationReport, check_fredholm_condition,
                            winding_index)
from .geometry import (Ball, Covering, build_covering, partition_of_unity,
                       stratify_model)
from .lattice import (DiscreteOperator, DiscreteSobolevSpace, LatticeGrid,
                      aggregate_index, assemble_frozen_family,
                      assemble_operator, discretize_symbol_op,
                      high_frequency_mask, locality_defect,
                      numerical_index, numerical_index_direct_sum,
                      operator_norm, quantize_full_symbol)
from .laurent import (LaurentPolynomial, laurent_winding,
                      random_elliptic_laurent)
from .symbols import FrequencyGridSpec, Symbol, check_ellipticity

__all__ = ["AnalysisConfig", "RunManifest", "run_analysis",
           "run_verify_suite", "VERIFY_SUITES", "MODEL_DIMS"]

MODEL_DIMS = {"square": 2, "cube": 3, "wedge2d": 2}

# The pipeline's stages in order, and the reason each failing stage gives
# the stages after it, which are recorded as skipped.
STAGES = ("stratification", "ellipticity", "factorization", "fredholm")
SKIP_REASONS = {"stratification": "stratification failed",
                "ellipticity": "ellipticity stage failed",
                "factorization": "factorization failed"}

# The toeplitz suite's cases and section size, and the additivity suite's
# section size.
TOEPLITZ_CASES = 20
TOEPLITZ_N = 256
ADDITIVITY_N = 64

# The additivity suite's fixed triple as (coefficients, lowest degree),
# with windings 1, -2 and 0, and the total index it must report.
ADDITIVITY_FIXED = (([0, 1], 0), ([1], -2), ([-2.0, 1], 0))
ADDITIVITY_FIXED_INDEX = 1

# The paired suite's draws and their size, and its thresholds on the
# reciprocal condition number 1/cond: a matrix is invertible at or above
# the first, singular at or below the second, and too close to call in
# between.  Gaussian 50x50 draws stay above 1e-5, and those made singular
# by construction below 1e-15.
PAIRED_CASES = 100
PAIRED_SIZE = 50
PAIRED_RCOND_REGULAR = 1e-8
PAIRED_RCOND_SINGULAR = 1e-12


@dataclass
class AnalysisConfig:
    symbol_text: str
    alpha: float
    model: str = "square"
    s_order: float = 0.0
    seed: int = 0
    out_dir: str | None = None
    points_per_stratum: int = 2
    cutoff: float = 1.0e4
    quad_samples: int = 2 ** 16

    def dim(self) -> int:
        return MODEL_DIMS[self.model]

    def validate(self) -> Symbol:
        if self.model not in MODEL_DIMS:
            raise ConfigError(f"unknown model {self.model!r}; choose one of "
                              f"{sorted(MODEL_DIMS)}")
        try:
            sym = Symbol.parse(self.symbol_text, self.alpha, self.dim())
        except SymstratError as exc:
            raise ConfigError(f"bad symbol: {exc}") from exc
        if self.points_per_stratum < 1:
            raise ConfigError("points_per_stratum must be >= 1")
        return sym

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol_text, "alpha": self.alpha,
            "model": self.model, "s_order": self.s_order,
            "seed": self.seed,
            "points_per_stratum": self.points_per_stratum,
            "cutoff": self.cutoff, "quad_samples": self.quad_samples,
        }


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    version: str
    seed: int
    stages: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict:
        return {"config": self.config, "config_hash": self.config_hash,
                "version": self.version, "seed": self.seed,
                "stages": self.stages, "wall_times": self.wall_times,
                "ok": self.ok}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def comparable_dict(self) -> dict:
        """Everything except wall-clock times (for determinism checks)."""
        out = self.to_dict()
        out.pop("wall_times")
        return out


def _config_hash(cfg: AnalysisConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _stratum_points(stratum, n_points: int, x_dependent: bool) -> np.ndarray:
    pts = stratum.sample_points
    if not x_dependent:
        return pts[:1]
    n = min(n_points, pts.shape[0])
    idx = np.linspace(0, pts.shape[0] - 1, n).astype(int)
    return pts[idx]


def _factorize(sym: Symbol, strat, config: AnalysisConfig) -> list:
    """One winding-quadrature report per boundary stratum."""
    x_dep = depends_on_x(sym.expr)
    reports = []
    for st in strat.boundary_strata():
        pts = _stratum_points(st, config.points_per_stratum, x_dep)
        ae_vals = [winding_index(sym, p, np.zeros(config.dim() - 1),
                                 cutoff=config.cutoff,
                                 quad_samples=config.quad_samples)
                   for p in pts]
        diag = {"xi_prime": [0.0] * (config.dim() - 1),
                "x_dependent": x_dep}
        if st.domain.kind == "wedge":
            diag["proxy"] = ("axis-ray winding; exact for even "
                             "frequency dependence, otherwise supply "
                             "a factorization candidate")
        reports.append(FactorizationReport(
            stratum_label=st.label, k=st.k,
            points=[list(map(float, p)) for p in pts],
            ae_values=ae_vals, method="winding-quadrature",
            diagnostics=diag))
    return reports


class _Stop(Exception):
    """Ends run_analysis; args[0] is the skip reason of the stages not run."""


def run_analysis(config: AnalysisConfig) -> RunManifest:
    sym = config.validate()
    manifest = RunManifest(config=config.to_dict(),
                           config_hash=_config_hash(config),
                           version=_VERSION, seed=config.seed)

    def stage(name, fn, payload):
        """Run fn() timed; record payload of its result, or its error."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except SymstratError as exc:
            manifest.stages[name] = {"status": "error", "error": str(exc),
                                     "error_type": type(exc).__name__}
            raise _Stop(SKIP_REASONS.get(name)) from exc
        finally:
            manifest.wall_times[name] = time.perf_counter() - t0
        manifest.stages[name] = {"status": "ok", **payload(out)}
        return out

    try:
        # stratification first: it gives the x samples for ellipticity
        strat = stage("stratification", lambda: stratify_model(
            config.model, config.dim()), lambda out: out.to_dict())
        x_samples = [st.sample_points[0] for st in strat.strata][:8]
        x_samples.append(np.full(config.dim(), 0.5))
        ell = stage("ellipticity", lambda: check_ellipticity(
            sym, np.asarray(x_samples), FrequencyGridSpec(seed=config.seed)),
            lambda out: out.to_dict())
        if not ell.elliptic:
            manifest.stages["ellipticity"].update(
                status="error",
                error="symbol is not elliptic on the sample grid")
            raise _Stop("symbol not elliptic")
        reports = stage("factorization",
                        lambda: _factorize(sym, strat, config),
                        lambda out: {"reports": [r.to_dict() for r in out]})
        stage("fredholm", lambda: check_fredholm_condition(
            reports, config.s_order, stratification=strat,
            interior_elliptic=ell.elliptic), lambda out: out.to_dict())
    except _Stop as stop:
        manifest.ok = False
        for name in STAGES:
            manifest.stages.setdefault(
                name, {"status": "skipped", "reason": stop.args[0]})

    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(manifest.to_json(),
                                           encoding="utf-8")
    return manifest


# --------------------------------------------------------------------------
# Verification suites

def _suite_toeplitz(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(TOEPLITZ_CASES):
        a = random_elliptic_laurent(rng)
        wind = laurent_winding(a)
        entry = numerical_index(a, TOEPLITZ_N)
        sym = Symbol.parse(a.lifted_text(), 0.0, 1)
        quad = winding_index(sym, [0.0], [], quad_samples=2 ** 14)
        quad_int = int(round(quad))
        ok = (entry.index == -wind and quad_int == wind
              and abs(quad - quad_int) < 1e-6)
        cases.append({"coeffs": [[c.real, c.imag] for c in a.coeffs],
                      "min_deg": a.min_deg, "winding_roots": wind,
                      "winding_quadrature": quad, "index": entry.index,
                      "ok": ok})
    return {"suite": "toeplitz", "seed": seed, "cases": cases,
            "passed": all(c["ok"] for c in cases)}


def _suite_additivity(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []

    def run_triple(symbols, label, expected_index=None):
        entries = [numerical_index(a, ADDITIVITY_N, label=f"{label}-{i}")
                   for i, a in enumerate(symbols)]
        report = aggregate_index(entries)
        direct = numerical_index_direct_sum(symbols, ADDITIVITY_N)
        ok = (report.total_index == sum(e.index for e in entries)
              and direct.index == report.total_index
              and direct.dim_ker == report.total_ker
              and direct.dim_coker == report.total_coker
              and expected_index in (None, report.total_index))
        cases.append({"label": label,
                      "windings": [laurent_winding(a) for a in symbols],
                      "total_index": report.total_index,
                      "expected_index": expected_index,
                      "direct_sum_index": direct.index, "ok": ok})

    run_triple([LaurentPolynomial.make(c, d) for c, d in ADDITIVITY_FIXED],
               "fixed", ADDITIVITY_FIXED_INDEX)
    for t in range(10):
        symbols = [random_elliptic_laurent(rng) for _ in range(3)]
        run_triple(symbols, f"random-{t}")
    return {"suite": "additivity", "seed": seed, "cases": cases,
            "passed": all(c["ok"] for c in cases)}


def _paired_draw(rng, size: int, singular: bool):
    """A complex Gaussian matrix a and a random mask with 1 to size - 1
    points.  With ``singular`` the compression a[mask, mask] is singular
    by construction: its first column is a random combination of the
    others (zero when it is the only one)."""
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
        (size, size))
    k = int(rng.integers(1, size))
    sel = rng.permutation(size)[:k]
    mask = np.zeros(size, dtype=bool)
    mask[sel] = True
    if singular:
        c = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
        a[sel, sel[0]] = a[np.ix_(sel, sel[1:])] @ c
    return a, mask


def _singular(mat):
    """(verdict, 1/cond(mat)): singular at or below PAIRED_RCOND_SINGULAR,
    invertible at or above PAIRED_RCOND_REGULAR, None (ambiguous) in
    between."""
    rcond = 1.0 / float(np.linalg.cond(mat))
    if rcond <= PAIRED_RCOND_SINGULAR:
        return True, rcond
    return (False if rcond >= PAIRED_RCOND_REGULAR else None), rcond


def _paired_verdicts(a, paired_mask, compression_mask):
    """(borderline, agree, record): singularity of the paired operator
    a P_+ + P_-, P_+ the projector onto ``paired_mask``, and of the
    compression a[mask, mask] of ``compression_mask``, each decided by
    _singular.  With one mask for both they must agree: the paired
    operator is block triangular with the compression and an identity on
    its diagonal."""
    paired = a * paired_mask + np.diag((~paired_mask).astype(complex))
    sing_p, rcond_p = _singular(paired)
    sing_c, rcond_c = _singular(a[np.ix_(compression_mask, compression_mask)])
    record = {"n_plus": int(compression_mask.sum()), "singular": sing_c,
              "rcond_paired": rcond_p, "rcond_compression": rcond_c}
    return sing_p is None or sing_c is None, sing_p == sing_c, record


def _suite_paired(seed: int) -> dict:
    """Paired operators against their compressions, singular by
    construction in every other case, with a negative control that pairs
    a singular compression with the operator of a shifted mask, whose
    verdicts must disagree."""
    rng = np.random.default_rng(seed)
    cases = []
    n_border = 0
    for t in range(PAIRED_CASES):
        singular = t % 2 == 1
        a, mask = _paired_draw(rng, PAIRED_SIZE, singular)
        borderline, agree, case = _paired_verdicts(a, mask, mask)
        if borderline:
            n_border += 1
            continue
        case["ok"] = agree and case["singular"] == singular
        cases.append(case)
    a, mask = _paired_draw(rng, PAIRED_SIZE, True)
    borderline, agree, control = _paired_verdicts(a, np.roll(mask, 1), mask)
    control["flagged"] = not (borderline or agree)
    return {"suite": "paired", "seed": seed, "cases": cases,
            "n_borderline": n_border,
            "n_singular": sum(c["singular"] for c in cases),
            "negative_control": control,
            "passed": all(c["ok"] for c in cases) and control["flagged"]}


def _suite_assembly(seed: int) -> dict:
    results = {}
    grid = LatticeGrid(2, 32, 1.0 / 32)
    strat = stratify_model("square", 2)
    cov = build_covering(strat, 0.3, cover_points=grid.points())
    pou = partition_of_unity(cov, grid.points())
    space = DiscreteSobolevSpace(grid, 0.0)
    ident = DiscreteOperator.identity(space)
    family = {b.center: ident for b in cov.balls}
    assembled = assemble_operator(family, pou, grid)
    dev = operator_norm(assembled - ident)
    results["identity_family_error"] = dev

    # Frozen patches against the direct quantization, on a line segment
    # embedded in a long torus: the bump geometry is then well resolved
    # (eps spans many cells) and never wraps through the periodic seam.
    # Both operators are sandwiched with the segment indicator because the
    # assembled one vanishes off the covered set, and compared in the
    # essential-norm proxy: the plain norm is dominated by cutoff
    # commutators of size 1/eps, which the high-frequency compression
    # suppresses while the freezing error (same order as the symbol, for
    # this product-form symbol) survives.
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 1)
    grid_e = LatticeGrid(1, 256, 1.0 / 64, origin=(-1.5,))
    src = DiscreteSobolevSpace(grid_e, 1.0)
    dst = DiscreteSobolevSpace(grid_e, 0.0)
    full = quantize_full_symbol(sym, grid_e, src, dst)
    pts = grid_e.points()
    chi = ((pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0)).astype(complex)
    cut_src = DiscreteOperator.diagonal(chi, src, src)
    cut_dst = DiscreteOperator.diagonal(chi, dst, dst)
    covered_pts = pts[np.abs(chi) > 0]
    mask = high_frequency_mask(grid_e)
    errs = []
    for eps in (0.4, 0.2):
        centers = np.arange(0.0, 1.0 + 1e-9, 0.6 * eps)
        cov_e = Covering(eps=eps, balls=[Ball((float(c),), eps, 0)
                                         for c in centers])
        pou_e = partition_of_unity(cov_e, covered_pts)
        assembled_e = assemble_frozen_family(sym, pou_e, grid_e, src, dst,
                                             outside="zero")
        diff = cut_dst @ (assembled_e - full) @ cut_src
        errs.append(operator_norm(diff, freq_mask=mask))
    results["frozen_vs_full_proxy"] = errs
    passed = dev <= 1e-12 and errs[1] < errs[0]
    return {"suite": "assembly", "seed": seed, "cases": [results],
            "passed": bool(passed)}


def _suite_locality(seed: int) -> dict:
    grid = LatticeGrid(1, 128, 0.25)
    space0 = DiscreteSobolevSpace(grid, 0.0)
    space1 = DiscreteSobolevSpace(grid, 1.0)
    sym = Symbol.parse("(1+abs2(k))^(-1/2)", -1.0, 1)
    op = discretize_symbol_op(sym, [0.0], grid, space0, space1)
    pts = grid.points()[:, 0]
    center = grid.period / 2

    def bump(c, w):
        t = np.clip(np.abs(pts - c) / w, 0, 1)
        out = np.zeros_like(pts, dtype=complex)
        inside = t < 1
        out[inside] = np.exp(-1.0 / (1 - t[inside] ** 2))
        return out

    f = bump(4.0, 2.0)
    defects = []
    for sep in (3.0, 5.0, 7.0, 9.0, 11.0):
        g = bump(4.0 + 2.0 + sep + 2.0, 2.0)
        defects.append(locality_defect(op, f, g))
    decreasing = all(a > b for a, b in zip(defects, defects[1:]))

    mult = DiscreteOperator.diagonal(
        np.asarray(1.0 + pts ** 2, dtype=complex), space0, space0)
    g0 = bump(4.0 + 2.0 + 3.0 + 2.0, 2.0)
    exact_zero = locality_defect(mult, f, g0)
    passed = decreasing and exact_zero == 0.0
    return {"suite": "locality", "seed": seed,
            "cases": [{"defect_ladder": defects,
                       "multiplication_defect": exact_zero}],
            "passed": bool(passed)}


VERIFY_SUITES = {
    "toeplitz": _suite_toeplitz,
    "additivity": _suite_additivity,
    "paired": _suite_paired,
    "assembly": _suite_assembly,
    "locality": _suite_locality,
}


def run_verify_suite(name: str, seed: int = 0) -> dict:
    if name not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose one of "
                          f"{sorted(VERIFY_SUITES)}")
    return VERIFY_SUITES[name](seed)
