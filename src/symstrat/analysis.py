"""End-to-end analysis pipeline, its run manifest and the JSON writer.

``run_analysis`` drives: model stratification -> ellipticity certificate
and order fit -> per-stratum factorization indices -> Fredholm verdict,
collecting every stage into a reproducible manifest.  A failed Fredholm
condition is a successful analysis (the tool classifies, it does not
chase green); a stage that cannot run (e.g. a non-elliptic symbol) is an
error and the remaining stages are recorded as skipped.

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
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from . import __version__ as _VERSION
from .dsl import depends_on_x
from .errors import ConfigError, SymstratError
from .factorization import (CUTOFF, MIN_QUAD_SAMPLES, QUAD_SAMPLES,
                            FactorizationReport, check_fredholm_condition,
                            winding_index)
from .geometry import _MODELS, stratify_model
from .symbols import Symbol, check_ellipticity, check_order

__all__ = ["AnalysisConfig", "RunManifest", "run_analysis", "MODEL_DIMS"]

MODEL_DIMS = {model: spec[0] for model, spec in _MODELS.items()}

# The pipeline's stages in order, and the reason each failing stage gives
# the stages after it, which are recorded as skipped.
STAGES = ("stratification", "ellipticity", "factorization", "fredholm")
SKIP_REASONS = {"stratification": "stratification failed",
                "ellipticity": "ellipticity stage failed",
                "factorization": "factorization failed"}

# winding sample points per boundary stratum of an x-dependent symbol
POINTS_PER_STRATUM = 2


@dataclass
class AnalysisConfig:
    symbol_text: str
    alpha: float
    model: str = "square"
    s_order: float = 0.0
    quad_samples: int = QUAD_SAMPLES

    def dim(self) -> int:
        return MODEL_DIMS[self.model]

    def validate(self) -> Symbol:
        if self.model not in MODEL_DIMS:
            raise ConfigError(f"unknown model {self.model!r}; choose one of "
                              f"{sorted(MODEL_DIMS)}")
        for name, value in (("alpha", self.alpha), ("s_order", self.s_order)):
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if (not isinstance(self.quad_samples, numbers.Integral)
                or self.quad_samples < MIN_QUAD_SAMPLES):
            raise ConfigError(f"quad_samples must be an integer of at least "
                              f"{MIN_QUAD_SAMPLES}, got {self.quad_samples!r}")
        try:
            return Symbol.parse(self.symbol_text, self.alpha, self.dim())
        except SymstratError as exc:
            raise ConfigError(f"bad symbol: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol_text, "alpha": self.alpha,
            "model": self.model, "s_order": self.s_order,
            "points_per_stratum": POINTS_PER_STRATUM,
            "cutoff": CUTOFF, "quad_samples": self.quad_samples,
        }


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    version: str
    stages: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    def comparable_dict(self) -> dict:
        """Everything except wall-clock times (for determinism checks)."""
        return {k: v for k, v in self.to_dict().items() if k != "wall_times"}


def dump_json(payload) -> str:
    """The text of every JSON report: sorted keys, two-space indent and no
    NaN or Infinity token, which JSON lacks.  A non-finite number raises
    ValueError here; the reports write such a value as null with a
    reason."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def _config_hash(cfg: AnalysisConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _stratum_points(stratum, x_dependent: bool) -> np.ndarray:
    pts = stratum.sample_points
    if not x_dependent:
        return pts[:1]
    n = min(POINTS_PER_STRATUM, pts.shape[0])
    idx = np.linspace(0, pts.shape[0] - 1, n).astype(int)
    return pts[idx]


@lru_cache(maxsize=None)
def _winding_points(model: str, x_dependent: bool):
    """The model's boundary strata, each with its winding points, and the
    concatenation of those points, as read-only arrays: built once per
    model and x-dependence from the model's cached stratification."""
    strata = stratify_model(model, MODEL_DIMS[model]).boundary_strata()
    points = [_stratum_points(st, x_dependent) for st in strata]
    stacked = np.concatenate(points)
    for pts in points + [stacked]:
        pts.flags.writeable = False
    return tuple(zip(strata, points)), stacked


def _factorize(sym: Symbol, config: AnalysisConfig) -> list:
    """One winding-quadrature report per boundary stratum, from one
    winding_index call over the sample points of every stratum.  Those
    points depend only on the model and on whether the symbol depends on
    x, so they come from :func:`_winding_points`'s cache."""
    x_dep = depends_on_x(sym.expr)
    strata_points, stacked = _winding_points(config.model, x_dep)
    values = iter(winding_index(sym, stacked, np.zeros(config.dim() - 1),
                                quad_samples=config.quad_samples))
    reports = []
    for st, pts in strata_points:
        diag = {"xi_prime": [0.0] * (config.dim() - 1),
                "x_dependent": x_dep}
        if st.domain.kind == "wedge":
            diag["proxy"] = ("axis-ray winding; exact for even "
                             "frequency dependence, otherwise supply "
                             "a factorization candidate")
        reports.append(FactorizationReport(
            stratum_label=st.label, k=st.k,
            points=pts.tolist(),
            ae_values=list(islice(values, len(pts))),
            method="winding-quadrature", diagnostics=diag))
    return reports


class _Stop(Exception):
    """Ends run_analysis; args[0] is the skip reason of the stages not run."""


def run_analysis(config: AnalysisConfig) -> RunManifest:
    sym = config.validate()
    manifest = RunManifest(config.to_dict(), _config_hash(config), _VERSION)

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
        x_samples = np.asarray(x_samples + [np.full(config.dim(), 0.5)])

        def ellipticity():
            rep = check_ellipticity(sym, x_samples)
            if rep.elliptic:        # the fit needs |a| > 0 on its rays
                rep.order_fit = check_order(sym, x_samples)
            return rep
        ell = stage("ellipticity", ellipticity, lambda out: out.to_dict())
        if not ell.elliptic:
            manifest.stages["ellipticity"].update(
                status="error",
                error="symbol is not elliptic on the sample grid")
            raise _Stop("symbol not elliptic")
        reports = stage("factorization",
                        lambda: _factorize(sym, config),
                        lambda out: {"reports": [r.to_dict() for r in out]})
        stage("fredholm", lambda: check_fredholm_condition(
            reports, config.s_order, stratification=strat,
            interior_elliptic=ell.elliptic), lambda out: out.to_dict())
    except _Stop as stop:
        manifest.ok = False
        for name in STAGES:
            manifest.stages.setdefault(
                name, {"status": "skipped", "reason": stop.args[0]})
    return manifest
