"""Factorization indices and the Fredholm criterion.

Half-space index.  The computable convention used throughout is

    index = alpha/2 + (winding of the order-reduced symbol along the
            distinguished frequency line),

where the reduced symbol is a(x0, xi', t) * (1+|xi|^2)^(-alpha/2) and the
winding is measured as t increases.  With this orientation, lifting a
Laurent symbol to the line through z = (t - i)/(t + i) (which traverses
the unit circle once counterclockwise as t increases) reproduces the
root-counting winding exactly, and the positive symbol (1+|xi|^2)^(alpha/2)
gets index alpha/2, symmetric about the Sobolev order in the criterion
|index - s| < 1/2.

Cone factorizations are user-supplied candidates and validated, never
constructed: the validator checks the product identity on a real grid
clear of the exceptional set, the growth exponents along rays into the
dual-cone tube, and a discrete Fourier support (Paley-Wiener) proxy for
the inverse factor.  Support is tested against the original cone (whose
dual labels the analyticity tube); for the self-dual cones exercised here
the two coincide.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dsl import SymbolExpr, eval_on_grid, frequency_support
from .errors import (BranchJumpError, EvalError, GrowthViolation,
                     MissingStratumReport, NonEllipticOnLine, ProductMismatch,
                     SlopeDisagreement, SupportLeak, TailJumpError)
from .geometry import Cone, Stratification, dual_cone
from .symbols import TOL_ELL, Symbol

__all__ = [
    "winding_index", "WaveFactorCandidate", "WaveValidationReport",
    "validate_wave_factors", "estimate_wave_index",
    "FactorizationReport", "FredholmVerdict", "StratumVerdict",
    "check_fredholm_condition",
]

QUAD_SAMPLES = 2 ** 16
CUTOFF = 1.0e4
TOL_PROD = 1e-10
TOL_PW = 1e-6
TOL_SLOPE = 0.1
RAY_SPREAD = 0.2
T_LADDER = (1.0, 10.0, 100.0, 1000.0, 10000.0)
N_RAYS = 3
# the real tensor grid of the product-identity check
PROD_GRID_POINTS = 33
PROD_GRID_RADIUS = 16.0
_PW_GRID = {1: 4096, 2: 256, 3: 96}


# --------------------------------------------------------------------------
# Half-space winding

def _quadrature_nodes(cutoff: float, samples: int) -> np.ndarray:
    """Merged linear + tangent-mapped nodes on [-cutoff, cutoff]: uniform
    resolution at moderate frequencies plus circle-uniform resolution for
    symbols pulled back from the unit circle."""
    n_half = max(16, samples // 2)
    lin = np.linspace(-cutoff, cutoff, n_half)
    theta = np.linspace(-math.atan(cutoff), math.atan(cutoff), n_half)
    tan = np.tan(theta)
    # 0 is included exactly so sign changes through the origin register as
    # a vanishing symbol rather than a phase jump
    nodes = np.unique(np.concatenate([lin, tan, [0.0]]))
    return nodes


def winding_index(s: Symbol, x0, xi_prime, cutoff: float = CUTOFF,
                  quad_samples: int = QUAD_SAMPLES) -> float:
    """alpha/2 plus the winding of the reduced symbol along the last
    frequency axis, by stepwise phase unwrapping with a tail correction
    from the values at +-cutoff.

    Raises NonEllipticOnLine if the reduced symbol vanishes on the grid,
    BranchJumpError if any adjacent phase step exceeds pi/2 (grid too
    coarse; refine rather than guess), and its subclass TailJumpError if
    the phases at -cutoff and +cutoff differ by more than pi/2."""
    x0 = np.asarray(x0, dtype=float)
    xi_prime = np.asarray(xi_prime, dtype=float).reshape(-1)
    if xi_prime.size != s.dim - 1:
        raise ValueError(
            f"xi_prime must have length m-1 = {s.dim - 1}, got {xi_prime.size}")
    t = _quadrature_nodes(cutoff, quad_samples)
    xi = np.empty((t.size, s.dim), dtype=complex)
    xi[:, : s.dim - 1] = xi_prime[None, :]
    xi[:, -1] = t
    vals = eval_on_grid(s.expr, x0[None, :], xi)
    norm2 = 1.0 + float(xi_prime @ xi_prime) + t ** 2
    reduced = vals * norm2 ** (-s.order_alpha / 2.0)
    mods = np.abs(reduced)
    if np.min(mods) <= TOL_ELL:
        j = int(np.argmin(mods))
        raise NonEllipticOnLine(
            f"reduced symbol modulus {mods[j]:.3e} at t={t[j]:.6g}")
    steps = np.angle(reduced[1:] * np.conj(reduced[:-1]))
    tail = float(np.angle(reduced[0] * np.conj(reduced[-1])))
    if np.max(np.abs(steps)) > math.pi / 2:
        j = int(np.argmax(np.abs(steps)))
        raise BranchJumpError(
            f"phase step {np.max(np.abs(steps)):.3f} rad near t={t[j]:.6g} "
            "exceeds pi/2; refine the quadrature grid")
    if abs(tail) > math.pi / 2:
        raise TailJumpError(
            f"tail phase jump {tail:.3f} rad exceeds pi/2: the reduced "
            f"symbol has phase {np.angle(reduced[-1]):.3f} rad at "
            f"t=+{cutoff:.6g} and {np.angle(reduced[0]):.3f} rad at "
            f"t=-{cutoff:.6g}, so it does not close up at infinity")
    total = float(np.sum(steps)) + tail
    return s.order_alpha / 2.0 + total / (2.0 * math.pi)


# --------------------------------------------------------------------------
# Wave factorization candidates

@dataclass(frozen=True)
class WaveFactorCandidate:
    """User-supplied splitting a = a_neq * a_eq with respect to a cone in
    the last m-k frequency coordinates, with declared growth index."""

    a_neq: SymbolExpr
    a_eq: SymbolExpr
    cone: Cone
    k: int
    declared_ae: float

    def __post_init__(self):
        m = self.a_neq.dim
        if self.a_eq.dim != m:
            raise ValueError("factor dimensions disagree")
        if not (0 <= self.k <= m - 1):
            raise ValueError(f"need 0 <= k <= m-1, got k={self.k}")
        if self.cone.dim != m - self.k:
            raise ValueError(
                f"cone dimension {self.cone.dim} != m-k = {m - self.k}")
        if not self.cone.is_pointed():
            raise ValueError("factorization cone must be pointed")


@dataclass
class WaveValidationReport:
    product_max_rel_err: float
    product_ok: bool
    growth: list            # per factor, per ray: slope records
    growth_ok: bool
    support: list           # per factor: mass records
    support_ok: bool
    grid: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.product_ok and self.growth_ok and self.support_ok

    def to_dict(self) -> dict:
        return {"product_max_rel_err": self.product_max_rel_err,
                "product_ok": self.product_ok, "growth": self.growth,
                "growth_ok": self.growth_ok, "support": self.support,
                "support_ok": self.support_ok, "grid": self.grid}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _exceptional_margin(cone: Cone, xi_tail: np.ndarray) -> np.ndarray:
    """Lower bound for the distance from the boundary of (dual union
    -dual): distance to the nearest generator hyperplane of the cone."""
    gens = cone.generator_array()
    norms = np.linalg.norm(gens, axis=1)
    dots = np.abs(xi_tail @ gens.T) / norms[None, :]
    return dots.min(axis=1)


def _interior_rays(cone: Cone, n_rays: int) -> np.ndarray:
    """Unit directions strictly inside the dual cone: the central direction
    plus mild tilts towards individual extreme rays (strong tilts would
    push the finite sampling ladder out of its asymptotic regime)."""
    rays = dual_cone(cone).generator_array()
    n_gen = rays.shape[0]
    combos = []
    for r in range(n_rays):
        w = np.ones(n_gen)
        if r > 0:
            w[(r - 1) % n_gen] += 0.2
        combos.append(w @ rays)
    combos = np.asarray(combos, float)
    return combos / np.linalg.norm(combos, axis=1, keepdims=True)


def _growth_slope(expr: SymbolExpr, m: int, k: int, ray: np.ndarray,
                  tube_sign: float) -> float:
    """Least-squares slope of log|factor| against log(1+t) along
    xi = (0'', 0' + i * sign * t * ray), t over T_LADDER."""
    t = np.asarray(T_LADDER, float)
    xi = np.zeros((t.size, m), dtype=complex)
    xi[:, k:] = 1j * tube_sign * t[:, None] * ray[None, :]
    vals = np.abs(eval_on_grid(expr, np.zeros(m), xi))
    if np.any(vals < 1e-300):
        raise GrowthViolation("factor vanishes on a tube ray")
    return float(np.polyfit(np.log1p(t), np.log(vals), 1)[0])


def _pw_mass_outside(expr: SymbolExpr, m: int, k: int, cone: Cone,
                     tube_sign: float) -> dict:
    """Discrete Fourier support proxy for tube analyticity of 1/factor.

    Each cone coordinate (the dual cone must be simplicial, which covers
    the orthant-type cones of the model domains) is pulled back to the
    unit circle by the Cayley transform xi = -cot(theta/2); analyticity of
    the inverse factor in the tube over the (sign-) dual cone is then
    one-sidedness of its Fourier modes on the torus, and the reported
    leak is the l2 mass fraction of modes on the wrong side.  This is
    exact (up to aliasing of decaying mode tails) for rational factors,
    where a plain truncated-grid transform would drown the answer in
    Gibbs ringing from the slowly decaying inverse.  Reliable for factors
    with nonnegative growth index; the remaining frequency components are
    frozen at zero.
    """
    deps = sorted(d for d in frequency_support(expr) if d >= k + 1)
    if not deps:
        return {"mass_outside": 0.0, "modes": [], "skipped": "constant factor"}
    n = m - k
    dual = dual_cone(cone)
    basis = dual.generator_array()
    if basis.shape != (n, n):
        raise ValueError(
            "Fourier support check needs a simplicial dual cone "
            f"({basis.shape[0]} generators in dimension {n})")
    n_pts = _PW_GRID.get(n, 64)
    theta = 2.0 * math.pi * (np.arange(n_pts) + 0.5) / n_pts
    xi_axis = -1.0 / np.tan(theta / 2.0)
    mesh = np.meshgrid(*([xi_axis] * n), indexing="ij")
    rho = np.stack([g.ravel() for g in mesh], axis=-1)
    xi = np.zeros((rho.shape[0], m), dtype=complex)
    xi[:, k:] = rho @ basis
    vals = eval_on_grid(expr, np.zeros(m), xi).reshape((n_pts,) * n)
    coeffs = np.fft.fftn(1.0 / vals) / n_pts ** n
    idx = np.fft.fftfreq(n_pts, d=1.0 / n_pts)
    mode_mesh = np.meshgrid(*([idx] * n), indexing="ij")
    if tube_sign > 0:
        bad = np.zeros((n_pts,) * n, dtype=bool)
        for g in mode_mesh:
            bad |= g < 0
    else:
        bad = np.zeros((n_pts,) * n, dtype=bool)
        for g in mode_mesh:
            bad |= g > 0
    mass = np.abs(coeffs) ** 2
    total = float(mass.sum())
    outside = float(mass[bad].sum())
    return {"mass_outside": outside / total if total > 0 else 0.0,
            "dims": deps, "grid_points": n_pts,
            "cayley_basis": basis.tolist()}


def validate_wave_factors(cand: WaveFactorCandidate, s: Symbol,
                          n_rays: int = N_RAYS,
                          raise_on_fail: bool = True) -> WaveValidationReport:
    """Validate a factorization candidate by three independent checks.

    (i)  product identity |a_neq * a_eq - a| < TOL_PROD * |a| on a real
         tensor grid (PROD_GRID_POINTS per axis on [-PROD_GRID_RADIUS,
         PROD_GRID_RADIUS]) excluding a two-cell margin around the
         exceptional hyperplanes;
    (ii) growth slopes of log|factor| along ``n_rays`` rays into the
         analyticity tubes: a_neq must grow with the declared index, a_eq
         with alpha minus the declared index, each within TOL_SLOPE;
    (iii) Fourier support of the inverse factors (see _pw_mass_outside).

    All three checks always run so the report carries per-factor verdicts;
    with raise_on_fail the most structural failure is raised afterwards
    (ProductMismatch, then SupportLeak, then GrowthViolation), each
    carrying the full report.
    """
    m = s.dim
    if cand.a_neq.dim != m:
        raise ValueError("candidate dimension does not match symbol")
    k = cand.k

    # (i) product identity away from the exceptional set
    ax = np.linspace(-PROD_GRID_RADIUS, PROD_GRID_RADIUS, PROD_GRID_POINTS)
    cell = ax[1] - ax[0]
    mesh = np.meshgrid(*([ax] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    margin = _exceptional_margin(cand.cone, pts[:, k:])
    keep = margin >= 2.0 * cell
    pts = pts[keep]
    x0 = np.zeros(m)
    a_vals = eval_on_grid(s.expr, x0, pts.astype(complex))
    prod = (eval_on_grid(cand.a_neq, x0, pts.astype(complex))
            * eval_on_grid(cand.a_eq, x0, pts.astype(complex)))
    denom = np.maximum(np.abs(a_vals), 1e-300)
    rel = float(np.max(np.abs(prod - a_vals) / denom))
    product_ok = rel < TOL_PROD

    # (ii) growth estimates along interior dual-cone rays
    rays = _interior_rays(cand.cone, n_rays)
    growth = []
    growth_ok = True
    alpha = s.order_alpha
    ae = cand.declared_ae
    for which, expr, sign, expected in (
            ("a_neq", cand.a_neq, +1.0, ae),
            ("a_eq", cand.a_eq, -1.0, alpha - ae)):
        for ray in rays:
            try:
                slope = _growth_slope(expr, m, k, ray, sign)
                ok = abs(slope - expected) <= TOL_SLOPE
            except (EvalError, GrowthViolation):
                slope, ok = math.nan, False
            growth.append({"factor": which, "ray": [float(v) for v in ray],
                           "slope": slope, "expected": expected, "ok": ok})
            growth_ok = growth_ok and ok

    # (iii) Fourier support of the inverse factors
    support = []
    support_ok = True
    for which, expr, sign in (("a_neq", cand.a_neq, +1.0),
                              ("a_eq", cand.a_eq, -1.0)):
        rec = _pw_mass_outside(expr, m, k, cand.cone, sign)
        rec["factor"] = which
        rec["ok"] = rec["mass_outside"] < TOL_PW
        support.append(rec)
        support_ok = support_ok and rec["ok"]

    report = WaveValidationReport(
        product_max_rel_err=rel, product_ok=product_ok,
        growth=growth, growth_ok=growth_ok,
        support=support, support_ok=support_ok,
        grid={"points_per_axis": PROD_GRID_POINTS,
              "radius": PROD_GRID_RADIUS, "excluded": int((~keep).sum())})
    if raise_on_fail:
        if not product_ok:
            exc = ProductMismatch(
                f"max relative product error {rel:.3e} >= {TOL_PROD:.1e}")
            exc.report = report
            raise exc
        if not support_ok:
            leaks = [r for r in support if not r["ok"]]
            raise SupportLeak(
                "inverse-factor mass outside the cone: " + ", ".join(
                    f"{r['factor']}: {r['mass_outside']:.3e}" for r in leaks),
                report=report)
        if not growth_ok:
            bad = next(r for r in growth if not r["ok"])
            exc = GrowthViolation(
                f"{bad['factor']} slope {bad['slope']:.3f} along ray "
                f"{bad['ray']} differs from expected {bad['expected']:.3f} "
                f"by more than {TOL_SLOPE}")
            exc.report = report
            raise exc
    return report


def estimate_wave_index(cand: WaveFactorCandidate) -> float:
    """Growth exponent of a_neq from least-squares slopes along N_RAYS
    interior dual-cone rays.  Ray slopes spreading by more than RAY_SPREAD
    raise SlopeDisagreement instead of being averaged away."""
    m = cand.a_neq.dim
    rays = _interior_rays(cand.cone, N_RAYS)
    slopes = [_growth_slope(cand.a_neq, m, cand.k, ray, +1.0)
              for ray in rays]
    spread = max(slopes) - min(slopes)
    if spread > RAY_SPREAD:
        raise SlopeDisagreement(
            f"ray slopes {['%.3f' % s for s in slopes]} spread {spread:.3f} "
            f"> {RAY_SPREAD}")
    return float(np.mean(slopes))


# --------------------------------------------------------------------------
# Fredholm criterion

@dataclass
class FactorizationReport:
    stratum_label: str
    k: int
    points: list
    ae_values: list
    method: str              # winding-quadrature | root-count | wave-slope
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"stratum": self.stratum_label, "k": self.k,
                "points": [list(map(float, p)) for p in self.points],
                "ae_values": [float(v) for v in self.ae_values],
                "method": self.method, "diagnostics": self.diagnostics}


@dataclass
class StratumVerdict:
    stratum_label: str
    k: int
    ae_range: tuple
    s: float
    condition_met: bool
    margin: float

    def to_dict(self) -> dict:
        return {"stratum": self.stratum_label, "k": self.k,
                "ae_range": [self.ae_range[0], self.ae_range[1]],
                "s": self.s, "condition_met": self.condition_met,
                "margin": self.margin}


@dataclass
class FredholmVerdict:
    s: float
    per_stratum: list
    interior_elliptic: bool
    fredholm: bool

    def to_dict(self) -> dict:
        return {"s": self.s,
                "per_stratum": [v.to_dict() for v in self.per_stratum],
                "interior_elliptic": self.interior_elliptic,
                "fredholm": self.fredholm}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def check_fredholm_condition(reports, s_order: float,
                             stratification: Stratification | None = None,
                             interior_elliptic: bool = True) -> FredholmVerdict:
    """Per-stratum verdicts of |index - s| < 1/2 with margins, and the
    overall verdict (all boundary strata pass and the interior symbol is
    elliptic; the interior stratum itself needs no factorization index)."""
    if stratification is not None:
        have = {r.stratum_label for r in reports}
        for st in stratification.boundary_strata():
            if st.label not in have:
                raise MissingStratumReport(
                    f"stratum {st.label!r} has no factorization report")
    verdicts = []
    for rep in reports:
        ae = np.asarray(rep.ae_values, dtype=float)
        if ae.size == 0:
            raise MissingStratumReport(
                f"report for {rep.stratum_label!r} carries no index values")
        dev = float(np.max(np.abs(ae - s_order)))
        margin = 0.5 - dev
        verdicts.append(StratumVerdict(
            stratum_label=rep.stratum_label, k=rep.k,
            ae_range=(float(ae.min()), float(ae.max())),
            s=s_order, condition_met=margin > 0, margin=margin))
    fredholm = interior_elliptic and all(v.condition_met for v in verdicts)
    return FredholmVerdict(s=s_order, per_stratum=verdicts,
                           interior_elliptic=interior_elliptic,
                           fredholm=fredholm)
