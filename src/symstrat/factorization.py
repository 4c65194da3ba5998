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

import math
from dataclasses import dataclass, field

import numpy as np

from .dsl import SymbolExpr, eval_on_grid, frequency_support
from .errors import (BranchJumpError, EvalError, GrowthViolation,
                     MissingStratumReport, NonEllipticOnLine,
                     SlopeDisagreement, SymstratError, TailJumpError)
from .geometry import Cone, Stratification, dual_cone
from .symbols import ELL_BLOCK_POINTS, TOL_ELL, Symbol

__all__ = [
    "winding_index", "WaveFactorCandidate", "WaveValidationReport",
    "validate_wave_factors", "estimate_wave_index",
    "FactorizationReport", "FredholmVerdict", "StratumVerdict",
    "check_fredholm_condition",
]

QUAD_SAMPLES = 2 ** 16     # node cap of winding_index
MIN_QUAD_SAMPLES = 5       # least cap: 3 start nodes and 2 midpoints
CUTOFF = 1.0e4             # winding_index winds over |t| <= CUTOFF
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
# the adaptive winding grid: start nodes, and the acceptance test of an
# interval on its two half-steps of phase (rad)
WIND_START_NODES = 65
WIND_MAX_HALF_STEP = math.pi / 4
WIND_HALF_STEP_TOL = 0.005
# below this modulus, every phase product v_to * conj(v_from) of two
# reduced-symbol values is finite (1e300 < the float limit 1.8e308)
_WIND_MAX_MODULUS = 1e150


# --------------------------------------------------------------------------
# Half-space winding

def winding_index(s: Symbol, x0, xi_prime,
                  quad_samples: int = QUAD_SAMPLES) -> float | list:
    """alpha/2 plus the winding of the reduced symbol along the last
    frequency axis, by adaptive phase unwrapping in theta = arctan(t) over
    |t| <= CUTOFF = 1e4, with a tail correction from the values at
    +-CUTOFF.

    An ``x0`` of shape (m,) gives the index on the one line through x0 as
    a float; an ``x0`` of shape (Q, m) gives a list of Q floats, one per
    row, each equal bit for bit to the call on that row alone.  The lines
    share every evaluation: one :func:`eval_on_grid` call for all their
    start grids and one per bisection round for all their open intervals,
    each split into blocks of at most ``ELL_BLOCK_POINTS`` nodes, which
    bounds the memory of an evaluation.  Everything a line's index is read
    from stays per line: its tail phase, node cap, rescaling, interval
    order and sum of phase steps.

    The grid starts from WIND_START_NODES theta-uniform nodes, theta = 0
    among them (so a symbol vanishing at t = 0 is seen), and probes every
    interval at its theta-midpoint.  An interval is accepted when both of
    its half-steps of phase are at most WIND_MAX_HALF_STEP and differ by at
    most WIND_HALF_STEP_TOL; every other interval is bisected.  The
    half-step test is what notices a phase turn narrower than the spacing:
    a zero at distance eps >= 1e-4 from the Cayley circle is resolved,
    while a narrower one can be missed.  A phase linear in theta takes the
    129 nodes of the start grid and its midpoints.  ``quad_samples`` caps
    the nodes evaluated per line; below 129 the start grid shrinks so that
    it and its midpoints fit; a cap below 5 raises ValueError.

    Raises NonEllipticOnLine if the reduced symbol vanishes at a node,
    TailJumpError (a BranchJumpError) if the phases at -CUTOFF and +CUTOFF
    differ by more than pi/2, and BranchJumpError if an interval is still
    unresolved when the node cap is reached (raise the cap rather than
    guess).  With several lines the error raised is the one the first
    failing row raises in a call of its own: on any error the rows are
    rerun one at a time, in order."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2):
        raise ValueError(f"x0 must have shape (m,) or (Q, m), got {x0.shape}")
    xi_prime = np.asarray(xi_prime, dtype=float).reshape(-1)
    if xi_prime.size != s.dim - 1:
        raise ValueError(
            f"xi_prime must have length m-1 = {s.dim - 1}, got {xi_prime.size}")
    if quad_samples < MIN_QUAD_SAMPLES:
        raise ValueError(f"quad_samples must be at least {MIN_QUAD_SAMPLES}, "
                         f"got {quad_samples}")
    pts = x0.reshape(-1, x0.shape[-1])
    try:
        values = _wind_lines(s, pts, xi_prime, quad_samples)
    except SymstratError:
        if len(pts) > 1:
            for p in pts:
                _wind_lines(s, p[None, :], xi_prime, quad_samples)
        raise
    return values[0] if x0.ndim == 1 else values


def _wind_lines(s: Symbol, pts: np.ndarray, xi_prime: np.ndarray,
                quad_samples: int) -> list:
    """The index of winding_index on the line through each row of pts."""
    n_lines, m = pts.shape[0], s.dim
    norm2_prime = 1.0 + float(xi_prime @ xi_prime)

    def reduced(line, t):
        """The reduced symbol at the nodes t of the lines ``line``."""
        vals = np.empty(t.size, dtype=complex)
        for start in range(0, t.size, ELL_BLOCK_POINTS):
            block = slice(start, start + ELL_BLOCK_POINTS)
            xi = np.empty((t[block].size, m), dtype=complex)
            xi[:, : m - 1] = xi_prime[None, :]
            xi[:, -1] = t[block]
            vals[block] = eval_on_grid(s.expr, pts[line[block]], xi)
        red = vals * (norm2_prime + t ** 2) ** (-s.order_alpha / 2.0)
        mods = np.abs(red)
        if np.min(mods) <= TOL_ELL:
            j = int(np.argmin(mods))
            raise NonEllipticOnLine(
                f"reduced symbol modulus {mods[j]:.3e} at t={t[j]:.6g}")
        big = np.zeros(n_lines, dtype=bool)
        big[line[mods > _WIND_MAX_MODULUS]] = True
        if big.any():
            # only phases are read: scale each value of a line that passes
            # the bound to a modulus in [1, sqrt 2], which keeps its phase
            # and cannot overflow
            sel = big[line]
            red[sel] = red[sel] / np.maximum(np.abs(red[sel].real),
                                             np.abs(red[sel].imag))
        return red

    # an odd start grid, so that theta = 0 is a node, no larger than lets
    # it and its midpoints fit under the cap (3 nodes at the least cap)
    n_start = min(WIND_START_NODES, ((quad_samples + 1) // 2 - 1) | 1)
    theta = math.atan(CUTOFF) * np.linspace(-1.0, 1.0, n_start)
    t = np.tan(theta)
    t[0], t[-1] = -CUTOFF, CUTOFF
    vals = reduced(np.repeat(np.arange(n_lines), n_start),
                   np.tile(t, n_lines)).reshape(n_lines, n_start)
    totals = []
    for row in vals:
        tail = float(np.angle(row[0] * np.conj(row[-1])))
        if abs(tail) > math.pi / 2:
            raise TailJumpError(
                f"tail phase jump {tail:.3f} rad exceeds pi/2: the reduced "
                f"symbol has phase {np.angle(row[-1]):.3f} rad at "
                f"t=+{CUTOFF:.6g} and {np.angle(row[0]):.3f} rad at "
                f"t=-{CUTOFF:.6g}, so it does not close up at infinity")
        totals.append(tail)

    # open intervals [lo, hi] in theta with the values at their ends, and
    # the line of each, grouped by line
    line = np.repeat(np.arange(n_lines), n_start - 1)
    lo, hi = np.tile(theta[:-1], n_lines), np.tile(theta[1:], n_lines)
    v_lo, v_hi = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    nodes = np.full(n_lines, n_start)
    while line.size:
        counts = np.bincount(line, minlength=n_lines)
        over = nodes + counts > quad_samples
        if over.any():
            q = int(np.argmax(over))
            i = int(np.searchsorted(line, q))
            raise BranchJumpError(
                f"winding unresolved at the node cap quad_samples="
                f"{quad_samples}: {counts[q]} intervals open, the first on "
                f"t in [{math.tan(lo[i]):.6g}, {math.tan(hi[i]):.6g}]; "
                "raise the cap")
        mid = 0.5 * (lo + hi)
        v_mid = reduced(line, np.tan(mid))
        nodes += counts
        left = np.angle(v_mid * np.conj(v_lo))
        right = np.angle(v_hi * np.conj(v_mid))
        done = ((np.maximum(np.abs(left), np.abs(right)) <= WIND_MAX_HALF_STEP)
                & (np.abs(left - right) <= WIND_HALF_STEP_TOL))
        steps = left[done] + right[done]
        n_done = np.bincount(line[done], minlength=n_lines)
        ends = np.cumsum(n_done)
        for q in np.flatnonzero(counts):
            totals[q] += float(np.sum(steps[ends[q] - n_done[q]:ends[q]]))
        # each line's left halves, then its right halves
        split = ~done
        key = np.concatenate([2 * line[split], 2 * line[split] + 1])
        order = np.argsort(key, kind="stable")
        line = key[order] // 2
        lo = np.concatenate([lo[split], mid[split]])[order]
        hi = np.concatenate([mid[split], hi[split]])[order]
        v_lo = np.concatenate([v_lo[split], v_mid[split]])[order]
        v_hi = np.concatenate([v_mid[split], v_hi[split]])[order]
    return [s.order_alpha / 2.0 + total / (2.0 * math.pi) for total in totals]


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
        if not self.cone.is_full_dimensional():
            raise ValueError("factorization cone must be full-dimensional")


@dataclass
class WaveValidationReport:
    product_max_rel_err: float | None     # None when (i) could not evaluate
    product_ok: bool
    growth: list            # per factor and ray; a failed ray's slope is None
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


def _exceptional_margin(cone: Cone, xi_tail: np.ndarray) -> np.ndarray:
    """Lower bound for the distance from the boundary of (dual union
    -dual): distance to the nearest generator hyperplane of the cone."""
    gens = cone.generator_array()
    norms = np.linalg.norm(gens, axis=1)
    dots = np.abs(xi_tail @ gens.T) / norms[None, :]
    return dots.min(axis=1)


def _interior_rays(cone: Cone) -> np.ndarray:
    """N_RAYS unit directions strictly inside the dual cone: the central
    direction plus mild tilts towards individual extreme rays (strong tilts
    would push the finite sampling ladder out of its asymptotic regime)."""
    rays = dual_cone(cone).generator_array()
    n_gen = rays.shape[0]
    combos = []
    for r in range(N_RAYS):
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
    grid = {"dims": deps, "grid_points": n_pts,
            "cayley_basis": basis.tolist()}
    try:
        vals = eval_on_grid(expr, np.zeros(m), xi).reshape((n_pts,) * n)
    except EvalError as exc:
        # as below: a factor that cannot be evaluated on the grid gives no
        # evidence of one-sided support
        return {"mass_outside": 1.0, **grid, "reason": str(exc)}
    with np.errstate(all="ignore"):
        mass = np.abs(np.fft.fftn(1.0 / vals) / n_pts ** n) ** 2
    total = float(mass.sum())
    if not (math.isfinite(total) and total > 0):
        # a factor that vanishes or underflows on the grid gives no evidence
        # of one-sided support: count the whole inverse as leaked
        return {"mass_outside": 1.0, **grid,
                "reason": "inverse factor not finite on the Cayley grid"}
    idx = np.fft.fftfreq(n_pts, d=1.0 / n_pts)
    bad = np.zeros((n_pts,) * n, dtype=bool)
    for g in np.meshgrid(*([idx] * n), indexing="ij"):
        bad |= (g < 0) if tube_sign > 0 else (g > 0)
    return {"mass_outside": float(mass[bad].sum()) / total, **grid}


def validate_wave_factors(cand: WaveFactorCandidate,
                          s: Symbol) -> WaveValidationReport:
    """Validate a factorization candidate by three independent checks.

    (i)  product identity |a_neq * a_eq - a| < TOL_PROD * |a| on a real
         tensor grid (PROD_GRID_POINTS per axis on [-PROD_GRID_RADIUS,
         PROD_GRID_RADIUS]) excluding a two-cell margin around the
         exceptional hyperplanes;
    (ii) growth slopes of log|factor| along N_RAYS = 3 rays into the
         analyticity tubes: a_neq must grow with the declared index, a_eq
         with alpha minus the declared index, each within TOL_SLOPE;
    (iii) Fourier support of the inverse factors (see _pw_mass_outside).

    All three checks always run and the report carries per-factor
    verdicts, whether they pass or fail; an EvalError in a check fails
    that check: a null product error, a None slope or a mass_outside of
    1.0, with the error text as grid["reason"] or the record's reason.
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
    grid = {"points_per_axis": PROD_GRID_POINTS,
            "radius": PROD_GRID_RADIUS, "excluded": int((~keep).sum())}
    try:
        a_vals = eval_on_grid(s.expr, x0, pts.astype(complex))
        prod = (eval_on_grid(cand.a_neq, x0, pts.astype(complex))
                * eval_on_grid(cand.a_eq, x0, pts.astype(complex)))
        denom = np.maximum(np.abs(a_vals), 1e-300)
        rel = float(np.max(np.abs(prod - a_vals) / denom))
    except EvalError as exc:
        rel, grid["reason"] = None, str(exc)

    # (ii) growth estimates along interior dual-cone rays
    rays = _interior_rays(cand.cone)
    growth = []
    for which, expr, sign, expected in (
            ("a_neq", cand.a_neq, +1.0, cand.declared_ae),
            ("a_eq", cand.a_eq, -1.0, s.order_alpha - cand.declared_ae)):
        for ray in rays:
            rec = {"factor": which, "ray": [float(v) for v in ray],
                   "expected": expected}
            try:
                rec["slope"] = _growth_slope(expr, m, k, ray, sign)
                rec["ok"] = abs(rec["slope"] - expected) <= TOL_SLOPE
            except (EvalError, GrowthViolation) as exc:
                rec.update(slope=None, ok=False, reason=str(exc))
            growth.append(rec)

    # (iii) Fourier support of the inverse factors
    support = []
    for which, expr, sign in (("a_neq", cand.a_neq, +1.0),
                              ("a_eq", cand.a_eq, -1.0)):
        rec = _pw_mass_outside(expr, m, k, cand.cone, sign)
        rec["factor"] = which
        rec["ok"] = rec["mass_outside"] < TOL_PW
        support.append(rec)

    return WaveValidationReport(
        product_max_rel_err=rel, product_ok=rel is not None and rel < TOL_PROD,
        growth=growth, growth_ok=all(r["ok"] for r in growth),
        support=support, support_ok=all(r["ok"] for r in support),
        grid=grid)


def estimate_wave_index(cand: WaveFactorCandidate) -> float:
    """Growth exponent of a_neq from least-squares slopes along N_RAYS
    interior dual-cone rays.  Ray slopes spreading by more than RAY_SPREAD
    raise SlopeDisagreement instead of being averaged away."""
    m = cand.a_neq.dim
    rays = _interior_rays(cand.cone)
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
    method: str              # winding-quadrature
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"stratum": self.stratum_label, "k": self.k,
                "points": self.points, "ae_values": self.ae_values,
                "method": self.method, "diagnostics": self.diagnostics}


@dataclass
class StratumVerdict:
    stratum_label: str
    k: int
    ae_range: list          # [min, max] of the stratum's index values
    s: float
    condition_met: bool
    margin: float

    def to_dict(self) -> dict:
        return {"stratum": self.stratum_label, "k": self.k,
                "ae_range": self.ae_range,
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
            ae_range=[float(ae.min()), float(ae.max())],
            s=s_order, condition_met=margin > 0, margin=margin))
    fredholm = interior_elliptic and all(v.condition_met for v in verdicts)
    return FredholmVerdict(s=s_order, per_stratum=verdicts,
                           interior_elliptic=interior_elliptic,
                           fredholm=fredholm)
