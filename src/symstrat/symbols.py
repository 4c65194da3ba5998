"""Classical symbols of declared order and their two-sided ellipticity check.

A symbol of order ``alpha`` is expected to satisfy

    c1 * (1+|xi|)^alpha <= |a(x, xi)| <= c2 * (1+|xi|)^alpha

with positive constants.  The check here certifies the estimate on a finite
sample grid only and reports the grid together with the constants; it is a
sampling certificate, not a proof.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dsl import EvalPoint, SymbolExpr, eval_on_grid, parse_symbol
from .errors import DegenerateFit, EvalError, GridError

__all__ = [
    "Symbol", "FrequencyGridSpec", "EllipticityReport",
    "check_ellipticity", "fit_order",
]

TOL_ELL = 1e-10
# points of the (x, xi) product grid per eval_on_grid call in
# check_ellipticity; bounds the peak memory of the sweep
ELL_BLOCK_POINTS = 2 ** 17


@dataclass(frozen=True)
class Symbol:
    """A symbol expression with its declared order."""

    expr: SymbolExpr
    order_alpha: float
    dim: int

    def __post_init__(self):
        if self.dim != self.expr.dim:
            raise ValueError(
                f"symbol dimension {self.dim} != expression dimension {self.expr.dim}")
        if not math.isfinite(self.order_alpha):
            raise ValueError("order must be finite")

    @staticmethod
    def parse(text: str, order_alpha: float, dim: int) -> "Symbol":
        return Symbol(parse_symbol(text, dim), float(order_alpha), dim)


@dataclass(frozen=True)
class FrequencyGridSpec:
    """Sampling grid: a tensor box plus random far-field points.

    The tensor part has ``points_per_axis`` nodes on [-box_radius, box_radius]
    per axis; the far field adds ``random_per_decade`` points in each radial
    decade out to ``max_radius`` to catch large-frequency degeneration.
    """

    points_per_axis: int = 33
    box_radius: float = 32.0
    random_per_decade: int = 64
    max_radius: float = 1.0e4
    seed: int = 0

    def validate(self):
        if self.points_per_axis < 2:
            raise GridError(
                f"need >= 2 points per axis, got {self.points_per_axis}")
        if max(self.box_radius, self.max_radius) < 10.0:
            raise GridError("grid max radius must be >= 10")

    def points(self, dim: int) -> np.ndarray:
        """All sample frequencies, shape (P, dim)."""
        self.validate()
        axes = [np.linspace(-self.box_radius, self.box_radius,
                            self.points_per_axis)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = [np.stack([m.ravel() for m in mesh], axis=-1)]
        if self.max_radius > 1.0 and self.random_per_decade > 0:
            rng = np.random.default_rng(self.seed)
            n_dec = int(math.ceil(math.log10(self.max_radius)))
            for d in range(n_dec):
                lo, hi = 10.0 ** d, min(10.0 ** (d + 1), self.max_radius)
                radii = np.exp(rng.uniform(np.log(lo), np.log(hi),
                                           self.random_per_decade))
                dirs = rng.standard_normal((self.random_per_decade, dim))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                pts.append(dirs * radii[:, None])
        return np.concatenate(pts, axis=0)

    def describe(self) -> dict:
        return {
            "points_per_axis": self.points_per_axis,
            "box_radius": self.box_radius,
            "random_per_decade": self.random_per_decade,
            "max_radius": self.max_radius,
            "seed": self.seed,
        }


@dataclass
class EllipticityReport:
    elliptic: bool
    c1: float | None
    c2: float | None
    witness: EvalPoint | None
    sample_spec: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = {"x": list(self.witness.x),
                   "xi": [[z.real, z.imag] for z in self.witness.xi]}
        return {"elliptic": self.elliptic, "c1": self.c1, "c2": self.c2,
                "witness": wit, "grid": self.sample_spec}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def check_ellipticity(s: Symbol, x_samples,
                      xi_grid: FrequencyGridSpec | None = None
                      ) -> EllipticityReport:
    """Certify the two-sided order estimate on a finite sample set.

    c1 is the minimum of |a(x, xi)| (1+|xi|)^(-alpha) over all samples, c2
    the maximum; the symbol is reported elliptic when c1 exceeds TOL_ELL
    (which separates genuine zeros from roundoff).  The witness is the
    argmin sample when the lower bound degenerates: the first x sample,
    then the first frequency, at which the minimum is attained.

    The sweep evaluates blocks of the (x, xi) product grid, every x sample
    against one slice of the frequencies, one :func:`eval_on_grid` call per
    block: subexpressions of xi alone are computed once per frequency, and
    those of x alone once per block.  A block holds at most
    ``ELL_BLOCK_POINTS`` points (one frequency per x sample if there are
    more samples), which bounds the memory of the sweep.  The sampled set
    and every reported number are those of one evaluation per x sample;
    an evaluation error is the one the first failing x sample raises.
    """
    if xi_grid is None:
        xi_grid = FrequencyGridSpec()
    xi_pts = xi_grid.points(s.dim)
    x_arr = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_arr.shape[1] != s.dim:
        raise GridError(f"x samples have dimension {x_arr.shape[1]}, want {s.dim}")
    if x_arr.shape[0] == 0 or xi_pts.shape[0] == 0:
        raise GridError("empty sample grid")

    scale = (1.0 + np.linalg.norm(xi_pts, axis=1)) ** (-s.order_alpha)
    xi_c = xi_pts.astype(complex)
    n_x = x_arr.shape[0]
    cols = max(1, ELL_BLOCK_POINTS // n_x)
    # per x sample: the least ratio and its first frequency index, and the
    # greatest ratio; a nan ratio makes both nan, as np.min and np.max do
    lo = np.full(n_x, math.inf)
    arg = np.zeros(n_x, dtype=int)
    hi = np.full(n_x, -math.inf)
    for start in range(0, xi_pts.shape[0], cols):
        block = slice(start, start + cols)
        ratio = np.abs(_eval_block(s.expr, x_arr, xi_c, block))
        ratio *= scale[block]
        j = np.argmin(ratio, axis=1)
        m = ratio[np.arange(n_x), j]
        take = (m < lo) | np.isnan(m)     # strict: a tie keeps the earlier
        lo[take] = m[take]
        arg[take] = j[take] + start
        hi = np.maximum(hi, np.max(ratio, axis=1))

    c1 = math.inf
    c2 = -math.inf
    witness = None
    for x, m, j, h in zip(x_arr, lo, arg, hi):
        if m < c1:
            c1 = float(m)
            witness = EvalPoint.make(x, xi_pts[j])
        c2 = max(c2, float(h))

    elliptic = c1 > TOL_ELL
    return EllipticityReport(
        elliptic=elliptic,
        c1=c1 if elliptic else None,
        c2=c2 if elliptic else None,
        witness=None if elliptic else witness,
        sample_spec={**xi_grid.describe(), "x_samples": n_x,
                     "c1_raw": c1, "c2_raw": c2, "tol_ell": TOL_ELL},
    )


def _eval_block(expr: SymbolExpr, x_arr: np.ndarray, xi_c: np.ndarray,
                block: slice) -> np.ndarray:
    """Values at every x sample and the frequencies xi_c[block], shape
    (len(x_arr), len(xi_c[block])).

    On an evaluation error each x sample is evaluated on all of xi_c in
    turn, so the error raised is that of the first failing x sample,
    whichever subexpression or block fails first.
    """
    try:
        return eval_on_grid(expr, x_arr[:, None, :], xi_c[None, block, :])
    except EvalError:
        for x in x_arr:
            eval_on_grid(expr, x[None, :], xi_c)
        raise


def fit_order(s: Symbol, ray, radii, x0=None) -> float:
    """Least-squares slope of log|a(x0, r*ray)| against log(1+r).

    Sanity check for the declared order: at least 8 radii spanning three
    decades are required.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 8:
        raise GridError(f"need >= 8 radii, got {radii.size}")
    if np.min(radii) <= 0 or np.max(radii) / np.min(radii) < 1.0e3:
        raise GridError("radii must be positive and span >= 3 decades")
    ray = np.asarray(ray, dtype=float)
    nrm = np.linalg.norm(ray)
    if nrm == 0:
        raise GridError("ray must be a nonzero direction")
    ray = ray / nrm
    if x0 is None:
        x0 = np.zeros(s.dim)
    xi = radii[:, None] * ray[None, :]
    vals = np.abs(eval_on_grid(s.expr, np.asarray(x0, float)[None, :],
                               xi.astype(complex)))
    if np.any(vals < 1e-300):
        raise DegenerateFit("symbol vanishes along the ray")
    slope = np.polyfit(np.log1p(radii), np.log(vals), 1)[0]
    return float(slope)
