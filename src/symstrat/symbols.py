"""Classical symbols of declared order and their two-sided ellipticity check.

A symbol of order ``alpha`` is expected to satisfy

    c1 * (1+|xi|)^alpha <= |a(x, xi)| <= c2 * (1+|xi|)^alpha

with positive constants.  The check here certifies the estimate on one
fixed frequency grid per dimension, and a log-log fit of the growth checks
alpha itself; both are sampling certificates, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dsl import (SymbolExpr, eval_on_grid, frequency_support, parse_symbol,
                  product_factors, reads_k_radially)
from .errors import DegenerateFit, EvalError, GridError, OrderMismatch

__all__ = [
    "Symbol", "EllipticityReport", "check_ellipticity", "frequency_grid",
    "grid_projection", "radial_projection", "eval_blocks", "fit_order",
    "check_order",
]

TOL_ELL = 1e-10
# points per eval_on_grid call of eval_blocks (the ellipticity sweep and
# the frozen-coefficient families of lattice) and per batched kernel
# transform of lattice's patch windows; bounds the peak memory of both
ELL_BLOCK_POINTS = 2 ** 17


@dataclass(frozen=True)
class Symbol:
    """A symbol expression with its declared order."""

    expr: SymbolExpr
    order_alpha: float

    def __post_init__(self):
        if not math.isfinite(self.order_alpha):
            raise ValueError("order must be finite")

    @property
    def dim(self) -> int:
        return self.expr.dim

    @staticmethod
    def parse(text: str, order_alpha: float, dim: int) -> "Symbol":
        return Symbol(parse_symbol(text, dim), float(order_alpha))


# The ellipticity sampling grid: a tensor box of GRID_POINTS_PER_AXIS
# nodes on [-GRID_BOX_RADIUS, GRID_BOX_RADIUS] per axis, plus
# GRID_RANDOM_PER_DECADE random points drawn from GRID_SEED in each radial
# decade out to GRID_MAX_RADIUS, which catch large-frequency degeneration
GRID_POINTS_PER_AXIS = 33
GRID_BOX_RADIUS = 32.0
GRID_RANDOM_PER_DECADE = 64
GRID_MAX_RADIUS = 1.0e4
GRID_SEED = 0


def frequency_grid(dim: int) -> np.ndarray:
    """All sample frequencies of the ellipticity grid, shape (P, dim): the
    tensor box in ij order, then the far field; read-only."""
    return _grid_arrays(dim)[0]


_GRIDS = {}
_RADIAL = {}


def _grid_key(dim: int) -> tuple:
    """The dimension and the values of the GRID_* constants, which fix the
    grid and everything built from it."""
    return (dim, GRID_POINTS_PER_AXIS, GRID_BOX_RADIUS,
            GRID_RANDOM_PER_DECADE, GRID_MAX_RADIUS, GRID_SEED)


def _grid_arrays(dim: int) -> tuple:
    """(frequency_grid(dim), its norms |xi|, its complex copy), read-only,
    built once per dimension and values of the GRID_* constants."""
    key = _grid_key(dim)
    if key in _GRIDS:
        return _GRIDS[key]
    axes = [np.linspace(-GRID_BOX_RADIUS, GRID_BOX_RADIUS,
                        GRID_POINTS_PER_AXIS)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = [np.stack([m.ravel() for m in mesh], axis=-1)]
    rng = np.random.default_rng(GRID_SEED)
    for d in range(int(math.ceil(math.log10(GRID_MAX_RADIUS)))):
        lo, hi = 10.0 ** d, min(10.0 ** (d + 1), GRID_MAX_RADIUS)
        radii = np.exp(rng.uniform(np.log(lo), np.log(hi),
                                   GRID_RANDOM_PER_DECADE))
        dirs = rng.standard_normal((GRID_RANDOM_PER_DECADE, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts.append(dirs * radii[:, None])
    xi_pts = np.concatenate(pts, axis=0)
    _GRIDS[key] = (xi_pts, np.linalg.norm(xi_pts, axis=1),
                   xi_pts.astype(complex))
    for arr in _GRIDS[key]:
        arr.flags.writeable = False
    return _GRIDS[key]


# (grid, alpha) pairs whose ellipticity weight _ellipticity_weight keeps
_WEIGHT_CACHE_SIZE = 8


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _ellipticity_weight(key: tuple, alpha: float) -> np.ndarray:
    """The weight (1+|xi|)^(-alpha) over the grid of ``key`` (see
    _grid_key), read-only; an overflow is left to the ratios that read
    it.  Built once for each of the _WEIGHT_CACHE_SIZE most recent
    (grid, alpha)."""
    with np.errstate(over="ignore"):
        weight = (1.0 + _grid_arrays(key[0])[1]) ** (-alpha)
    weight.flags.writeable = False
    return weight


def grid_projection(dim: int, axes) -> tuple:
    """Index arrays (rep, inv) into ``frequency_grid(dim)`` for a function
    of the 1-based frequency ``axes`` alone.

    ``frequency_grid(dim)[rep]`` holds one frequency per node tuple of
    those axes on the tensor part, then every far-field point, and
    ``rep[inv[p]]`` agrees with point p on ``axes``: the function's values
    at rep, taken at inv, are its values at every point.
    """
    n = GRID_POINTS_PER_AXIS
    rep = np.zeros(1, dtype=int)
    inv = np.zeros((1,) * dim, dtype=int)
    for a in sorted(axes):
        # axis a (1-based) of the ij-ordered tensor part has stride
        # n^(dim-a) in rep and its own dimension in inv
        rep = (rep[:, None] + np.arange(n) * n ** (dim - a)).ravel()
        inv = inv * n + np.arange(n).reshape(
            [n if b == a - 1 else 1 for b in range(dim)])
    inv = np.broadcast_to(inv, (n,) * dim).ravel()
    far = np.arange(n ** dim, frequency_grid(dim).shape[0])
    return (np.concatenate([rep, far]),
            np.concatenate([inv, far - n ** dim + rep.size]))


def radial_projection(dim: int) -> tuple:
    """Index arrays (rep, inv) into ``frequency_grid(dim)`` for a function
    of ``abs2(k)`` alone, read-only and built once per grid.

    ``rep`` holds the first point of each distinct value of ``abs2(k)``,
    as :func:`~symstrat.dsl.eval_on_grid` computes it, and ``rep[inv[p]]``
    has the same ``abs2(k)`` as point p, bit for bit: on a real grid its
    running sum of squares has imaginary part exactly +0.0, so equal real
    parts make equal values.  With the default constants the 33^3 tensor
    part of the 3-D grid holds 464 distinct values.
    """
    key = _grid_key(dim)
    if key not in _RADIAL:
        xi_c = _grid_arrays(dim)[2]
        norm2 = eval_on_grid(parse_symbol("abs2(k)", dim), np.zeros((1, dim)),
                             xi_c)
        _, rep, inv = np.unique(norm2.real, return_index=True,
                                return_inverse=True)
        for arr in (rep, inv):
            arr.flags.writeable = False
        _RADIAL[key] = (rep, inv)
    return _RADIAL[key]


def _factor_projection(factor: SymbolExpr) -> tuple:
    """(rep, at) for a k-only factor: its values at
    ``frequency_grid(factor.dim)[rep]``, taken at ``at``, are its values
    at every frequency.  Once per distinct
    ``abs2(k)`` for a factor that reads k only through it, once per node
    tuple of its axes for one that reads fewer than all axes, else at
    every frequency."""
    if reads_k_radially(factor):
        return radial_projection(factor.dim)
    axes = frequency_support(factor)
    if len(axes) < factor.dim:
        return grid_projection(factor.dim, axes)
    return slice(None), slice(None)


@dataclass
class EllipticityReport:
    """check_ellipticity's verdict; ``witness`` is the argmin sample of a
    non-elliptic symbol, {"x": [...], "xi": [[re, im], ...]}, else None."""

    elliptic: bool
    c1: float | None
    c2: float | None
    witness: dict | None
    sample_spec: dict = field(default_factory=dict)
    order_fit: dict | None = None       # check_order's record, if it ran

    def to_dict(self) -> dict:
        return {"elliptic": self.elliptic, "c1": self.c1, "c2": self.c2,
                "witness": self.witness, "grid": self.sample_spec,
                "order_fit": self.order_fit}


def check_ellipticity(s: Symbol, x_samples) -> EllipticityReport:
    """Certify the two-sided order estimate on a finite sample set: the
    x samples against the frequencies of ``frequency_grid(s.dim)``, where
    any alpha has constants: :func:`check_order` tests alpha itself.

    c1 is the minimum of |a(x, xi)| (1+|xi|)^(-alpha) over all samples, c2
    the maximum; the symbol is reported elliptic when c1 exceeds TOL_ELL
    (which separates genuine zeros from roundoff).  The witness is the
    argmin sample when the lower bound degenerates: the first x sample,
    then the first frequency, at which the minimum is attained.  A ratio
    that is not finite, because |a| or the weight (1+|xi|)^(-alpha)
    overflows or their product does, raises GridError naming the first
    such (x, xi) of the sweep.

    The general path sweeps the (x, xi) product grid in the blocks of
    :func:`eval_blocks`, which bounds its memory.  The sampled set and
    every reported number are those of one evaluation per x sample; an
    evaluation error is the one the first failing x sample raises.

    A symbol whose top-level product (:func:`~symstrat.dsl.product_factors`)
    has no mixed factor takes the factor split of :func:`_split_extremes`
    instead: each factor is evaluated once on its own samples, a k-only
    factor once per node tuple of the axes it reads, or once per distinct
    |xi|^2 if it reads k only through ``abs2(k)``/``normx2(k)``, and the
    full symbol only at the few samples that can attain c1 or c2.  It
    reports the same bits as the sweep, and leaves to the sweep every
    symbol where it could not prove that: an evaluation error, a zero or
    an overflow in a factor or the weight, a product that could leave the
    float range, a lower bound not clearly above TOL_ELL, or more than
    ``ELL_BLOCK_POINTS`` candidate samples.  So every error, every
    witness and every non-elliptic report is the sweep's.
    """
    xi_pts, xi_norms, xi_c = _grid_arrays(s.dim)
    x_arr = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_arr.shape[1] != s.dim:
        raise GridError(f"x samples have dimension {x_arr.shape[1]}, want {s.dim}")
    if x_arr.shape[0] == 0:
        raise GridError("empty sample grid")

    scale = _ellipticity_weight(_grid_key(s.dim), s.order_alpha)
    found = _split_extremes(s.expr, x_arr, xi_c, scale)
    if found is None:
        found = _sweep_extremes(s, x_arr, xi_pts, xi_norms, xi_c, scale)
    c1, c2, first, arg = found
    witness = {"x": x_arr[first].tolist(),
               "xi": [[z.real, z.imag] for z in xi_c[arg].tolist()]}

    elliptic = c1 > TOL_ELL
    return EllipticityReport(
        elliptic=elliptic,
        c1=c1 if elliptic else None,
        c2=c2 if elliptic else None,
        witness=None if elliptic else witness,
        sample_spec={"points_per_axis": GRID_POINTS_PER_AXIS,
                     "box_radius": GRID_BOX_RADIUS,
                     "random_per_decade": GRID_RANDOM_PER_DECADE,
                     "max_radius": GRID_MAX_RADIUS, "seed": GRID_SEED,
                     "x_samples": x_arr.shape[0],
                     "c1_raw": c1, "c2_raw": c2, "tol_ell": TOL_ELL},
    )


def _sweep_extremes(s: Symbol, x_arr, xi_pts, xi_norms, xi_c, scale):
    """(c1, c2, i, j) over the whole (x, xi) grid, (i, j) the argmin."""
    n_x = x_arr.shape[0]
    # per x sample: the least ratio and its first frequency index, and the
    # greatest ratio
    lo = np.full(n_x, math.inf)
    arg = np.zeros(n_x, dtype=int)
    hi = np.full(n_x, -math.inf)
    for block, vals in eval_blocks(s.expr, x_arr, xi_c):
        start = block.start
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.abs(vals)
            ratio *= scale[block]
        del vals                        # one block alive at a time
        top = np.max(ratio, axis=1)     # inf or nan if any ratio in its row
        if not np.all(np.isfinite(top)):
            i, j = np.argwhere(~np.isfinite(ratio))[0]
            raise GridError(
                "ellipticity ratio |a|*(1+|xi|)^(-alpha) is not finite at "
                f"x={x_arr[i].tolist()}, xi={xi_pts[start + j].tolist()} "
                f"(alpha={s.order_alpha:g}, |xi| up to "
                f"{xi_norms.max():g})")
        j = np.argmin(ratio, axis=1)
        m = ratio[np.arange(n_x), j]
        take = m < lo                   # strict: a tie keeps the earlier
        lo[take] = m[take]
        arg[take] = j[take] + start
        hi = np.maximum(hi, top)

    first = int(np.argmin(lo))          # a tie keeps the earliest x sample
    return float(lo[first]), float(np.max(hi)), first, int(arg[first])


# Relative margin of the factor split's candidates.  The ratio at a sample
# differs from the product X_i*K_j of its factor moduli by the rounding
# of a few ulps per factor, so 2^-30 covers about a million factors, far
# more than the evaluator's recursion depth admits.
_SPLIT_MARGIN = 2.0 ** -30
# Every product of factors stays within [1/_SPLIT_LIMIT, _SPLIT_LIMIT],
# far inside the normal floats, so no rounding there is relatively large
# and no complex product or quotient overflows on the way.
_SPLIT_LIMIT = 2.0 ** 1000


def _split_extremes(expr: SymbolExpr, x_arr, xi_c, scale):
    """(c1, c2, i, j) of :func:`_sweep_extremes` from the factors of a
    symbol with no mixed factor, or None where that is not certain.

    X_i, the product of the moduli of the constant and x-only factors,
    is evaluated on the x samples against one frequency; K_j, that of
    the xi-only factors times the weight, on the frequencies against one
    x sample (:func:`_factor_projection`): a factor of fewer than all
    frequency axes once per node tuple of its axes
    (:func:`grid_projection`), a factor that reads k only through
    ``abs2(k)``/``normx2(k)`` once per distinct |xi|^2
    (:func:`radial_projection`).  X_i * K_j
    is the ratio at (i, j) to within rounding, so the argmin and its ties
    lie among the x samples within ``_SPLIT_MARGIN`` of min X times the
    frequencies within it of min K, and the argmax likewise.  The symbol
    is evaluated on those two rectangles as the sweep evaluates a block,
    and the row-major argmin is the sweep's (earliest x, then xi).

    None where a factor is mixed, a factor evaluation raises, a factor's
    modulus is zero, the moduli of the factors and the weight bound a
    product of some subset of them outside [1/_SPLIT_LIMIT, _SPLIT_LIMIT]
    (the sweep could overflow, underflow or divide by zero there; an
    infinite modulus or weight always does), min X * min K is not clearly
    above TOL_ELL, or the rectangles hold more than ``ELL_BLOCK_POINTS``
    samples.
    """
    factors = product_factors(expr)
    if any(kind == "mixed" for _, _, kind in factors):
        return None
    x_mod = np.ones(x_arr.shape[0])
    k_mod = scale
    # bounds on a product of any subset of the factors and the weight
    top = max(1.0, float(np.max(scale)))
    bottom = min(1.0, float(np.min(scale)))
    for factor, exponent, kind in factors:
        x, xi, at = x_arr, xi_c[:1], slice(None)
        if kind == "k":
            rep, at = _factor_projection(factor)
            x, xi = x_arr[:1], xi_c[rep]
        try:
            vals = eval_on_grid(factor, x, xi)
        except EvalError:
            return None
        with np.errstate(over="ignore"):    # an inf fails a bound below
            mod = np.abs(vals)[at]
            least, most = float(np.min(mod)), float(np.max(mod))
            if least == 0:
                return None
            if exponent < 0:
                mod, least, most = 1.0 / mod, 1.0 / most, 1.0 / least
            top *= max(1.0, most)
            bottom *= min(1.0, least)
            if kind == "k":
                k_mod = k_mod * mod
            else:
                x_mod = x_mod * mod
    if not (top < _SPLIT_LIMIT and bottom > 1.0 / _SPLIT_LIMIT):
        return None
    if not np.min(x_mod) * np.min(k_mod) * (1 - _SPLIT_MARGIN) > TOL_ELL:
        return None
    rows_lo = np.flatnonzero(x_mod <= np.min(x_mod) * (1 + _SPLIT_MARGIN))
    cols_lo = np.flatnonzero(k_mod <= np.min(k_mod) * (1 + _SPLIT_MARGIN))
    rows_hi = np.flatnonzero(x_mod >= np.max(x_mod) * (1 - _SPLIT_MARGIN))
    cols_hi = np.flatnonzero(k_mod >= np.max(k_mod) * (1 - _SPLIT_MARGIN))
    if (rows_lo.size * cols_lo.size + rows_hi.size * cols_hi.size
            > ELL_BLOCK_POINTS):
        return None

    def ratios(rows, cols):
        vals = eval_on_grid(expr, x_arr[rows, None, :], xi_c[None, cols, :])
        ratio = np.abs(vals)
        ratio *= scale[cols]
        return ratio

    low = ratios(rows_lo, cols_lo)
    # row-major: the earliest x sample, then the earliest frequency
    i, j = np.unravel_index(np.argmin(low), low.shape)
    c2 = float(np.max(ratios(rows_hi, cols_hi)))
    return float(low[i, j]), c2, int(rows_lo[i]), int(cols_lo[j])


def eval_blocks(expr: SymbolExpr, x_arr: np.ndarray, xi_c: np.ndarray):
    """Yield (block, values) for consecutive slices ``block`` that cover
    the frequencies xi_c (F, m): the expression at every row of x_arr
    (J, m) against xi_c[block], of shape (J, len(xi_c[block])).

    One :func:`eval_on_grid` call per block, so subexpressions of xi alone
    are computed once per frequency and those of x alone once per block.
    A block holds at most ``ELL_BLOCK_POINTS`` points (one frequency per x
    sample if there are more samples); a caller that drops each block's
    values before asking for the next keeps one block alive at a time.
    The values are those of one evaluation per x sample, and an
    evaluation error is that of the first failing x sample (see
    :func:`_eval_block`).

    Its callers are the ellipticity sweep, which :func:`check_ellipticity`
    runs only for a symbol its factor split leaves to it, and the frozen
    families of :mod:`symstrat.lattice`.  The split's candidate rectangles
    are evaluated with the same broadcast layout as one block here, so
    they read the same bits.
    """
    cols = max(1, ELL_BLOCK_POINTS // x_arr.shape[0])
    for start in range(0, xi_c.shape[0], cols):
        block = slice(start, start + cols)
        yield block, _eval_block(expr, x_arr, xi_c, block)


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


def fit_order(s: Symbol, ray, radii, x0=None):
    """Least-squares slopes of log|a(x0, r*ray)| against log(1+r), for
    one ray (m,) or several (R, m) at one x0 (m,), the origin by default,
    or several (J, m): shape (J, R) less a single point's or ray's axis,
    a float for one of each, from one evaluation.  At least 8 radii
    spanning three decades are required."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 8:
        raise GridError(f"need >= 8 radii, got {radii.size}")
    if np.min(radii) <= 0 or np.max(radii) / np.min(radii) < 1.0e3:
        raise GridError("radii must be positive and span >= 3 decades")
    rays = np.asarray(ray, dtype=float)
    nrm = np.linalg.norm(rays, axis=-1, keepdims=True)
    if np.any(nrm == 0):
        raise GridError("ray must be a nonzero direction")
    rays = rays / nrm
    x0 = np.zeros(s.dim) if x0 is None else np.asarray(x0, dtype=float)
    # points (..x0, ..ray, radius): x0 (..x0, 1.., 1, m), xi (..ray, radius, m)
    x = x0.reshape(x0.shape[:-1] + (1,) * rays.ndim + (s.dim,))
    xi = rays[..., None, :] * radii[:, None]
    vals = np.abs(eval_on_grid(s.expr, x, xi.astype(complex)))
    if np.any(vals < 1e-300):
        at = tuple(np.argwhere(vals < 1e-300)[0])
        ray_at, x_at = (np.broadcast_to(v, vals.shape + (s.dim,))[at].tolist()
                        for v in (rays[..., None, :], x))
        raise DegenerateFit(f"symbol vanishes along the ray {ray_at} at "
                            f"radius {float(radii[at[-1]])}, x={x_at}: "
                            "|a| < 1e-300")
    logs = np.log(vals).reshape(-1, radii.size).T
    slopes = np.polyfit(np.log1p(radii), logs, 1)[0].reshape(vals.shape[:-1])
    return float(slopes) if slopes.ndim == 0 else slopes


ORDER_RADII = np.logspace(1, 4, 12)
TOL_ORDER = 0.1


def check_order(s: Symbol, x_samples) -> dict:
    """{"rays", "orders", "tol_order"}: the :func:`fit_order` orders
    along each frequency axis and the diagonal, a row per fitted x sample;
    OrderMismatch where one is more than TOL_ORDER from alpha, which the
    bounded ellipticity grid cannot see.  With no mixed factor
    (``product_factors``) the x factors shift log|a| by a constant, which
    no slope sees, so the first x sample stands for all."""
    x_arr = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if all(kind != "mixed" for _, _, kind in product_factors(s.expr)):
        x_arr = x_arr[:1]
    rays = np.vstack([np.eye(s.dim), np.ones(s.dim) / math.sqrt(s.dim)])
    orders = fit_order(s, rays, ORDER_RADII, x_arr)
    bad = np.argwhere(np.abs(orders - s.order_alpha) > TOL_ORDER)
    if bad.size:
        j, r = bad[0]
        raise OrderMismatch(
            f"fitted order {orders[j, r]:.3f} along the ray "
            f"{rays[r].tolist()} at x={x_arr[j].tolist()} differs from the "
            f"declared order alpha={s.order_alpha:g} by more than {TOL_ORDER}")
    return {"rays": rays.tolist(), "orders": orders.tolist(),
            "tol_order": TOL_ORDER}
