"""Polyhedral cones, canonical domains, model stratifications, coverings.

Cones are polyhedral with rational generators, so duals and pointedness
are exact.  The dual here is the closed dual  {y : x.y >= 0 for all x in C};
the strictly-positive variant is its interior and is recorded as metadata
rather than computed separately.

Model domains (unit square, unit cube, one corner of the plane) are
stratified by the faces of the box [0, 1]^m, each stratum carrying its
canonical domain: full space for the interior, half-space for faces of
codimension 1, and otherwise a wedge on the box's tangent cone there, the
signed orthant of the fixed axes written in those axes in ascending order
(the stratum's normal coordinates).  ``CanonicalDomain.wedge``'s R^k x C
is that model with the free axes moved first.

The covering construction is stage-ordered: vertices are covered first,
then each higher-dimensional stratum on whatever the earlier stages left
uncovered, and finally the interior.  Bump functions on the covering balls
are normalized to a partition of unity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (CoverageError, DegenerateConeError, UnsupportedModelError)

__all__ = [
    "Cone", "CanonicalDomain", "Stratum", "Stratification",
    "Ball", "Covering", "PartitionOfUnity",
    "dual_cone", "stratify_model", "build_covering", "partition_of_unity",
    "orthant",
]


# --------------------------------------------------------------------------
# Cones

def _to_fraction(v):
    """A generator entry as an exact rational.  A float becomes the nearest
    fraction with denominator at most 10**9, so 0.3333333333 is 1/3; one
    that is not finite, or that this moves by more than 1e-9 of its
    magnitude (1e-12 would become 0), is refused with ValueError."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cone generator entry {v!r} is not finite")
        if v.is_integer():
            return Fraction(int(v))
        out = Fraction(v).limit_denominator(10 ** 9)
        if abs(float(out) - v) > 1e-9 * abs(v):
            raise ValueError(f"cone generator entry {v!r} has no rational "
                             f"with denominator at most 10**9 within 1e-9 "
                             f"of its magnitude")
        return out
    raise TypeError(f"cannot convert {v!r} to a rational")


@dataclass(frozen=True)
class Cone:
    """Convex polyhedral cone spanned by rational generator rays."""

    dim: int
    generators: tuple

    @staticmethod
    def make(generators) -> "Cone":
        gens = tuple(tuple(_to_fraction(v) for v in g) for g in generators)
        if not gens:
            raise DegenerateConeError("cone needs at least one generator")
        dim = len(gens[0])
        for g in gens:
            if len(g) != dim:
                raise DegenerateConeError("generators of mixed dimension")
            if all(v == 0 for v in g):
                raise DegenerateConeError("zero generator")
        return Cone(dim, gens)

    def generator_array(self) -> np.ndarray:
        return np.array([[float(v) for v in g] for g in self.generators])

    def rank(self) -> int:
        return self.dim - len(_rational_nullspace(self.generators,
                                                  self.dim))

    def is_full_dimensional(self) -> bool:
        return self.rank() == self.dim

    @lru_cache(maxsize=None)
    def is_pointed(self) -> bool:
        """No line contained in the cone, decided exactly (Gordan's
        alternative): the cone is pointed iff some y has g.y > 0 for every
        generator g.  Memoized per cone, which is frozen and hashable, as
        :func:`dual_cone` is.

        Such a y can be sought in the span V of the generators, where the
        dual {y in V : g.y >= 0 for all g} is pointed and so generated by
        its extreme rays, each cut out in V by rank - 1 independent
        generator hyperplanes.  The sum of every such ray that lies in the
        dual is in its relative interior, which meets {g.y > 0 for all g}
        iff the cone is pointed.
        """
        gens = [list(g) for g in self.generators]
        perp = _rational_nullspace(gens, self.dim)     # V's complement
        y = [Fraction(0)] * self.dim
        for ray in _dual_rays(gens, self.dim, perp):
            y = [a + b for a, b in zip(y, ray)]
        return all(_dot(g, y) > 0 for g in gens)

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "generators": [[str(v) for v in g] for g in self.generators]}


def orthant(dim: int) -> Cone:
    """The closed first orthant in the given dimension."""
    return _signed_orthant((1,) * dim)


@lru_cache(maxsize=None)
def _signed_orthant(signs) -> Cone:
    """The closed orthant {x : s_i x_i >= 0}, spanned by the s_i e_i: the
    tangent cone of [0, 1]^n at the corner with 0 where s_i = +1 and 1
    where s_i = -1.  Built once per sign pattern, as :func:`dual_cone`
    and :meth:`Cone.is_pointed` are memoized."""
    return Cone.make([[s * int(i == j) for j in range(len(signs))]
                      for i, s in enumerate(signs)])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _dual_rays(gens, dim, perp=()):
    """Candidate extreme rays of the dual {y : g.y >= 0 for all g}: each
    line cut out by dim - len(perp) - 1 generator hyperplanes together
    with the rows of ``perp``, with whichever of its two directions lies
    in the dual (possibly both, possibly neither)."""
    for subset in itertools.combinations(gens, dim - len(perp) - 1):
        null = _rational_nullspace(list(subset) + list(perp), dim)
        if len(null) != 1:
            continue
        for ray in (null[0], [-v for v in null[0]]):
            if all(_dot(g, ray) >= 0 for g in gens):
                yield ray


def _rational_nullspace(rows, dim):
    """Nullspace basis of a rational matrix with `dim` columns (exact)."""
    mat = [list(r) for r in rows]
    n_rows = len(mat)
    pivots = {}
    row = 0
    for col in range(dim):
        pivot = None
        for r in range(row, n_rows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [a / pv for a in mat[row]]
        for r in range(n_rows):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots[col] = row
        row += 1
    basis = []
    free_cols = [c for c in range(dim) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    denoms = [v.denominator for v in vec]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // math.gcd(lcm, d)
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g == 0:
        raise DegenerateConeError("zero direction")
    return tuple(Fraction(v // g) for v in ints)


@lru_cache(maxsize=None)
def dual_cone(c: Cone) -> Cone:
    """Generators of the closed dual cone {y : x.y >= 0 for all x in C}.

    Exact polyhedral duality at small dimension: extreme rays of the dual
    are found on intersections of dim-1 generator hyperplanes.  Requires a
    pointed, full-dimensional cone of dimension <= 4.
    """
    if c.dim > 4:
        raise DegenerateConeError(f"dual computation limited to dim <= 4, got {c.dim}")
    if not c.is_full_dimensional():
        raise DegenerateConeError("cone is not full-dimensional")
    if not c.is_pointed():
        raise DegenerateConeError("cone contains a line")
    gens = [list(g) for g in c.generators]
    rays = {_primitive(ray) for ray in _dual_rays(gens, c.dim)}
    if not rays:
        raise DegenerateConeError("dual cone has no extreme rays")
    ordered = tuple(sorted(rays, key=lambda r: [float(v) for v in r]))
    return Cone(c.dim, ordered)


# --------------------------------------------------------------------------
# Canonical domains

FULL_SPACE = "full-space"
HALF_SPACE = "half-space"
WEDGE = "wedge"


@dataclass(frozen=True)
class CanonicalDomain:
    """One of: full space R^m, half-space {x_m > 0}, or the wedge
    R^k x C^(m-k) with C a pointed cone."""

    kind: str
    dim: int
    k: int | None = None
    cone: Cone | None = None

    @staticmethod
    def full_space(dim: int) -> "CanonicalDomain":
        return CanonicalDomain(FULL_SPACE, dim)

    @staticmethod
    def half_space(dim: int) -> "CanonicalDomain":
        return CanonicalDomain(HALF_SPACE, dim)

    @staticmethod
    def wedge(dim: int, k: int, cone: Cone) -> "CanonicalDomain":
        if not (0 <= k <= dim - 2):
            raise ValueError(f"wedge needs 0 <= k <= m-2, got k={k}, m={dim}")
        if cone.dim != dim - k:
            raise ValueError(
                f"wedge cone dimension {cone.dim} != m-k = {dim - k}")
        if not cone.is_pointed():
            raise DegenerateConeError("wedge factor cone must be pointed")
        return CanonicalDomain(WEDGE, dim, k, cone)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.kind == WEDGE:
            out["k"] = self.k
            out["cone"] = self.cone.to_dict()
        return out


# --------------------------------------------------------------------------
# Stratifications of the model domains

@dataclass(frozen=True)
class Stratum:
    k: int                      # dimension of the stratum
    label: str
    sample_points: np.ndarray   # (n, m), read-only
    domain: CanonicalDomain


@dataclass(frozen=True, eq=False)
class Stratification:
    """The strata of a model domain.  :func:`stratify_model` shares one
    per model and process, so it is frozen, ``strata`` is a tuple and each
    ``sample_points`` array is read-only: a change raises, not corrupts.
    It compares and hashes by identity, so caches can key on it."""

    model: str
    dim: int
    strata: tuple
    delta_strat: float
    min_separation: float       # min distance between disjoint closed strata

    def counts(self) -> dict:
        out = {}
        for s in self.strata:
            out[s.k] = out.get(s.k, 0) + 1
        return out

    def boundary_strata(self):
        return [s for s in self.strata if s.k < self.dim]

    def interior(self) -> Stratum:
        return next(s for s in self.strata if s.k == self.dim)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "dim": self.dim,
            "delta_strat": self.delta_strat,
            "counts": {str(k): v for k, v in sorted(self.counts().items())},
            "strata": [
                {"k": s.k, "label": s.label,
                 "n_samples": int(s.sample_points.shape[0]),
                 "domain": s.domain.to_dict()}
                for s in self.strata
            ],
        }


# distance of boundary samples from lower-dimensional strata, and boundary
# samples per component and per space dimension
DELTA_STRAT = 0.025
SAMPLES_PER_DIM = 100

# Per model: dimension m, interior grid points per axis, and the minimal
# distance between disjoint closed strata (none on wedge2d: every stratum
# closure meets the corner)
_MODELS = {"square": (2, 49, 1.0), "cube": (3, 21, 1.0),
           "wedge2d": (2, 49, math.inf)}
# the square's corners counter-clockwise: edge i runs from corner i to i+1
_SQUARE_WALK = ((0, 0), (1, 0), (1, 1), (0, 1))


def _box_faces(m):
    """Faces of [0, 1]^m, m <= 3, as (corner, free) with free the (axis,
    sign) of each free axis: the vertices, the edges along each axis, the
    faces normal to each axis if m = 3, and the box.  Corners come in
    product order, with 0 on the free axes."""
    groups = [()] + [(a,) for a in range(m)]
    if m > 2:
        groups += [tuple(b for b in range(m) if b != a) for a in range(m)]
    groups.append(tuple(range(m)))
    faces = []
    for free in groups:
        fixed = [b for b in range(m) if b not in free]
        for vals in itertools.product((0, 1), repeat=len(fixed)):
            corner = dict(zip(fixed, vals))
            faces.append((tuple(corner.get(b, 0) for b in range(m)),
                          tuple((b, 1) for b in free)))
    return faces


def _face_stratum(corner, free, m, n_interior, label):
    """Samples linspace(DELTA_STRAT, 1-DELTA_STRAT) from the corner along
    each free axis, and the canonical domain: below codimension 1, the
    wedge on the box's tangent cone, the orthant signed +1 where a fixed
    coordinate is 0 and -1 where it is 1."""
    k = len(free)
    n = n_interior if k == m else (
        math.ceil((SAMPLES_PER_DIM * m) ** (1 / k)) if k else 1)
    t = np.linspace(DELTA_STRAT, 1 - DELTA_STRAT, n)
    pts = np.tile(np.asarray(corner, float), (n ** k, 1))
    for (axis, sign), g in zip(free, np.meshgrid(*[t] * k, indexing="ij")):
        pts[:, axis] = corner[axis] + sign * g.ravel()
    if k == m:
        dom = CanonicalDomain.full_space(m)
    elif k == m - 1:
        dom = CanonicalDomain.half_space(m)
    else:
        free_axes = {a for a, _ in free}
        signs = tuple(1 - 2 * c for b, c in enumerate(corner)
                      if b not in free_axes)
        dom = CanonicalDomain.wedge(m, k, _signed_orthant(signs))
    pts.flags.writeable = False
    return Stratum(k, label, pts, dom)


def stratify_model(domain: str, m: int) -> Stratification:
    """Stratified boundary of a supported model domain.

    Supported models: ``"cube"`` (m=3, unit cube), ``"square"`` (m=2, unit
    square) and ``"wedge2d"`` (m=2, one corner of the plane, truncated to
    the unit square for sampling: the square's faces through the origin).
    Each stratum is a face of [0, 1]^m and carries its tangent cone, with
    generators written in the fixed axes in ascending order.  Boundary
    sample points keep distance DELTA_STRAT from lower-dimensional strata,
    and each boundary component gets about SAMPLES_PER_DIM * m of them;
    the interior is sampled on a grid dense enough to anchor covering
    balls at small radii.

    Built once per (domain, m) and process: every call returns the same
    read-only object, and a refused model raises on every call.  The
    cache is ``_stratification``'s, so that a tracer still sees each call.
    """
    return _stratification(domain, m)


@lru_cache(maxsize=None)
def _stratification(domain: str, m: int) -> Stratification:
    """:func:`stratify_model`'s cache; ``__wrapped__`` builds afresh."""
    if domain not in _MODELS:
        raise UnsupportedModelError(f"unknown model domain {domain!r}")
    dim, n_interior, min_separation = _MODELS[domain]
    if m != dim:
        raise UnsupportedModelError(
            f"{domain} model requires m={dim}, got {m}")
    faces = _box_faces(m)
    if domain == "wedge2d":
        faces = [f for f in faces if not any(f[0])]
    elif domain == "square":
        walk = _SQUARE_WALK
        faces = ([(c, ()) for c in walk]
                 + [(c, ((a, d[a] - c[a]),))
                    for c, d in zip(walk, walk[1:] + walk[:1])
                    for a in range(m) if c[a] != d[a]]
                 + faces[-1:])
    strata = []
    counts = [0] * m
    for corner, free in faces:
        k = len(free)
        label = "interior"
        if k < m:
            label = f"{('vertex', 'edge', 'face')[k]}-{counts[k]}"
            counts[k] += 1
        strata.append(_face_stratum(corner, free, m, n_interior, label))
    return Stratification(domain, m, tuple(strata), DELTA_STRAT,
                          min_separation)


# --------------------------------------------------------------------------
# Coverings

# Greedy coverage uses this fraction of eps when deciding whether a sample
# still needs its own ball; the remaining margin guarantees that points
# near a covered sample are strictly inside some ball.
_GREEDY_SLACK = 0.75


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float
    stage: int


@dataclass
class Covering:
    eps: float
    balls: list

    def centers_array(self) -> np.ndarray:
        return np.array([b.center for b in self.balls])


def _sq_dists(points, centers):
    """Squared distances from each point (P, m) to each center (C, m),
    shape (P, C), summed one coordinate at a time."""
    out = (points[:, None, 0] - centers[None, :, 0]) ** 2
    for a in range(1, points.shape[1]):
        out += (points[:, None, a] - centers[None, :, a]) ** 2
    return out


def _dists_to_centers(points, centers):
    """Distance from each point to its nearest center (inf without any);
    the minimum is taken before the square root, which is monotone."""
    if len(centers) == 0:
        return np.full(points.shape[0], np.inf)
    return np.sqrt(_sq_dists(points, np.asarray(centers, float)).min(axis=1))


def build_covering(s: Stratification, eps: float, cover_points=None) -> Covering:
    """Stage-ordered greedy ball covering of the stratified model.

    Stage k picks centers among the dimension-k sample points that lie
    strictly outside every earlier-stage ball, lowest dimension first.  If
    ``cover_points`` is given, a final interior pass adds balls until each
    of those points is strictly covered; failure raises CoverageError.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if not (eps < s.min_separation / 2):
        raise ValueError(
            f"eps={eps} must be < half the minimal stratum separation "
            f"{s.min_separation}")

    balls = []
    for k in sorted({st.k for st in s.strata}):
        pts = np.concatenate(
            [st.sample_points for st in s.strata if st.k == k], axis=0)
        # distances to the earlier-stage centers, and a running minimum
        # over every center so far, updated once per new ball
        d_earlier = _dists_to_centers(pts, [b.center for b in balls])
        d_all = d_earlier.copy()
        for idx in np.lexsort(pts.T[::-1]):
            if d_all[idx] < _GREEDY_SLACK * eps:
                continue
            if d_earlier[idx] <= eps:
                # strictly inside an earlier-stage ball: covered there,
                # ineligible as a center for this stage
                continue
            p = pts[idx]
            d_all = np.minimum(d_all, _dists_to_centers(pts, [p]))
            balls.append(Ball(tuple(float(v) for v in p), eps, k))

    if cover_points is not None:
        cover_points = np.atleast_2d(np.asarray(cover_points, float))
        interior = s.interior()
        k_top = interior.k
        cand = interior.sample_points
        eligible = _dists_to_centers(
            cand, [b.center for b in balls if b.stage < k_top]) > eps
        d_cover = _dists_to_centers(cover_points, [b.center for b in balls])
        for i, p in enumerate(cover_points):
            if d_cover[i] < eps:
                continue
            d_p = np.sqrt(_sq_dists(cand, p[None, :])[:, 0])
            ok = (d_p < _GREEDY_SLACK * eps) & eligible
            if not np.any(ok):
                raise CoverageError(
                    f"point {p.tolist()} cannot be covered at eps={eps}: "
                    "no eligible interior center nearby")
            q = cand[np.flatnonzero(ok)[int(np.argmin(d_p[ok]))]]
            balls.append(Ball(tuple(float(v) for v in q), eps, k_top))
            d_cover = np.minimum(d_cover, _dists_to_centers(cover_points, [q]))

    cov = Covering(eps=float(eps), balls=balls)
    centers = cov.centers_array()
    for st in s.strata:
        d = _dists_to_centers(st.sample_points, centers)
        if np.any(d >= eps):
            raise CoverageError(
                f"stratum {st.label!r} has uncovered sample points at "
                f"eps={eps} (sampling too sparse)")
    if cover_points is not None and np.any(d_cover >= eps):
        raise CoverageError(f"requested cover points uncovered at eps={eps}")
    return cov


# --------------------------------------------------------------------------
# Partition of unity

def _bump(t):
    """C-infinity bump profile exp(-1/(1-t^2)) on |t| < 1, 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _transition(u):
    """Smooth 1 -> 0 ramp on [0, 1] (equals 1 at 0 and 0 at 1)."""
    u = np.asarray(u, dtype=float)
    def h(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out
    a = h(1.0 - u)
    b = h(u)
    return a / (a + b)


@dataclass
class PartitionOfUnity:
    """Normalized bumps f_j subordinate to the covering balls, plus plateau
    companions g_j that equal 1 on supp f_j and vanish outside the doubled
    ball, at the points the partition was built on."""

    covering: Covering
    grid_points: np.ndarray
    f_values: np.ndarray        # (J, P)
    g_values: np.ndarray        # (J, P)


def partition_of_unity(c: Covering, points,
                       outside: str = "error") -> PartitionOfUnity:
    """Partition of unity at ``points``, shape (P, m): f_j = phi_j / sum_l
    phi_l with phi_j a smooth bump on ball j, and g_j = 1 on the eps-ball
    decaying to 0 on the doubled ball.  This is the one evaluator of the
    cutoffs; assemble_operator reads the arrays it stores.  Every cutoff is
    computed in whole-array passes over the (J, P) distances from the ball
    centers, which are summed one coordinate at a time.

    A point that no ball covers raises ZeroDivisionError naming it with
    outside="error" (which surfaces an earlier covering failure), or gets
    all-zero bumps with outside="zero" (for operators assembled on a grid
    larger than the covered domain).
    """
    if outside not in ("error", "zero"):
        raise ValueError(f"outside must be 'error' or 'zero', not {outside!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eps = c.eps
    # (J, m) even for an empty covering, whose points are all uncovered
    centers = c.centers_array().reshape(-1, pts.shape[1])
    d = np.sqrt(_sq_dists(centers, pts))
    f_vals = _bump(d / eps)
    total = f_vals.sum(axis=0)
    uncovered = total == 0
    if np.any(uncovered):
        if outside == "error":
            bad = int(np.argmax(uncovered))
            raise ZeroDivisionError(
                f"grid point {pts[bad].tolist()} is not covered by any ball "
                f"(eps={eps}); rebuild the covering with this grid as "
                "cover points")
        total[uncovered] = 1.0
    f_vals /= total
    g_vals = (d <= eps).astype(float)
    ring = (d > eps) & (d < 2 * eps)
    g_vals[ring] = _transition((d[ring] - eps) / eps)
    return PartitionOfUnity(c, pts, f_vals, g_vals)
