"""Polyhedral cones, canonical domains, model stratifications, coverings.

Cones are polyhedral with rational generators, so duals and membership are
exact.  The dual here is the closed dual  {y : x.y >= 0 for all x in C};
the strictly-positive variant is its interior and is recorded as metadata
rather than computed separately.

Model domains (unit square, unit cube, one corner of the plane) come with
a stratification of their boundary into vertices, edges, faces and the
interior, each stratum carrying the canonical domain of its type: full
space for the interior, half-space for top-dimensional boundary pieces,
and wedge = R^k x cone for everything of lower dimension.

The covering construction is stage-ordered: vertices are covered first,
then each higher-dimensional stratum on whatever the earlier stages left
uncovered, and finally the interior.  Bump functions on the covering balls
are normalized to a partition of unity.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
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

TOL_CONE = 1e-12    # Cone.contains, relative to the point's and normals' scale


def _to_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        if float(v).is_integer():
            return Fraction(int(v))
        return Fraction(v).limit_denominator(10 ** 9)
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

    def halfspaces(self) -> tuple:
        """Facet normals: the generators of the dual cone (exact)."""
        return dual_cone(self).generators

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        scale = max(1.0, float(np.max(np.abs(p))))
        for n_vec in self.halfspaces():
            n_arr = np.array([float(v) for v in n_vec])
            if float(np.dot(n_arr, p)) < -TOL_CONE * scale * max(
                    1.0, float(np.max(np.abs(n_arr)))):
                return False
        return True

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "generators": [[str(v) for v in g] for g in self.generators]}


def orthant(dim: int) -> Cone:
    """The closed first orthant in the given dimension."""
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    return Cone.make(eye)


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

    def membership_mask(self, points: np.ndarray) -> np.ndarray:
        """Closed-domain membership of an array of points, shape (P, m)."""
        points = np.asarray(points, dtype=float)
        if self.kind == FULL_SPACE:
            return np.ones(points.shape[0], dtype=bool)
        if self.kind == HALF_SPACE:
            return points[:, -1] > 0
        tail = points[:, self.k:]
        normals = self.cone.halfspaces()
        mask = np.ones(points.shape[0], dtype=bool)
        for n_vec in normals:
            n_arr = np.array([float(v) for v in n_vec])
            mask &= tail @ n_arr >= -1e-12
        return mask

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.kind == WEDGE:
            out["k"] = self.k
            out["cone"] = self.cone.to_dict()
        return out


# --------------------------------------------------------------------------
# Stratifications of the model domains

@dataclass
class Stratum:
    k: int                      # dimension of the stratum
    label: str
    sample_points: np.ndarray   # (n, m)
    domain: CanonicalDomain


@dataclass
class Stratification:
    model: str
    dim: int
    strata: list
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


# distance of boundary samples from lower-dimensional strata, and boundary
# samples per component and per space dimension
DELTA_STRAT = 0.025
SAMPLES_PER_DIM = 100


def _segment_samples(p0, p1, n):
    """n points on the segment p0->p1 keeping DELTA_STRAT away from both
    ends."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = np.linalg.norm(p1 - p0)
    t = np.linspace(DELTA_STRAT / length, 1 - DELTA_STRAT / length, n)
    return p0[None, :] + t[:, None] * (p1 - p0)[None, :]


def _face_samples(origin, u_dir, v_dir, n_u, n_v):
    origin = np.asarray(origin, float)
    u_dir = np.asarray(u_dir, float)
    v_dir = np.asarray(v_dir, float)
    tu = np.linspace(DELTA_STRAT, 1 - DELTA_STRAT, n_u)
    tv = np.linspace(DELTA_STRAT, 1 - DELTA_STRAT, n_v)
    uu, vv = np.meshgrid(tu, tv, indexing="ij")
    return (origin[None, :] + uu.ravel()[:, None] * u_dir[None, :]
            + vv.ravel()[:, None] * v_dir[None, :])


def _grid_samples(dim, n_per_axis):
    axes = [np.linspace(DELTA_STRAT, 1 - DELTA_STRAT, n_per_axis)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def stratify_model(domain: str, m: int) -> Stratification:
    """Stratified boundary of a supported model domain.

    Supported models: ``"cube"`` (m=3, unit cube), ``"square"`` (m=2, unit
    square) and ``"wedge2d"`` (m=2, one corner of the plane, truncated to
    the unit square for sampling).  Boundary sample points keep distance
    DELTA_STRAT from lower-dimensional strata, and each boundary component
    gets about SAMPLES_PER_DIM * m of them; the interior is sampled on a
    grid dense enough to anchor covering balls at small radii.
    """
    if domain == "cube":
        if m != 3:
            raise UnsupportedModelError(f"cube model requires m=3, got {m}")
        return _stratify_cube()
    if domain == "square":
        if m != 2:
            raise UnsupportedModelError(f"square model requires m=2, got {m}")
        return _stratify_square()
    if domain == "wedge2d":
        if m != 2:
            raise UnsupportedModelError(f"wedge2d model requires m=2, got {m}")
        return _stratify_wedge2d()
    raise UnsupportedModelError(f"unknown model domain {domain!r}")


def _stratify_square():
    m = 2
    n_edge = SAMPLES_PER_DIM * m
    strata = []
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    quadrant = orthant(2)
    for idx, c in enumerate(corners):
        strata.append(Stratum(0, f"vertex-{idx}", np.array([c]),
                              CanonicalDomain.wedge(m, 0, quadrant)))
    edges = [((0, 0), (1, 0)), ((1, 0), (1, 1)),
             ((1, 1), (0, 1)), ((0, 1), (0, 0))]
    for idx, (p0, p1) in enumerate(edges):
        strata.append(Stratum(1, f"edge-{idx}",
                              _segment_samples(p0, p1, n_edge),
                              CanonicalDomain.half_space(m)))
    interior = _grid_samples(2, 49)
    strata.append(Stratum(2, "interior", interior,
                          CanonicalDomain.full_space(m)))
    return Stratification("square", m, strata, DELTA_STRAT, min_separation=1.0)


def _stratify_cube():
    m = 3
    n_edge = SAMPLES_PER_DIM * m
    n_face = int(math.ceil(math.sqrt(SAMPLES_PER_DIM * m)))
    strata = []
    octant = orthant(3)
    quarter = orthant(2)
    corners = list(itertools.product((0.0, 1.0), repeat=3))
    for idx, c in enumerate(corners):
        strata.append(Stratum(0, f"vertex-{idx}", np.array([c]),
                              CanonicalDomain.wedge(m, 0, octant)))
    edge_idx = 0
    for axis in range(3):
        fixed = [a for a in range(3) if a != axis]
        for vals in itertools.product((0.0, 1.0), repeat=2):
            p0 = np.zeros(3)
            p1 = np.zeros(3)
            p1[axis] = 1.0
            for a, v in zip(fixed, vals):
                p0[a] = v
                p1[a] = v
            strata.append(Stratum(1, f"edge-{edge_idx}",
                                  _segment_samples(p0, p1, n_edge),
                                  CanonicalDomain.wedge(m, 1, quarter)))
            edge_idx += 1
    face_idx = 0
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for side in (0.0, 1.0):
            origin = np.zeros(3)
            origin[axis] = side
            u_dir = np.zeros(3)
            u_dir[others[0]] = 1.0
            v_dir = np.zeros(3)
            v_dir[others[1]] = 1.0
            strata.append(Stratum(2, f"face-{face_idx}",
                                  _face_samples(origin, u_dir, v_dir,
                                                n_face, n_face),
                                  CanonicalDomain.half_space(m)))
            face_idx += 1
    interior = _grid_samples(3, 21)
    strata.append(Stratum(3, "interior", interior,
                          CanonicalDomain.full_space(m)))
    return Stratification("cube", m, strata, DELTA_STRAT, min_separation=1.0)


def _stratify_wedge2d():
    m = 2
    n_edge = SAMPLES_PER_DIM * m
    quadrant = orthant(2)
    strata = [
        Stratum(0, "vertex-0", np.array([(0.0, 0.0)]),
                CanonicalDomain.wedge(m, 0, quadrant)),
        Stratum(1, "edge-0", _segment_samples((0, 0), (1, 0), n_edge),
                CanonicalDomain.half_space(m)),
        Stratum(1, "edge-1", _segment_samples((0, 0), (0, 1), n_edge),
                CanonicalDomain.half_space(m)),
        Stratum(2, "interior", _grid_samples(2, 49),
                CanonicalDomain.full_space(m)),
    ]
    # all stratum closures meet at the corner: no disjoint pair
    return Stratification("wedge2d", m, strata, DELTA_STRAT,
                          min_separation=math.inf)


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
    stages: dict = field(default_factory=dict)   # stage k -> list of Ball

    def centers_array(self) -> np.ndarray:
        return np.array([b.center for b in self.balls])

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "n_balls": len(self.balls),
            "stages": {str(k): [list(b.center) for b in bs]
                       for k, bs in sorted(self.stages.items())},
        }


def _dists_to_centers(points, centers):
    if len(centers) == 0:
        return np.full(points.shape[0], np.inf)
    c = np.asarray(centers, float)
    return np.sqrt(((points[:, None, :] - c[None, :, :]) ** 2).sum(-1)).min(axis=1)


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

    all_centers = []
    stages = {}
    balls = []
    for k in sorted({st.k for st in s.strata}):
        stage_balls = []
        stage_pts = [st.sample_points for st in s.strata if st.k == k]
        if not stage_pts:
            continue
        pts = np.concatenate(stage_pts, axis=0)
        # distances to the earlier-stage centers, and a running minimum
        # over every center so far, updated once per new ball
        d_earlier = _dists_to_centers(pts, all_centers)
        d_all = d_earlier.copy()
        for idx in np.lexsort(pts.T[::-1]):
            if d_all[idx] < _GREEDY_SLACK * eps:
                continue
            if d_earlier[idx] <= eps:
                # strictly inside an earlier-stage ball: covered there,
                # ineligible as a center for this stage
                continue
            p = pts[idx]
            all_centers.append(p)
            d_all = np.minimum(d_all, _dists_to_centers(pts, [p]))
            stage_balls.append(Ball(tuple(float(v) for v in p), eps, k))
        stages[k] = stage_balls
        balls.extend(stage_balls)

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
            d_p = np.sqrt(((cand - p[None, :]) ** 2).sum(-1))
            ok = (d_p < _GREEDY_SLACK * eps) & eligible
            if not np.any(ok):
                raise CoverageError(
                    f"point {p.tolist()} cannot be covered at eps={eps}: "
                    "no eligible interior center nearby")
            q = cand[np.flatnonzero(ok)[int(np.argmin(d_p[ok]))]]
            ball = Ball(tuple(float(v) for v in q), eps, k_top)
            balls.append(ball)
            stages.setdefault(k_top, []).append(ball)
            d_cover = np.minimum(d_cover, _dists_to_centers(cover_points, [q]))

    cov = Covering(eps=float(eps), balls=balls, stages=stages)
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
    ball."""

    covering: Covering
    grid_points: np.ndarray
    f_values: np.ndarray        # (J, P)
    g_values: np.ndarray        # (J, P)

    def evaluate_f(self, points, outside: str = "error") -> np.ndarray:
        """Normalized bumps at arbitrary points.  Uncovered points raise
        ZeroDivisionError with outside="error" (the partition contract) or
        get all-zero bumps with outside="zero" (for operators assembled on
        a grid larger than the covered domain).  At the partition's own
        grid points this is the stored f_values, read-only."""
        points = np.atleast_2d(np.asarray(points, float))
        if np.array_equal(points, self.grid_points):
            return _read_only(self.f_values)
        phi = _raw_bumps(self.covering, points)
        total = phi.sum(axis=0)
        uncovered = total == 0
        if np.any(uncovered):
            if outside == "error":
                raise ZeroDivisionError(
                    "partition of unity undefined: point not covered by "
                    "any ball")
            total = np.where(uncovered, 1.0, total)
        return phi / total[None, :]

    def evaluate_g(self, points) -> np.ndarray:
        """Plateaus at arbitrary points; the stored g_values, read-only, at
        the partition's own grid points."""
        points = np.atleast_2d(np.asarray(points, float))
        if np.array_equal(points, self.grid_points):
            return _read_only(self.g_values)
        return _plateaus(self.covering, points)


def _read_only(values):
    view = values.view()
    view.flags.writeable = False
    return view


def _raw_bumps(covering, points):
    centers = covering.centers_array()
    eps = covering.eps
    d = np.sqrt(((points[None, :, :] - centers[:, None, :]) ** 2).sum(-1))
    return _bump(d / eps)


def _plateaus(covering, points):
    centers = covering.centers_array()
    eps = covering.eps
    d = np.sqrt(((points[None, :, :] - centers[:, None, :]) ** 2).sum(-1))
    g = np.zeros_like(d)
    g[d <= eps] = 1.0
    ring = (d > eps) & (d < 2 * eps)
    g[ring] = _transition((d[ring] - eps) / eps)
    return g


def partition_of_unity(c: Covering, grid) -> PartitionOfUnity:
    """Partition of unity on the grid: f_j = phi_j / sum_l phi_l with phi_j
    a smooth bump on ball j, and g_j = 1 on the eps-ball decaying to 0 on
    the doubled ball.

    ``grid`` is an array of points, shape (P, m), or any object exposing
    ``points()`` returning one.  Raises ZeroDivisionError if some grid
    point is uncovered (which surfaces an earlier covering failure).
    """
    if hasattr(grid, "points"):
        pts = np.asarray(grid.points(), dtype=float)
    else:
        pts = np.atleast_2d(np.asarray(grid, dtype=float))
    phi = _raw_bumps(c, pts)
    total = phi.sum(axis=0)
    if np.any(total == 0):
        bad = int(np.argmax(total == 0))
        raise ZeroDivisionError(
            f"grid point {pts[bad].tolist()} is not covered by any ball "
            f"(eps={c.eps}); rebuild the covering with this grid as cover "
            "points")
    f_vals = phi / total[None, :]
    g_vals = _plateaus(c, pts)
    return PartitionOfUnity(c, pts, f_vals, g_vals)
