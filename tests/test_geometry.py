"""Cones, stratifications, coverings and partitions of unity."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from symstrat.errors import (CoverageError, DegenerateConeError,
                             UnsupportedModelError)
from symstrat.geometry import (Ball, Cone, Covering, build_covering,
                               dual_cone, orthant, partition_of_unity,
                               stratify_model)


def _gens_as_float_set(cone):
    out = set()
    for g in cone.generators:
        arr = np.array([float(v) for v in g])
        arr = arr / np.max(np.abs(arr))
        out.add(tuple(np.round(arr, 12)))
    return out


def _dual_oracle_2d(cone, n_dirs=7200):
    """Brute force: scan the circle for directions with x.y >= 0 against a
    dense sample of the cone, return the two extreme kept directions."""
    gens = cone.generator_array()
    weights = np.linspace(0, 1, 201)[:, None]
    cone_samples = np.concatenate(
        [weights * gens[i] + (1 - weights) * gens[j]
         for i in range(len(gens)) for j in range(len(gens))])
    theta = np.linspace(0, 2 * np.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    keep = np.all(dirs @ cone_samples.T >= -1e-12, axis=1)
    # the kept set is an arc; its endpoints are the extreme dual rays
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return []
    gaps = np.flatnonzero(np.diff(idx) > 1)
    if gaps.size == 0 and (idx[0] != 0 or idx[-1] != n_dirs - 1):
        ends = [idx[0], idx[-1]]
    elif gaps.size == 0:
        # arc wraps through zero
        inside = np.flatnonzero(~keep)
        ends = [(inside[-1] + 1) % n_dirs, (inside[0] - 1) % n_dirs]
    else:
        ends = [idx[gaps[0] + 1], idx[gaps[0]]]
    return [dirs[e] for e in ends]


def test_orthant_self_dual_2d():
    c = orthant(2)
    assert _gens_as_float_set(dual_cone(c)) == _gens_as_float_set(c)


def test_orthant_self_dual_3d():
    c = orthant(3)
    assert _gens_as_float_set(dual_cone(c)) == _gens_as_float_set(c)


def test_skewed_cone_dual_matches_oracle():
    c = Cone.make([[1, 0], [1, 1]])
    d = dual_cone(c)
    expected = Cone.make([[0, 1], [1, -1]])
    assert _gens_as_float_set(d) == _gens_as_float_set(expected)
    oracle = _dual_oracle_2d(c)
    assert len(oracle) == 2
    got = _gens_as_float_set(d)
    for direction in oracle:
        normalized = tuple(np.round(direction / np.max(np.abs(direction)), 12))
        # oracle directions live on a discrete circle; compare loosely
        assert any(np.allclose(normalized, g, atol=1e-3) for g in got)


def test_double_dual_round_trip():
    cones = [orthant(2), orthant(3), Cone.make([[1, 0], [1, 1]]),
             Cone.make([[2, 1], [1, 3]]),
             Cone.make([[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]])]
    for c in cones:
        dd = dual_cone(dual_cone(c))
        # generator sets agree up to positive scaling and permutation
        # (for minimally generated inputs)
        assert _gens_as_float_set(dd) <= _gens_as_float_set(c)
        assert len(dd.generators) <= len(c.generators)
        ddd = dual_cone(dd)
        assert _gens_as_float_set(ddd) == _gens_as_float_set(dual_cone(c))


def test_degenerate_cones_rejected():
    with pytest.raises(DegenerateConeError):
        dual_cone(Cone.make([[1, 0], [-1, 0], [0, 1]]))   # contains a line
    with pytest.raises(DegenerateConeError):
        dual_cone(Cone.make([[1, 0]]))                    # not full-dim in 2d
    with pytest.raises(DegenerateConeError):
        Cone.make([[0, 0]])
    with pytest.raises(DegenerateConeError):
        dual_cone(Cone.make([[1, 0, 0, 0, 0],
                             [0, 1, 0, 0, 0],
                             [0, 0, 1, 0, 0],
                             [0, 0, 0, 1, 0],
                             [0, 0, 0, 0, 1]]))           # dim 5 unsupported


@pytest.mark.parametrize("generators, pointed", [
    ([[2, 3]], True),                                   # one ray in 2-D
    ([[1, -1, 2]], True),                               # one ray in 3-D
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], True),          # rank 2 in 3-D
    ([[1, 0], [0, 1], [-1, 0]], False),                 # a half-plane
    ([[1, 2, 0], [-1, -2, 0]], False),                  # a line
    ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
      [0, 0, 0, 0, 1], [1, -1, 2, 0, -1]], True),       # 5-D
    ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
      [1, 1, 1, 1, 0], [-1, -1, -1, -1, 0]], False),    # 5-D, with a line
])
def test_is_pointed_exact(generators, pointed):
    assert Cone.make(generators).is_pointed() is pointed


def test_stratification_does_not_import_scipy_optimize():
    code = ("import sys\n"
            "import symstrat.analysis\n"
            "from symstrat.geometry import stratify_model\n"
            "stratify_model('cube', 3)\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cone_membership_via_halfspaces():
    c = Cone.make([[1, 0], [1, 1]])
    assert c.contains([2, 1])
    assert c.contains([1, 1])
    assert c.contains([1, 0])
    assert not c.contains([0, 1])
    assert not c.contains([-1, 0.5])
    assert c.contains([0, 0])


def test_rational_generators_kept_exact():
    c = Cone.make([[Fraction(1, 3), 0], [1, Fraction(2, 5)]])
    d = dual_cone(c)
    for g in d.generators:
        assert all(isinstance(v, Fraction) for v in g)


# --------------------------------------------------------------------------
# stratifications

def test_cube_stratification_counts():
    s = stratify_model("cube", 3)
    assert s.counts() == {0: 8, 1: 12, 2: 6, 3: 1}


def test_square_stratification_counts():
    s = stratify_model("square", 2)
    assert s.counts() == {0: 4, 1: 4, 2: 1}


def test_wedge2d_stratification_counts():
    s = stratify_model("wedge2d", 2)
    assert s.counts() == {0: 1, 1: 2, 2: 1}


def test_repeated_stratification_decides_pointedness_from_cache():
    stratify_model("cube", 3)
    misses = Cone.is_pointed.cache_info().misses
    stratify_model("cube", 3)
    assert Cone.is_pointed.cache_info().misses == misses


def test_stratification_report_with_nan_is_refused():
    s = stratify_model("square", 2)
    json.loads(s.to_json())
    with pytest.raises(ValueError):
        dataclasses.replace(s, delta_strat=math.nan).to_json()


def test_unsupported_models():
    with pytest.raises(UnsupportedModelError):
        stratify_model("ball", 2)
    with pytest.raises(UnsupportedModelError):
        stratify_model("cube", 2)
    with pytest.raises(UnsupportedModelError):
        stratify_model("square", 3)


def test_canonical_domains_per_stratum():
    s = stratify_model("cube", 3)
    kinds = {}
    for st in s.strata:
        kinds.setdefault(st.k, set()).add(st.domain.kind)
    assert kinds[3] == {"full-space"}
    assert kinds[2] == {"half-space"}
    assert kinds[1] == {"wedge"}
    assert kinds[0] == {"wedge"}
    edge = next(st for st in s.strata if st.k == 1)
    vertex = next(st for st in s.strata if st.k == 0)
    assert edge.domain.cone.dim == 2
    assert vertex.domain.cone.dim == 3


def test_boundary_samples_avoid_lower_strata():
    s = stratify_model("square", 2)
    for st in s.strata:
        if st.k == 1:
            for corner in [(0, 0), (1, 0), (1, 1), (0, 1)]:
                d = np.linalg.norm(st.sample_points - np.array(corner), axis=1)
                assert np.all(d >= s.delta_strat - 1e-12)


def test_stratification_serializes():
    s = stratify_model("square", 2)
    blob = s.to_json()
    assert '"counts"' in blob and '"square"' in blob


# --------------------------------------------------------------------------
# coverings

def test_square_covering_stage_structure():
    s = stratify_model("square", 2)
    cov = build_covering(s, 0.3)
    assert len(cov.stages[0]) == 4          # one ball per corner first
    assert len(cov.stages[1]) > 0           # edges continue the cover
    centers0 = {b.center for b in cov.stages[0]}
    assert centers0 == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_covering_stage_centers_outside_earlier_balls():
    s = stratify_model("cube", 3)
    cov = build_covering(s, 0.2)
    assert sorted(cov.stages) == [0, 1, 2, 3]
    centers = [(np.array(b.center), b.stage) for b in cov.balls]
    for c, stage in centers:
        for c2, stage2 in centers:
            if stage2 < stage:
                assert np.linalg.norm(c - c2) > cov.eps


def test_covering_covers_all_samples():
    s = stratify_model("cube", 3)
    cov = build_covering(s, 0.2)
    centers = cov.centers_array()
    for st in s.strata:
        d = np.sqrt(((st.sample_points[:, None, :]
                      - centers[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert np.all(d < cov.eps)


def test_wedge2d_single_ball_cover():
    s = stratify_model("wedge2d", 2)
    cov = build_covering(s, 2.0)
    assert len(cov.balls) == 1
    assert cov.balls[0].stage == 0
    assert cov.balls[0].center == (0.0, 0.0)


def test_covering_preconditions():
    s = stratify_model("square", 2)
    with pytest.raises(ValueError):
        build_covering(s, 0.0)
    with pytest.raises(ValueError):
        build_covering(s, 0.6)   # >= half the stratum separation


def test_cover_points_guarantee_or_error():
    s = stratify_model("square", 2)
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 65),
                                np.linspace(0, 1, 65), indexing="ij"),
                    -1).reshape(-1, 2)
    cov = build_covering(s, 0.12, cover_points=grid)
    d = np.sqrt(((grid[:, None, :] - cov.centers_array()[None, :, :]) ** 2
                 ).sum(-1)).min(axis=1)
    assert np.all(d < 0.12)
    far = np.array([[5.0, 5.0]])
    with pytest.raises(CoverageError):
        build_covering(s, 0.12, cover_points=far)


def _centers_digest(cov):
    centers = np.ascontiguousarray(cov.centers_array(), dtype="<f8")
    return hashlib.sha256(centers.tobytes()).hexdigest()[:16]


# balls per stage and a digest of every center, in order, as built by the
# greedy covering that recomputed all distances for each candidate point
_SQUARE_COVER_PINS = {
    0.4: ({0: 4, 1: 4, 2: 3}, "fd7d6cdca2fa935f"),
    0.2: ({0: 4, 1: 16, 2: 21}, "8e6aa3fcee2f7d90"),
    0.1: ({0: 4, 1: 44, 2: 121}, "b1bae271733d8df4"),
}


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("eps", sorted(_SQUARE_COVER_PINS))
def test_covering_pinned_centers_on_lattice_cover_points(n, eps):
    ax = np.arange(n) / n
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    cov = build_covering(stratify_model("square", 2), eps, cover_points=grid)
    counts, digest = _SQUARE_COVER_PINS[eps]
    assert {k: len(bs) for k, bs in cov.stages.items()} == counts
    assert _centers_digest(cov) == digest


def test_covering_pinned_centers_with_cover_pass_balls():
    # cover points beyond the wedge's sample box: the final pass adds the
    # interior ball at (0.975, 0.975)
    ax = np.linspace(0, 1, 32) * 1.1 - 0.05
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    s = stratify_model("wedge2d", 2)
    cov = build_covering(s, 0.3, cover_points=grid)
    assert len(build_covering(s, 0.3).balls) == 19
    assert {k: len(bs) for k, bs in cov.stages.items()} == {0: 1, 1: 6, 2: 13}
    assert cov.balls[-1].center == (0.975, 0.975)
    assert _centers_digest(cov) == "19e761c24772c935"


# --------------------------------------------------------------------------
# partitions of unity

def _unit_grid(n):
    ax = np.linspace(0, 1, n)
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)


def test_single_ball_gives_constant_one():
    cov = Covering(eps=2.0, balls=[Ball((0.5, 0.5), 2.0, 0)])
    grid = _unit_grid(9)
    pou = partition_of_unity(cov, grid)
    np.testing.assert_allclose(pou.f_values[0], 1.0, atol=1e-15)
    np.testing.assert_allclose(pou.g_values[0], 1.0, atol=1e-15)


def test_two_ball_midpoint_symmetry():
    cov = Covering(eps=1.0, balls=[Ball((0.0, 0.5), 1.0, 0),
                                   Ball((1.0, 0.5), 1.0, 0)])
    pou = partition_of_unity(cov, np.array([[0.5, 0.5]]))
    assert pou.f_values[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert pou.f_values[1, 0] == pytest.approx(0.5, abs=1e-15)


def test_square_covering_partition_sums_to_one():
    s = stratify_model("square", 2)
    grid = _unit_grid(33)
    cov = build_covering(s, 0.3, cover_points=grid)
    pou = partition_of_unity(cov, grid)
    sums = pou.f_values.sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert np.all(pou.f_values >= 0) and np.all(pou.f_values <= 1)


def test_plateau_equals_one_on_bump_support():
    s = stratify_model("square", 2)
    grid = _unit_grid(33)
    cov = build_covering(s, 0.3, cover_points=grid)
    pou = partition_of_unity(cov, grid)
    # g_j * f_j = f_j exactly, and supp f_j misses supp(1 - g_j)
    np.testing.assert_array_equal(pou.g_values * pou.f_values, pou.f_values)
    assert not np.any((pou.f_values > 0) & (pou.g_values < 1))


def test_uncovered_grid_point_raises():
    cov = Covering(eps=0.1, balls=[Ball((0.0, 0.0), 0.1, 0)])
    with pytest.raises(ZeroDivisionError):
        partition_of_unity(cov, np.array([[0.9, 0.9]]))


def test_evaluate_outside_zero_mode():
    cov = Covering(eps=0.5, balls=[Ball((0.0, 0.0), 0.5, 0)])
    pou = partition_of_unity(cov, np.array([[0.1, 0.1]]))
    vals = pou.evaluate_f(np.array([[0.1, 0.1], [3.0, 3.0]]), outside="zero")
    assert vals[0, 0] == pytest.approx(1.0)
    assert vals[0, 1] == 0.0


def test_evaluate_reuses_stored_values_on_own_points():
    s = stratify_model("square", 2)
    grid = _unit_grid(17)
    pou = partition_of_unity(build_covering(s, 0.3, cover_points=grid), grid)
    for vals, stored in ((pou.evaluate_f(grid.copy()), pou.f_values),
                         (pou.evaluate_g(grid.copy()), pou.g_values)):
        assert np.shares_memory(vals, stored)
        assert not vals.flags.writeable
        np.testing.assert_array_equal(vals, stored)
    assert pou.f_values.flags.writeable
    # foreign points are evaluated, not read from storage
    shifted = grid[:-1] + 1e-3
    for vals, stored in ((pou.evaluate_f(shifted), pou.f_values),
                         (pou.evaluate_g(shifted), pou.g_values)):
        assert vals.shape == (stored.shape[0], shifted.shape[0])
        assert not np.shares_memory(vals, stored)
        assert not np.array_equal(vals, stored[:, :-1])
    own = partition_of_unity(pou.covering, shifted)
    np.testing.assert_array_equal(pou.evaluate_f(shifted), own.f_values)
    np.testing.assert_array_equal(pou.evaluate_g(shifted), own.g_values)
