"""Cones, stratifications, coverings and partitions of unity."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from symstrat import geometry
from symstrat.analysis import (AnalysisConfig, _winding_points, dump_json,
                               run_analysis)
from symstrat.errors import (CoverageError, DegenerateConeError,
                             UnsupportedModelError)
from symstrat.geometry import (Ball, CanonicalDomain, Cone, Covering,
                               build_covering, dual_cone, orthant,
                               partition_of_unity, stratify_model)


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


def test_float_generators_are_refused_unless_a_near_rational_holds_them():
    assert Cone.make([[0.3333333333, 1], [0, 1]]).generators[0] == \
        (Fraction(1, 3), Fraction(1))
    assert Cone.make([[0.5, 1e300]]).generators == \
        ((Fraction(1, 2), Fraction(int(1e300))),)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="is not finite"):
            Cone.make([[1, bad]])
    # limit_denominator(10**9) would round 1e-12 to 0 and 7e-10 to 1e-9:
    # each moves more than 1e-9 of its magnitude
    for bad in (1e-12, 7e-10):
        with pytest.raises(ValueError, match="has no rational"):
            Cone.make([[1, bad]])


def test_rational_generators_kept_exact():
    c = Cone.make([[Fraction(1, 3), 0], [1, Fraction(2, 5)]])
    d = dual_cone(c)
    for g in d.generators:
        assert all(isinstance(v, Fraction) for v in g)


# --------------------------------------------------------------------------
# stratifications

# one character per coordinate of a sample point: l and h are the sample
# range's ends DELTA_STRAT and 1 - DELTA_STRAT, and L and H are 1 - l and
# 1 - h, as met on an edge run towards 0
_COORDS = {"0": 0.0, "1": 1.0, "l": 0.025, "h": 0.975,
           "L": 1 - 0.025, "H": 1 - 0.975}

# per model: strata per k, samples per stratum of each k, and every
# stratum's label with its first and last sample point, in order
_STRATA_PINS = {
    "square": ({0: 4, 1: 4, 2: 1}, {0: 1, 1: 200, 2: 2401}, [
        ("vertex-0", "00", "00"), ("vertex-1", "10", "10"),
        ("vertex-2", "11", "11"), ("vertex-3", "01", "01"),
        ("edge-0", "l0", "h0"), ("edge-1", "1l", "1h"),
        ("edge-2", "L1", "H1"), ("edge-3", "0L", "0H"),
        ("interior", "ll", "hh")]),
    "cube": ({0: 8, 1: 12, 2: 6, 3: 1}, {0: 1, 1: 300, 2: 324, 3: 9261}, [
        ("vertex-0", "000", "000"), ("vertex-1", "001", "001"),
        ("vertex-2", "010", "010"), ("vertex-3", "011", "011"),
        ("vertex-4", "100", "100"), ("vertex-5", "101", "101"),
        ("vertex-6", "110", "110"), ("vertex-7", "111", "111"),
        ("edge-0", "l00", "h00"), ("edge-1", "l01", "h01"),
        ("edge-2", "l10", "h10"), ("edge-3", "l11", "h11"),
        ("edge-4", "0l0", "0h0"), ("edge-5", "0l1", "0h1"),
        ("edge-6", "1l0", "1h0"), ("edge-7", "1l1", "1h1"),
        ("edge-8", "00l", "00h"), ("edge-9", "01l", "01h"),
        ("edge-10", "10l", "10h"), ("edge-11", "11l", "11h"),
        ("face-0", "0ll", "0hh"), ("face-1", "1ll", "1hh"),
        ("face-2", "l0l", "h0h"), ("face-3", "l1l", "h1h"),
        ("face-4", "ll0", "hh0"), ("face-5", "ll1", "hh1"),
        ("interior", "lll", "hhh")]),
    "wedge2d": ({0: 1, 1: 2, 2: 1}, {0: 1, 1: 200, 2: 2401}, [
        ("vertex-0", "00", "00"), ("edge-0", "l0", "h0"),
        ("edge-1", "0l", "0h"), ("interior", "ll", "hh")]),
}


@pytest.mark.parametrize("model", sorted(_STRATA_PINS))
def test_stratification_counts_labels_and_samples(model):
    counts, n_samples, pins = _STRATA_PINS[model]
    m = len(pins[0][1])
    s = stratify_model(model, m)
    assert s.counts() == counts
    assert [st.label for st in s.strata] == [label for label, _, _ in pins]
    for st, (_, first, last) in zip(s.strata, pins):
        assert st.sample_points.shape == (n_samples[st.k], m)
        np.testing.assert_array_equal(st.sample_points[0],
                                      [_COORDS[c] for c in first])
        np.testing.assert_array_equal(st.sample_points[-1],
                                      [_COORDS[c] for c in last])


def test_repeated_stratification_decides_pointedness_from_cache():
    stratify_model("cube", 3)
    misses = Cone.is_pointed.cache_info().misses
    stratify_model("cube", 3)
    assert Cone.is_pointed.cache_info().misses == misses


# --------------------------------------------------------------------------
# one stratification per model and process

_MODELS = (("square", 2), ("cube", 3), ("wedge2d", 2))


def test_stratify_model_returns_one_object_per_model():
    for model, m in _MODELS:
        s = stratify_model(model, m)
        assert stratify_model(model, m) is s
        assert stratify_model(domain=model, m=m) is s


def test_the_shared_stratification_cannot_be_changed():
    s = stratify_model("cube", 3)
    assert isinstance(s.strata, tuple)
    for st in s.strata:
        assert not st.sample_points.flags.writeable
        with pytest.raises(ValueError):
            st.sample_points[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.strata[0].label = "vertex-x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.strata[0].sample_points = np.zeros((1, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.strata = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.delta_strat = 0.5


@pytest.mark.parametrize("model, m", _MODELS)
def test_the_cached_stratification_equals_a_fresh_build(model, m):
    cached = stratify_model(model, m)
    fresh = geometry._stratification.__wrapped__(model, m)
    assert fresh is not cached
    assert dump_json(fresh.to_dict()) == dump_json(cached.to_dict())
    assert fresh.min_separation == cached.min_separation
    assert len(fresh.strata) == len(cached.strata)
    for a, b in zip(fresh.strata, cached.strata):
        assert (a.k, a.label, a.domain) == (b.k, b.label, b.domain)
        assert a.sample_points.dtype == b.sample_points.dtype
        np.testing.assert_array_equal(a.sample_points, b.sample_points)


def _fingerprint(s):
    return dump_json(s.to_dict()), [st.sample_points.tobytes()
                                    for st in s.strata]


@pytest.mark.parametrize("model, m", _MODELS)
def test_analysis_leaves_the_cached_stratification_as_it_was(model, m):
    s = stratify_model(model, m)
    before = _fingerprint(s)
    for symbol in ("(1+abs2(k))^(1/2)", "(2+x1)*(1+abs2(k))^(1/2)"):
        assert run_analysis(AnalysisConfig(symbol, 1.0, model)).ok
    assert stratify_model(model, m) is s
    assert _fingerprint(s) == before


def test_a_warm_cube_analysis_builds_no_stratum(monkeypatch):
    cfg = AnalysisConfig("(2+x1)*(1+abs2(k))^(1/2)", 1.0, "cube")
    run_analysis(cfg)
    calls = []
    build = geometry._face_stratum
    monkeypatch.setattr(geometry, "_face_stratum",
                        lambda *args: calls.append(args) or build(*args))
    assert run_analysis(cfg).ok
    assert calls == []
    # the guard sees a build: the uncached builder makes all 27 strata
    geometry._stratification.__wrapped__("cube", 3)
    assert len(calls) == 27


def test_the_winding_points_are_cached_and_read_only():
    strata_points, stacked = _winding_points("cube", True)
    assert _winding_points("cube", True)[1] is stacked
    assert [st.label for st, _ in strata_points] == [
        st.label for st in stratify_model("cube", 3).boundary_strata()]
    assert stacked.shape == (44, 3)
    for pts in [stacked] + [pts for _, pts in strata_points]:
        assert not pts.flags.writeable
    assert _winding_points("cube", False)[1].shape == (26, 3)


def test_stratification_report_with_nan_is_refused():
    s = stratify_model("square", 2)
    json.loads(dump_json(s.to_dict()))
    with pytest.raises(ValueError):
        dump_json(dataclasses.replace(s, delta_strat=math.nan).to_dict())


def test_unsupported_models():
    # twice each: a refusal is not cached in place of a stratification
    for model, m in [("ball", 2), ("cube", 2), ("square", 3)] * 2:
        with pytest.raises(UnsupportedModelError):
            stratify_model(model, m)


def test_canonical_domains_per_stratum():
    # each wedge's cone is the tangent cone of the box at the stratum, in
    # its fixed axes: a step along a seeded direction w on those axes stays
    # in [0, 1]^m exactly when the cone contains w
    rng = np.random.default_rng(0)
    for model, m in (("square", 2), ("cube", 3), ("wedge2d", 2)):
        s = stratify_model(model, m)
        kinds = {}
        for st in s.strata:
            kinds.setdefault(st.k, set()).add(st.domain.kind)
        assert kinds == {**{k: {"wedge"} for k in range(m - 1)},
                         m - 1: {"half-space"}, m: {"full-space"}}
        for st in s.strata:
            if st.domain.kind != "wedge":
                continue
            pts = st.sample_points
            fixed = np.flatnonzero(np.all(pts == pts[0], axis=0))
            assert st.domain.cone.dim == len(fixed) == m - st.k
            w = rng.standard_normal((64, len(fixed)))
            step = np.zeros((64, m))
            step[:, fixed] = 1e-3 * w
            moved = pts[None, :, :] + step[:, None, :]
            inside = np.all((moved >= 0) & (moved <= 1), axis=(1, 2))
            assert 0 < inside.sum() < 64, (model, st.label)
            # the signed orthant {s_i w_i >= 0}, s the generators' sum
            signs = st.domain.cone.generator_array().sum(axis=0)
            assert np.all(signs * w >= 0, axis=1).tolist() == \
                inside.tolist(), (model, st.label)


def test_boundary_samples_avoid_lower_strata():
    s = stratify_model("square", 2)
    for st in s.strata:
        if st.k == 1:
            for corner in [(0, 0), (1, 0), (1, 1), (0, 1)]:
                d = np.linalg.norm(st.sample_points - np.array(corner), axis=1)
                assert np.all(d >= s.delta_strat - 1e-12)


def test_stratification_serializes():
    s = stratify_model("square", 2)
    blob = dump_json(s.to_dict())
    assert '"counts"' in blob and '"square"' in blob


# --------------------------------------------------------------------------
# coverings

def test_square_covering_stage_structure():
    s = stratify_model("square", 2)
    cov = build_covering(s, 0.3)
    stages = [b.stage for b in cov.balls]
    assert stages.count(0) == 4             # one ball per corner first
    assert stages.count(1) > 0              # edges continue the cover
    assert stages == sorted(stages)
    centers0 = {b.center for b in cov.balls if b.stage == 0}
    assert centers0 == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_covering_stage_centers_outside_earlier_balls():
    s = stratify_model("cube", 3)
    cov = build_covering(s, 0.2)
    assert sorted({b.stage for b in cov.balls}) == [0, 1, 2, 3]
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
    assert Counter(b.stage for b in cov.balls) == counts
    assert _centers_digest(cov) == digest


def test_covering_pinned_centers_with_cover_pass_balls():
    # cover points beyond the wedge's sample box: the final pass adds the
    # interior ball at (0.975, 0.975)
    ax = np.linspace(0, 1, 32) * 1.1 - 0.05
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    s = stratify_model("wedge2d", 2)
    cov = build_covering(s, 0.3, cover_points=grid)
    assert len(build_covering(s, 0.3).balls) == 19
    assert Counter(b.stage for b in cov.balls) == {0: 1, 1: 6, 2: 13}
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
    pts = np.array([[0.1, 0.1], [3.0, 3.0]])
    with pytest.raises(ZeroDivisionError, match=r"\[3\.0, 3\.0\]"):
        partition_of_unity(cov, pts)
    with pytest.raises(ValueError, match="outside"):
        partition_of_unity(cov, pts, outside="zeros")
    vals = partition_of_unity(cov, pts, outside="zero").f_values
    assert vals[0, 0] == pytest.approx(1.0)
    assert vals[0, 1] == 0.0

