"""Winding indices, Laurent symbols, wave factor validation, Fredholm."""

import warnings

import numpy as np
import pytest

from symstrat.dsl import parse_symbol
from symstrat.errors import (BranchJumpError, EvalError,
                             MissingStratumReport, NonEllipticOnLine,
                             SlopeDisagreement, TailJumpError, ZeroOnCircle)
from symstrat.factorization import (TOL_PROD, FactorizationReport,
                                    WaveFactorCandidate,
                                    check_fredholm_condition,
                                    estimate_wave_index,
                                    validate_wave_factors, winding_index)
from symstrat.geometry import Cone, orthant, stratify_model
from symstrat.laurent import (LaurentPolynomial, laurent_winding,
                              random_elliptic_laurent)
from symstrat.symbols import Symbol


def _quadrature_winding_oracle(poly, samples=200001):
    """Independent winding oracle: dense sampling of the argument increment
    around the circle."""
    theta = np.linspace(0.0, 2.0 * np.pi, samples)
    vals = poly(np.exp(1j * theta))
    steps = np.angle(vals[1:] / vals[:-1])
    return float(np.sum(steps) / (2.0 * np.pi))


# --------------------------------------------------------------------------
# Laurent winding by root counting

def test_laurent_winding_monomials():
    assert laurent_winding(LaurentPolynomial.make([0, 1], 0)) == 1      # z
    assert laurent_winding(LaurentPolynomial.make([1], -1)) == -1      # 1/z
    assert laurent_winding(LaurentPolynomial.make([-0.5, 1], 0)) == 1  # z-1/2


def test_laurent_winding_mixed_roots():
    # z^{-1}(z-2)(z-1/2): one root inside, pole order one
    poly = LaurentPolynomial.make([1, -2.5, 1], -1)
    assert laurent_winding(poly) == 0
    oracle = _quadrature_winding_oracle(poly)
    assert oracle == pytest.approx(0.0, abs=1e-9)


def test_laurent_winding_zero_on_circle():
    with pytest.raises(ZeroOnCircle):
        laurent_winding(LaurentPolynomial.make([-1, 1], 0))   # z - 1


def test_laurent_winding_refuses_an_overflowing_modulus():
    # |a(z)| = |1.5e308 + 1e308 z| is not a double near z = 1: refused by
    # name, and no overflow warning escapes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\|a\(z\)\| on the unit "
                                             r"circle is not finite"):
            laurent_winding(LaurentPolynomial.make([1.5e308, 1e308], 0))
        assert laurent_winding(LaurentPolynomial.make([1e300, 3e300], 0)) == 1


def test_laurent_winding_matches_quadrature_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        poly = random_elliptic_laurent(rng)
        wind = laurent_winding(poly)
        assert _quadrature_winding_oracle(poly) == pytest.approx(wind,
                                                                 abs=1e-8)


def test_laurent_multiplicativity_and_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = random_elliptic_laurent(rng)
        b = random_elliptic_laurent(rng)
        assert laurent_winding(a * b) == laurent_winding(a) + laurent_winding(b)
        assert laurent_winding(a.conj_reflected()) == -laurent_winding(a)


def test_laurent_trims_zero_coefficients():
    poly = LaurentPolynomial.make([0, 1, 0, 0], -1)
    assert poly.min_deg == 0 and poly.max_deg == 0


def test_laurent_make_refuses_non_finite_coefficients():
    # a NaN would pass the zero-on-circle guard (NaN <= tol is false) and
    # fail only deep inside the kernel count
    with pytest.raises(ValueError, match="degree -1 is not finite"):
        LaurentPolynomial.make([np.nan, 1], -1)
    with pytest.raises(ValueError, match="degree 2 is not finite"):
        LaurentPolynomial.make([0, 1, np.inf], 0)


# --------------------------------------------------------------------------
# half-space winding index

def test_winding_constant_symbol():
    s = Symbol.parse("1", 0.0, 1)
    assert winding_index(s, [0.0], []) == 0.0


def test_winding_moebius_orientation():
    # increasing frequency maps to a counterclockwise circle pass under
    # z = (t - i)/(t + i), so (t-i)/(t+i) winds once positively and its
    # reciprocal once negatively
    plus = Symbol.parse("(k1-i)/(k1+i)", 0.0, 1)
    minus = Symbol.parse("(k1+i)/(k1-i)", 0.0, 1)
    assert winding_index(plus, [0.0], []) == pytest.approx(1.0, abs=1e-9)
    assert winding_index(minus, [0.0], []) == pytest.approx(-1.0, abs=1e-9)


def test_winding_even_positive_symbol_gives_half_order():
    s = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    for xi_prime in ([0.0], [2.5]):
        val = winding_index(s, [0.0, 0.0], xi_prime)
        assert val == pytest.approx(0.5, abs=1e-12)


def test_winding_agrees_with_root_counting_on_lifted_symbols():
    rng = np.random.default_rng(21)
    for _ in range(20):
        poly = random_elliptic_laurent(rng)
        wind = laurent_winding(poly)
        sym = Symbol.parse(poly.lifted_text(), 0.0, 1)
        quad = winding_index(sym, [0.0], [], quad_samples=2 ** 14)
        assert abs(quad - round(quad)) < 1e-6
        assert int(round(quad)) == wind


def test_winding_multiplicative():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = random_elliptic_laurent(rng)
        b = random_elliptic_laurent(rng)
        sym_a = Symbol.parse(a.lifted_text(), 0.0, 1)
        sym_b = Symbol.parse(b.lifted_text(), 0.0, 1)
        sym_ab = Symbol.parse(f"({a.lifted_text()})*({b.lifted_text()})",
                              0.0, 1)
        wa = winding_index(sym_a, [0.0], [], quad_samples=2 ** 14)
        wb = winding_index(sym_b, [0.0], [], quad_samples=2 ** 14)
        wab = winding_index(sym_ab, [0.0], [], quad_samples=2 ** 14)
        assert int(round(wab)) == int(round(wa)) + int(round(wb))


def test_winding_conjugation_antisymmetry():
    rng = np.random.default_rng(29)
    for _ in range(5):
        a = random_elliptic_laurent(rng)
        conj = a.conj_reflected()
        wa = winding_index(Symbol.parse(a.lifted_text(), 0.0, 1), [0.0], [],
                           quad_samples=2 ** 14)
        wc = winding_index(Symbol.parse(conj.lifted_text(), 0.0, 1), [0.0],
                           [], quad_samples=2 ** 14)
        assert int(round(wc)) == -int(round(wa))


def test_winding_nonelliptic_on_line():
    s = Symbol.parse("k1", 1.0, 1)
    with pytest.raises(NonEllipticOnLine):
        winding_index(s, [0.0], [])


def test_winding_refuses_an_overflowing_symbol():
    # exp(1e8) on the quadrature line is not a phase to track
    s = Symbol.parse("exp(abs2(k))", 0.0, 1)
    with pytest.raises(EvalError):
        winding_index(s, [0.0], [])


@pytest.mark.parametrize("scale", ["1e200", "1e300"])
@pytest.mark.parametrize("power", [1, 2])
def test_winding_of_a_huge_multiple_reads_its_factors_winding(scale, power):
    # the phase products of values near 1e200 or 1e300 would overflow, the
    # tail's among them; the values are scaled first, and no warning
    # escapes
    base = f"((k1-i)/(k1+i))^{power}"
    plain = winding_index(Symbol.parse(base, 0.0, 1), [0.0], [])
    huge = winding_index(Symbol.parse(f"{scale}*{base}", 0.0, 1), [0.0], [])
    assert plain == pytest.approx(power, abs=1e-9)
    assert huge == pytest.approx(plain, abs=1e-9)


def test_winding_branch_jump_on_coarse_grid():
    # steep winding needs resolution: with a handful of nodes the phase
    # steps exceed pi/2 and the tracker refuses to guess
    text = "*".join(["((k1-i)/(k1+i))"] * 8)
    s = Symbol.parse(text, 0.0, 1)
    with pytest.raises(BranchJumpError):
        winding_index(s, [0.0], [], quad_samples=32)
    assert winding_index(s, [0.0], []) == pytest.approx(8.0, abs=1e-9)


def test_winding_tail_jump_names_the_tail():
    # k1+i does not close up at infinity: its reduced phase turns by half
    # a circle, from about pi at t=-cutoff to about 0 at t=+cutoff, so the
    # jump sits in the tail and no interior step is large
    s = Symbol.parse("k1+i", 1.0, 1)
    with pytest.raises(TailJumpError) as info:
        winding_index(s, [0.0], [])
    assert isinstance(info.value, BranchJumpError)
    message = str(info.value)
    assert "tail phase jump 3.14" in message
    assert "t=+10000" in message and "t=-10000" in message


def test_winding_node_cap_names_cap_and_interval():
    text = "*".join(["((k1-i)/(k1+i))"] * 8)
    s = Symbol.parse(text, 0.0, 1)
    with pytest.raises(BranchJumpError) as info:
        winding_index(s, [0.0], [], quad_samples=64)
    message = str(info.value)
    assert "quad_samples=64" in message and "t in [" in message
    assert not isinstance(info.value, TailJumpError)


# Narrow phase features between coarse nodes.  The Blaschke factor
# (Z - z0)/(1 - conj(z0) Z) of Z = (t-i)/(t+i) winds +1 for |z0| < 1 and -1
# for |z0| > 1; its phase turns within about eps of the angle phi, where
# z0 sits at distance eps from the circle.
_BLASCHKE_PHIS = (np.pi, 2.0, np.pi / 2, 0.3, 0.05, 0.01)
_BLASCHKE_EPS = (0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def _const(z):
    return f"({z.real:.17g}+({z.imag:.17g})*i)"


@pytest.mark.parametrize("phi", _BLASCHKE_PHIS)
def test_winding_resolves_blaschke_zeros_near_the_circle(phi):
    cayley = "((k1-i)/(k1+i))"
    for eps in _BLASCHKE_EPS:
        for radius, expected in ((1.0 - eps, 1.0), (1.0 / (1.0 - eps), -1.0)):
            z0 = radius * np.exp(1j * phi)
            text = (f"({cayley}-{_const(z0)})"
                    f"/(1-{_const(np.conj(z0))}*{cayley})")
            value = winding_index(Symbol.parse(text, 0.0, 1), [0.0], [])
            assert value == pytest.approx(expected, abs=1e-9), (phi, eps)


# The line family (t - t0 + d*i)/(t - t0 - d*i) winds -1.  The smallest d
# per t0 down to which the former fixed grid of 65,537 merged linear and
# tangent nodes returned -1; below it that grid returned 0 or refused.
_LINE_DELTAS = (1.0, 0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5,
                1e-5)
_LINE_FIXED_GRID_FLOOR = {0.0: 1e-4, 0.37: 3e-4, 3.1: 3e-3, 50.0: 0.3}


@pytest.mark.parametrize("t0", sorted(_LINE_FIXED_GRID_FLOOR))
def test_winding_resolves_narrow_line_features(t0):
    for delta in _LINE_DELTAS:
        text = f"(k1-{t0:g}+{delta:g}*i)/(k1-{t0:g}-{delta:g}*i)"
        try:
            value = winding_index(Symbol.parse(text, 0.0, 1), [0.0], [])
        except BranchJumpError:
            value = None
        if delta >= _LINE_FIXED_GRID_FLOOR[t0]:
            assert value == pytest.approx(-1.0, abs=1e-9), delta
        else:
            # below the floor a feature narrower than ~1e-5 of the circle
            # may be missed, never counted with the wrong sign
            assert value is None or round(value) in (-1, 0), delta


def test_winding_node_count_on_the_cube(monkeypatch):
    # every winding line of this cube analysis has linear phase in theta,
    # so the start grid and its midpoints settle it: 129 nodes on each of
    # the 44 lines, all wound in one call, so a return to a dense grid or
    # to one call per line fails here without any timing
    from symstrat import analysis, factorization

    calls, nodes = [], []
    real_eval = factorization.eval_on_grid
    real_winding = factorization.winding_index

    def counting_eval(expr, x, xi):
        out = real_eval(expr, x, xi)
        nodes.append(out.size)
        return out

    def counting_winding(s, x0, *args, **kwargs):
        calls.append(np.shape(x0))
        return real_winding(s, x0, *args, **kwargs)

    monkeypatch.setattr(factorization, "eval_on_grid", counting_eval)
    monkeypatch.setattr(analysis, "winding_index", counting_winding)
    manifest = analysis.run_analysis(analysis.AnalysisConfig(
        symbol_text="(1.5+0.2*x1)*((k3-i)/(k3+i))^2*(1+abs2(k))^(1/2)",
        alpha=1.0, model="cube", s_order=0.3))
    assert manifest.ok
    # 26 strata, two points where x1 varies
    assert calls == [(44, 3)]
    assert sum(nodes) == 44 * 129
    # the benchmark warm-up caps at 256 nodes: start grid plus midpoints fit
    nodes.clear()
    s = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 3)
    assert real_winding(s, [0.5] * 3, [0.0, 0.0], quad_samples=256) == \
        pytest.approx(0.5, abs=1e-12)
    assert sum(nodes) == 129


def _hex_one_by_one(s, points, xi_prime, **kwargs):
    return [winding_index(s, p, xi_prime, **kwargs).hex() for p in points]


def _hex_batched(s, points, xi_prime, **kwargs):
    values = winding_index(s, np.asarray(points, dtype=float), xi_prime,
                           **kwargs)
    assert isinstance(values, list) and len(values) == len(points)
    return [v.hex() for v in values]


def _cube_points():
    """The sample points run_analysis winds on the cube: two per stratum
    where the symbol depends on x, one on each vertex."""
    from symstrat.analysis import _stratum_points
    strat = stratify_model("cube", 3)
    return np.concatenate([_stratum_points(st, True)
                           for st in strat.boundary_strata()])


@pytest.mark.parametrize("w", [0, -1, 1, 2])
def test_batched_winding_matches_one_point_calls_on_the_cube(w):
    # symbols of the form of the benchmark's cube inputs
    points = _cube_points()
    assert points.shape == (44, 3)
    for alpha in (1, 2):
        s = Symbol.parse(
            "(1.4217-0.2311*x1+0.1702*x2+0.0856*x3+0.3120*normx2(x))"
            f"*((k3-i)/(k3+i))^{w}*(1+abs2(k))^({alpha}/2)", alpha, 3)
        batched = _hex_batched(s, points, [0.0, 0.0])
        assert batched == _hex_one_by_one(s, points, [0.0, 0.0])
        assert {round(float.fromhex(v) - alpha / 2) for v in batched} == {w}


def test_batched_winding_matches_one_point_calls_over_several_rounds():
    # x1 = 0 gives the narrow feature (k1-3+0.0001*i)/(k1-3-0.0001*i),
    # which takes many bisection rounds, the wider lines only one or two
    s = Symbol.parse("(k1-3+(0.0001+x1)*i)/(k1-3-(0.0001+x1)*i)", 0.0, 1)
    points = [[0.0], [0.5], [0.001], [2.0], [0.0]]
    batched = _hex_batched(s, points, [])
    assert batched == _hex_one_by_one(s, points, [])
    assert [round(float.fromhex(v)) for v in batched] == [-1] * 5


def test_batched_winding_rescales_only_the_lines_past_the_bound():
    # 1e145*exp(20*x1)*(1+k1^2) passes 1e150 on every node of the line at
    # x1 = 1, only near the ends of the lines at x1 = 0 and 0.3 (so their
    # start grids are rescaled and their midpoints are not), and nowhere
    # at x1 = -5 or -12.5, whose last bits a rescaling would move
    s = Symbol.parse("1e145*exp(20*x1)*(1+k1^2)*((k1-i)/(k1+i))^2"
                     "*(k1-2+0.5*i)/(k1-2-0.5*i)", 0.0, 1)
    points = [[0.0], [1.0], [-5.0], [0.3], [-12.5]]
    batched = _hex_batched(s, points, [])
    assert batched == _hex_one_by_one(s, points, [])
    assert [round(float.fromhex(v)) for v in batched] == [1] * 5


def _error_of(fn):
    with pytest.raises(Exception) as info:
        fn()
    return info.value


# A batch [fine, first, later] where the point ``later`` fails before the
# point ``first`` would: at the start grid or its tail, where ``first``
# fails in a bisection round or at its own tail.  c is the node of the
# first bisection round between t = 0 and the next start node.
_ROUND_ONE_NODE = 0.024547058667373674
_ERROR_ORDER_CASES = {
    "NonEllipticOnLine": (f"((k2-{_ROUND_ONE_NODE!r})^2+x1)/(k2^2+x2)",
                          {}, [1, 1], [0, 1], [1, 0]),
    "TailJumpError": ("(x1*k2+i)/(k2^2+x2)", {}, [0, 1], [1, 1], [0, 0]),
    "BranchJumpError": ("(x1*((k2-i)/(k2+i))^8+1-x1)*(x2*k2+i)",
                        {"quad_samples": 64}, [0, 0], [1, 0], [0, 1]),
    "EvalError": ("exp(1000*x1/(1+10000*(k2-0.0245)^2))*(k2^2+x2)", {},
                  [0.5, 1], [1, 1], [0, 0]),
}


@pytest.mark.parametrize("expected", sorted(_ERROR_ORDER_CASES))
def test_batched_winding_raises_the_first_failing_points_error(expected):
    text, kwargs, fine, first, later = _ERROR_ORDER_CASES[expected]
    s = Symbol.parse(text, 0.0, 2)
    assert winding_index(s, fine, [0.0], **kwargs) == 0.0
    own = _error_of(lambda: winding_index(s, first, [0.0], **kwargs))
    assert type(own).__name__ == expected
    # the later point fails otherwise, and earlier in the batch's rounds
    assert type(_error_of(lambda: winding_index(s, later, [0.0],
                                                **kwargs))) is not type(own)
    batched = _error_of(lambda: winding_index(
        s, np.array([fine, first, later], dtype=float), [0.0], **kwargs))
    assert type(batched) is type(own) and str(batched) == str(own)


# --------------------------------------------------------------------------
# wave factorization validation

QUADRANT = orthant(2)


def _candidate(a_neq, a_eq, ae, cone=QUADRANT, k=0, dim=2):
    return WaveFactorCandidate(parse_symbol(a_neq, dim),
                               parse_symbol(a_eq, dim), cone, k, ae)


def test_quadrant_example_passes_all_checks():
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("(k1+i)*(k2+i)", "1", 2.0)
    rep = validate_wave_factors(cand, s)
    assert rep.ok
    assert rep.product_max_rel_err < 1e-10
    for g in rep.growth:
        if g["factor"] == "a_neq":
            assert g["slope"] == pytest.approx(2.0, abs=0.1)
    neq_support = next(r for r in rep.support if r["factor"] == "a_neq")
    assert neq_support["mass_outside"] < 1e-6


def test_unit_factor_candidate_product_and_slope():
    # a_eq carries the whole symbol: the product identity is exact and the
    # unit factor has zero growth; support of the inverse of a_eq fails on
    # the opposite tube (its poles sit inside), reported per factor
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("1", "(k1+i)*(k2+i)", 0.0)
    rep = validate_wave_factors(cand, s)
    assert rep.product_ok and rep.product_max_rel_err < 1e-10
    for g in rep.growth:
        if g["factor"] == "a_neq":
            assert g["slope"] == pytest.approx(0.0, abs=1e-9)
    verdicts = {r["factor"]: r["ok"] for r in rep.support}
    assert verdicts["a_neq"] is True
    assert verdicts["a_eq"] is False


def test_lower_tube_trivial_candidate_passes():
    s = Symbol.parse("(k1-i)*(k2-i)", 2.0, 2)
    cand = _candidate("1", "(k1-i)*(k2-i)", 0.0)
    assert validate_wave_factors(cand, s).ok


def test_split_candidate_leaks_on_a_eq():
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("(k1+i)", "(k2+i)", 1.0)
    report = validate_wave_factors(cand, s)
    assert report.product_ok and not report.support_ok and not report.ok
    verdicts = {r["factor"]: r for r in report.support}
    assert verdicts["a_neq"]["ok"] is True        # upper-analytic marginal
    assert verdicts["a_eq"]["ok"] is False        # wrong tube
    assert verdicts["a_eq"]["mass_outside"] > 1e-6


def test_product_mismatch_detected():
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("(k1+i)*(k2+i)", "2", 2.0)
    report = validate_wave_factors(cand, s)
    assert not report.product_ok and not report.ok
    assert report.product_max_rel_err >= TOL_PROD


def test_growth_violation_detected():
    # declared index off by one: slopes cannot match
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("(k1+i)*(k2+i)", "1", 1.0)
    report = validate_wave_factors(cand, s)
    assert report.product_ok and not report.growth_ok and not report.ok
    assert not any(g["ok"] for g in report.growth if g["factor"] == "a_neq")


def test_growth_overflow_is_a_failed_ray():
    # exp(i*k1) grows like exp(t) into the lower tube and overflows on the
    # longest rungs: each a_eq ray fails instead of aborting the report
    cand = _candidate("1", "exp(i*k1)", 0.0)
    sym = Symbol.parse("exp(i*k1)", 0.0, 2)
    report = validate_wave_factors(cand, sym)
    assert report.product_ok and not report.growth_ok
    for rec in report.growth:
        assert rec["ok"] == (rec["factor"] == "a_neq")
        assert (rec["slope"] is None) == (rec["factor"] == "a_eq")


def test_estimate_wave_index_values():
    assert estimate_wave_index(_candidate("(k1+i)*(k2+i)", "1", 2.0)) == \
        pytest.approx(2.0, abs=0.1)
    assert estimate_wave_index(_candidate("1", "(k1+i)*(k2+i)", 0.0)) == \
        pytest.approx(0.0, abs=1e-9)
    assert estimate_wave_index(_candidate("(k1+i)", "(k2+i)", 1.0)) == \
        pytest.approx(1.0, abs=0.1)


def test_estimate_wave_index_ray_disagreement():
    # the factor is constant along the central dual ray of this cone but
    # grows along the tilted ones, so the ray slopes disagree
    skew = Cone.make([[1, 0], [1, 1]])
    cand = _candidate("(k2+i)", "1", 1.0, cone=skew)
    with pytest.raises(SlopeDisagreement):
        estimate_wave_index(cand)


def test_candidate_validation_rules():
    with pytest.raises(ValueError):
        _candidate("(k1+i)", "(k2+i)", 1.0, cone=orthant(3))
    with pytest.raises(ValueError):
        WaveFactorCandidate(parse_symbol("1", 2), parse_symbol("1", 3),
                            QUADRANT, 0, 0.0)
    # a flat cone is refused here, before any check measures growth in it
    with pytest.raises(ValueError, match="full-dimensional"):
        _candidate("(k1+i)*(k2+i)", "1", 2.0, cone=Cone.make([[1, 0]]))


# --------------------------------------------------------------------------
# Fredholm criterion

def _rep(label, k, ae_values):
    return FactorizationReport(label, k, [[0.0, 0.0]], ae_values,
                               "winding-quadrature")


def test_fredholm_pass_with_unit_margin():
    reports = [_rep("edge-0", 1, [1.0]), _rep("vertex-0", 0, [1.0])]
    verdict = check_fredholm_condition(reports, 1.0)
    assert verdict.fredholm
    for v in verdict.per_stratum:
        assert v.margin == pytest.approx(0.5, abs=1e-15)
        assert v.condition_met


def test_fredholm_fail_margin():
    verdict = check_fredholm_condition([_rep("edge-0", 1, [0.7])], 0.0)
    assert not verdict.fredholm
    v = verdict.per_stratum[0]
    assert not v.condition_met
    assert v.margin == pytest.approx(-0.2, abs=1e-12)


def test_fredholm_range_case():
    verdict = check_fredholm_condition([_rep("face-0", 2, [0.4, 0.6])], 0.5)
    assert verdict.fredholm
    assert verdict.per_stratum[0].margin == pytest.approx(0.4, abs=1e-12)


def test_fredholm_monotone_in_range_shrink():
    wide = check_fredholm_condition([_rep("f", 2, [0.2, 0.8])], 0.5)
    narrow = check_fredholm_condition([_rep("f", 2, [0.4, 0.6])], 0.5)
    assert narrow.per_stratum[0].margin >= wide.per_stratum[0].margin
    if wide.fredholm:
        assert narrow.fredholm


def test_fredholm_missing_stratum():
    strat = stratify_model("square", 2)
    with pytest.raises(MissingStratumReport):
        check_fredholm_condition([_rep("edge-0", 1, [0.5])], 0.5,
                                 stratification=strat)


def test_fredholm_interior_ellipticity_required():
    verdict = check_fredholm_condition([_rep("edge-0", 1, [0.5])], 0.5,
                                       interior_elliptic=False)
    assert not verdict.fredholm
    assert verdict.per_stratum[0].condition_met


def test_fredholm_scaling_invariance():
    # positive constant scaling of the symbol leaves the winding index and
    # hence every verdict field unchanged
    s1 = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    s2 = Symbol.parse("7*(1+abs2(k))^(1/2)", 1.0, 2)
    w1 = winding_index(s1, [0.0, 0.0], [0.0])
    w2 = winding_index(s2, [0.0, 0.0], [0.0])
    assert w1 == pytest.approx(w2, abs=1e-12)
