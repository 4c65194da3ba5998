"""Winding indices, Laurent symbols, wave factor validation, Fredholm."""

import numpy as np
import pytest

from symstrat.dsl import parse_symbol
from symstrat.errors import (BranchJumpError, EvalError, GrowthViolation,
                             MissingStratumReport, NonEllipticOnLine,
                             ProductMismatch, SlopeDisagreement, SupportLeak,
                             TailJumpError, ZeroOnCircle)
from symstrat.factorization import (FactorizationReport, WaveFactorCandidate,
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
        winding_index(s, [0.0], [], cutoff=1.0e4)
    assert isinstance(info.value, BranchJumpError)
    message = str(info.value)
    assert "tail phase jump 3.14" in message
    assert "t=+10000" in message and "t=-10000" in message


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
    rep = validate_wave_factors(cand, s, raise_on_fail=False)
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
    with pytest.raises(SupportLeak) as err:
        validate_wave_factors(cand, s)
    report = err.value.report
    verdicts = {r["factor"]: r for r in report.support}
    assert verdicts["a_neq"]["ok"] is True        # upper-analytic marginal
    assert verdicts["a_eq"]["ok"] is False        # wrong tube
    assert verdicts["a_eq"]["mass_outside"] > 1e-6


def test_product_mismatch_detected():
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("(k1+i)*(k2+i)", "2", 2.0)
    with pytest.raises(ProductMismatch):
        validate_wave_factors(cand, s)


def test_growth_violation_detected():
    # declared index off by one: slopes cannot match
    s = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = _candidate("(k1+i)*(k2+i)", "1", 1.0)
    with pytest.raises(GrowthViolation):
        validate_wave_factors(cand, s)


def test_growth_overflow_is_a_failed_ray():
    # exp(i*k1) grows like exp(t) into the lower tube and overflows on the
    # longest rungs: each a_eq ray fails instead of aborting the report
    cand = _candidate("1", "exp(i*k1)", 0.0)
    sym = Symbol.parse("exp(i*k1)", 0.0, 2)
    report = validate_wave_factors(cand, sym, raise_on_fail=False)
    assert report.product_ok and not report.growth_ok
    for rec in report.growth:
        assert rec["ok"] == (rec["factor"] == "a_neq")
        assert np.isnan(rec["slope"]) == (rec["factor"] == "a_eq")


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
