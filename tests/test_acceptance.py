"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import time
from fractions import Fraction

import numpy as np

from symstrat.analysis import AnalysisConfig, run_analysis
from symstrat.dsl import parse_symbol
from symstrat.factorization import WaveFactorCandidate, validate_wave_factors
from symstrat.geometry import (Cone, build_covering, dual_cone, orthant,
                               partition_of_unity, stratify_model)
from symstrat.lattice import (DiscreteOperator, DiscreteSobolevSpace,
                              LatticeGrid, assemble_operator,
                              assembly_convergence,
                              discretize_symbol_op, locality_defect,
                              numerical_index, numerical_index_product,
                              operator_norm)
from symstrat.laurent import (LaurentPolynomial, laurent_winding,
                              random_elliptic_laurent)
from symstrat.suites import run_verify_suite
from symstrat.symbols import Symbol


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_acceptance_01_toeplitz_index_theorem():
    t0 = time.perf_counter()
    report = run_verify_suite("toeplitz", seed=42)
    elapsed = time.perf_counter() - t0
    agree_index = all(c["index"] == -c["winding_roots"]
                      for c in report["cases"])
    agree_methods = all(
        int(round(c["winding_quadrature"])) == c["winding_roots"]
        and abs(c["winding_quadrature"]
                - round(c["winding_quadrature"])) < 1e-6
        for c in report["cases"])
    ok = (len(report["cases"]) == 20 and agree_index and agree_methods
          and elapsed < 10.0)
    _verdict(1, "toeplitz index theorem", ok,
             f"20 cases, index = -winding and quadrature = roots, "
             f"{elapsed:.1f}s")


def test_acceptance_02_index_additivity():
    t0 = time.perf_counter()
    # T(z)T(z^-2) keeps the kernel e_0, e_1 of T(z^-2) and the cokernel of
    # T(z): counts (2, 1), index 1, where T(z^-1) reads (1, 0); and
    # T(z^2)T(z^-2) = I - P_2 reads (2, 2), where T(1) reads (0, 0)
    z = LaurentPolynomial.make([0, 1], 0)
    fixed = [(z, LaurentPolynomial.make([1], -2), (2, 1), (1, 0)),
             (z * z, LaurentPolynomial.make([1], -2), (2, 2), (0, 0))]
    ok = True
    for a, b, counts, ab_counts in fixed:
        product = numerical_index_product(a, b, 64)
        ab = numerical_index(a * b, 64)
        ok = ok and (product.dim_ker, product.dim_coker) == counts
        ok = ok and (ab.dim_ker, ab.dim_coker) == ab_counts
    rng = np.random.default_rng(2024)
    for _ in range(10):
        a, b = random_elliptic_laurent(rng), random_elliptic_laurent(rng)
        wind_a, wind_b = laurent_winding(a), laurent_winding(b)
        product = numerical_index_product(a, b, 64)
        ok = ok and product.index == -(wind_a + wind_b) == (
            numerical_index(a, 64).index + numerical_index(b, 64).index)
        # T(a) is one to one for wind a >= 0, T(b) onto for wind b <= 0
        if wind_a >= 0:
            ok = ok and product.dim_ker == max(-wind_b, 0)
        if wind_b <= 0:
            ok = ok and product.dim_coker == max(wind_a, 0)
    report = run_verify_suite("additivity", seed=7)
    ok = ok and report["passed"] and len(report["cases"]) == 21 and all(
        c["flagged"] for c in report["negative_controls"])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(2, "index additivity", ok,
             f"T(z)T(z^-2) reads (2, 1) and index 1, 10 random products "
             f"exact, suite controls flagged, {elapsed:.1f}s")


def test_acceptance_03_paired_equation_equivalence():
    t0 = time.perf_counter()
    report = run_verify_suite("paired", seed=7)
    elapsed = time.perf_counter() - t0
    # ker and coker of a P + b Q are those of T(a/b), by Coburn one of
    # them zero: max(wind b - wind a, 0) and max(wind a - wind b, 0)
    closed_form = all(
        c["counts"] == [max(wb - wa, 0), max(wa - wb, 0)]
        and c["index"] == wb - wa for c in report["cases"]
        for wa, wb in [c["windings"]])
    ok = (report["passed"] and closed_form and len(report["cases"]) == 21
          and all(c["flagged"] for c in report["negative_controls"])
          and elapsed < 5.0)
    _verdict(3, "paired equation equivalence", ok,
             f"{len(report['cases'])} pairs read ind = wind b - wind a, "
             f"swapped pairing and zero on circle flagged, {elapsed:.1f}s")


def test_acceptance_04_wave_factor_validation():
    t0 = time.perf_counter()
    symbol = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    cand = WaveFactorCandidate(
        parse_symbol("(k1+i)*(k2+i)", 2), parse_symbol("1", 2),
        orthant(2), 0, 2.0)
    report = validate_wave_factors(cand, symbol)
    elapsed = time.perf_counter() - t0
    slopes = [g["slope"] for g in report.growth if g["factor"] == "a_neq"]
    mass = next(r["mass_outside"] for r in report.support
                if r["factor"] == "a_neq")
    ok = (report.product_max_rel_err < 1e-10
          and len(slopes) == 3
          and all(abs(s - 2.0) <= 0.1 for s in slopes)
          and mass < 1e-6
          and elapsed < 5.0)
    _verdict(4, "wave factor validation", ok,
             f"product {report.product_max_rel_err:.1e}, slopes "
             f"{[round(s, 3) for s in slopes]}, mass {mass:.1e}, "
             f"{elapsed:.1f}s")


def test_acceptance_05_fredholm_criterion():
    ok = True
    details = []
    for model in ("square", "cube"):
        for s_order, expect_pass, margin in ((0.5, True, 0.5),
                                             (1.1, False, -0.1)):
            cfg = AnalysisConfig(symbol_text="(1+abs2(k))^(1/2)", alpha=1.0,
                                 model=model, s_order=s_order)
            manifest = run_analysis(cfg)
            verdict = manifest.stages["fredholm"]
            ok = ok and manifest.ok
            ok = ok and verdict["fredholm"] == expect_pass
            margins = [v["margin"] for v in verdict["per_stratum"]]
            ok = ok and all(abs(m - margin) <= 1e-9 for m in margins)
            details.append(f"{model}/s={s_order}: "
                           f"{'pass' if verdict['fredholm'] else 'fail'}")
    _verdict(5, "fredholm criterion", ok, "; ".join(details))


def test_acceptance_06_cube_stratification():
    strat = stratify_model("cube", 3)
    counts = strat.counts()
    ok = counts == {3: 1, 2: 6, 1: 12, 0: 8}
    _verdict(6, "cube stratification", ok,
             f"counts {tuple(counts[k] for k in (3, 2, 1, 0))}")


def test_acceptance_07_assembly():
    t0 = time.perf_counter()
    # identity family reproduces the identity
    grid32 = LatticeGrid(2, 32, 1.0 / 32)
    space = DiscreteSobolevSpace(grid32, 0.0)
    strat = stratify_model("square", 2)
    cov = build_covering(strat, 0.3, cover_points=grid32.points())
    pou = partition_of_unity(cov, grid32.points())
    ident = DiscreteOperator.identity(space)
    assembled = assemble_operator({b.center: ident for b in cov.balls}, pou)
    identity_err = operator_norm(assembled - ident)

    # convergence of the x-dependent assembly on the square at N = 64
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
    grid64 = LatticeGrid(2, 64, 1.0 / 64)
    table = assembly_convergence(sym, strat, [0.4, 0.2, 0.1], grid64,
                                 s_order=1.0)
    proxies = [row["proxy"] for row in table]
    elapsed = time.perf_counter() - t0
    ok = (identity_err <= 1e-12
          and all(b <= 1.5 * a for a, b in zip(proxies, proxies[1:]))
          and proxies[-1] <= proxies[0] / 2.0
          and elapsed < 60.0)
    _verdict(7, "assembly", ok,
             f"identity {identity_err:.1e}, proxies "
             f"{[round(p, 4) for p in proxies]}, {elapsed:.1f}s")


def test_acceptance_08_locality():
    grid = LatticeGrid(1, 128, 0.25)
    space0 = DiscreteSobolevSpace(grid, 0.0)
    space1 = DiscreteSobolevSpace(grid, 1.0)
    pts = grid.points()[:, 0]

    def bump(center, width=2.0):
        t = np.clip(np.abs(pts - center) / width, 0, 1)
        out = np.zeros_like(pts, dtype=complex)
        inside = t < 1
        out[inside] = np.exp(-1.0 / (1 - t[inside] ** 2))
        return out

    f = bump(4.0)
    mult = DiscreteOperator.diagonal((1 + pts ** 2).astype(complex),
                                     space0, space0)
    mult_defect = locality_defect(mult, f, bump(11.0))

    sym = Symbol.parse("(1+abs2(k))^(-1/2)", -1.0, 1)
    op = discretize_symbol_op(sym, [0.0], grid, space0, space1)
    ladder = [locality_defect(op, f, bump(8.0 + 2.0 * j + 2.0))
              for j in range(5)]
    strictly_decreasing = all(a > b for a, b in zip(ladder, ladder[1:]))
    ok = mult_defect == 0.0 and strictly_decreasing
    _verdict(8, "locality", ok,
             f"multiplication defect {mult_defect}, ladder "
             f"{[f'{d:.2e}' for d in ladder]}")


def test_acceptance_09_partition_of_unity():
    strat = stratify_model("square", 2)
    ax = np.linspace(0, 1, 33)
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    cov = build_covering(strat, 0.3, cover_points=grid)
    pou = partition_of_unity(cov, grid)
    sum_err = float(np.max(np.abs(pou.f_values.sum(axis=0) - 1.0)))
    plateau_exact = np.array_equal(pou.g_values * pou.f_values, pou.f_values)
    supports_nested = not np.any((pou.f_values > 0) & (pou.g_values < 1))
    ok = sum_err <= 1e-12 and plateau_exact and supports_nested
    _verdict(9, "partition of unity", ok,
             f"sum error {sum_err:.1e}, plateau exact {plateau_exact}, "
             f"supports nested {supports_nested}")


def test_acceptance_10_dual_cones():
    def gen_set(cone):
        return {g for g in cone.generators}

    quad = orthant(2)
    oct3 = orthant(3)
    skew = Cone.make([[1, 0], [1, 1]])
    self_dual_2 = gen_set(dual_cone(quad)) == {
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    self_dual_3 = gen_set(dual_cone(oct3)) == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1))}
    round_trip_quad = gen_set(dual_cone(dual_cone(quad))) == gen_set(quad)
    round_trip_skew = gen_set(dual_cone(dual_cone(skew))) == gen_set(skew)
    dual_skew = gen_set(dual_cone(skew)) == {
        (Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))}
    ok = (self_dual_2 and self_dual_3 and round_trip_quad
          and round_trip_skew and dual_skew)
    _verdict(10, "dual cones", ok,
             "orthants self-dual, double duals exact")
