"""The seeded verification suites on discrete lattice realizations.

``run_verify_suite(name, seed)`` runs one of ``VERIFY_SUITES`` and returns
its JSON-ready report, whose ``passed`` is the suite's verdict:

- toeplitz: Fredholm indices of Toeplitz sections of random Laurent
  symbols against root-counting and quadrature windings;
- additivity: ind T(a)T(b) = -(wind a + wind b) = ind T(a) + ind T(b)
  and the counts that the windings fix, against T(ab) and a zero of b;
- paired: ind(a P + b Q) = wind b - wind a = ind T(a) - ind T(b) and the
  counts of T(a/b), against b P + a Q and a zero of b;
- assembly: partition-of-unity assembly of an identity family and of
  frozen-coefficient patches against the direct quantization;
- locality: decay of ``f A g`` as the cutoffs f, g move apart, and an
  exact zero for a multiplication operator.

Every suite but toeplitz also reports ``negative_controls``, each a wrong
operator or a forbidden input run through the suite's own check, and
passes only when each is ``flagged``.

The suites run on ``lattice`` and so import scipy; the analysis pipeline
never imports this module.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ZeroOnCircle
from .factorization import winding_index
from .geometry import (Ball, Covering, _bump, build_covering,
                       partition_of_unity, stratify_model)
from .lattice import (DiscreteOperator, DiscreteSobolevSpace, LatticeGrid,
                      assemble_frozen_family, assemble_operator,
                      discretize_symbol_op, high_frequency_mask,
                      locality_defect, numerical_index,
                      numerical_index_paired, numerical_index_product,
                      operator_norm, quantize_full_symbol)
from .laurent import (LaurentPolynomial, laurent_winding,
                      random_elliptic_laurent)
from .symbols import Symbol

__all__ = ["VERIFY_SUITES", "run_verify_suite"]

# The toeplitz suite's cases and section size.
TOEPLITZ_CASES = 20
TOEPLITZ_N = 256

# The additivity and paired suites' random pairs and section size, their
# fixed pair a = z, b = z^-2, and the b = 1 - z of their zero-on-circle
# control, which vanishes at z = 1.
PAIR_CASES = 20
PAIR_N = 64
FIXED_PAIR = (([0, 1], 0), ([1], -2))
ZERO_ON_CIRCLE = ([1, -1], 0)


def _suite_toeplitz(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(TOEPLITZ_CASES):
        a = random_elliptic_laurent(rng)
        wind = laurent_winding(a)
        entry = numerical_index(a, TOEPLITZ_N)
        sym = Symbol.parse(a.lifted_text(), 0.0, 1)
        quad = winding_index(sym, [0.0], [])
        quad_int = int(round(quad))
        ok = (entry.index == -wind and quad_int == wind
              and abs(quad - quad_int) < 1e-6)
        cases.append({"coeffs": [[c.real, c.imag] for c in a.coeffs],
                      "min_deg": a.min_deg, "winding_roots": wind,
                      "winding_quadrature": quad, "index": entry.index,
                      "ok": ok})
    return {"suite": "toeplitz", "seed": seed, "cases": cases,
            "passed": all(c["ok"] for c in cases)}


def _product_counts(wind_a: int, wind_b: int):
    """(ker, coker) of T(a)T(b) where the windings fix them, else None:
    T(a) is one to one when wind a >= 0, so ker T(a)T(b) = ker T(b), and
    T(b) is onto when wind b <= 0, so coker T(a)T(b) = coker T(a)."""
    if wind_a < 0 < wind_b:
        return None
    ker = max(-wind_b, 0) if wind_a >= 0 else -wind_a - wind_b
    return [ker, ker + wind_a + wind_b]


def _half_period_shift(op):
    """op followed by the shift by half the period (np.roll by half the
    points): what op does near a point lands on the far side of the
    torus, so the result is not local."""
    n = op.shape[0]
    shift = np.roll(np.eye(n), n // 2, axis=0)
    return DiscreteOperator.from_matrix(shift, op.dst, op.dst) @ op


# Each suite's operator control: the pair counted in place of (a, b),
# T(ab) = T(ab)T(1) for T(a)T(b) and b P + a Q for a P + b Q; the
# operator whose locality defect is laddered in place of A; and the
# centre each assembled patch is frozen at in place of its ball's
# centre c, the mirrored 1 - c.
CONTROLS = {
    "additivity": lambda a, b: (a * b, LaurentPolynomial.make([1], 0)),
    "paired": lambda a, b: (b, a),
    "locality": _half_period_shift,
    "assembly": lambda c: tuple(1.0 - v for v in c)}


def _pair_suite(name, seed, count, rule, sign) -> dict:
    """The fixed and PAIR_CASES random pairs, counted by ``count``.  A case
    passes when its index is -(wind a + sign wind b) = ind T(a) + sign
    ind T(b) and its counts are ``rule`` of the windings, where known.  The
    operator control is flagged when its pair fails that count check on
    every case where the rule's counts differ (the fixed pair is one); the
    other when ``count`` refuses b = 1 - z as ZeroOnCircle."""
    rng = np.random.default_rng(seed)
    pairs = [("fixed", *[LaurentPolynomial.make(c, d) for c, d in FIXED_PAIR])]
    pairs += [(f"random-{t}", random_elliptic_laurent(rng),
               random_elliptic_laurent(rng)) for t in range(PAIR_CASES)]
    cases, flags = [], []
    for label, a, b in pairs:
        winds = [laurent_winding(a), laurent_winding(b)]
        ind_a, ind_b = (numerical_index(p, PAIR_N).index for p in (a, b))
        entry = count(a, b, PAIR_N)
        counts, expected = [entry.dim_ker, entry.dim_coker], rule(*winds)
        cases.append({"label": label, "windings": winds, "counts": counts,
                      "expected_counts": expected, "index": entry.index,
                      "ok": (entry.index == -(winds[0] + sign * winds[1])
                             == ind_a + sign * ind_b
                             and expected in (None, counts))})
        wrong = CONTROLS[name](a, b)
        if expected not in (None, rule(*map(laurent_winding, wrong))):
            got = count(*wrong, PAIR_N)
            cases[-1]["control_counts"] = [got.dim_ker, got.dim_coker]
            flags.append(cases[-1]["control_counts"] != expected)
    try:
        count(pairs[0][1], LaurentPolynomial.make(*ZERO_ON_CIRCLE), PAIR_N)
        refused = None
    except ZeroOnCircle as err:
        refused = str(err)
    controls = [{"control": "operator", "cases": len(flags),
                 "flagged": bool(flags) and all(flags)},
                {"control": "zero_on_circle", "refused": refused,
                 "flagged": refused is not None}]
    return {"suite": name, "seed": seed, "cases": cases,
            "negative_controls": controls,
            "passed": (all(c["ok"] for c in cases)
                       and all(c["flagged"] for c in controls))}


def _suite_additivity(seed: int) -> dict:
    return _pair_suite("additivity", seed, numerical_index_product,
                       _product_counts, 1)


def _suite_paired(seed: int) -> dict:
    # a P + b Q has the counts of T(a/b), one of them zero
    return _pair_suite("paired", seed, numerical_index_paired,
                       lambda wa, wb: [max(wb - wa, 0), max(wa - wb, 0)], -1)


def _suite_assembly(seed: int) -> dict:
    results = {}
    grid = LatticeGrid(2, 32, 1.0 / 32)
    strat = stratify_model("square", 2)
    cov = build_covering(strat, 0.3, cover_points=grid.points())
    pou = partition_of_unity(cov, grid.points())
    space = DiscreteSobolevSpace(grid, 0.0)
    ident = DiscreteOperator.identity(space)
    family = {b.center: ident for b in cov.balls}
    assembled = assemble_operator(family, pou)
    dev = operator_norm(assembled - ident)
    results["identity_family_error"] = dev

    # Frozen patches against the direct quantization, on a line segment
    # embedded in a long torus: the bump geometry is then well resolved
    # (eps spans many cells) and never wraps through the periodic seam.
    # Both operators are sandwiched with the segment indicator because the
    # assembled one vanishes off the covered set, and compared in the
    # essential-norm proxy: the plain norm is dominated by cutoff
    # commutators of size 1/eps, which the high-frequency compression
    # suppresses while the freezing error (same order as the symbol, for
    # this product-form symbol) survives.
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 1)
    grid_e = LatticeGrid(1, 256, 1.0 / 64, origin=(-1.5,))
    src = DiscreteSobolevSpace(grid_e, 1.0)
    dst = DiscreteSobolevSpace(grid_e, 0.0)
    full = quantize_full_symbol(sym, grid_e, src, dst)
    pts = grid_e.points()
    chi = ((pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0)).astype(complex)
    cut_src = DiscreteOperator.diagonal(chi, src, src)
    cut_dst = DiscreteOperator.diagonal(chi, dst, dst)
    mask = high_frequency_mask(grid_e)
    errs, control_errs = [], []
    for eps in (0.4, 0.2):
        centers = np.arange(0.0, 1.0 + 1e-9, 0.6 * eps)
        cov_e = Covering(eps=eps, balls=[Ball((float(c),), eps, 0)
                                         for c in centers])
        pou_e = partition_of_unity(cov_e, pts, outside="zero")
        assembled_e = assemble_frozen_family(sym, pou_e, grid_e, src, dst)
        # the control: one discretize_symbol_op patch per ball, each
        # frozen at CONTROLS["assembly"] of the ball's centre
        wrong = assemble_operator(
            {b.center: discretize_symbol_op(sym, CONTROLS["assembly"](
                b.center), grid_e, src, dst) for b in cov_e.balls}, pou_e)
        for out, op in ((errs, assembled_e), (control_errs, wrong)):
            diff = cut_dst @ (op - full) @ cut_src
            out.append(operator_norm(diff, freq_mask=mask))
    results["frozen_vs_full_proxy"] = errs
    controls = [{"control": "mirrored_centres",
                 "frozen_vs_full_proxy": control_errs,
                 "flagged": not control_errs[1] < control_errs[0]}]
    passed = (dev <= 1e-12 and errs[1] < errs[0]
              and all(c["flagged"] for c in controls))
    return {"suite": "assembly", "seed": seed, "cases": [results],
            "negative_controls": controls, "passed": bool(passed)}


def _suite_locality(seed: int) -> dict:
    grid = LatticeGrid(1, 128, 0.25)
    space0 = DiscreteSobolevSpace(grid, 0.0)
    space1 = DiscreteSobolevSpace(grid, 1.0)
    sym = Symbol.parse("(1+abs2(k))^(-1/2)", -1.0, 1)
    op = discretize_symbol_op(sym, [0.0], grid, space0, space1)
    pts = grid.points()[:, 0]
    center = grid.period / 2

    def bump(c, w):
        return _bump((pts - c) / w)

    f = bump(4.0, 2.0)

    def ladder(a_op):
        return [locality_defect(a_op, f, bump(4.0 + 2.0 + sep + 2.0, 2.0))
                for sep in (3.0, 5.0, 7.0, 9.0, 11.0)]

    def decreasing(defects):
        return all(a > b for a, b in zip(defects, defects[1:]))

    defects = ladder(op)
    mult = DiscreteOperator.diagonal(
        np.asarray(1.0 + pts ** 2, dtype=complex), space0, space0)
    g0 = bump(4.0 + 2.0 + 3.0 + 2.0, 2.0)
    exact_zero = locality_defect(mult, f, g0)
    shifted = ladder(CONTROLS["locality"](op))
    controls = [{"control": "half_period_shift", "defect_ladder": shifted,
                 "flagged": not decreasing(shifted)}]
    passed = (decreasing(defects) and exact_zero == 0.0
              and all(c["flagged"] for c in controls))
    return {"suite": "locality", "seed": seed,
            "cases": [{"defect_ladder": defects,
                       "multiplication_defect": exact_zero}],
            "negative_controls": controls, "passed": bool(passed)}


VERIFY_SUITES = {
    "toeplitz": _suite_toeplitz,
    "additivity": _suite_additivity,
    "paired": _suite_paired,
    "assembly": _suite_assembly,
    "locality": _suite_locality,
}


def run_verify_suite(name: str, seed: int = 0) -> dict:
    if name not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose one of "
                          f"{sorted(VERIFY_SUITES)}")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return VERIFY_SUITES[name](seed)
