"""Cone factorization walkthrough on the quadrant example.

Validates the splitting (k1+i)(k2+i) = a_neq * 1 against the first
quadrant, prints the growth slopes and transform support masses, and
shows how a wrong-side factor is caught.
"""

import sys

from symstrat.dsl import parse_symbol
from symstrat.factorization import (WaveFactorCandidate, estimate_wave_index,
                                    validate_wave_factors)
from symstrat.geometry import orthant
from symstrat.symbols import Symbol


def main():
    symbol = Symbol.parse("(k1+i)*(k2+i)", 2.0, 2)
    quadrant = orthant(2)

    good = WaveFactorCandidate(parse_symbol("(k1+i)*(k2+i)", 2),
                               parse_symbol("1", 2), quadrant, 0, 2.0)
    report = validate_wave_factors(good, symbol)
    print("candidate a_neq = (k1+i)(k2+i), a_eq = 1")
    print(f"  product identity error : {report.product_max_rel_err:.2e}")
    for rec in report.growth:
        print(f"  growth {rec['factor']:<6} slope {rec['slope']:+.3f} "
              f"(expected {rec['expected']:+.1f})")
    for rec in report.support:
        mass = rec.get("mass_outside", 0.0)
        print(f"  support {rec['factor']:<6} wrong-side mass {mass:.2e}")
    print(f"  fitted index: {estimate_wave_index(good):.3f} (declared 2.0)")

    print("\ncandidate a_neq = (k1+i), a_eq = (k2+i)   [wrong-side a_eq]")
    bad = WaveFactorCandidate(parse_symbol("(k1+i)", 2),
                              parse_symbol("(k2+i)", 2), quadrant, 0, 1.0)
    report = validate_wave_factors(bad, symbol)
    if report.support_ok:
        print("  unexpectedly passed")
        return 2
    for rec in report.support:
        print(f"  support {rec['factor']:<6} ok={rec['ok']} "
              f"mass {rec['mass_outside']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
