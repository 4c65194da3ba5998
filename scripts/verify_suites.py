"""Run all seeded verification suites and print a summary table.

Usage: python scripts/verify_suites.py [seed]

The seed defaults to 0, as in ``symstrat verify``.
"""

import sys
import time

from symstrat.suites import VERIFY_SUITES, run_verify_suite


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    all_ok = True
    for name in sorted(VERIFY_SUITES):
        t0 = time.perf_counter()
        report = run_verify_suite(name, seed)
        elapsed = time.perf_counter() - t0
        status = "ok" if report["passed"] else "FAILED"
        print(f"{name:<12} {status:<8} {len(report['cases'])} cases  "
              f"{elapsed:6.2f}s")
        all_ok = all_ok and report["passed"]
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
