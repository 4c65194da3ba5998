"""Correctness checks for every workload, independent of the program.

Each check returns a list of problems; an empty list means the output
passed.  The expected values follow from how the inputs were built or
from the method itself (see README.md), never from an earlier output.
``negative_controls`` feeds each check a corrupted expectation or
output and reports whether the check flagged it.
"""

import math

CUBE_COUNTS = {3: 1, 2: 6, 1: 12, 0: 8}
TOL_INDEX = 1e-9
TOL_MARGIN = 1e-9
TOL_IDENTITY = 1e-12


def check_toeplitz(case: dict, result: tuple) -> list:
    """index == -w and Coburn's lemma: ker = max(0, -w), coker = max(0, w)."""
    ker, coker, index = result
    w = case["winding"]
    problems = []
    if index != -w:
        problems.append(f"index {index} != -winding {-w}")
    if ker != max(0, -w):
        problems.append(f"dim_ker {ker} != max(0, -w) = {max(0, -w)}")
    if coker != max(0, w):
        problems.append(f"dim_coker {coker} != max(0, w) = {max(0, w)}")
    return problems


def _face_x3_zero(reports: list) -> list:
    return [r for r in reports
            if r["k"] == 2 and all(abs(p[2]) < 1e-12 for p in r["points"])]


def check_cube(case: dict, summary: dict) -> list:
    """Stratum counts, and the indices, margins and verdict that follow
    from the symbol's construction (see README.md)."""
    problems = []
    if not summary["ok"]:
        return ["analysis did not complete"]
    if summary["counts"] != CUBE_COUNTS:
        problems.append(f"stratum counts {summary['counts']}")
    half = case["alpha"] / 2.0
    w = case["winding"]
    if w == 0:
        dev = abs(half - case["s_order"])
        for rep in summary["reports"]:
            bad = [v for v in rep["ae_values"] if abs(v - half) > TOL_INDEX]
            if bad:
                problems.append(f"{rep['stratum']}: index {bad[0]} != a/2")
        for v in summary["per_stratum"]:
            if abs(v["margin"] - (0.5 - dev)) > TOL_MARGIN:
                problems.append(f"{v['stratum']}: margin {v['margin']} "
                                f"!= {0.5 - dev}")
        if len(summary["per_stratum"]) != 26:
            problems.append(f"{len(summary['per_stratum'])} verdicts != 26")
        if summary["fredholm"] != (dev < 0.5):
            problems.append(f"verdict {summary['fredholm']} != {dev < 0.5}")
    else:
        faces = _face_x3_zero(summary["reports"])
        if len(faces) != 1:
            problems.append(f"{len(faces)} faces at x3=0, want 1")
        for rep in faces:
            bad = [v for v in rep["ae_values"]
                   if abs(v - (half + w)) > TOL_INDEX]
            if bad:
                problems.append(f"face x3=0: index {bad[0]} != a/2+w "
                                f"= {half + w}")
    return problems


def check_ladder(proxies: list) -> list:
    """Proxies finite and positive; each at most 1.5x the one before and
    the last at most half the first (radii 0.4, 0.2, 0.1)."""
    problems = []
    if len(proxies) != 2:
        return [f"{len(proxies)} proxies, want 2"]
    if not all(math.isfinite(p) and p > 0 for p in proxies):
        return [f"proxies not finite and positive: {proxies}"]
    for a, b in zip(proxies, proxies[1:]):
        if b > 1.5 * a:
            problems.append(f"proxy {b} > 1.5 x {a}")
    if proxies[-1] > proxies[0] / 2.0:
        problems.append(f"last proxy {proxies[-1]} > half of {proxies[0]}")
    return problems


def check_identity(err: float) -> list:
    """The identity family assembles to the identity."""
    if not (math.isfinite(err) and err <= TOL_IDENTITY):
        return [f"identity family error {err} > {TOL_IDENTITY}"]
    return []


def negative_controls(workload: str, case, output) -> dict:
    """Corrupt one expectation or output at a time; True means flagged."""
    if workload == "toeplitz_index":
        shifted = dict(case, winding=case["winding"] + 1)
        return {"shifted_winding": bool(check_toeplitz(shifted, output))}
    if workload == "analyze_cube":
        shifted = dict(case, winding=case["winding"] + 1)
        flipped = dict(output, fredholm=not output["fredholm"])
        counts = dict(output, counts={**output["counts"], 1: 11})
        out = {"shifted_winding": bool(check_cube(shifted, output)),
               "wrong_counts": bool(check_cube(case, counts))}
        if case["winding"] == 0:
            out["flipped_verdict"] = bool(check_cube(case, flipped))
        return out
    proxies = list(output)
    return {"reversed_ladder": bool(check_ladder(proxies[::-1])),
            "nan_proxy": bool(check_ladder([proxies[0], math.nan])),
            "identity_off": bool(check_identity(1e-6))}
