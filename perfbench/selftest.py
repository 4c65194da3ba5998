"""Self-test of the benchmark's checks, inputs and metric list.

    python3 perfbench/selftest.py

Every check must pass a correct output and flag each negative control:
a shifted expected winding, a flipped verdict, wrong stratum counts, a
reversed ladder, a non-finite proxy and an identity error above 1e-12.
The input generators are checked against numpy alone.  Exits 1 on the
first failure.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent


class SelfTestFailure(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise SelfTestFailure(message)


def _cube_summary(alpha, winding, s_order, fredholm=None):
    """A manifest summary as the method says it must read."""
    half = alpha / 2.0
    reports, per_stratum = [], []
    faces = [(axis, side) for axis in range(3) for side in (0.0, 1.0)]
    for j, (axis, side) in enumerate(faces):
        point = [0.5, 0.5, 0.5]
        point[axis] = side
        ae = half + winding if (axis, side) == (2, 0.0) else half
        reports.append({"stratum": f"face-{j}", "k": 2,
                        "points": [point], "ae_values": [ae]})
    for j in range(20):
        reports.append({"stratum": f"low-{j}", "k": int(j >= 8),
                        "points": [[0.0, 0.0, 0.0]],
                        "ae_values": [half + winding]})
    dev = abs(half - s_order)
    for r in reports:
        per_stratum.append({"stratum": r["stratum"], "margin": 0.5 - dev})
    return {"ok": True, "counts": dict(checks.CUBE_COUNTS),
            "reports": reports, "per_stratum": per_stratum,
            "fredholm": dev < 0.5 if fredholm is None else fredholm}


def test_toeplitz_check():
    for w in (-2, -1, 0, 1, 2):
        case = {"winding": w}
        good = (max(0, -w), max(0, w), -w)
        expect(not checks.check_toeplitz(case, good), f"w={w} rejected")
        expect(checks.negative_controls("toeplitz_index", case, good)
               == {"shifted_winding": True}, f"w={w} control missed")
        # an index that is right but breaks Coburn's lemma
        expect(checks.check_toeplitz(case, (good[0] + 1, good[1] + 1, -w)),
               f"w={w}: ker and coker both nonzero not flagged")


def test_cube_check():
    for alpha in inputs.CUBE_ALPHAS:
        for s in inputs.CUBE_S_ORDERS:
            for w in (0,) + inputs.CUBE_WINDINGS_NONZERO:
                case = {"alpha": alpha, "winding": w, "s_order": s}
                out = _cube_summary(alpha, w, s)
                expect(not checks.check_cube(case, out),
                       f"a={alpha} w={w} s={s} rejected: "
                       f"{checks.check_cube(case, out)}")
                controls = checks.negative_controls("analyze_cube", case, out)
                expect(all(controls.values()),
                       f"a={alpha} w={w} s={s} controls {controls}")
                expect(("flipped_verdict" in controls) == (w == 0),
                       "flipped verdict applies to w = 0 only")
    case = {"alpha": 2, "winding": 0, "s_order": 0.7}
    expect(checks.check_cube(case, _cube_summary(2, 0, 0.7,
                                                 fredholm=False)),
           "flipped verdict not flagged")
    expect(checks.check_cube(case, {"ok": False}), "failed analysis passed")


def test_ladder_and_identity_checks():
    good = [0.3, 0.14]
    expect(not checks.check_ladder(good), "good ladder rejected")
    expect(checks.check_ladder(good[::-1]), "reversed ladder passed")
    expect(checks.check_ladder([0.3, 0.16]), "too slow a decrease passed")
    expect(checks.check_ladder([0.3, math.inf]), "infinite proxy passed")
    expect(checks.check_ladder([0.0, 0.0]), "zero proxies passed")
    expect(not checks.check_identity(2.5e-16), "identity 2.5e-16 rejected")
    expect(checks.check_identity(2e-12), "identity 2e-12 passed")
    controls = checks.negative_controls("assemble_n32", {"scale": 1.0}, good)
    expect(all(controls.values()) and len(controls) == 3,
           f"assembly controls {controls}")


def test_toeplitz_inputs():
    theta = np.linspace(0.0, 2.0 * np.pi, 4097)
    z = np.exp(1j * theta)
    for seed in range(5):
        for case in inputs.toeplitz_cases(seed, 64):
            degs = case["min_deg"] + np.arange(case["coeffs"].size)
            vals = (case["coeffs"][None, :] * z[:, None] ** degs).sum(1)
            steps = np.angle(vals[1:] / vals[:-1])
            expect(np.max(np.abs(steps)) < 0.5, "circle too coarsely sampled")
            winding = int(round(steps.sum() / (2.0 * np.pi)))
            expect(winding == case["winding"],
                   f"seed {seed}: argument principle {winding} != "
                   f"{case['winding']}")
            expect(-2 <= case["winding"] <= 2, "winding out of -2..2")
            span = max(degs[-1], 0) - min(degs[0], 0)
            expect(span == case["bandwidth"] <= 4, "bandwidth out of 0..4")
    expect(inputs.toeplitz_cases(7, 8)[3]["coeffs"].tolist()
           == inputs.toeplitz_cases(7, 8)[3]["coeffs"].tolist(),
           "same seed gave different inputs")


def test_cube_and_assemble_inputs():
    cases = inputs.cube_cases(3, 32)
    expect(all(c["winding"] == 0 for c in cases[::2]), "even w != 0")
    expect(all(c["winding"] != 0 for c in cases[1::2]), "odd w == 0")
    scales = inputs.assemble_scales(3, 8)
    lo, hi = inputs.ASSEMBLE_SCALE_RANGE
    expect(all(lo <= a <= hi for a in scales), "scale out of range")
    expect(scales == inputs.assemble_scales(3, 8), "scales not seeded")


def test_metric_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {name: unit for name, (unit, _k, _s) in tracer.PER_LAYER.items()}
    expect(listed == traced, "BENCHMARK.json per_layer differs from "
           "tracer.PER_LAYER")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        try:
            fn()
        except SelfTestFailure as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
