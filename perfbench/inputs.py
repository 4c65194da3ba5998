"""Seeded inputs for every workload, built with numpy alone.

Each generator returns plain data together with the answer the program
should reproduce, so the checks in ``checks.py`` never compare the
program against a copy of its own output.
"""

import numpy as np

# One run cycles through this many generated inputs, in order.
INPUTS_PER_RUN = {
    "toeplitz_index": 64,
    "analyze_cube": 32,
    "assemble_n32": 8,
    "assemble_n64": 8,
}

# Roots of z^p a(z) keep this distance from the unit circle, so kernel
# vectors decay fast enough to be resolved at N=256 and 2N.
ROOT_GAP = 0.35
CUBE_ALPHAS = (1, 2)
CUBE_WINDINGS_NONZERO = (-1, 1, 2)
# Sobolev orders for the cube verdicts; |a/2 - s| never equals 1/2 for
# a in CUBE_ALPHAS, so every expected verdict is clear of the boundary.
CUBE_S_ORDERS = (0.1, 0.4, 0.7, 1.3, 1.6)
ASSEMBLE_SCALE_RANGE = (0.25, 2.0)


def toeplitz_cases(seed: int, count: int) -> list:
    """Laurent symbols lead * z^-p * prod(z - r_j) with bandwidth 0..4.

    The winding about 0 along the unit circle is (roots inside) - p,
    known at generation; it is kept in -2..2."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        while True:
            n_roots = int(rng.integers(0, 5))
            p = int(rng.integers(0, 5))
            inside = int(rng.integers(0, n_roots + 1))
            if abs(inside - p) <= 2:
                break
        radii = np.concatenate([
            rng.uniform(0.15, 1.0 - ROOT_GAP, inside),
            rng.uniform(1.0 + ROOT_GAP, 4.0, n_roots - inside)])
        roots = radii * np.exp(2j * np.pi * rng.random(n_roots))
        lead = complex(*rng.standard_normal(2))
        while abs(lead) < 0.3:
            lead = complex(*rng.standard_normal(2))
        # np.poly lists the highest degree first; store lowest first
        poly = lead * np.atleast_1d(np.poly(roots))
        cases.append({"coeffs": poly[::-1].copy(), "min_deg": -p,
                      "winding": inside - p,
                      "bandwidth": max(n_roots, p)})
    return cases


def cube_cases(seed: int, count: int) -> list:
    """x-dependent symbols c(x)*((k3-i)/(k3+i))^w*(1+abs2(k))^(a/2) with
    c > 0 on the unit cube.  Even positions carry w = 0, so every run
    sees both the full-verdict case and the face-index case."""
    rng = np.random.default_rng(seed)
    cases = []
    for j in range(count):
        a = int(rng.choice(CUBE_ALPHAS))
        w = 0 if j % 2 == 0 else int(rng.choice(CUBE_WINDINGS_NONZERO))
        s = float(rng.choice(CUBE_S_ORDERS))
        c0 = rng.uniform(1.0, 2.0)
        c1, c2, c3 = rng.uniform(-0.3, 0.3, 3)
        c4 = rng.uniform(0.0, 0.5)
        # min of c on [0,1]^3 is at least c0 - 0.9 >= 0.1
        c_text = (f"({c0:.4f}{c1:+.4f}*x1{c2:+.4f}*x2{c3:+.4f}*x3"
                  f"+{c4:.4f}*normx2(x))")
        text = f"{c_text}*((k3-i)/(k3+i))^{w}*(1+abs2(k))^({a}/2)"
        cases.append({"symbol": text, "alpha": a, "winding": w,
                      "s_order": s})
    return cases


def assemble_scales(seed: int, count: int) -> list:
    """Scales a for the symbol (1+a*normx2(x))*(1+abs2(k))^(1/2)."""
    rng = np.random.default_rng(seed)
    lo, hi = ASSEMBLE_SCALE_RANGE
    return [round(float(v), 4) for v in rng.uniform(lo, hi, count)]
