"""Laurent polynomial symbols on the unit circle.

A Laurent polynomial a(z) = sum_{j=-p..q} a_j z^j is the discrete model of
a half-space boundary symbol: its winding number around the circle is the
factorization invariant the lattice lab cross-checks against kernel counts
of truncated convolution operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroOnCircle

__all__ = ["LaurentPolynomial", "laurent_winding", "random_elliptic_laurent"]

CIRCLE_SAMPLES = 4096
TOL_CIRCLE = 1e-10
MAX_HALF_DEGREE = 2     # random_elliptic_laurent: largest p and q, and the
MIN_ROOT_GAP = 0.35     # least distance of a root from the circle


@dataclass(frozen=True)
class LaurentPolynomial:
    """Coefficients a_{min_deg} .. a_{min_deg + len - 1} of sum a_j z^j."""

    coeffs: tuple
    min_deg: int

    @staticmethod
    def make(coeffs, min_deg: int) -> "LaurentPolynomial":
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        # trim exact zeros at both ends so degrees are honest
        nz = np.flatnonzero(arr != 0)
        if nz.size == 0:
            raise ValueError("zero Laurent polynomial")
        lo, hi = nz[0], nz[-1] + 1
        return LaurentPolynomial(tuple(complex(c) for c in arr[lo:hi]),
                                 min_deg + int(lo))

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.coeffs) - 1

    @property
    def pole_order(self) -> int:
        """p >= 0 with a(z) = z^-p * polynomial."""
        return max(0, -self.min_deg)

    @property
    def bandwidth(self) -> int:
        return max(abs(self.min_deg), 0) + max(self.max_deg, 0)

    def coeff(self, j: int) -> complex:
        if self.min_deg <= j <= self.max_deg:
            return self.coeffs[j - self.min_deg]
        return 0.0 + 0.0j

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for j, c in zip(range(self.min_deg, self.max_deg + 1), self.coeffs):
            out = out + c * z ** j
        return out

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        conv = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
        return LaurentPolynomial.make(conv, self.min_deg + other.min_deg)

    def conj_reflected(self) -> "LaurentPolynomial":
        """The symbol of the adjoint: conj(a(1/conj z)), i.e. coefficients
        conjugated and reversed in degree."""
        return LaurentPolynomial.make(
            np.conj(np.asarray(self.coeffs))[::-1], -self.max_deg)

    def min_modulus_on_circle(self) -> float:
        theta = np.linspace(0.0, 2 * np.pi, CIRCLE_SAMPLES, endpoint=False)
        return float(np.min(np.abs(self(np.exp(1j * theta)))))

    def lifted_text(self) -> str:
        """Symbol text in k1 for a(z) with z = (k1 - i)/(k1 + i), usable by
        the expression parser (increasing k1 traverses the circle once
        counterclockwise)."""
        terms = []
        for j, c in zip(range(self.min_deg, self.max_deg + 1), self.coeffs):
            coeff = f"({c.real!r}+({c.imag!r})*i)"
            if j == 0:
                terms.append(coeff)
            else:
                terms.append(f"{coeff}*((k1-i)/(k1+i))^{j}")
        return "+".join(terms) if terms else "0"


def laurent_winding(a: LaurentPolynomial) -> int:
    """Winding number of a(z) around 0 as z traverses the unit circle once
    counterclockwise, via root counting.

    Equals (number of roots of z^p a(z) strictly inside the disk) - p,
    roots from companion-matrix eigenvalues.
    """
    if a.min_modulus_on_circle() <= TOL_CIRCLE:
        raise ZeroOnCircle("Laurent symbol vanishes on the unit circle")
    p = a.pole_order
    # z^p * a(z): polynomial with coefficients of degrees min_deg+p .. max_deg+p
    poly = np.zeros(a.max_deg + p + 1, dtype=complex)
    for j in range(a.min_deg, a.max_deg + 1):
        poly[j + p] = a.coeff(j)
    # np.roots wants highest degree first
    roots = np.roots(poly[::-1]) if poly.size > 1 else np.array([])
    inside = int(np.sum(np.abs(roots) < 1.0))
    return inside - p


def random_elliptic_laurent(rng) -> LaurentPolynomial:
    """Random Laurent symbol nonvanishing on the circle, with all roots of
    z^p a(z) at distance >= MIN_ROOT_GAP from the circle so kernel decay
    rates stay resolvable at moderate section sizes."""
    p = int(rng.integers(0, MAX_HALF_DEGREE + 1))
    q = int(rng.integers(0, MAX_HALF_DEGREE + 1))
    n_roots = p + q
    roots = []
    for _ in range(n_roots):
        if rng.random() < 0.5:
            r = rng.uniform(0.15, 1.0 - MIN_ROOT_GAP)
        else:
            r = rng.uniform(1.0 + MIN_ROOT_GAP, 4.0)
        phi = rng.uniform(0, 2 * np.pi)
        roots.append(r * np.exp(1j * phi))
    lead = (rng.standard_normal() + 1j * rng.standard_normal())
    while abs(lead) < 0.3:
        lead = (rng.standard_normal() + 1j * rng.standard_normal())
    poly = lead * np.poly(roots) if roots else np.array([lead])
    # np.poly gives highest-first; store lowest-first with min_deg = -p
    return LaurentPolynomial.make(poly[::-1], -p)
