"""Known wrong results, one strict xfail test each, asserting the right value.

Each test fails today on its assertion alone: ``raises=AssertionError``
keeps a crash from counting as the expected failure.  When a fix lands,
the test passes, strict mode turns that pass into a failure, and the fix
removes the marker; the test is then the fix's regression gate.  The
numbers refer to the items of ``ROADMAP.md``.
"""

import numpy as np
import pytest

from symstrat.analysis import AnalysisConfig, run_analysis
from symstrat.errors import SymstratError
from symstrat.factorization import winding_index
from symstrat.lattice import (DiscreteOperator, DiscreteSobolevSpace,
                              LatticeGrid, numerical_index,
                              numerical_index_paired, operator_norm)
from symstrat.laurent import LaurentPolynomial
from symstrat.symbols import Symbol

known_wrong = pytest.mark.xfail(strict=True, raises=AssertionError)


def _stages(symbol, alpha, model, s_order=0.0):
    return run_analysis(AnalysisConfig(symbol, alpha, model,
                                       s_order)).comparable_dict()["stages"]


@known_wrong
def test_item_4_each_edge_winds_along_its_own_normal():
    # on x1 = 0 the inward normal is +e1, so the factor (k1-i)/(k1+i)
    # adds to alpha/2 = 1; on x1 = 1 it is -e1, and it subtracts
    reports = _stages("(1+normx2(x))*((k1-i)/(k1+i))*(1+abs2(k))", 2.0,
                      "square")["factorization"]["reports"]
    ae = {r["stratum"]: r["ae_values"] for r in reports}
    assert ae["edge-3"] == pytest.approx([2.0, 2.0])
    assert ae["edge-1"] == pytest.approx([0.0, 0.0])


@known_wrong
def test_item_4_each_cube_face_winds_along_its_own_normal():
    # (k3-i)/(k3+i) adds to alpha/2 = 1 on the face x3 = 0, whose inward
    # normal is +e3, subtracts on x3 = 1, and does not wind along the
    # normals of the other four faces.  A face is the stratum whose
    # sample points share exactly one coordinate (axis, value) in {0, 1}
    reports = _stages("(1+normx2(x))*((k3-i)/(k3+i))*(1+abs2(k))", 2.0,
                      "cube")["factorization"]["reports"]
    faces = {}
    for r in reports:
        on = {(i, p[i]) for p in r["points"] for i in range(3)
              if p[i] in (0.0, 1.0)}
        if len(on) == 1:
            faces[on.pop()] = r["ae_values"]
    want = {(0, 0.0): 1.0, (0, 1.0): 1.0, (1, 0.0): 1.0, (1, 1.0): 1.0,
            (2, 0.0): 2.0, (2, 1.0): 0.0}
    assert sorted(faces) == sorted(want)
    for face, ae in faces.items():
        assert ae == pytest.approx([want[face]] * len(ae)), face


@known_wrong
@pytest.mark.parametrize("text", ["(k1-50+0.01*i)/(k1-50-0.01*i)",
                                  "(k1-3000+0.1*i)/(k1-3000-0.1*i)"])
def test_item_9_winding_sees_a_narrow_zero_far_out(text):
    # the zero at t = 50 + 0.01i (t = 3000 + 0.1i) lies above the line:
    # the winding is -1, or the quadrature refuses by name
    try:
        value = winding_index(Symbol.parse(text, 0.0, 1), [0.0], [])
    except SymstratError:
        return
    assert round(value) == -1


@known_wrong
def test_item_9_the_square_example_is_not_fredholm():
    # the k2 factor winds -1, so its true index on the strata is -0.5,
    # a margin of -0.5 against s = 0.5; the run must not report it
    # Fredholm
    stages = _stages("((k2-50+0.01*i)/(k2-50-0.01*i))*(1+abs2(k))^(1/2)",
                     1.0, "square", 0.5)
    assert stages["fredholm"].get("fredholm") is not True


@known_wrong
def test_stable_counts_resolve_a_decaying_kernel_at_small_n():
    # T(z^-3 (2+z)) and (2+z) P + z^3 Q have kernel 3 and cokernel 0; at
    # N = 8 the sections at N and 2N cannot hold the third kernel vector,
    # which decays like 2^-j: each reads (3, 0) or refuses naming N
    two_plus_z = LaurentPolynomial.make([2, 1], 0)
    for count in (
            lambda: numerical_index(LaurentPolynomial.make([2, 1], -3), 8),
            lambda: numerical_index_paired(two_plus_z,
                                           LaurentPolynomial.make([1], 3), 8)):
        try:
            entry = count()
        except (SymstratError, ValueError) as exc:
            assert "N=8" in str(exc)
            continue
        assert (entry.dim_ker, entry.dim_coker) == (3, 0)


@known_wrong
def test_operator_norm_of_a_multiplication_operator_is_its_sup():
    # PROPACK starts from ones/sqrt(n), which in the weighted DFT
    # coordinates is the delta at grid point 0; a multiplication operator
    # maps it to a multiple of itself, the Lanczos basis breaks down, and
    # the sigma returned reads 1.3499 and 1.1906, where the dense SVD
    # reads 1.0.  At s = 0 the weights are 1
    space = DiscreteSobolevSpace(LatticeGrid(1, 64, 1 / 64), 0.0)
    for op in (DiscreteOperator.identity(space),
               DiscreteOperator.diagonal(np.linspace(1, 0.5, 64), space,
                                         space)):
        dense = np.linalg.norm(op.to_dense(), 2)
        assert dense == pytest.approx(1.0)
        assert operator_norm(op) == pytest.approx(dense, rel=1e-9)


def test_item_18_a_declared_order_below_the_growth_is_not_fredholm():
    # 1 + |xi|^2 has order 2: declared with alpha 1, its indices alpha/2
    # are wrong, and the run must not report the operator Fredholm
    stages = _stages("1+abs2(k)", 1.0, "square", 0.5)
    assert stages["fredholm"].get("fredholm") is not True


@known_wrong
def test_item_2_a_zero_at_a_face_point_fails_the_ellipticity_stage():
    # the symbol vanishes at the face point (0.025, 0.025, 0) with xi = 0
    stages = _stages("(x1-0.025)^2+(x2-0.025)^2+x3^2+abs2(k)", 2.0, "cube")
    assert stages["ellipticity"]["status"] == "error"


@known_wrong
def test_item_8_a_zero_line_between_samples_is_not_elliptic():
    # (x1-0.3)^2 + |xi|^2 vanishes on the line x1 = 0.3 at xi = 0
    stages = _stages("(x1-0.3)^2+abs2(k)", 2.0, "square")
    assert stages["ellipticity"]["status"] == "error"


@known_wrong
def test_item_26_a_zero_between_frequency_nodes_fails_the_ellipticity_stage():
    # the symbol vanishes at xi = (3.3, 1.1), between the nodes of the
    # frequency box (spacing 2), where the grid reads c1 = 0.0434; at
    # s = 1 the run reports the operator Fredholm
    stages = _stages("(k1-3.3)^2+(k2-1.1)^2", 2.0, "square", 1.0)
    assert stages["ellipticity"]["status"] == "error"


@known_wrong
def test_item_26_a_zero_far_out_is_refused_as_a_zero():
    # the zero at xi = (18.5, 0) bends the fitted growth along k1 to
    # 2.562, so the run is refused, but for its order, not for the zero
    stages = _stages("(k1-18.5)^2+k2^2", 2.0, "square", 1.0)
    assert stages["ellipticity"]["status"] == "error"
    assert stages["ellipticity"]["error_type"] != "OrderMismatch"
