"""Byte-identity of analysis manifests against pinned sha256 digests.

``data/manifest_digests.json`` holds the sha256 of
``dump_json(run_analysis(cfg).comparable_dict())`` for the subset of the
configurations of ``scripts/manifest_digest.py`` whose manifests do not
depend on the BLAS thread count: ten cube inputs and every square and
wedge2d configuration.  A manifest holds no seed: the ellipticity grid is
fixed (``symbols.GRID_SEED``), and an elliptic symbol's stage records its
``order_fit``.  A change that moves an entry on purpose copies the new
digest that this test reports into the file, and names the moved entries
and the reason in ``CHANGES.md``.

``data/ladder_proxies.json`` holds the ``float.hex`` of the
``assembly_convergence`` proxies on the 16 x 16 grid for the first two
``assemble_n32`` benchmark inputs of seed 1; they are the same under one
and two BLAS threads.  Moved proxies are handled as moved digests.

``data/toeplitz_windings.json`` holds the ``float.hex`` of the
``winding_index`` of the lifted symbols of the toeplitz suite of seed 0,
drawn as the suite draws them; moved values are handled as moved
digests.

``data/index_suite_digests.json`` holds the sha256 of
``dump_json(run_verify_suite(name, seed))`` for the three index suites,
``toeplitz``, ``additivity`` and ``paired``, at seeds 0 and 1; none
depends on the BLAS thread count.  Their kernel and cokernel counts are
the integers that ``lattice._kernel_count`` produces on the sections of
T(a), T(a)T(b) and a P + b Q, so a change to that count's numerics must
leave these reports byte for byte the same.  Moved reports are handled
as moved digests.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from symstrat.analysis import AnalysisConfig, dump_json, run_analysis
from symstrat.factorization import winding_index
from symstrat.geometry import stratify_model
from symstrat.lattice import LatticeGrid, assembly_convergence
from symstrat.laurent import random_elliptic_laurent
from symstrat.suites import TOEPLITZ_CASES, run_verify_suite
from symstrat.symbols import Symbol

PINNED = Path(__file__).parent / "data" / "manifest_digests.json"
LADDERS = Path(__file__).parent / "data" / "ladder_proxies.json"
WINDINGS = Path(__file__).parent / "data" / "toeplitz_windings.json"
INDEX_SUITES = Path(__file__).parent / "data" / "index_suite_digests.json"


def test_pinned_manifests_are_byte_identical():
    rows = json.loads(PINNED.read_text(encoding="utf-8"))
    assert {row["model"] for row in rows} == {"square", "wedge2d", "cube"}
    moved = []
    for row in rows:
        cfg = AnalysisConfig(symbol_text=row["symbol"], alpha=row["alpha"],
                             model=row["model"], s_order=row["s_order"])
        text = dump_json(run_analysis(cfg).comparable_dict())
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != row["sha256"]:
            moved.append(f"{row['model']} {row['symbol']} "
                         f"s={row['s_order']}: now {digest}")
    assert not moved, "manifests moved:\n" + "\n".join(moved)


def test_pinned_ladder_proxies_are_bit_identical():
    pinned = json.loads(LADDERS.read_text(encoding="utf-8"))
    grid = LatticeGrid(2, pinned["grid_n"], 1.0 / pinned["grid_n"])
    strat = stratify_model(pinned["model"], 2)
    moved = []
    for row in pinned["ladders"]:
        table = assembly_convergence(
            Symbol.parse(row["symbol"], pinned["alpha"], 2), strat,
            pinned["eps"], grid, s_order=pinned["s_order"])
        proxies = [float(r["proxy"]).hex() for r in table]
        if proxies != row["proxies"]:
            moved.append(f"{row['symbol']}: now {proxies}")
    assert len(pinned["ladders"]) == 2
    assert not moved, "ladder proxies moved:\n" + "\n".join(moved)


def test_pinned_toeplitz_windings_are_bit_identical():
    # the draws of the toeplitz suite, without its Toeplitz sections
    pinned = json.loads(WINDINGS.read_text(encoding="utf-8"))
    rng = np.random.default_rng(pinned["seed"])
    windings = [winding_index(Symbol.parse(
        random_elliptic_laurent(rng).lifted_text(), 0.0, 1), [0.0], []).hex()
        for _ in range(TOEPLITZ_CASES)]
    assert len(pinned["windings"]) == TOEPLITZ_CASES == 20
    assert windings == pinned["windings"]


def test_pinned_index_suite_reports_are_byte_identical():
    rows = json.loads(INDEX_SUITES.read_text(encoding="utf-8"))
    assert {(row["suite"], row["seed"]) for row in rows} == {
        (name, seed) for name in ("toeplitz", "additivity", "paired")
        for seed in (0, 1)}
    moved = []
    for row in rows:
        text = dump_json(run_verify_suite(row["suite"], row["seed"]))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != row["sha256"]:
            moved.append(f"{row['suite']} seed {row['seed']}: now {digest}")
    assert not moved, "index suite reports moved:\n" + "\n".join(moved)
