"""Byte-identity of analysis manifests against pinned sha256 digests.

``data/manifest_digests.json`` holds the sha256 of
``dump_json(run_analysis(cfg).comparable_dict())`` for the subset of the
configurations of ``scripts/manifest_digest.py`` whose manifests do not
depend on the BLAS thread count: ten cube inputs and every square and
wedge2d configuration.  A change that moves an entry on purpose copies the
new digest that this test reports into the file, and names the moved
entries and the reason in ``CHANGES.md``.
"""

import hashlib
import json
from pathlib import Path

from symstrat.analysis import AnalysisConfig, dump_json, run_analysis

PINNED = Path(__file__).parent / "data" / "manifest_digests.json"


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
