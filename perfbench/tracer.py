"""Outside-in tracing of symstrat for the per-layer metrics.

``Tracer.install`` replaces, in every loaded ``symstrat`` module, each
binding of a public function of analysis, geometry, dsl, symbols,
factorization, laurent and lattice with a wrapper that records a span.
In ``lattice`` alone it also replaces the ``np`` and ``svds`` globals, so
that the SVDs, FFTs and identity blocks lattice asks numpy for, and the
matvecs ARPACK asks of the operator ``operator_norm`` builds, are counted
where lattice makes them.  ``uninstall`` restores every binding.  Spans
stay in memory until ``dump``; nothing in the program is edited.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from scipy.sparse.linalg import LinearOperator

from symstrat import (analysis, dsl, factorization, geometry, lattice,
                      laurent, symbols)

TRACED_MODULES = (analysis, geometry, dsl, symbols, factorization, laurent,
                  lattice)

# name -> (unit, kind, key).  kind: "incl"/"self" = span time, "calls" =
# span count, "count" = counter, "setup" and "trace" = filled by the
# worker.  Every value but setup.* is per traced item.
PER_LAYER = {
    "lattice.svd_calls": ("count/item", "calls", "lattice.svd"),
    "lattice.svd_s": ("s/item", "incl", "lattice.svd"),
    "lattice.svd_flops_computed": ("flop/item", "count", "lattice.svd_flops"),
    "lattice.numerical_index_s": ("s/item", "incl", "lattice.numerical_index"),
    "factorization.winding_index_calls":
        ("count/item", "calls", "factorization.winding_index"),
    "factorization.winding_nodes":
        ("count/item", "count", "factorization.winding_nodes"),
    "factorization.winding_index_s":
        ("s/item", "incl", "factorization.winding_index"),
    "symbols.check_ellipticity_s":
        ("s/item", "incl", "symbols.check_ellipticity"),
    "dsl.eval_on_grid_calls": ("count/item", "calls", "dsl.eval_on_grid"),
    "dsl.eval_on_grid_points":
        ("count/item", "count", "dsl.eval_on_grid_points"),
    "dsl.eval_on_grid_s": ("s/item", "incl", "dsl.eval_on_grid"),
    "analysis.run_analysis_s": ("s/item", "self", "analysis.run_analysis"),
    "analysis.stage_stratification_s":
        ("s/item", "count", "analysis.stage_stratification_s"),
    "analysis.stage_ellipticity_s":
        ("s/item", "count", "analysis.stage_ellipticity_s"),
    "analysis.stage_factorization_s":
        ("s/item", "count", "analysis.stage_factorization_s"),
    "analysis.stage_fredholm_s":
        ("s/item", "count", "analysis.stage_fredholm_s"),
    "geometry.stratify_model_s": ("s/item", "incl", "geometry.stratify_model"),
    "factorization.check_fredholm_condition_s":
        ("s/item", "incl", "factorization.check_fredholm_condition"),
    "lattice.operator_norm_calls":
        ("count/item", "calls", "lattice.operator_norm"),
    "lattice.operator_norm_dense_calls":
        ("count/item", "count", "lattice.operator_norm_dense_calls"),
    "lattice.operator_norm_arpack_calls":
        ("count/item", "count", "lattice.operator_norm_arpack_calls"),
    "lattice.operator_norm_s": ("s/item", "incl", "lattice.operator_norm"),
    "lattice.fft_calls": ("count/item", "count", "lattice.fft_calls"),
    "lattice.fft_points": ("count/item", "count", "lattice.fft_points"),
    "lattice.arpack_matvecs": ("count/item", "count", "lattice.arpack_matvecs"),
    "geometry.build_covering_s": ("s/item", "incl", "geometry.build_covering"),
    "geometry.covering_balls": ("count/item", "count", "geometry.covering_balls"),
    "geometry.partition_of_unity_s":
        ("s/item", "incl", "geometry.partition_of_unity"),
    "lattice.assemble_frozen_family_s":
        ("s/item", "incl", "lattice.assemble_frozen_family"),
    "laurent.laurent_winding_s": ("s/item", "incl", "laurent.laurent_winding"),
    "setup.import_s": ("s", "setup", "import_s"),
    "setup.inputs_s": ("s", "setup", "inputs_s"),
    "trace.overhead_pct": ("%", "trace", "overhead_pct"),
    "trace.spans": ("count/item", "trace", "spans"),
}


class _Namespace:
    """A module seen through attribute overrides; the rest passes through."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _svd_flops(a) -> float:
    """Golub-Van Loan count for singular values only, 4mn^2 - 4n^3/3 real
    flops with m >= n, times 4 for complex arithmetic."""
    m, n = a.shape[-2:]
    m, n = max(m, n), min(m, n)
    flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    return 4.0 * flops if a.dtype.kind == "c" else flops


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, item]
        self.spans = []
        self.counts = defaultdict(float)
        self.item = None
        self._stack = []
        self._norm_path = {}
        self._patches = []
        self._wrapped = {}
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrapped[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
        self._post = {
            "dsl.eval_on_grid": self._post_eval_on_grid,
            "geometry.build_covering": self._post_build_covering,
            "analysis.run_analysis": self._post_run_analysis,
            "lattice.operator_norm": self._post_operator_norm,
        }

    # -- spans ---------------------------------------------------------------

    def _enter(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            post = self._post.get(name)
            if post is not None:
                post(idx, result)
            return result
        return wrapper

    def _enclosing(self, name):
        for idx in reversed(self._stack):
            if self.spans[idx][0] == name:
                return idx
        return None

    # -- counters taken from results -----------------------------------------

    def _post_eval_on_grid(self, idx, result):
        self.counts["dsl.eval_on_grid_points"] += result.size
        if self._enclosing("factorization.winding_index") is not None:
            self.counts["factorization.winding_nodes"] += result.size

    def _post_build_covering(self, idx, result):
        self.counts["geometry.covering_balls"] += len(result.balls)

    def _post_run_analysis(self, idx, result):
        for stage, seconds in result.wall_times.items():
            self.counts[f"analysis.stage_{stage}_s"] += seconds

    def _post_operator_norm(self, idx, result):
        path = self._norm_path.pop(idx, None)
        if path is not None:
            self.counts[f"lattice.operator_norm_{path}_calls"] += 1

    def _mark_norm_path(self, path):
        idx = self._enclosing("lattice.operator_norm")
        if idx is not None and self._norm_path.get(idx) != "arpack":
            self._norm_path[idx] = path

    # -- numpy and scipy as lattice sees them ----------------------------------

    def _lattice_numpy(self, np):
        def svd(a, *args, **kwargs):
            self.counts["lattice.svd_flops"] += _svd_flops(a)
            idx = self._enter("lattice.svd")
            try:
                return np.linalg.svd(a, *args, **kwargs)
            finally:
                self._exit(idx)

        def fft(real):
            def call(a, *args, **kwargs):
                self.counts["lattice.fft_calls"] += 1
                self.counts["lattice.fft_points"] += a.size
                return real(a, *args, **kwargs)
            return call

        def eye(*args, **kwargs):
            # operator_norm builds an identity block only on its dense path
            self._mark_norm_path("dense")
            return np.eye(*args, **kwargs)

        return _Namespace(
            np, eye=eye, linalg=_Namespace(np.linalg, svd=svd),
            fft=_Namespace(np.fft, fftn=fft(np.fft.fftn),
                           ifftn=fft(np.fft.ifftn)))

    def _lattice_svds(self, svds):
        counts = self.counts

        def counting_svds(op, *args, **kwargs):
            self._mark_norm_path("arpack")

            def mv(v):
                counts["lattice.arpack_matvecs"] += 1
                return op.matvec(v)

            def rmv(v):
                counts["lattice.arpack_matvecs"] += 1
                return op.rmatvec(v)

            counted = LinearOperator(op.shape, matvec=mv, rmatvec=rmv,
                                     dtype=op.dtype)
            return svds(counted, *args, **kwargs)
        return counting_svds

    # -- install / uninstall -------------------------------------------------

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if name == "symstrat" or name.startswith("symstrat.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = self._wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        self._patch(lattice, "np", self._lattice_numpy(lattice.np))
        self._patch(lattice, "svds", self._lattice_svds(lattice.svds))

    def uninstall(self):
        while self._patches:
            mod, attr, val = self._patches.pop()
            setattr(mod, attr, val)

    # -- results ---------------------------------------------------------------

    def _child_time(self) -> dict:
        """Time each span spent in its direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def _totals(self):
        incl = defaultdict(float)
        self_t = defaultdict(float)
        calls = defaultdict(int)
        child = self._child_time()
        for idx, (name, start, end, parent, _item) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child[idx]
            calls[name] += 1
        return incl, self_t, calls

    def layer_metrics(self, n_items: int) -> dict:
        """Every span- and counter-based metric of PER_LAYER, per item;
        a layer the workload never reaches reads 0."""
        incl, self_t, calls = self._totals()
        source = {"incl": incl, "self": self_t, "calls": calls,
                  "count": self.counts}
        out = {}
        for name, (unit, kind, key) in PER_LAYER.items():
            if kind in source:
                out[name] = {"value": source[kind].get(key, 0) / n_items,
                             "unit": unit}
        return out

    def dump(self, path, t_origin: float):
        """Write the spans, with self time, and the counters as JSON."""
        child = self._child_time()
        rows = [{"name": name, "item": item, "parent": parent,
                 "start_s": start - t_origin, "dur_s": end - start,
                 "self_s": end - start - child[idx]}
                for idx, (name, start, end, parent, item)
                in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
