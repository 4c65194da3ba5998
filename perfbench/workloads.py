"""The four workloads: inputs turned into program objects, one item each.

Program functions are always reached through their module
(``lattice.numerical_index``), so that the tracer, which patches module
attributes, sees every call the benchmark makes.
"""

from symstrat import analysis, geometry, lattice, laurent, symbols

import checks
import inputs

LADDER = (0.4, 0.2, 0.1)
TOEPLITZ_N = 256


class ToeplitzIndex:
    """``numerical_index`` at N=256: the half-space index model."""

    name = "toeplitz_index"

    def __init__(self, seed: int):
        self.cases = inputs.toeplitz_cases(
            seed, inputs.INPUTS_PER_RUN[self.name])
        self.items = [laurent.LaurentPolynomial.make(c["coeffs"],
                                                     c["min_deg"])
                      for c in self.cases]

    def warmup(self):
        lattice.numerical_index(
            laurent.LaurentPolynomial.make([2.0, 1.0], 0), 16)

    def run(self, i: int):
        e = lattice.numerical_index(self.items[i], TOEPLITZ_N)
        return (e.dim_ker, e.dim_coker, e.index)

    def check(self, i: int, out) -> list:
        return checks.check_toeplitz(self.cases[i], out)

    def final_checks(self) -> list:
        return []


class AnalyzeCube:
    """``run_analysis`` on the cube model (26 boundary strata)."""

    name = "analyze_cube"

    def __init__(self, seed: int):
        self.cases = inputs.cube_cases(seed, inputs.INPUTS_PER_RUN[self.name])
        self.configs = [
            analysis.AnalysisConfig(symbol_text=c["symbol"],
                                    alpha=float(c["alpha"]), model="cube",
                                    s_order=c["s_order"])
            for c in self.cases]

    def warmup(self):
        analysis.run_analysis(analysis.AnalysisConfig(
            symbol_text="(1+abs2(k))^(1/2)", alpha=1.0, model="cube",
            quad_samples=256))

    def run(self, i: int):
        m = analysis.run_analysis(self.configs[i])
        st = m.stages
        if not m.ok:
            return {"ok": False}
        return {
            "ok": True,
            "counts": {int(k): v
                       for k, v in st["stratification"]["counts"].items()},
            "reports": [{"stratum": r["stratum"], "k": r["k"],
                         "points": r["points"], "ae_values": r["ae_values"]}
                        for r in st["factorization"]["reports"]],
            "per_stratum": [{"stratum": v["stratum"], "margin": v["margin"]}
                            for v in st["fredholm"]["per_stratum"]],
            "fredholm": st["fredholm"]["fredholm"],
        }

    def check(self, i: int, out) -> list:
        return checks.check_cube(self.cases[i], out)

    def final_checks(self) -> list:
        return []


class AssembleLadder:
    """``assembly_convergence`` on the square at grid N, radii 0.4/0.2/0.1."""

    def __init__(self, n: int, seed: int):
        self.name = f"assemble_n{n}"
        self.grid = lattice.LatticeGrid(2, n, 1.0 / n)
        self.strat = geometry.stratify_model("square", 2)
        self.cases = [{"scale": a} for a in inputs.assemble_scales(
            seed, inputs.INPUTS_PER_RUN[self.name])]
        self.items = [symbols.Symbol.parse(
            f"(1+{c['scale']:.4f}*normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
            for c in self.cases]

    def warmup(self):
        lattice.assembly_convergence(self.items[0], self.strat, LADDER,
                                     lattice.LatticeGrid(2, 8, 1.0 / 8),
                                     s_order=1.0)

    def run(self, i: int):
        table = lattice.assembly_convergence(self.items[i], self.strat,
                                             LADDER, self.grid, s_order=1.0)
        return [row["proxy"] for row in table]

    def check(self, i: int, out) -> list:
        return checks.check_ladder(out)

    def final_checks(self) -> list:
        """Identity family on the same grid, coarsest radius."""
        pts = self.grid.points()
        cov = geometry.build_covering(self.strat, LADDER[0], cover_points=pts)
        pou = geometry.partition_of_unity(cov, pts)
        ident = lattice.DiscreteOperator.identity(
            lattice.DiscreteSobolevSpace(self.grid, 0.0))
        assembled = lattice.assemble_operator(
            {b.center: ident for b in cov.balls}, pou)
        return checks.check_identity(
            float(lattice.operator_norm(assembled - ident)))


WORKLOADS = {
    "toeplitz_index": ToeplitzIndex,
    "analyze_cube": AnalyzeCube,
    "assemble_n32": lambda seed: AssembleLadder(32, seed),
    "assemble_n64": lambda seed: AssembleLadder(64, seed),
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)

