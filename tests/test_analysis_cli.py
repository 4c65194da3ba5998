"""Pipeline manifests, verification suites and the command-line interface."""

import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import symstrat
from symstrat import analysis, lattice, suites
from symstrat.analysis import AnalysisConfig, dump_json, run_analysis
from symstrat.cli import main
from symstrat.errors import ConfigError, SymstratError
from symstrat.factorization import winding_index
from symstrat.geometry import build_covering, stratify_model
from symstrat.lattice import LatticeGrid
from symstrat.suites import run_verify_suite
from symstrat.symbols import Symbol, frequency_grid


def _analyze(symbol, alpha, model="square", s=0.0, **kw):
    cfg = AnalysisConfig(symbol_text=symbol, alpha=alpha, model=model,
                         s_order=s, **kw)
    return run_analysis(cfg)


# --------------------------------------------------------------------------
# pipeline

def test_square_sqrt_symbol_passes_everywhere():
    manifest = _analyze("(1+abs2(k))^(1/2)", 1.0, s=0.5)
    assert manifest.ok
    verdict = manifest.stages["fredholm"]
    assert verdict["fredholm"]
    for stratum in verdict["per_stratum"]:
        assert stratum["ae_range"] == [0.5, 0.5]
        assert stratum["margin"] == pytest.approx(0.5, abs=1e-12)


def test_non_elliptic_symbol_records_witness_and_fails():
    manifest = _analyze("k1", 1.0)
    assert not manifest.ok
    ell = manifest.stages["ellipticity"]
    assert ell["status"] == "error"
    assert ell["witness"] is not None
    assert manifest.stages["factorization"]["status"] == "skipped"
    assert manifest.stages["fredholm"]["status"] == "skipped"


_STAGES = ("stratification", "ellipticity", "factorization", "fredholm")


class InjectedError(SymstratError):
    pass


def _raise_injected(*args, **kwargs):
    raise InjectedError("injected failure")


@pytest.mark.parametrize("symbol, target, failing, reason", [
    ("5", "stratify_model", "stratification", "stratification failed"),
    ("5", "check_ellipticity", "ellipticity", "ellipticity stage failed"),
    ("5", "winding_index", "factorization", "factorization failed"),
    ("5", "check_fredholm_condition", "fredholm", None),
    ("k1", None, "ellipticity", "symbol not elliptic"),
], ids=["stratification", "ellipticity", "factorization", "fredholm",
        "not-elliptic"])
def test_every_stage_outcome(monkeypatch, tmp_path, symbol, target, failing,
                             reason):
    if target is not None:
        monkeypatch.setattr(analysis, target, _raise_injected)
    alpha = 1.0 if symbol == "k1" else 0.0
    manifest = run_analysis(AnalysisConfig(symbol_text=symbol, alpha=alpha))
    at = _STAGES.index(failing)
    record = manifest.stages[failing]
    assert record["status"] == "error"
    if target is not None:
        assert record["error_type"] == "InjectedError"
        assert record["error"] == "injected failure"
    assert all(manifest.stages[st]["status"] == "ok" for st in _STAGES[:at])
    assert all(manifest.stages[st] == {"status": "skipped", "reason": reason}
               for st in _STAGES[at + 1:])
    assert set(manifest.wall_times) == set(_STAGES[:at + 1])
    assert manifest.ok is False
    # the CLI still writes the manifest of a run that a stage stopped
    assert main(["analyze", "--symbol", symbol, "--alpha", str(alpha),
                 "--out", str(tmp_path)]) == 2
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert set(written.pop("wall_times")) == set(manifest.wall_times)
    assert written == json.loads(dump_json(manifest.comparable_dict()))


def test_overflowing_symbol_is_an_ellipticity_error():
    manifest = _analyze("exp(abs2(k))", 0.0)
    assert not manifest.ok
    assert manifest.stages["ellipticity"]["status"] == "error"
    assert manifest.stages["ellipticity"]["error_type"] == "EvalError"
    for st in ("factorization", "fredholm"):
        assert manifest.stages[st] == {"status": "skipped",
                                       "reason": "ellipticity stage failed"}


def test_constant_symbol_passes_with_zero_index():
    manifest = _analyze("5", 0.0, s=0.0)
    assert manifest.ok
    verdict = manifest.stages["fredholm"]
    assert verdict["fredholm"]
    for stratum in verdict["per_stratum"]:
        assert stratum["ae_range"] == [0.0, 0.0]


def test_failed_condition_is_a_verdict_not_an_error():
    manifest = _analyze("(1+abs2(k))^(1/2)", 1.0, s=1.1)
    assert manifest.ok          # completed analysis
    verdict = manifest.stages["fredholm"]
    assert not verdict["fredholm"]
    for stratum in verdict["per_stratum"]:
        assert stratum["margin"] == pytest.approx(-0.1, abs=1e-9)


def test_cube_pipeline_covers_all_strata():
    manifest = _analyze("(1+abs2(k))^(1/2)", 1.0, model="cube", s=0.5)
    assert manifest.ok
    verdict = manifest.stages["fredholm"]
    assert verdict["fredholm"]
    assert len(verdict["per_stratum"]) == 26    # 8 + 12 + 6 boundary strata


def test_manifest_determinism():
    cfg = AnalysisConfig(symbol_text="(1+abs2(k))^(1/2)", alpha=1.0,
                         model="square", s_order=0.5)
    first = run_analysis(cfg).comparable_dict()
    second = run_analysis(cfg).comparable_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


def test_manifest_written_to_out_dir(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["analyze", "--symbol", "5", "--alpha", "0", "--model",
                 "square", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{out / 'manifest.json'}\n"
    text = (out / "manifest.json").read_text()
    data = json.loads(text)
    # the text of every --out report: dump_json and one trailing newline
    assert text == dump_json(data) + "\n"
    assert data["ok"] is True
    assert data["config_hash"]
    assert set(data["stages"]) == {"stratification", "ellipticity",
                                   "factorization", "fredholm"}


def test_config_validation():
    with pytest.raises(ConfigError):
        AnalysisConfig(symbol_text="1", alpha=0.0, model="torus").validate()
    with pytest.raises(ConfigError):
        AnalysisConfig(symbol_text="k9", alpha=0.0, model="square").validate()
    with pytest.raises(ConfigError, match="s_order must be finite"):
        AnalysisConfig(symbol_text="1", alpha=0.0,
                       s_order=float("nan")).validate()
    for value in (0, 4):
        with pytest.raises(ConfigError, match="quad_samples"):
            AnalysisConfig(symbol_text="1", alpha=0.0,
                           quad_samples=value).validate()


@pytest.mark.parametrize("alpha", [float("nan"), -float("inf"), "1"])
def test_config_refuses_a_non_finite_alpha_by_name(alpha):
    # before any Symbol is built, which raised a bare ValueError on nan
    with pytest.raises(ConfigError, match="alpha must be finite, got "
                       + re.escape(repr(alpha))):
        AnalysisConfig(symbol_text="1", alpha=alpha).validate()


def test_config_refuses_a_non_integer_quad_samples_by_name():
    with pytest.raises(ConfigError, match=r"quad_samples must be an integer "
                       r"of at least 5, got 5\.5"):
        AnalysisConfig(symbol_text="1", alpha=0.0,
                       quad_samples=5.5).validate()


def test_x_dependent_symbol_samples_multiple_points():
    manifest = _analyze("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, s=0.5)
    reports = manifest.stages["factorization"]["reports"]
    edge = next(r for r in reports if r["stratum"].startswith("edge"))
    assert len(edge["points"]) == 2
    # even frequency dependence: index alpha/2 at every sampled point
    assert edge["ae_values"] == pytest.approx([0.5, 0.5], abs=1e-9)


# --------------------------------------------------------------------------
# verify suites

def test_verify_toeplitz_suite():
    report = run_verify_suite("toeplitz", 42)
    assert report["passed"]
    assert len(report["cases"]) == 20


def test_verify_additivity_suite():
    for seed in (0, 1, 2, 3, 7):
        report = run_verify_suite("additivity", seed)
        assert report["passed"], seed
        assert all(c["flagged"] for c in report["negative_controls"])
    fixed = report["cases"][0]
    assert fixed["windings"] == [1, -2] and fixed["index"] == 1
    # T(z)T(z^-2) against T(z^-1)
    assert fixed["counts"] == fixed["expected_counts"] == [2, 1]
    assert fixed["control_counts"] == [1, 0]


def test_verify_additivity_fails_t_ab_in_place_of_the_product(monkeypatch):
    # a product writer that dropped the corner H(a)H(b~) would count T(ab):
    # its index holds, but the counts of the fixed pair do not
    monkeypatch.setattr(suites, "numerical_index_product",
                        lambda a, b, n: suites.numerical_index(a * b, n))
    report = run_verify_suite("additivity", 1)
    assert not report["passed"]
    fixed = report["cases"][0]
    assert fixed["index"] == 1 and fixed["counts"] == [1, 0]
    assert not fixed["ok"]


def test_verify_paired_suite():
    for seed in (0, 1, 2, 3, 7):
        report = run_verify_suite("paired", seed)
        assert report["passed"], seed
        assert all(c["flagged"] for c in report["negative_controls"])


def test_verify_paired_suite_decides_singular_cases_and_flags_its_control():
    report = run_verify_suite("paired", 3)
    swapped = 0
    for case in report["cases"]:
        # a P + b Q reads the counts of T(a/b), so it is singular exactly
        # where wind a != wind b
        wind_a, wind_b = case["windings"]
        assert case["counts"] == [max(wind_b - wind_a, 0),
                                  max(wind_a - wind_b, 0)]
        # b P + a Q reads the counts of T(b/a): they trade places
        if wind_a != wind_b:
            assert case["control_counts"] == case["counts"][::-1]
            swapped += 1
    operator, zero = report["negative_controls"]
    assert operator["cases"] == swapped >= 10
    assert zero["refused"].startswith("b(z) vanishes on the unit circle")


@pytest.mark.parametrize("name", ["additivity", "paired"])
def test_verify_pair_suite_fails_when_its_control_is_the_checked_operator(
        name, monkeypatch):
    monkeypatch.setitem(suites.CONTROLS, name, lambda a, b: (a, b))
    report = run_verify_suite(name, 0)
    assert all(c["ok"] for c in report["cases"])
    assert report["negative_controls"][0] == {
        "control": "operator", "cases": 0, "flagged": False}
    assert not report["passed"]


@pytest.mark.parametrize("name", ["additivity", "paired"])
def test_verify_pair_suite_fails_when_b_does_not_vanish(name, monkeypatch):
    monkeypatch.setattr(suites, "ZERO_ON_CIRCLE", ([2, -1], 0))
    report = run_verify_suite(name, 0)
    assert report["negative_controls"][1] == {
        "control": "zero_on_circle", "refused": None, "flagged": False}
    assert not report["passed"]


def test_verify_assembly_suite():
    report = run_verify_suite("assembly", 7)
    assert report["passed"]
    case = report["cases"][0]
    assert case["identity_family_error"] <= 1e-12
    errs = case["frozen_vs_full_proxy"]
    assert errs[1] < errs[0]


def test_verify_locality_suite():
    report = run_verify_suite("locality", 0)
    assert report["passed"]
    ladder = report["cases"][0]["defect_ladder"]
    assert all(a > b for a, b in zip(ladder, ladder[1:]))


def test_verify_assembly_and_locality_controls_do_not_shrink():
    # the mirrored centres stay about 0.93 off the full quantization, and
    # the half-period shift's defect grows as f and g move apart: each
    # brings the far side of the domain to the cutoffs
    control, = run_verify_suite("assembly", 0)["negative_controls"]
    assert control["control"] == "mirrored_centres" and control["flagged"]
    assert min(control["frozen_vs_full_proxy"]) > 0.9
    control, = run_verify_suite("locality", 0)["negative_controls"]
    assert control["control"] == "half_period_shift" and control["flagged"]
    ladder = control["defect_ladder"]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] > 0.1


@pytest.mark.parametrize("name, same", [
    ("assembly", lambda center: center), ("locality", lambda op: op)])
def test_verify_suite_fails_when_its_control_is_the_checked_operator(
        name, same, monkeypatch):
    # the control then ladders the correct centres or operator A itself,
    # which shrink and decay as the suite requires: nothing is flagged
    monkeypatch.setitem(suites.CONTROLS, name, same)
    report = run_verify_suite(name, 0)
    control, = report["negative_controls"]
    assert not control["flagged"]
    assert not report["passed"]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="toeplitz has no control yet: z*a moves its pinned digests"))
    if name == "toeplitz" else name
    for name in sorted(suites.VERIFY_SUITES)])
def test_every_suite_flags_its_negative_controls(name):
    controls = run_verify_suite(name, 0).get("negative_controls", [])
    assert controls and all(c["flagged"] for c in controls)


def test_verify_unknown_suite():
    with pytest.raises(ConfigError):
        run_verify_suite("nonesuch", 0)


# --------------------------------------------------------------------------
# CLI

def test_cli_analyze_writes_manifest(tmp_path, capsys):
    code = main(["analyze", "--symbol", "(1+abs2(k))^(1/2)", "--alpha", "1",
                 "--model", "square", "--s-order", "0.5",
                 "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["fredholm"]["fredholm"] is True


def test_cli_exit_codes():
    # stage error (non-elliptic symbol)
    assert main(["analyze", "--symbol", "k1", "--alpha", "1",
                 "--model", "square"]) == 2
    # config error (symbol variable beyond the model's dimension)
    assert main(["analyze", "--symbol", "k3", "--alpha", "0",
                 "--model", "square"]) == 3
    # the removed assembly options are unknown arguments
    assert main(["analyze", "--symbol", "1", "--alpha", "0",
                 "--eps", "0.4,0.2,0.1"]) == 3
    # argparse error (unknown model) maps to config error
    assert main(["analyze", "--symbol", "1", "--alpha", "0",
                 "--model", "torus"]) == 3
    # failed verdict still exits 0
    assert main(["analyze", "--symbol", "(1+abs2(k))^(1/2)", "--alpha", "1",
                 "--s-order", "1.1"]) == 0


def test_cli_analyze_refuses_an_overflowing_ellipticity_weight(tmp_path,
                                                              capsys):
    # (1+|xi|)^80 overflows on the frequency grid: the ellipticity stage
    # fails naming the weight, and the manifest is still written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--symbol", "1", "--alpha", "-80",
                     "--model", "square", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" not in capsys.readouterr().err
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert stages["stratification"]["status"] == "ok"
    ell = stages["ellipticity"]
    assert ell["status"] == "error" and ell["error_type"] == "GridError"
    xi_max = np.linalg.norm(frequency_grid(2), axis=1).max()
    for part in ("(1+|xi|)^(-alpha)", "alpha=-80", f"up to {xi_max:g}"):
        assert part in ell["error"]
    for st in ("factorization", "fredholm"):
        assert stages[st] == {"status": "skipped",
                              "reason": "ellipticity stage failed"}


def test_cli_analyze_refuses_an_overflowing_ellipticity_ratio(tmp_path,
                                                             capsys):
    # the weight (1+|xi|)^10 is finite on the frequency grid, but its
    # product with |a| ~ 1e300*|xi|^2 overflows: the ellipticity stage
    # fails naming the ratio, and the manifest is still written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--symbol", "1e300*(1+abs2(k))", "--alpha",
                     "-10", "--model", "square", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" not in capsys.readouterr().err
    ell = json.loads((tmp_path / "manifest.json").read_text()
                     )["stages"]["ellipticity"]
    assert ell["status"] == "error" and ell["error_type"] == "GridError"
    xi_max = np.linalg.norm(frequency_grid(2), axis=1).max()
    for part in ("ratio |a|*(1+|xi|)^(-alpha) is not finite at x=",
                 "alpha=-10", f"up to {xi_max:g}"):
        assert part in ell["error"]


_WAVE = ["wave-validate", "--alpha", "2", "--dim", "2",
         "--cone", "[[1,0],[0,1]]", "--declared-ae", "2"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--symbol", "k1+", "--alpha", "0"],
    ["winding", "--symbol", "k3", "--alpha", "0", "--dim", "1"],
    ["assemble", "--symbol", "k3+", "--alpha", "0", "--grid-n", "8"],
    _WAVE + ["--symbol", "k1+", "--a-neq", "1", "--a-eq", "1"],
    _WAVE + ["--symbol", "1", "--a-neq", "k3", "--a-eq", "1"],
    _WAVE + ["--symbol", "1", "--a-neq", "1", "--a-eq", "(k1"],
], ids=["analyze", "winding", "assemble", "wave-symbol", "wave-a-neq",
        "wave-a-eq"])
def test_cli_malformed_symbol_is_a_config_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert "bad symbol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["winding", "--symbol", "(k1-i)/(k1+i)", "--alpha", "0", "--dim", "1",
     "--cutoff", "0"],
    _WAVE + ["--symbol", "1", "--a-neq", "1", "--a-eq", "1", "--rays", "3"],
    ["assemble", "--symbol", "normx2(x)+abs2(k)", "--alpha", "2",
     "--grid-n", "16", "--grid-h", "0.1"],
], ids=["cutoff", "rays", "grid-h"])
def test_cli_fixed_numerics_take_no_flag(argv, tmp_path, capsys):
    # the winding cutoff, the growth-fit ray count and the lattice spacing
    # are constants: a flag for any of them is an unknown argument
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


_WIND = ["winding", "--symbol", "(k1-i)/(k1+i)", "--alpha", "0"]
_ASM = ["assemble", "--symbol", "1", "--alpha", "0", "--grid-n", "8"]


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "--symbol", "1", "--alpha", "0", "--s-order", "nan"],
     "--s-order"),
    (["analyze", "--symbol", "1", "--alpha", "inf"], "--alpha"),
    (_WIND + ["--dim", "1", "--x0", "nan"], "--x0"),
    (_WIND + ["--dim", "2", "--xi-prime", "inf"], "--xi-prime"),
    (_WAVE[:-1] + ["nan", "--symbol", "1", "--a-neq", "1", "--a-eq", "1"],
     "--declared-ae"),
    (_ASM + ["--eps", "nan"], "--eps"),
    (_ASM + ["--convergence-eps", "0.4,nan"], "--convergence-eps"),
], ids=["s-order", "alpha", "x0", "xi-prime", "declared-ae", "eps",
        "convergence-eps"])
def test_cli_non_finite_float_is_refused_by_name(argv, flag, tmp_path,
                                                 capsys):
    # refused before any stage runs, so nothing is written
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{flag}: not a finite number" in err
    assert not out.exists()


_WIND2 = ["winding", "--symbol", "(k1-i)/(k1+i)*(1+normx2(x))", "--alpha",
          "0", "--dim", "2"]
_WIND3 = ["winding", "--symbol", "(k3-i)/(k3+i)", "--alpha", "0", "--dim",
          "3"]


@pytest.mark.parametrize("argv, flag, value", [
    (_WIND2, "--x0", "-0.5,0.2"),
    (_WIND3, "--xi-prime", "-0.3,0.1"),
    (_ASM, "--convergence-eps", "-0.4,0.2,0.1"),
    (_WIND2, "--x0", "-inf,0"),
], ids=["x0", "xi-prime", "convergence-eps", "x0-non-finite"])
def test_cli_flag_value_may_start_with_a_minus(argv, flag, value, tmp_path,
                                               capsys):
    # argparse alone reads "-0.5,0.2" as an option; either spelling must
    # give the same exit code and output
    results = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / "out"
        extra = ["--out", str(out)] if argv is _ASM else []
        code = main(argv + spelling + extra)
        got = capsys.readouterr()
        results.append((code, got.out.replace(str(out), "OUT"), got.err))
    assert results[0] == results[1]
    assert "expected one argument" not in results[0][2]


def test_cli_minus_values_keep_argparse_checks(capsys):
    assert main(["winding", "--symbol", "1", "--alpha", "-inf",
                 "--dim", "1"]) == 3
    assert "argument --alpha: not a finite number: '-inf'" in \
        capsys.readouterr().err
    # a flag followed by another option string still lacks its value
    assert main(_WIND2 + ["--x0", "--out", "d"]) == 3
    assert "argument --x0: expected one argument" in capsys.readouterr().err


def test_least_quad_samples_cap(capsys):
    sym = Symbol.parse("1", 0.0, 1)
    assert winding_index(sym, [0.0], [], quad_samples=5) == 0.0
    with pytest.raises(ValueError, match="at least 5"):
        winding_index(sym, [0.0], [], quad_samples=4)
    assert _analyze("1", 0.0, quad_samples=5).ok
    assert main(["analyze", "--symbol", "1", "--alpha", "0",
                 "--seed", "1"]) == 3
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert main(["winding", "--symbol", "1", "--alpha", "0", "--dim", "1",
                 "--quad-samples", "0"]) == 3
    assert "quad_samples must be at least 5" in capsys.readouterr().err


def _readme_commands():
    """The symstrat lines of README's "Command line" block, each with its
    continuation lines joined, as argument lists."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", fh.read(),
                          re.S).group(1)
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("symstrat ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_command_line_runs(argv, tmp_path, capsys):
    # every documented command runs as written, its --out under tmp_path
    argv = [str(tmp_path / "out") if prev == "--out" else arg
            for prev, arg in zip([None] + argv, argv)]
    assert main(argv) == 0, capsys.readouterr().err


def test_cli_stratify(tmp_path):
    code = main(["stratify", "--model", "cube", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "stratification-cube.json").read_text())
    assert data["counts"] == {"0": 8, "1": 12, "2": 6, "3": 1}


def test_cli_winding(capsys):
    code = main(["winding", "--symbol", "(k1-i)/(k1+i)", "--alpha", "0",
                 "--dim", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == pytest.approx(1.0, abs=1e-9)


def test_cli_winding_and_analyze_near_the_float_limit(tmp_path, capsys):
    # phase products of values near 1e300 would overflow; the values are
    # scaled first, so the index is a number and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["winding", "--symbol", "1e200*((k1-i)/(k1+i))",
                     "--alpha", "0", "--dim", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"] == pytest.approx(1.0, abs=1e-9)
        assert main(["analyze", "--symbol", "1e300*(1+abs2(k))", "--alpha",
                     "2", "--model", "square", "--out", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert stages["factorization"]["status"] == "ok"
    for report in stages["factorization"]["reports"]:
        assert report["ae_values"] == pytest.approx([1.0], abs=1e-9)


def test_cli_wave_validate(capsys):
    code = main(["wave-validate", "--symbol", "(k1+i)*(k2+i)", "--alpha", "2",
                 "--dim", "2", "--a-neq", "(k1+i)*(k2+i)", "--a-eq", "1",
                 "--cone", "[[1,0],[0,1]]", "--k", "0",
                 "--declared-ae", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["product_ok"] and payload["growth_ok"]
    assert payload["support_ok"]


def test_cli_wave_validate_reports_failure(capsys):
    code = main(["wave-validate", "--symbol", "(k1+i)*(k2+i)", "--alpha", "2",
                 "--dim", "2", "--a-neq", "(k1+i)", "--a-eq", "(k2+i)",
                 "--cone", "[[1,0],[0,1]]", "--k", "0",
                 "--declared-ae", "1"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    verdicts = {r["factor"]: r["ok"] for r in payload["support"]}
    assert verdicts == {"a_neq": True, "a_eq": False}


def test_cli_wave_validate_underflowing_factor_leaks(capsys):
    # exp(-abs2(k)) underflows to 0 on the Cayley grid, so its inverse has
    # no Fourier coefficients to judge; the support check must fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["wave-validate", "--symbol", "(k1+i)*(k2+i)",
                     "--alpha", "2", "--dim", "2",
                     "--a-neq", "exp(-abs2(k))", "--a-eq", "1",
                     "--cone", "[[1,0],[0,1]]", "--k", "0",
                     "--declared-ae", "2"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["support_ok"] is False
    leak = next(r for r in payload["support"] if r["factor"] == "a_neq")
    assert leak["mass_outside"] == 1.0 and leak["reason"]


@pytest.mark.parametrize("a_neq, failing", [
    ("exp(abs2(k))", "support_ok"),       # overflows on the Cayley grid
    ("exp(2*abs2(k))", "product_ok"),     # overflows on the product grid
])
def test_cli_wave_validate_overflowing_factor_fails(a_neq, failing, tmp_path):
    # an EvalError in a check is that check's failed verdict, and the
    # report is still written
    code = main(_WAVE + ["--symbol", "(k1+i)*(k2+i)", "--a-neq", a_neq,
                         "--a-eq", "1", "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads((tmp_path / "wave-validation.json").read_text())
    assert payload[failing] is False
    if failing == "product_ok":
        assert payload["product_max_rel_err"] is None
        assert "overflow" in payload["grid"]["reason"]
    else:
        leak = next(r for r in payload["support"] if r["factor"] == "a_neq")
        assert leak["mass_outside"] == 1.0 and "overflow" in leak["reason"]


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_cli_wave_validate_report_is_strict_json(capsys):
    # exp(abs2(k)) underflows along every a_neq tube ray: each failed slope
    # is null with a reason, never a bare NaN token
    code = main(_WAVE + ["--symbol", "(k1+i)*(k2+i)",
                         "--a-neq", "exp(abs2(k))", "--a-eq", "1"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=_refuse_constant)
    failed = [g for g in payload["growth"] if g["factor"] == "a_neq"]
    assert len(failed) == 3
    assert all(g["slope"] is None and g["reason"] and not g["ok"]
               for g in failed)


def test_cli_verify(tmp_path):
    code = main(["verify", "--suite", "additivity", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "verify-additivity.json").read_text())
    assert data["passed"]


@pytest.mark.parametrize("suite", ["toeplitz", "assembly"])
def test_cli_verify_refuses_a_negative_seed_by_name(suite, monkeypatch,
                                                    tmp_path, capsys):
    # refused before the suite runs, as analyze refuses it
    ran = []
    monkeypatch.setitem(suites.VERIFY_SUITES, suite, ran.append)
    out = tmp_path / "out"
    assert main(["verify", "--suite", suite, "--seed", "-1",
                 "--out", str(out)]) == 3
    assert "seed must be a non-negative integer, got -1" in \
        capsys.readouterr().err
    with pytest.raises(ConfigError, match="seed must be a non-negative"):
        run_verify_suite(suite, 1.5)
    assert ran == [] and not out.exists()


def test_cli_verify_unknown_suite_lists_the_suites(capsys):
    assert main(["verify", "--suite", "nonesuch"]) == 3
    err = capsys.readouterr().err
    for name in ("toeplitz", "additivity", "paired", "assembly", "locality"):
        assert name in err


def test_cli_analysis_commands_do_not_import_scipy(tmp_path):
    # only verify and assemble run the lattice realizations, which need
    # scipy; the symbol-level commands must not pay for loading it
    code = (
        "import json, sys\n"
        "import symstrat.analysis\n"
        "from symstrat.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [main(argv + ['--out', out]) for argv in [\n"
        "    ['analyze', '--model', 'cube', '--alpha', '2', '--symbol',\n"
        "     '(1+abs2(k))*((k3-i)/(k3+i))'],\n"
        "    ['stratify', '--model', 'square'],\n"
        "    ['winding', '--symbol', '(1+abs2(k))^(1/2)', '--alpha', '1',\n"
        "     '--dim', '2'],\n"
        "    ['wave-validate', '--symbol', '(k1+i)*(k2+i)', '--alpha', '2',\n"
        "     '--dim', '2', '--a-neq', '(k1+i)*(k2+i)', '--a-eq', '1',\n"
        "     '--cone', '[[1,0],[0,1]]', '--declared-ae', '2']]]\n"
        "loaded = sorted(m for m in sys.modules if m == 'symstrat.lattice'\n"
        "                or m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    codes, loaded = json.loads(out.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


@pytest.mark.parametrize("script, expected", [
    ("analyze_square.py", "s = 0.5: fredholm = True"),
    ("quadrant_factorization_demo.py", "support a_eq   ok=False"),
    ("verify_suites.py", "toeplitz     ok")])
def test_script_runs(script, expected):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(os.path.join(root, "src")))
    done = subprocess.run([sys.executable,
                           os.path.join(root, "scripts", script)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


def test_cli_assemble_exports(tmp_path):
    code = main(["assemble", "--symbol", "normx2(x)+abs2(k)", "--alpha", "2",
                 "--model", "square", "--eps", "0.3", "--grid-n", "16",
                 "--s-order", "1.0", "--out", str(tmp_path),
                 "--convergence-eps", "0.45,0.3,0.2"])
    assert code == 0
    raw = np.fromfile(tmp_path / "assembled.bin", dtype="<c16")
    sidecar = json.loads((tmp_path / "assembled.json").read_text())
    assert raw.size == sidecar["rows"] * sidecar["cols"] == 256 * 256
    # the record that the command hands to export_operator
    cov = build_covering(stratify_model("square", 2), 0.3,
                          cover_points=LatticeGrid(2, 16, 1 / 16).points())
    assert sidecar["provenance"] == {"construction": "assembled",
                                     "n_patches": len(cov.balls)}
    table = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert table[0] == "eps_coarse,eps_fine,proxy"
    assert len(table) == 3


def test_cli_assemble_builds_an_eps_rung_of_the_ladder_once(tmp_path,
                                                             monkeypatch):
    lattice._shared_rung.cache_clear()
    built = []
    covering = lattice.build_covering

    def counted(*args, **kwargs):
        built.append(args[1])
        return covering(*args, **kwargs)

    monkeypatch.setattr(lattice, "build_covering", counted)
    assert main(["assemble", "--symbol", "normx2(x)+abs2(k)", "--alpha", "2",
                 "--model", "square", "--eps", "0.3", "--grid-n", "16",
                 "--s-order", "1.0", "--out", str(tmp_path),
                 "--convergence-eps", "0.45,0.3,0.2"]) == 0
    assert built == [0.3, 0.45, 0.2]
    # the export is the frozen family on a partition built afresh
    grid = LatticeGrid(2, 16, 1 / 16)
    pou = lattice.partition_of_unity(
        covering(stratify_model("square", 2), 0.3, cover_points=grid.points()),
        grid.points())
    op = lattice.assemble_frozen_family(
        Symbol.parse("normx2(x)+abs2(k)", 2.0, 2), pou, grid,
        lattice.DiscreteSobolevSpace(grid, 1.0),
        lattice.DiscreteSobolevSpace(grid, -1.0))
    assert (tmp_path / "assembled.bin").read_bytes() == \
        op.to_dense().astype("<c16").tobytes()


@pytest.mark.parametrize("ladder, reason", [
    ("0.4,0.2", "need at least 3 covering radii"),
    ("0.1,0.2,0.3", "covering radii must be positive and strictly"),
    ("0.4,0.2,0", "covering radii must be positive and strictly"),
    ("0.6,0.3,0.1",
     "eps=0.6 must be < half the minimal stratum separation 1.0"),
])
def test_cli_assemble_checks_the_ladder_before_the_export(ladder, reason,
                                                          tmp_path, capsys):
    out = tmp_path / "asm"
    out.mkdir()
    assert main(_ASM + ["--convergence-eps", ladder, "--out", str(out)]) == 3
    assert reason in capsys.readouterr().err
    assert list(out.iterdir()) == []    # no assembled.bin or .json


@pytest.mark.parametrize("argv, code", [
    (["--symbol", "1", "--alpha", "0", "--eps", "0.9"], 3),
    (["--symbol", "1/x1", "--alpha", "0"], 2),
    (["--symbol", "1+abs2(k)", "--alpha", "2", "--convergence-eps",
      "0.3,0.2,0.01"], 2),                  # CoverageError on the ladder
])
def test_cli_assemble_failure_leaves_no_out_directory(argv, code, tmp_path):
    out = tmp_path / "asm"
    assert main(["assemble", "--grid-n", "8", *argv, "--out", str(out)]) \
        == code
    assert not out.exists()


_OUT_COMMANDS = {
    "analyze": ["analyze", "--symbol", "1", "--alpha", "0"],
    "verify": ["verify", "--suite", "locality"],
    "stratify": ["stratify", "--model", "square"],
    "winding": ["winding", "--symbol", "(k1-i)/(k1+i)", "--alpha", "0",
                "--dim", "1"],
    "wave-validate": _WAVE + ["--symbol", "(k1+i)*(k2+i)",
                              "--a-neq", "(k1+i)*(k2+i)", "--a-eq", "1"],
    "assemble": _ASM,
}


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_cli_unwritable_out_is_a_config_error(command, below, tmp_path,
                                              capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "x" if below else afile
    assert main(_OUT_COMMANDS[command] + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write --out")
    assert repr(str(out)) in err
    assert afile.read_text() == ""


def test_cli_wave_validate_refuses_a_flat_cone(capsys):
    # refused with the candidate, before the growth check meets the cone
    assert main(["wave-validate", "--symbol", "(k1+i)*(k2+i)", "--alpha",
                 "2", "--dim", "2", "--a-neq", "(k1+i)*(k2+i)", "--a-eq",
                 "1", "--cone", "[[1,0]]", "--declared-ae", "2"]) == 3
    assert capsys.readouterr().err.startswith(
        "configuration error: --cone: factorization cone must be "
        "full-dimensional")


def test_cli_wave_validate_refuses_a_bad_k_by_name(capsys):
    assert main(["wave-validate", "--symbol", "(k1+i)*(k2+i)", "--alpha",
                 "2", "--dim", "2", "--a-neq", "(k1+i)*(k2+i)", "--a-eq",
                 "1", "--cone", "[[1]]", "--k", "2",
                 "--declared-ae", "2"]) == 3
    assert capsys.readouterr().err.startswith(
        "configuration error: --k: need 0 <= k <= 1, got 2")


@pytest.mark.parametrize("cone, reason", [
    ("[1,0]", "not iterable"),
    ("[[1e400,0],[0,1]]", "entry inf is not finite"),
    ("[]", "at least one generator"),
    ("[[1,0],[0,1,0]]", "mixed dimension"),
    ("[[1,0],[0,1e-12]]", "entry 1e-12 has no rational"),
    ("[[1,1e-12],[0,1]]", "entry 1e-12 has no rational"),
    ("[[1,0],[-1,0],[0,1]]", "factorization cone must be pointed"),
    ("[[1,0,0],[0,1,0],[0,0,1]]", "cone dimension 3 != m-k = 2"),
], ids=["flat-list", "overflow", "empty", "mixed-dim", "tiny-entry",
        "tiny-off-axis", "not-pointed", "wrong-dim"])
def test_cli_wave_validate_refuses_a_bad_cone_by_name(cone, reason,
                                                      tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["wave-validate", "--symbol", "(k1+i)*(k2+i)", "--alpha",
                 "2", "--dim", "2", "--a-neq", "(k1+i)*(k2+i)", "--a-eq",
                 "1", "--cone", cone, "--declared-ae", "2",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --cone: ")
    assert reason in err
    assert not out.exists()


def test_cli_assemble_refuses_grid_above_dense_limit(tmp_path, capsys):
    out = tmp_path / "asm"
    code = main(["assemble", "--symbol", "normx2(x)+abs2(k)", "--alpha", "2",
                 "--model", "square", "--grid-n", "64", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "4096 points" in err and "2048" in err
    assert not out.exists()         # refused before any work


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0


def test_every_exported_name_exists():
    # perfbench's tracer wraps every name in __all__, so a name left there
    # after its definition is removed breaks the benchmark
    for info in pkgutil.iter_modules(symstrat.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"symstrat.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
