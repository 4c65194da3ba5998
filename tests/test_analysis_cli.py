"""Pipeline manifests, verification suites and the command-line interface."""

import json

import numpy as np
import pytest

from symstrat import analysis
from symstrat.analysis import (AnalysisConfig, run_analysis,
                               run_verify_suite)
from symstrat.cli import main
from symstrat.errors import ConfigError, SymstratError


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
    cfg = AnalysisConfig(symbol_text=symbol, alpha=1.0 if symbol == "k1"
                         else 0.0, out_dir=str(tmp_path))
    manifest = run_analysis(cfg)
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
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert written == json.loads(manifest.to_json())


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
                         model="square", s_order=0.5, seed=11)
    first = run_analysis(cfg).comparable_dict()
    second = run_analysis(cfg).comparable_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


def test_manifest_written_to_out_dir(tmp_path):
    cfg = AnalysisConfig(symbol_text="5", alpha=0.0, model="square",
                         out_dir=str(tmp_path / "run"))
    run_analysis(cfg)
    data = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert data["ok"] is True
    assert data["config_hash"]
    assert set(data["stages"]) == {"stratification", "ellipticity",
                                   "factorization", "fredholm"}


def test_config_validation():
    with pytest.raises(ConfigError):
        AnalysisConfig(symbol_text="1", alpha=0.0, model="torus").validate()
    with pytest.raises(ConfigError):
        AnalysisConfig(symbol_text="k9", alpha=0.0, model="square").validate()


def test_x_dependent_symbol_samples_multiple_points():
    manifest = _analyze("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, s=0.5,
                        points_per_stratum=2)
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
    report = run_verify_suite("additivity", 1)
    assert report["passed"]
    fixed = report["cases"][0]
    assert fixed["windings"] == [1, -2, 0]
    assert fixed["total_index"] == 1


def test_verify_additivity_fixed_triple_is_a_case(monkeypatch):
    # a wrong total on the fixed triple fails the suite instead of
    # tripping an assert that python -O would strip
    monkeypatch.setattr(analysis, "ADDITIVITY_FIXED_INDEX", 2)
    report = run_verify_suite("additivity", 1)
    assert not report["passed"]
    fixed = report["cases"][0]
    assert fixed["expected_index"] == 2 and fixed["total_index"] == 1
    assert not fixed["ok"]


def test_verify_paired_suite():
    report = run_verify_suite("paired", 3)
    assert report["passed"]


def test_verify_paired_suite_decides_singular_cases_and_flags_its_control():
    report = run_verify_suite("paired", 3)
    # every other draw is singular by construction, and its conditioning
    # is far from the borderline band on both sides
    assert report["n_borderline"] == 0
    assert report["n_singular"] == 50
    assert [c["singular"] for c in report["cases"]] == [False, True] * 50
    assert all(c["ok"] for c in report["cases"])
    control = report["negative_control"]
    assert control["singular"] and control["flagged"]
    assert control["rcond_compression"] <= 1e-12 <= control["rcond_paired"]


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


def test_cli_verify(tmp_path):
    code = main(["verify", "--suite", "additivity", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "verify-additivity.json").read_text())
    assert data["passed"]


def test_cli_assemble_exports(tmp_path):
    code = main(["assemble", "--symbol", "normx2(x)+abs2(k)", "--alpha", "2",
                 "--model", "square", "--eps", "0.3", "--grid-n", "16",
                 "--s-order", "1.0", "--out", str(tmp_path),
                 "--convergence-eps", "0.45,0.3,0.2"])
    assert code == 0
    raw = np.fromfile(tmp_path / "assembled.bin", dtype="<c16")
    sidecar = json.loads((tmp_path / "assembled.json").read_text())
    assert raw.size == sidecar["rows"] * sidecar["cols"] == 256 * 256
    table = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert table[0] == "eps_coarse,eps_fine,proxy"
    assert len(table) == 3


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
