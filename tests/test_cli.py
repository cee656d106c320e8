import json
import math
import subprocess
import sys

import pytest

from cgbv.cli import (EXIT_BAD_CONFIG, EXIT_CHECK_FAILED, EXIT_NUMERICAL,
                      EXIT_OK, EXIT_REPORT_PATH, emit_report, list_scenarios,
                      main, report_payload)
from cgbv.errors import ConfigError
from cgbv.geometry import ChartDomain
from cgbv.scenarios import Config, all_scenarios, get_scenario, run_scenario

# fast scenarios only; the heavyweight ones are exercised elsewhere
FAST = ["quadrature-volumes", "cgb-sphere"]


def cli(*args):
    return subprocess.run([sys.executable, "-m", "cgbv.cli", *args],
                          capture_output=True, text=True)


def strip_walls(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    for scen in out["scenarios"]:
        scen.pop("wall_ms")
    return out


# ---------------------------------------------------------------------------
# list


def test_list_has_full_registry():
    pairs = list_scenarios()
    assert len(pairs) >= 18
    names = [n for n, _ in pairs]
    assert len(set(names)) == len(names)
    assert all(desc for _, desc in pairs)


def test_list_is_deterministic():
    a = cli("list")
    b = cli("list")
    assert a.returncode == EXIT_OK
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == len(all_scenarios())


def test_list_filter_selects_module_subset():
    every = {n for n, _ in list_scenarios()}
    subset = {n for n, _ in list_scenarios("discrete")}
    assert subset
    assert subset < every
    for name in subset:
        assert "discrete" in get_scenario(name).modules


def test_list_unknown_module_is_empty_not_an_error():
    proc = cli("list", "--filter", "nonexistent-module")
    assert proc.returncode == EXIT_OK
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# run: exit codes


def test_run_passing_scenario_exits_zero():
    proc = cli("run", "cgb-sphere")
    assert proc.returncode == EXIT_OK
    assert "euler-number-s2" in proc.stdout
    assert "1/1 scenarios passed" in proc.stdout


def test_run_numerical_failure_exits_three_and_names_identity():
    proc = cli("run", "cgb-sphere", "--quad-order", "2")
    assert proc.returncode == EXIT_NUMERICAL
    assert "numerical failure: cgb-sphere:euler-number-s2" in proc.stderr
    assert "exceeds tol" in proc.stderr


def test_run_unknown_scenario_exits_two():
    proc = cli("run", "no-such-scenario")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error:" in proc.stderr


def test_run_bad_rank_exits_two():
    proc = cli("run", "odd-rank-point", "--rank", "2")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error:" in proc.stderr


def test_run_zero_count_exits_two():
    proc = cli("run", "stokes-convention", "--count", "0")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error: count" in proc.stderr


def test_run_zero_quad_order_exits_two():
    proc = cli("run", "cgb-sphere", "--quad-order", "0")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error: quadrature order" in proc.stderr


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_run_bad_tolerance_exits_two(tol):
    proc = cli("run", "quadrature-volumes", "--tol", tol)
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error: tolerance" in proc.stderr


def test_check_converts_failure_to_exit_one():
    bad = cli("run", "cgb-sphere", "--quad-order", "2", "--check")
    good = cli("run", "cgb-sphere", "--check")
    assert bad.returncode == EXIT_CHECK_FAILED
    assert good.returncode == EXIT_OK


def test_unwritable_report_path_exits_four(tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    proc = cli("run", "cgb-sphere", "--json", str(target))
    assert proc.returncode == EXIT_REPORT_PATH
    assert "cannot write report" in proc.stderr


def test_run_unknown_filter_is_empty_success():
    proc = cli("run", "--filter", "nonexistent-module")
    assert proc.returncode == EXIT_OK
    assert "0/0 scenarios passed" in proc.stdout


def test_run_names_intersected_with_filter():
    proc = cli("run", "cgb-sphere", "--filter", "discrete")
    assert proc.returncode == EXIT_OK
    assert "cgb-sphere" not in proc.stdout


# ---------------------------------------------------------------------------
# run: JSON report


def test_json_report_schema(tmp_path):
    target = tmp_path / "report.json"
    proc = cli("run", *FAST, "--seed", "5", "--json", str(target))
    assert proc.returncode == EXIT_OK
    payload = json.loads(target.read_text())
    assert set(payload) == {"suite", "scenarios", "summary"}
    assert payload["suite"]["name"] == "cgb-verify"
    assert payload["suite"]["seed"] == 5
    assert payload["suite"]["count"] == 50
    assert [s["name"] for s in payload["scenarios"]] == FAST
    for scen in payload["scenarios"]:
        assert isinstance(scen["wall_ms"], float)
        for item in scen["items"]:
            assert set(item) == {"identity", "computed", "expected", "error",
                                 "tol", "provenance", "pass"}
            assert item["provenance"] in ("paper", "trivial", "derived")
            assert item["error"] == pytest.approx(
                abs(item["computed"] - item["expected"]))
            assert item["pass"] == (item["error"] <= item["tol"])
    summary = payload["summary"]
    assert summary["total"] == len(payload["scenarios"])
    assert summary["passed"] + summary["failed"] == summary["total"]
    items = [it for s in payload["scenarios"] for it in s["items"]]
    assert summary["items_total"] == len(items)
    assert summary["items_passed"] == sum(it["pass"] for it in items)
    assert summary["items_failed"] == summary["items_total"] - summary["items_passed"]


def test_json_report_reruns_identically(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    cli("run", *FAST, "--json", str(first))
    cli("run", *FAST, "--json", str(second))
    a = strip_walls(json.loads(first.read_text()))
    b = strip_walls(json.loads(second.read_text()))
    assert a == b


def test_mixed_results_summary_counts():
    scen = get_scenario("cgb-sphere")
    reports = [run_scenario(scen, Config()),
               run_scenario(scen, Config(quad_order=2))]
    payload = report_payload(reports, Config())
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["passed"] == 1
    assert payload["summary"]["failed"] == 1
    assert payload["summary"]["items_passed"] == 1
    assert payload["summary"]["items_failed"] == 1


def test_empty_report_is_valid():
    payload = json.loads(emit_report([], "json", None, Config()))
    assert payload["summary"]["total"] == 0
    assert payload["scenarios"] == []


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        emit_report([], "yaml")


# ---------------------------------------------------------------------------
# entry point


def test_main_returns_int(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cgb-sphere" in out


def test_tol_override_applies_to_every_item():
    report = run_scenario(get_scenario("cgb-sphere"), Config(tol=1e-2))
    assert all(item.tol == 1e-2 for item in report.items)


def test_nan_residual_after_finite_one_fails_the_item(monkeypatch):
    residuals = iter([0.1, math.nan])
    monkeypatch.setattr("cgbv.scenarios.stokes_residual",
                        lambda *args, **kwargs: next(residuals))
    report = run_scenario(get_scenario("stokes-convention"), Config(count=2))
    (item,) = report.items
    assert math.isnan(item.computed)
    assert not item.passed


def test_nan_residual_is_named_not_finite(monkeypatch, capsys):
    residuals = iter([0.1, math.nan])
    monkeypatch.setattr("cgbv.scenarios.stokes_residual",
                        lambda *args, **kwargs: next(residuals))
    code = main(["run", "stokes-convention", "--count", "2"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert ("numerical failure: stokes-convention:cylinder-stokes-sup "
            "computed value nan is not finite") in err
    assert "exceeds" not in err


def test_nan_at_one_quadrature_node_fails_the_item(monkeypatch, capsys):
    nodes = ChartDomain.nodes

    def poisoned(domain):
        coords, weights = nodes(domain)
        if domain.name == "D4":
            coords = [c.copy() for c in coords]
            coords[0][7] = math.nan  # one radius inside the first block
        return coords, weights

    monkeypatch.setattr(ChartDomain, "nodes", poisoned)
    code = main(["run", "quadrature-volumes"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert ("numerical failure: quadrature-volumes:ball4-volume "
            "computed value nan is not finite") in err
    assert "ball2-area" not in err
