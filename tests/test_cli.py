import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cgbv
from cgbv.cli import (EXIT_BAD_CONFIG, EXIT_CHECK_FAILED, EXIT_NUMERICAL,
                      EXIT_OK, EXIT_REPORT_PATH, emit_report, list_scenarios,
                      main, report_payload)
from cgbv import scenarios
from cgbv.errors import ClosednessError, ConfigError
from cgbv.geometry import ChartDomain
from cgbv.scenarios import Config, all_scenarios, get_scenario, run_scenario

# fast scenarios only; the heavyweight ones are exercised elsewhere
FAST = ["quadrature-volumes", "cgb-sphere"]


def cli(*args):
    # the child imports the same cgbv as this process, installed or not
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cgbv.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cgbv.cli", *args],
                          capture_output=True, text=True, env=env)


def failing_sphere():
    """cgb-sphere expecting an Euler number of 3, so its one item fails."""
    scen = get_scenario("cgb-sphere")
    return dataclasses.replace(scen, expected=(
        dataclasses.replace(scen.expected[0], value=3.0),))


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


def test_run_numerical_failure_exits_three_and_names_identity(monkeypatch, capsys):
    monkeypatch.setitem(scenarios._BY_NAME, "cgb-sphere", failing_sphere())
    assert main(["run", "cgb-sphere"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: cgb-sphere:euler-number-s2" in err
    assert "exceeds tol" in err


@pytest.mark.parametrize("flags", [[], ["--check"]])
def test_typed_error_in_a_runner_exits_three(monkeypatch, capsys, flags):
    def runner(cfg):
        raise ClosednessError("test form is not closed at [0.5]")

    scen = dataclasses.replace(get_scenario("forms-calculus"), runner=runner)
    monkeypatch.setitem(scenarios._BY_NAME, "forms-calculus", scen)
    assert main(["run", "cgb-sphere", "forms-calculus", *flags]) == EXIT_NUMERICAL
    assert ("numerical failure: forms-calculus: ClosednessError: "
            "test form is not closed at [0.5]") in capsys.readouterr().err


def test_run_unknown_scenario_exits_two():
    proc = cli("run", "no-such-scenario")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error:" in proc.stderr


def test_run_bad_rank_exits_two(capsys):
    # orders, tolerances and ranks live in the registry, not on the command line
    for flag in (["--quad-order", "2"], ["--tol", "1"], ["--rank", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "odd-rank-point", *flag])
        assert exc.value.code == EXIT_BAD_CONFIG
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


def test_config_keeps_only_seed_and_count():
    assert [f.name for f in dataclasses.fields(Config)] == ["seed", "count"]


def test_run_zero_count_exits_two():
    proc = cli("run", "stokes-convention", "--count", "0")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "error: count" in proc.stderr


def test_check_converts_failure_to_exit_one(monkeypatch):
    assert main(["run", "cgb-sphere", "--check"]) == EXIT_OK
    monkeypatch.setitem(scenarios._BY_NAME, "cgb-sphere", failing_sphere())
    assert main(["run", "cgb-sphere", "--check"]) == EXIT_CHECK_FAILED


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
    assert payload["suite"] == {"name": "cgb-verify", "seed": 5, "count": 50}
    assert [s["name"] for s in payload["scenarios"]] == FAST
    for scen in payload["scenarios"]:
        assert isinstance(scen["wall_ms"], float)
        for item in scen["items"]:
            assert set(item) == {"identity", "computed", "expected", "error",
                                 "tol", "margin", "provenance", "pass"}
            assert item["provenance"] in ("paper", "trivial", "derived")
            assert item["error"] == pytest.approx(
                abs(item["computed"] - item["expected"]))
            assert item["pass"] == (item["error"] <= item["tol"])
            assert item["margin"] == item["error"] / item["tol"]
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
    reports = [run_scenario(get_scenario("cgb-sphere"), Config()),
               run_scenario(failing_sphere(), Config())]
    payload = report_payload(reports, Config())
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["passed"] == 1
    assert payload["summary"]["failed"] == 1
    assert payload["summary"]["items_passed"] == 1
    assert payload["summary"]["items_failed"] == 1


@pytest.mark.parametrize("name", FAST + ["odd-rank-point", "odd-rank3-point"])
def test_items_are_graded_with_registry_tolerance(name):
    scen = get_scenario(name)
    report = run_scenario(scen, Config())
    assert report.passed
    assert [(i.identity, i.expected, i.tol, i.provenance) for i in report.items] == \
        [(e.identity, e.value, e.tol, e.provenance) for e in scen.expected]


def test_odd_rank_pairing_has_one_registry_entry_per_rank():
    tols = {name: {e.identity: e.tol for e in get_scenario(name).expected}
            for name in ("odd-rank-point", "odd-rank3-point")}
    assert tols == {
        "odd-rank-point": {"unit-pairing-rank1": 1e-8,
                           "dual-pair-closedness-rank1": 1e-6},
        "odd-rank3-point": {"unit-pairing-rank3": 1e-4,
                            "dual-pair-closedness-rank3": 1e-6},
    }


@pytest.mark.parametrize("error, tol, margin", [
    (2e-9, 1e-8, 0.2),
    (0.0, 1e-6, 0.0),
    (0.0, 0.0, 0.0),
    (1.0, 0.0, None),
    (math.nan, 1e-6, None),
    (math.inf, 1e-6, None),
])
def test_item_margin(error, tol, margin):
    item = scenarios.Item("x", error, 0.0, error, tol, "paper", error <= tol)
    assert item.margin == (None if margin is None else pytest.approx(margin))


def test_margin_column_and_null_in_json():
    report = scenarios.ScenarioReport("gaps", (
        scenarios.Item("exact", 0.0, 0.0, 0.0, 0.0, "paper", True),
        scenarios.Item("off", 1.0, 0.0, 1.0, 0.0, "paper", False),
        scenarios.Item("half", 5e-9, 0.0, 5e-9, 1e-8, "paper", True)), 1.0)
    payload = json.loads(emit_report([report], "json", None, Config()))
    assert [it["margin"] for it in payload["scenarios"][0]["items"]] == \
        [0.0, None, 0.5]
    lines = emit_report([report], "text").splitlines()
    col = lines[0].split().index("margin")
    assert [line.split()[col] for line in lines[1:4]] == \
        ["0.00e+00", "-", "5.00e-01"]


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


def test_nan_residual_after_finite_one_fails_the_item(monkeypatch):
    # one residual per draw of the family, a NaN after a finite one
    monkeypatch.setattr("cgbv.scenarios.stokes_residual",
                        lambda *args, **kwargs: np.array([0.1, math.nan]))
    report = run_scenario(get_scenario("stokes-convention"), Config(count=2))
    (item,) = report.items
    assert math.isnan(item.computed)
    assert not item.passed


def test_nan_residual_is_named_not_finite(monkeypatch, capsys):
    # one residual per draw of the family, a NaN after a finite one
    monkeypatch.setattr("cgbv.scenarios.stokes_residual",
                        lambda *args, **kwargs: np.array([0.1, math.nan]))
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
