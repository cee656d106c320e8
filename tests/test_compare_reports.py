"""tests/compare_reports.py: exit codes and the differences it names."""

import copy
import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "compare_reports.py")

REPORT = {
    "suite": "cgbv",
    "scenarios": [
        {"name": "quadrature-volumes", "wall_ms": 6.6, "items": [
            {"identity": "ball2-area", "computed": 3.141592653589793,
             "expected": 3.141592653589793, "error": 0.0, "tol": 1e-10,
             "margin": 0.0, "provenance": "derived", "pass": True},
            {"identity": "ball4-volume", "computed": 4.934802200544657,
             "expected": 4.934802200544679, "error": 2.2e-14, "tol": 1e-10,
             "margin": 2.2e-4, "provenance": "derived", "pass": True}]},
    ],
    "summary": {"scenarios": 1, "items": 2},
}


def run(tmp_path, old, new):
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return subprocess.run([sys.executable, SCRIPT] + paths,
                          capture_output=True, text=True)


def test_identical_reports_exit_0(tmp_path):
    new = copy.deepcopy(REPORT)
    new["scenarios"][0]["wall_ms"] = 9.9  # timing is ignored
    done = run(tmp_path, REPORT, new)
    assert (done.returncode, done.stdout) == (0, "")


def test_a_moved_value_exits_1_and_is_named(tmp_path):
    new = copy.deepcopy(REPORT)
    new["scenarios"][0]["items"][1]["computed"] = 4.934802200544658
    done = run(tmp_path, REPORT, new)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "quadrature-volumes/ball4-volume computed: 4.934802200544657 -> 4.934802200544658"]


def test_a_missing_item_exits_1(tmp_path):
    new = copy.deepcopy(REPORT)
    del new["scenarios"][0]["items"][0]
    done = run(tmp_path, REPORT, new)
    assert done.returncode == 1
    assert done.stdout.splitlines() == ["quadrature-volumes/ball2-area: only in old"]
