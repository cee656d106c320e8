"""The benchmark's own reduced builds still run and grade on the package.

``perfbench/reduced.py`` rebuilds ``thom-fiber-integral`` and
``symmetry-reflection`` from the public functions of the package, and
``perfbench/grading.py`` grades them against fixed expected values.  A
change to those functions' names or signatures would otherwise show only
as a failed benchmark run.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reduced_builds_pass_grading():
    reduced, grading = load("reduced"), load("grading")
    computed = {name: build(1) for name, build in reduced.RUNNERS.items()}
    assert grading.grade(computed, reduced.RUNNERS) == []
