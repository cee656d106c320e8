"""The benchmark tracer still finds the functions it wraps by name.

``perfbench/spans.py`` rebinds ``SmoothMap.jacobian``, ``projected_connection``,
``frame_split_connection`` and the public functions of ``discrete`` (among
others) by attribute name, so renaming one of them would silently empty its
layer in a traced benchmark run.  These run scenarios under the tracer and
check that those layers recorded spans.
"""

import importlib.util
from pathlib import Path

from cgbv.scenarios import Config, get_scenario, run_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_layers(scenario: str) -> set:
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        report = run_scenario(get_scenario(scenario), Config())
    finally:
        tracer.remove()
    assert report.passed
    return {tracer.names[i] for i in tracer.name_ids}


def test_cgb_disk_records_jacobian_and_split_connection_spans():
    assert {"forms.jacobian", "bundles.split_connection"} <= \
        recorded_layers("cgb-disk")


def test_mesh_les_records_discrete_spans():
    assert "discrete" in recorded_layers("mesh-les")
