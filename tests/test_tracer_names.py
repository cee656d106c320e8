"""The benchmark tracer still finds the functions it wraps by name.

``perfbench/spans.py`` rebinds ``SmoothMap.jacobian``, ``projected_connection``
and ``frame_split_connection`` (among others) by attribute name, so renaming
one of them would silently empty its layer in a traced benchmark run.  This
runs one scenario under the tracer and checks that those layers recorded
spans.
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


def test_cgb_disk_records_jacobian_and_split_connection_spans():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        report = run_scenario(get_scenario("cgb-disk"), Config())
    finally:
        tracer.remove()
    assert report.passed
    recorded = {tracer.names[i] for i in tracer.name_ids}
    assert {"forms.jacobian", "bundles.split_connection"} <= recorded
