"""One round of a workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED OUT [--trace|--setup]

Runs the workload's scenarios through ``cgb-verify run`` in this process,
then its reduced scenarios, and writes OUT as JSON: the clock at the start
of the first scenario, the peak resident memory, the CLI's JSON report and
the reduced scenarios' values.  With ``--trace`` the spans go to OUT with
the suffix ``.spans``.  With ``--setup`` the process stops when the first
scenario would start, and OUT holds only that clock.

The clock is ``time.perf_counter``, which on Linux reads the same monotonic
clock in every process, so the parent can subtract the time it started this
process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import cgbv.cli as cli

from reduced import RUNNERS
from spans import Tracer
from workloads import WORKLOADS


class SetupDone(Exception):
    """Raised in place of the first scenario by a set-up probe."""


def main(argv) -> int:
    name, seed, out = argv[0], int(argv[1]), argv[2]
    traced = "--trace" in argv[3:]
    probe = "--setup" in argv[3:]
    workload = WORKLOADS[name]
    tracer = Tracer() if traced else None
    first_start = []
    run_scenario = cli.run_scenario

    def span(name, fn):
        return fn if tracer is None else tracer.timed(name, fn)

    def run_one(scenario, config):
        if not first_start:
            first_start.append(time.perf_counter())
        if probe:
            raise SetupDone
        return span(f"scenarios.{scenario.name}", run_scenario)(scenario, config)

    cli.run_scenario = run_one
    if tracer is not None:
        tracer.install()
    report_path = out + ".cli.json"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", *workload.cli, "--seed", str(seed),
                      "--count", str(workload.count), "--json", report_path])
    except SetupDone:
        with open(out, "w") as fh:
            json.dump({"first_start": first_start[0]}, fh)
        return 0
    reduced = {scen: span(f"scenarios.{scen}", RUNNERS[scen])(seed)
               for scen in workload.reduced}
    if tracer is not None:
        tracer.remove()
        tracer.save(out + ".spans")
    with open(report_path) as fh:
        report = json.load(fh)
    os.remove(report_path)
    result = {
        "first_start": first_start[0],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": report,
        "reduced": reduced,
    }
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
