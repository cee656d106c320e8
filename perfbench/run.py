"""Benchmark of the cgb-verify suite: one workload, graded, with its metrics.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each round runs the workload once in a
fresh process (``worker.py``), one scenario at a time as ``cgb-verify run``
does by default.  Rounds repeat until ``--seconds`` have passed, and at
least three run (two when tracing).  Every line item of every round is graded against the
table in ``grading.py``, and the computed values must repeat exactly from
round to round, since the same seed gives the same inputs.

With ``--trace 0`` the last line reports ``wall_s``, ``setup_s`` and
``peak_rss_mb``, each the median over rounds; ``setup_s`` also counts six
set-up probes, workers that stop where the first scenario would start.  With ``--trace 1`` rounds
alternate untraced and traced, and the last line reports the per-layer
metrics of the traced rounds.  Round files and spans are written under
``.perfbench/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import timeit

import spans
from grading import EXPECTED, grade, item_count
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
SETUP_PROBES = 6
ROUND_TIMEOUT_S = 150

# count metrics of a traced round: name -> ("span", number of spans with
# that name) or ("counter", a counter the tracer keeps)
COUNTS = {
    "geometry.integrate.calls": ("span", "geometry.integrate"),
    "geometry.integrate.nodes": ("counter", "geometry.integrate.nodes"),
    "geometry.fiber_integrate.base_points":
        ("counter", "geometry.fiber_integrate.base_points"),
    "geometry.fiber_integrate.nodes":
        ("counter", "geometry.fiber_integrate.nodes"),
    "forms.jacobian.calls": ("span", "forms.jacobian"),
    "forms.pullback.evals": ("span", "forms.pullback"),
    "forms.lift_point.calls": ("counter", "forms.lift_point.calls"),
    "forms.d.evals": ("span", "forms.d"),
    "chern_weil.pfaffian.evals": ("span", "chern_weil.pfaffian"),
    "chern_weil.transgression.evals": ("span", "chern_weil.transgression"),
    "chern_weil.secondary.evals": ("span", "chern_weil.secondary"),
    "bundles.split_connection.evals": ("span", "bundles.split_connection"),
    "thom.mu.evals": ("span", "thom.mu"),
    "relative.homotopy.calls": ("span", "relative.homotopy"),
    "relative.pairing.calls": ("span", "relative.pairing"),
}
SCENARIOS = tuple(EXPECTED)


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in the order printed."""
    names = [(name, "count") for name in COUNTS]
    names += [(f"{layer}.self_s", "s") for layer in spans.LAYERS]
    names += [(f"scenarios.{s}.s", "s") for s in SCENARIOS]
    names += [("dual.mul_ns", "ns"), ("dual.mul_nested_ns", "ns"),
              ("trace.overhead_s", "s")]
    return names


class WorkerFailed(Exception):
    """A worker process exited with an error; the message is its stderr."""


def _worker(root: str, workload: str, seed: int, out: str, *flags):
    """Run worker.py; its result, and the clock just before it started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           workload, str(seed), out, *flags]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr[-4000:] or f"exit {proc.returncode}")
    with open(out) as fh:
        return json.load(fh), started


def setup_probe(root: str, workload: str, seed: int, out: str) -> float:
    """Seconds from starting a worker to the start of its first scenario."""
    res, started = _worker(root, workload, seed, out, "--setup")
    return res["first_start"] - started


def run_round(root: str, workload: str, seed: int, out: str,
              traced: bool) -> dict:
    res, started = _worker(root, workload, seed, out,
                           *(["--trace"] if traced else []))
    computed = {s["name"]: {it["identity"]: it["computed"] for it in s["items"]}
                for s in res["report"]["scenarios"]}
    computed.update(res["reduced"])
    failures = grade(computed, WORKLOADS[workload].scenarios)
    graded = time.perf_counter()
    return {
        "traced": traced,
        "setup_s": res["first_start"] - started,
        "wall_s": graded - res["first_start"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "computed": computed,
        "failures": failures,
        "spans": out + ".spans" if traced else None,
    }


def run_rounds(root: str, workload: str, seed: int, seconds: float,
               trace: bool, work: str) -> list:
    """Whole rounds for ``seconds``; traced runs alternate untraced, traced."""
    min_rounds = 2 if trace else MIN_ROUNDS
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        out = os.path.join(work, f"round-{len(rounds)}.json")
        rounds.append(run_round(root, workload, seed, out, traced))
        # a traced run ends on a whole untraced/traced pair
        if (len(rounds) >= min_rounds and len(rounds) % (1 + trace) == 0
                and time.perf_counter() - start >= seconds):
            return rounds


def dual_mul_ns(root: str, nested: bool) -> float:
    """Median ns per Dual multiplication on fixed operands."""
    sys.path.insert(0, os.path.join(root, "src"))
    from cgbv.dual import Dual
    if nested:
        a = Dual(Dual(1.3, 0.2), Dual(-0.7, 0.4))
        b = Dual(Dual(0.9, -1.1), Dual(0.5, 0.3))
    else:
        a, b = Dual(1.3, -0.7), Dual(0.4, 1.1)
    n = 20000
    times = timeit.Timer("a * b", globals={"a": a, "b": b}).repeat(9, n)
    return statistics.median(times) / n * 1e9


def layer_metrics(root: str, rounds: list) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    loaded = [spans.load(r["spans"]) for r in traced]
    sums = [spans.summarize(t) for t in loaded]
    first, counters = sums[0], loaded[0]["counters"]
    values = {}
    for name, (kind, key) in COUNTS.items():
        if kind == "span":
            values[name] = first.get(key, {}).get("count", 0)
        else:
            values[name] = counters.get(key, 0)

    def median_of(span_name: str, field: str) -> float:
        return statistics.median(s.get(span_name, {}).get(field, 0.0)
                                 for s in sums)

    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = median_of(layer, "self_s")
    for scen in SCENARIOS:
        values[f"scenarios.{scen}.s"] = median_of(f"scenarios.{scen}",
                                                  "total_s")
    values["dual.mul_ns"] = dual_mul_ns(root, nested=False)
    values["dual.mul_nested_ns"] = dual_mul_ns(root, nested=True)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cgbv", "cli.py")):
        print("error: no src/cgbv/cli.py here; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        setups = [setup_probe(root, args.workload, args.seed,
                              os.path.join(work, f"setup-{k}.json"))
                  for k in range(0 if trace else SETUP_PROBES)]
        rounds = run_rounds(root, args.workload, args.seed, args.seconds,
                            trace, work)
    except WorkerFailed as exc:
        print(f"error: a worker failed:\n{exc}", file=sys.stderr)
        return 1

    correct = True
    reference = json.dumps(rounds[0]["computed"], sort_keys=True)
    for k, rnd in enumerate(rounds[1:], 1):
        if json.dumps(rnd["computed"], sort_keys=True) != reference:
            print(f"error: round {k} computed other values than round 0 "
                  f"from the same seed", file=sys.stderr)
            correct = False
    failed = sum(len(r["failures"]) for r in rounds)
    for scen, identity, why in sorted({f for r in rounds for f in r["failures"]}):
        print(f"failed: {scen}:{identity}: {why}", file=sys.stderr)

    if trace:
        values = layer_metrics(root, rounds)
        units = dict(per_layer_names())
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    else:
        def med(key):
            return statistics.median(r[key] for r in rounds)
        metrics = {"wall_s": {"value": med("wall_s"), "unit": "s"},
                   "setup_s": {"value": statistics.median(
                       setups + [r["setup_s"] for r in rounds]), "unit": "s"},
                   "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"}}
    print(json.dumps({
        "correct": correct,
        "attempted": len(rounds) * item_count(workload.scenarios),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
