"""Run the whole registry over a range of seeds and report each item's worst margin.

    python3 tests/sweep_seeds.py --seeds 0-19 --count 50

Run from any directory; the package is imported from the ``src`` beside
this file.  Every scenario runs in process at each seed, with the given
sample count.  For each line item the script prints the largest
``error / tol`` over the seeds and the seed that gave it (``-`` when the
item is exact everywhere, ``inf`` when an error is not finite or exceeds
a zero tolerance), then one line with the number of failed items.  It
exits with 1 if any item fails at any seed.  The file name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cgbv.scenarios import Config, all_scenarios, run_scenario  # noqa: E402


def seed_range(text: str) -> range:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def sweep(seeds, count: int) -> dict:
    """(scenario, identity) -> (worst margin, its seed, failed seeds)."""
    worst = {}
    for seed in seeds:
        cfg = Config(seed=seed, count=count)
        for scenario in all_scenarios():
            for item in run_scenario(scenario, cfg).items:
                margin = item.margin
                margin = math.inf if margin is None else margin
                key = (scenario.name, item.identity)
                best, at, failed = worst.get(key, (-1.0, None, []))
                if not item.passed:
                    failed.append(seed)
                if margin > best:
                    best, at = margin, seed
                worst[key] = (best, at, failed)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="seed range, e.g. 0-19")
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    worst = sweep(args.seeds, args.count)
    print(f"seeds {args.seeds.start}..{args.seeds.stop - 1}, count {args.count}")
    print(f"{'scenario':<30} {'identity':<32} {'error/tol':>10} seed")
    for (name, identity), (margin, seed, failed) in worst.items():
        shown = f"{margin:10.3g}" if margin > 0.0 else f"{'-':>10}"
        flag = f"  FAILED at {failed}" if failed else ""
        print(f"{name:<30} {identity:<32} {shown} {seed if margin > 0.0 else '-'}{flag}")
    bad = sum(1 for *_, failed in worst.values() if failed)
    print(f"{len(worst)} items, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
