#!/usr/bin/env python3
"""The size of `bfoutage verify`: how often a correct build fails it.

Runs verification.run_all once per seed of an inclusive range, at one trial
count and worker count, and prints:

- one line per seed: its exit code (0 when every check passes, 3 otherwise,
  as `verify` would exit) and each failing check's line;
- one row per criterion: its checks per run, the failing checks summed over
  the seeds, and the seeds on which it failed;
- the false-exit rate, the share of seeds that exit 3, with its 95% Wilson
  score interval.

Every check of a seed is judged exactly as `verify` judges it; nothing here
changes a gate.  The ROADMAP's size study runs it at 200 000 trials on 100
seeds and at 1e6 trials on 20:

    PYTHONPATH=src python3 scripts/verify_size.py --seeds 24001-24100 --trials 200000 --workers 2
"""

import argparse
import math
from collections import Counter

from bfoutage import verification

#: criterion -> the first words of its checks' names; a criterion that raised
#: is one check named "criterion <k> ... raised"
CRITERIA = {
    "1 three-way agreement": ("agreement",),
    "2 variant arbitration": ("arbitration",),
    "3 diversity orders": ("diversity",),
    "4 reduction identities": ("reduction", "duality"),
    "5 figure shapes": ("shape",),
    "6 combinatorial": ("binomial", "power-series", "noncentral"),
    "7 determinism": ("determinism",),
}


def criterion_of(name: str) -> str:
    words = name.split()
    if words[0] == "criterion":
        return next(c for c in CRITERIA if c.split()[0] == words[1])
    return next(c for c, heads in CRITERIA.items() if words[0] in heads)


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion k / n."""
    p = k / n
    centre, half = p + z * z / (2 * n), z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (centre - half) / (1 + z * z / n), (centre + half) / (1 + z * z / n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="inclusive seed range FIRST-LAST, or one seed")
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    checks_per_run, failing, seeds_failing = None, Counter(), Counter()
    exits = 0
    for seed in args.seeds:
        checks = verification.run_all(trials=args.trials, seed=seed, workers=args.workers)
        if checks_per_run is None:
            checks_per_run = Counter(criterion_of(check.name) for check in checks)
        failed = [check for check in checks if not check.passed]
        exits += bool(failed)
        print(f"seed {seed}: exit {3 if failed else 0}", flush=True)
        for check in failed:
            print(f"    {check.line()}")
        failing.update(criterion_of(check.name) for check in failed)
        seeds_failing.update({criterion_of(check.name) for check in failed})

    n = len(args.seeds)
    print(f"\n{n} seeds, {args.trials} trials, {args.workers} workers")
    print(f"{'criterion':<24} {'checks':>6} {'failing checks':>14} {'seeds failing':>13}")
    for c in CRITERIA:
        print(f"{c:<24} {checks_per_run[c]:>6} {failing[c]:>14} {seeds_failing[c]:>13}")
    low, high = wilson(exits, n)
    print(f"false exits: {exits}/{n} = {exits / n:.1%} (95% Wilson interval {low:.1%} to {high:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
