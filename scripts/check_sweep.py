"""The `check` path on seeded random valid diagrams at one n.

Draws `count` valid diagrams on n vertices with `random_valid_diagrams`
(tests/random_diagrams.py, seeded by `--seed`) and judges them one at a
time, each with a fresh verdict memo, as `check` does:

    python3 scripts/check_sweep.py --n 7 --count 1000 --seed 1007 > sweep.json

prints one JSON report on stdout: the outcome counts; for the base ledgers
and for the multiplier-branch ledgers, the Unknown verdicts drawn, the
distinct ledgers behind them, and how many of those stay distinct up to
relabeling (the ledgers, per multiplier class for branches, that
`lemmas.analyze` gives on each Unknown draw's canonical diagram); the
canonical keys of the classes retained on an Unknown base; and `judge`'s
p50, p95 and maximum in milliseconds.
Quantiles are `statistics.quantiles(method='inclusive')`.  It computes
nothing the `check` command would not.
"""

import argparse
import collections
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from random_diagrams import random_valid_diagrams  # noqa: E402

from vortexdiagrams import lemmas  # noqa: E402
from vortexdiagrams.atlas import judge  # noqa: E402
from vortexdiagrams.diagram import _masks, canonical_masks, from_canonical_masks, masks_key  # noqa: E402


def sweep(n: int, count: int, seed: int) -> dict:
    outcomes = collections.Counter()
    unknown = {"base": collections.Counter(), "branch": collections.Counter()}  # ledger -> draws
    relabeled = {"base": set(), "branch": set()}  # ledgers of the canonical diagrams
    retained_keys = set()
    seconds = []
    for d in random_valid_diagrams(n, count, seed):
        start = time.perf_counter()
        j = judge(d)
        seconds.append(time.perf_counter() - start)
        outcomes[j.outcome] += 1
        if j.outcome != "retained":
            continue
        base_unknown = j.verdict.kind == "Unknown"
        branches_unknown = {cls: led for cls, (led, verdict) in j.branches.items() if verdict.kind == "Unknown"}
        if not (base_unknown or branches_unknown):
            continue
        masks = canonical_masks(n, *_masks(d))
        canonical = lemmas.analyze(from_canonical_masks(n, masks))
        if base_unknown:
            unknown["base"][j.analysis.base_ledger] += 1
            relabeled["base"].add(canonical.base_ledger)
            retained_keys.add(masks_key(n, masks))
        for cls, ledger in branches_unknown.items():
            unknown["branch"][ledger] += 1
            relabeled["branch"].add((cls, canonical.branch_ledgers[cls]))
    p = statistics.quantiles(seconds, n=20, method="inclusive")
    return {
        "n": n,
        "count": count,
        "seed": seed,
        "outcomes": dict(sorted(outcomes.items())),
        "unknown": {
            side: {
                "draws": ledgers.total(),
                "distinct_ledgers": len(ledgers),
                "distinct_up_to_relabeling": len(relabeled[side]),
                "ledgers": [ledger.to_json() for ledger in ledgers],
            }
            for side, ledgers in unknown.items()
        },
        "retained_on_unknown_base": sorted(retained_keys),
        "judge_ms": {
            "p50": round(1000 * statistics.median(seconds), 3),
            "p95": round(1000 * p[18], 3),
            "max": round(1000 * max(seconds), 3),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="vertices, 2..8")
    parser.add_argument("--count", type=int, required=True, help="diagrams to draw, at least 2")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not 2 <= args.n <= 8:
        parser.error("--n must be in 2..8: a ledger names only the strengths G1..G8")
    if args.count < 2:
        parser.error("--count must be at least 2 for the quantiles")
    print(json.dumps(sweep(args.n, args.count, args.seed), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
