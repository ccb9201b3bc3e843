"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload atlas-n5 --runs 10 [--first-seed 1]

Runs `perfbench/run.py --trace 0` once per seed, one run at a time, and
prints for each end-to-end metric the median of the runs' values, the
distance between the first and third quartile as a share of that median
(`statistics.quantiles(values, n=4)`), and the metric's bound from
BENCHMARK.json.  A spread is steady when it is below a third of the bound.
`--save FILE` keeps the per-run values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs failed their checks: {out.stdout.splitlines()[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    args = parser.parse_args()

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        runs.append(run_once(args.workload, seed, args.seconds))
        took = time.perf_counter() - t0
        print(f"seed {seed} ({took:.0f} s): " + "  ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs))
    print(f"{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}  steady")
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        steady = "yes" if spread < m["bound"] / 3 else "NO"
        print(f"{m['name']:<14}{med:>12.5g}{spread:>9.3f}{m['bound']:>7.2f}  {steady}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
