"""Paired benchmark runs: a parent revision against the working tree.

Copies the parent revision (`git archive`) and the working tree (the files
`git ls-files` lists, unless ignored) into two temporary directories and runs
`perfbench/run.py` at its own run length on the two sides in turn: one seed
per pair (1, 2, ... across the plan), the side that goes first alternating,
and every job compiling the package from source (PYTHONDONTWRITEBYTECODE=1).

    python3 scripts/bench_pairs.py --parent HEAD solve-sweep=10 atlas-n5=3 quad-cert=3 > check.json

prints one JSON report on stdout: every run, and for each workload and
end-to-end metric both sides' quartiles, the pairs the change wins and the
change of the median in percent.  Progress and verdicts go to stderr, and
no file is written; to record a claimed gain, redirect stdout into the
workload's `BENCH_*.json`.  The report states two verdicts per metric, and
they are printed as well:

- `gain_rule`: the change wins at least 9 of every 10 pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- `within_bound`: the change's median is worse than the parent's by no
  more than the metric's `BENCHMARK.json` bound (a fraction of the
  parent's median).

Each workload's summary also counts, per side, the runs that exited
nonzero and the runs whose result says `correct: false`: a crashed run has
no metrics, and a metric that some run lacks is left out of the summary.
It sums each side's attempted and failed operations, gives the failed
share (1 for a side that attempted nothing, as when every run crashed)
and states, in one printed line per workload, whether the change's share
rises above the parent's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_sides(parent: str, into: Path) -> dict:
    """{side: directory}: the parent revision and the working tree."""
    dirs = {side: into / side for side in SIDES}
    dirs["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", dirs["parent"]], input=git("archive", parent), check=True)
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            dst = dirs["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())
    return dirs


def run_once(directory: Path, workload: str, seed: int) -> tuple:
    """(exit code, result line, report line) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=directory, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])
    return proc.returncode, {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}, {}


def summarize(workload: str, runs: list, end_to_end: list) -> dict:
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    metrics = {}
    for spec in end_to_end:
        name, direction = spec["name"], spec["better"]
        values = {side: [by[p, side]["metrics"].get(name) for p in pairs] for side in SIDES}
        if None in values["parent"] + values["change"]:
            continue  # a crashed run has no metrics; `exited_nonzero` counts them
        entry = {"better": direction}
        for side in SIDES:
            q1, q2, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[side] = {"median": q2, "q1": q1, "q3": q3}
        sign = 1 if direction == "lower" else -1  # sign * (parent - change) > 0: the change is better
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["change_wins"] = f"{wins}/{len(pairs)}"
        entry["median_delta_pct"] = 100 * (change / parent - 1)
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["gain_rule"] = 10 * wins >= 9 * len(pairs) and sign * (parent - change) > entry["parent_iqr"]
        entry["bound"] = spec["bound"]
        entry["within_bound"] = sign * (change - parent) <= spec["bound"] * parent
        metrics[name] = entry

    def per_side(count) -> dict:
        return {side: sum(count(by[p, side]) for p in pairs) for side in SIDES}

    attempted, failed = per_side(lambda r: r["attempted"]), per_side(lambda r: r["failed"])
    share = {side: failed[side] / attempted[side] if attempted[side] else 1.0 for side in SIDES}
    return {"workload": workload, "trace": 0, "seconds": runs[0]["seconds"],
            "seeds": [by[p, "parent"]["seed"] for p in pairs], "pairs": len(pairs),
            "first": [by[p, "parent"]["first"] for p in pairs],
            "attempted": attempted, "failed": failed, "failed_share": share,
            "failed_share_rises": share["change"] > share["parent"],
            "exited_nonzero": per_side(lambda r: r["returncode"] != 0),
            "incorrect": per_side(lambda r: not r["correct"]), "metrics": metrics}


def failed_share_line(entry: dict) -> str:
    """The verdict on one workload's failed share, as `main` prints it."""
    sides = ", ".join(f"{side} {entry['failed'][side]}/{entry['attempted'][side]} ({entry['failed_share'][side]:.1%})"
                      for side in SIDES)
    return f"{entry['workload']} failed share: {sides}, {'RISES' if entry['failed_share_rises'] else 'does not rise'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD=PAIRS", help="e.g. solve-sweep=10")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    plan = [(w, int(k)) for w, k in (item.split("=") for item in args.plan)]
    if min(k for _, k in plan) < 2:
        parser.error("quartiles need at least two pairs of each workload")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    runs, machine, summary = [], None, []
    seed = 1
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = copy_sides(args.parent, Path(tmp))
        for workload, count in plan:
            done = []
            for pair in range(count):
                first = SIDES[pair % 2]
                for side in (SIDES if first == "parent" else SIDES[::-1]):
                    code, result, report = run_once(dirs[side], workload, seed)
                    machine = machine or report.get("machine")
                    done.append(dict(workload=workload, pair=pair, seed=seed, side=side, first=first,
                                     seconds=report.get("seconds"), trace=0, returncode=code,
                                     correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                                     metrics={k: v["value"] for k, v in result["metrics"].items()}))
                    print(json.dumps(done[-1]), file=sys.stderr, flush=True)
                seed += 1
            runs += done
            summary.append(summarize(workload, done, end_to_end))
            for name, m in summary[-1]["metrics"].items():
                print(f"{workload} {name}: {m['median_delta_pct']:+.1f}% median, wins {m['change_wins']}, "
                      f"gain rule {'holds' if m['gain_rule'] else 'fails'}, "
                      f"{'within' if m['within_bound'] else 'PAST'} the {m['bound']:.0%} bound",
                      file=sys.stderr, flush=True)
            print(failed_share_line(summary[-1]), file=sys.stderr, flush=True)
    report = {
        "what": f"paired perfbench/run.py runs by scripts/bench_pairs.py: parent {parent} against the working tree, "
                "alternating which side runs first; quartiles by statistics.quantiles(n=4, method='inclusive'); "
                "change_wins counts pairs where the change is strictly better",
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "parent": parent, "machine": machine, "summary": summary, "runs": runs,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
