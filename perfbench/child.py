"""Job processes started by run.py.

    python3 perfbench/child.py job -- <vortexdiagrams arguments>
        One CLI job: the `cli.main` that `python3 -m vortexdiagrams.cli`
        runs, followed by the process's peak resident set.

    python3 perfbench/child.py cli SPANS -- <vortexdiagrams arguments>
        One traced CLI job: the same `cli.main`, with spans recorded
        around the package's layers and written to SPANS.

    python3 perfbench/child.py sweep VECTORS RESULTS SECONDS [SPANS]
        The solver sweep in one warm process.  Solves the strength vectors
        in VECTORS in order, one at a time, in whole passes over the list
        until SECONDS have passed, and writes per-vector timings and
        solutions to RESULTS.  After each untraced solve it times the
        reference workload (`reference.sample`).  With SPANS, each
        vector is solved a second time under the tracer, right after that.

The job and cli modes print one JSON line of run facts as their last
line of stdout, after the CLI's own output.  The package is imported from
PYTHONPATH, which run.py points at the checkout's `src`.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer, package_modules

LAMBDAS = (1.0, -1.0)
SOLVE_ATTEMPTS = 10


def solve_vector(numeric, gamma, seed, traces=None):
    """Try lambda=+1 then -1, as the acceptance sweep does.

    Returns (lambda, configuration JSON) or None.  When `traces` is a list,
    each solve call appends its accepted residual norms to a fresh list.
    """
    for lam in LAMBDAS:
        trace = None
        if traces is not None:
            trace = []
            traces.append(trace)
        try:
            config = numeric.solve(gamma, lam, seed=seed, attempts=SOLVE_ATTEMPTS, trace=trace)
        except numeric.NoConvergenceError:
            continue
        return lam, config.to_json()
    return None


def _peak_rss_mb() -> float:
    """This process's peak resident set since exec (VmHWM).  The parent's
    `ru_maxrss` from wait4 cannot be used: Linux carries the parent's
    resident set, inherited at fork, into it across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _job(argv: list) -> int:
    from vortexdiagrams import cli

    code = cli.main(argv)
    print(json.dumps({"exit": code, "peak_rss_mb": _peak_rss_mb()}))
    return code


def _cli(spans_path: str, argv: list) -> int:
    from vortexdiagrams import atlas, cli

    with Tracer(package_modules()) as tracer:
        code = cli.main(argv)
    memo_warm_s = 0.0
    if argv and argv[0] == "enumerate":
        # A second in-process run with the verdict memo already filled.
        args = cli.build_parser().parse_args(argv)
        t0 = time.perf_counter()
        atlas.enumerate_diagrams(args.n, workers=args.workers)
        memo_warm_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    tracer.dump(spans_path)
    dump_s = time.perf_counter() - t0
    print(json.dumps({"exit": code, "memo_warm_s": memo_warm_s, "dump_s": dump_s}))
    return code


def _sweep(vectors_path: str, results_path: str, seconds: float, spans_path=None) -> int:
    from reference import sample
    from vortexdiagrams import numeric

    with open(vectors_path) as fh:
        vectors = json.load(fh)
    tracer = Tracer(package_modules()) if spans_path else None
    results = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, vec in enumerate(vectors):
            w0, c0 = time.perf_counter(), time.process_time()
            solved = solve_vector(numeric, vec["gamma"], vec["seed"])
            wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
            row = {
                "pass": passes,
                "index": index,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "solved": solved,
                "ref_s": sample(wall_s),
            }
            if tracer is not None:
                traces: list = []
                w0 = time.perf_counter()
                with tracer:
                    row["traced_solved"] = solve_vector(numeric, vec["gamma"], vec["seed"], traces)
                row["traced_wall_s"] = time.perf_counter() - w0
                row["iterations"] = [len(t) - 1 for t in traces if t]
            results.append(row)
        passes += 1
    with open(results_path, "w") as fh:
        json.dump(results, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    print(json.dumps({"peak_rss_mb": _peak_rss_mb()}))
    return 0


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "job":
        if argv[1] != "--":
            raise SystemExit("usage: child.py job -- ARGS...")
        return _job(argv[2:])
    if mode == "cli":
        if argv[2] != "--":
            raise SystemExit("usage: child.py cli SPANS -- ARGS...")
        return _cli(argv[1], argv[3:])
    if mode == "sweep":
        vectors, results, seconds, *spans = argv[1:]
        return _sweep(vectors, results, float(seconds), spans[0] if spans else None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
