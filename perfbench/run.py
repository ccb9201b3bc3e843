"""Benchmark of the vortexdiagrams package, run from the repository root.

    python3 perfbench/run.py --workload atlas-n5 --seed 22 --seconds 25 --trace 0

Every job is a closed loop with one client: the next job starts only when
the previous one has finished and its output has been checked.  Jobs run
until --seconds have passed (at least one job; the solver sweep
runs whole passes over its vectors).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
line before it is the full report: machine, load, every metric with its
quartiles and within-run spread, the failure ratio and the tail latency.

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

    atlas-n5     cold `vortexdiagrams enumerate --n 5 --workers 1`
    quad-cert    cold `vortexdiagrams verify-groebner`
    solve-sweep  seeded strength vectors through `numeric.solve`, warm process
    atlas-n6     cold `vortexdiagrams enumerate --n 6 --workers 2`; opt-in,
                 not listed in BENCHMARK.json (one job takes about two minutes)

The package is imported from the checkout's `src` directory only; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"

DEFAULT_SEED = 22  # the strength-vector seed of acceptance criterion 7
SWEEP_POOL = 24  # vectors in one pass of solve-sweep
SETUP_REPEATS = 5
SAMPLE_EVERY_S = 0.3  # a CLI job is paused this often for one reference run
SETUP_SAMPLE_EVERY_S = 0.1  # the same for an import

sys.path.insert(0, str(HERE))
from reference import NOMINAL_S, reference  # noqa: E402
from tracer import CALL_SITES, aggregate  # noqa: E402


# -- expected outputs ------------------------------------------------------

EXPECT = {
    "atlas-n5": {
        "survivor_count": 31,
        "histogram": {"0": 4, "2": 1, "3": 0, "4": 10, "5": 5, "6": 8, "7": 1, "8": 2},
        "diff_vs_catalog": {"missing": [], "extra": []},
        "candidates_valid": 2569,
        "unique_classes": 68,
    },
    "atlas-n6": {"candidates_valid": 43579, "unique_classes": 268},
    "quad-cert": {"verified": True, "basis_size": 22},
    "solve-sweep": {"residual_below": 1e-12, "identity_tol": 1e-9},
}


@dataclass
class Workload:
    name: str
    argv: list = field(default_factory=list)  # CLI arguments; empty for the sweep
    traced_argv: list = field(default_factory=list)
    processes: int = 1  # processes a job may use, the cpu_util denominator
    timeout_s: float = 170.0  # a job running longer is killed and fails
    note: str = ""


def workloads(nproc: int) -> dict:
    n6_workers = min(2, nproc)
    return {
        w.name: w
        for w in (
            Workload("atlas-n5", ["enumerate", "--n", "5", "--workers", "1"]),
            Workload("quad-cert", ["verify-groebner"]),
            Workload("solve-sweep"),
            Workload(
                "atlas-n6",
                ["enumerate", "--n", "6", "--workers", str(n6_workers)],
                ["enumerate", "--n", "6", "--workers", "1"],
                processes=n6_workers,
                timeout_s=900.0,
                note="traced jobs use --workers 1: spans recorded in pool children would be lost",
            ),
        )
    }


# -- statistics --------------------------------------------------------------


def summary(values: list) -> dict:
    """Median, mean, quartiles and within-run spread ((q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "mean": statistics.mean(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "samples": len(values),
    }


def tail(values: list) -> dict | None:
    """The highest percentile that has at least ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[-11],
        "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
        "samples": len(ordered),
    }


# -- processes ---------------------------------------------------------------


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(run_dir)
    return env


def _last_cpu(pid: int) -> int | None:
    """The CPU the process last ran on (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _reference_on(cpu: int | None) -> tuple:
    """One reference run on the given CPU (or wherever, if unknown)."""
    allowed = os.sched_getaffinity(0)
    if cpu in allowed:
        os.sched_setaffinity(0, {cpu})
    try:
        return reference()
    finally:
        os.sched_setaffinity(0, allowed)


def _die_with_parent() -> None:
    """Run in the child before exec: be killed when the harness dies, so
    that a job it paused is never left stopped."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def run_process(
    argv: list, env: dict, out_path: Path, err_path: Path, timeout_s: float = 170.0, sample_every=None
) -> dict:
    """Run one process to completion; wall time, and CPU time from wait4.

    The process gets its own session so that, on timeout, it and any
    workers it started are killed together, and so are they when the
    harness stops early.  With `sample_every` seconds, the job is paused
    that often: its process group is stopped, the reference workload runs
    once on the CPU the job last ran on, and the group is continued.  A job that ends before its first pause gets one
    reference run right after it.  Paused time is left out of `wall_s`;
    the reference's (wall, CPU) times are returned in `ref_s`.
    """
    refs, paused = [], 0.0
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True, preexec_fn=_die_with_parent
        )
        timer = threading.Timer(timeout_s, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            while status is None:
                if select.select([pidfd], [], [], sample_every)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                p0 = time.perf_counter()
                cpu = _last_cpu(proc.pid)
                os.killpg(proc.pid, signal.SIGSTOP)
                _, stopped, usage = os.wait4(proc.pid, os.WUNTRACED)
                if os.WIFSTOPPED(stopped):
                    refs.append(_reference_on(cpu))
                    os.killpg(proc.pid, signal.SIGCONT)
                else:
                    status = stopped
                paused += time.perf_counter() - p0
        finally:
            timer.cancel()
            os.close(pidfd)
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # anything the job left behind
            except ProcessLookupError:
                pass
            if status is None:  # the harness is stopping early
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0 - paused
    if sample_every and not refs:
        refs.append(reference())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ref_s": refs,
    }


def measure_setup(env: dict, work: Path, warm_up: bool) -> list:
    """Fresh interpreter to package imported, SETUP_REPEATS times; the
    warm-up import also writes the bytecode cache where that is enabled.
    Returns (import time, mean reference time while it ran) pairs."""
    argv = [sys.executable, "-c", "import vortexdiagrams.cli"]
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        res = run_process(argv, env, work / "setup.out", work / "setup.err", sample_every=SETUP_SAMPLE_EVERY_S)
        if res["exit"] != 0:
            raise RuntimeError("importing the package failed: " + (work / "setup.err").read_text())
        if i or not warm_up:
            times.append((res["wall_s"], statistics.mean(wall for wall, _ in res["ref_s"])))
    return times


# -- output checks -------------------------------------------------------------


def _certificate(data: dict):
    from vortexdiagrams.exactpoly import parse_polynomial
    from vortexdiagrams.vorticity import Certificate

    mult = data.get("multiplier")
    return Certificate(
        data["kind"],
        parse_polynomial(data["polynomial"]),
        subset=tuple(data.get("subset", ())),
        multiplier=parse_polynomial(mult) if mult is not None else None,
    )


def _check_verdict(ledger_json: dict, verdict: dict, n: int, where: str) -> list:
    """Re-check an Infeasible certificate or a Feasible witness."""
    from vortexdiagrams.vorticity import ConstraintLedger, satisfies, verify_certificate

    ledger = ConstraintLedger.from_json(ledger_json, n)
    if verdict["verdict"] == "Infeasible":
        if not verify_certificate(ledger, _certificate(verdict["certificate"])):
            return [f"{where}: certificate does not re-check"]
    elif verdict["verdict"] == "Feasible":
        witness = {k: Fraction(v) for k, v in verdict["witness"].items()}
        if not satisfies(ledger, witness):
            return [f"{where}: witness does not satisfy its ledger"]
    return []


def check_fields(payload: dict, expect: dict) -> list:
    """Top-level fields of a CLI report that differ from the expected ones."""
    return [f"{k}: expected {v!r}, got {payload.get(k)!r}" for k, v in expect.items() if payload.get(k) != v]


def check_atlas(payload: dict, expect: dict) -> list:
    """Problems found in an enumeration report; empty when it is right."""
    problems = check_fields(payload, expect)
    n = payload["n"]
    survivors, rejected = payload["survivors"], payload["rejected"]
    if payload["survivor_count"] != len(survivors):
        problems.append("survivor_count does not match the survivor list")
    if len(survivors) + len(rejected) != payload["unique_classes"]:
        problems.append("survivors + rejected != unique_classes")
    for s in survivors:
        problems += _check_verdict(s["ledger"], s["verdict"], n, s["key"])
        for cls, branch in sorted(s.get("branches", {}).items()):
            problems += _check_verdict(branch["ledger"], branch["verdict"], n, f"{s['key']} {cls}")
    for r in rejected:
        if "certificate" in r:
            verdict = {"verdict": "Infeasible", "certificate": r["certificate"]}
            problems += _check_verdict(r["ledger"], verdict, n, r["key"])
    return problems


def check_solution(gamma: list, solved, expect: dict) -> list:
    """An unsolved vector is no check failure; a returned solution must
    have the input strengths, a tiny residual and the conserved identities."""
    if solved is None:
        return []
    from vortexdiagrams import numeric

    lam, data = solved
    config = numeric.Configuration.from_json(data)
    problems = []
    if list(config.gamma) != [float(g) for g in gamma] or config.lam != complex(lam):
        problems.append("solution is for other strengths or another multiplier")
    if not numeric.residual(config) < expect["residual_below"]:
        problems.append(f"residual {numeric.residual(config):.3e}")
    if not numeric.check_identities(config, tol=expect["identity_tol"]).passed:
        problems.append("conserved identities fail")
    return problems


class ReportChecker:
    """Checks CLI outputs; identical payloads share one verdict.

    Payloads are compared with "workers" removed, because the report
    embeds the worker count.
    """

    def __init__(self, workload: str, expect: dict):
        self._check = check_fields if workload == "quad-cert" else check_atlas
        self._expect = expect
        self._seen: dict = {}

    def __call__(self, exit_code: int, out_path: Path) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            payload = json.loads(out_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable output: {exc}"]
        payload.pop("workers", None)
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        if digest not in self._seen:
            self._seen[digest] = self._check(payload, self._expect)
        return self._seen[digest]


# -- workloads -----------------------------------------------------------------


def _cli_job(w: Workload, traced: bool, idx: int, env: dict, work: Path) -> dict:
    out = work / f"job{idx}.json"
    spans = work / f"job{idx}.spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans), "--"]
        argv += (w.traced_argv or w.argv) + ["--out", str(out)]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "job", "--"] + w.argv + ["--out", str(out)]
    # Traced jobs are not paused: a pause would fall inside their spans.
    every = None if traced else SAMPLE_EVERY_S
    res = run_process(argv, env, work / f"job{idx}.stdout", work / f"job{idx}.stderr", w.timeout_s, every)
    res["out_path"] = out
    res["output_bytes"] = out.stat().st_size if out.exists() else 0
    if not traced:
        # A job that failed reports no peak; the run is incorrect anyway.
        res["peak_rss_mb"] = 0.0
        if res["exit"] == 0:
            facts = json.loads((work / f"job{idx}.stdout").read_text().splitlines()[-1])
            res["peak_rss_mb"] = facts["peak_rss_mb"]
    if traced:
        # A job that crashed wrote no spans; it fails its check by its exit code.
        res.update(memo_warm_s=0.0, dump_s=0.0, spans=[])
        if spans.exists():
            facts = json.loads((work / f"job{idx}.stdout").read_text().splitlines()[-1])
            res.update(memo_warm_s=facts["memo_warm_s"], dump_s=facts["dump_s"])
            with open(spans) as fh:
                res["spans"] = json.load(fh)
            spans.unlink()
        root = "atlas.enumerate_diagrams" if w.argv[0] == "enumerate" else "quadrilateral.verify_membership"
        res["root_s"] = sum(end - start for _, layer, start, end, _ in res["spans"] if layer == root)
    return res


def run_cli_workload(w: Workload, seconds: float, trace: bool, env: dict, work: Path, expect: dict) -> dict:
    checker = ReportChecker(w.name, expect)
    jobs = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(jobs) % 2 == 1
        job = _cli_job(w, traced, len(jobs), env, work)
        job["traced"] = traced
        job["problems"] = checker(job["exit"], job["out_path"])
        jobs.append(job)
        if time.perf_counter() >= deadline and (not trace or len(jobs) >= 2):
            break
    return {
        "jobs": jobs,
        "timed": [j for j in jobs if not j["traced"]],
        "fail_ratio": sum(bool(j["problems"]) for j in jobs) / len(jobs),
    }


def sweep_vectors(sweep_seed: int, order_seed: int, count: int = SWEEP_POOL) -> list:
    """The sweep's strength vectors, in the order `order_seed` gives them.

    Strengths are uniform in (-3, 3)^5, skipping any vector with a component
    below 0.2 in absolute value; the solver seed is the draw number.  This
    is the draw of acceptance criterion 7, which seed 22 replays.
    """
    import numpy as np

    rng = np.random.default_rng(sweep_seed)
    vectors = []
    draws = 0
    while len(vectors) < count:
        draws += 1
        gamma = rng.uniform(-3, 3, 5)
        if np.any(np.abs(gamma) < 0.2):
            continue
        vectors.append({"gamma": gamma.tolist(), "seed": draws})
    order = np.random.default_rng(order_seed).permutation(count)
    return [vectors[i] for i in order]


def run_sweep_workload(
    sweep_seed: int, seed: int, seconds: float, trace: bool, env: dict, work: Path, expect: dict
) -> dict:
    vectors = sweep_vectors(sweep_seed, seed)
    vec_path, res_path, spans = work / "vectors.json", work / "results.json", work / "sweep.spans.json"
    vec_path.write_text(json.dumps(vectors))
    argv = [sys.executable, str(HERE / "child.py"), "sweep", str(vec_path), str(res_path), str(seconds)]
    if trace:
        argv.append(str(spans))
    proc = run_process(argv, env, work / "sweep.stdout", work / "sweep.stderr")
    if proc["exit"] != 0:
        raise RuntimeError("sweep process failed: " + (work / "sweep.stderr").read_text())
    rows = json.loads(res_path.read_text())
    proc["peak_rss_mb"] = json.loads((work / "sweep.stdout").read_text().splitlines()[-1])["peak_rss_mb"]
    jobs = []
    for row in rows:
        vec = vectors[row["index"]]
        problems = check_solution(vec["gamma"], row["solved"], expect)
        if row["solved"] != rows[row["index"]]["solved"]:
            problems.append("a later pass solved the vector differently")
        if trace and row["traced_solved"] != row["solved"]:
            problems.append("traced solve differs from untraced solve")
        jobs.append(dict(row, problems=problems, traced=False))
    first = jobs[: len(vectors)]
    passes = rows[-1]["pass"] + 1
    timed = []
    for p in range(passes):
        part = [j for j in jobs if j["pass"] == p]
        timed.append(
            {
                "wall_s": sum(j["wall_s"] for j in part),
                "cpu_s": sum(j["cpu_s"] for j in part),
                "peak_rss_mb": proc["peak_rss_mb"],
                "traced_wall_s": sum(j.get("traced_wall_s", 0.0) for j in part),
                "ref_s": [r for j in part for r in j["ref_s"]],
            }
        )
    out = {
        "jobs": jobs,
        "timed": timed,
        "vector_s": summary([j["wall_s"] for j in jobs]),
        "passes": passes,
        "unsolved": sum(j["solved"] is None for j in first),
        "fail_ratio": sum(j["solved"] is None or bool(j["problems"]) for j in first) / len(first),
        "fail_ratio_over": f"one pass over the {len(first)} vectors of sweep seed {sweep_seed}",
    }
    if trace:
        with open(spans) as fh:
            out["layers"] = aggregate(json.load(fh))
        spans.unlink()
    return out


# -- metrics -------------------------------------------------------------------


def end_to_end(w: Workload, run: dict, setup: list) -> dict:
    """A job is one CLI process, or one pass of the solver sweep.

    `value` is what the benchmark reports.  Job time and CPU are means over
    the run's jobs (busy time / jobs): on a shared machine the per-job
    median of a few jobs moves about twice as much between runs.
    `job_ref` and `cpu_ref` divide them by the mean wall and CPU time of
    the reference runs made while the same jobs ran, which takes out most
    of the machine's drift in speed; `job_s` and `cpu_s` stay in the
    report.  `cpu_util` is `cpu_ref` / (`job_ref` x processes): CPU time
    the host steals slows the job and the reference alike, and cancels.
    `setup_s` is the median import time, each import divided by the
    reference time taken while it ran and multiplied by NOMINAL_S: seconds
    at a fixed machine speed.  The raw median is `setup_raw_s`.
    """
    jobs = run["timed"]
    walls = [j["wall_s"] for j in jobs]
    cpus = [j["cpu_s"] for j in jobs]
    rss = [j["peak_rss_mb"] for j in jobs]
    scaled = [wall / ref * NOMINAL_S for wall, ref in setup]
    ref_walls = [wall for j in jobs for wall, _ in j["ref_s"]]
    ref_wall = statistics.mean(ref_walls)
    ref_cpu = statistics.mean(cpu for j in jobs for _, cpu in j["ref_s"])
    return {
        "setup_s": dict(summary(scaled), value=statistics.median(scaled)),
        "setup_raw_s": dict(summary([wall for wall, _ in setup]), value=statistics.median(wall for wall, _ in setup)),
        "job_ref": dict(summary([x / ref_wall for x in walls]), value=statistics.mean(walls) / ref_wall),
        "cpu_ref": dict(summary([x / ref_cpu for x in cpus]), value=statistics.mean(cpus) / ref_cpu),
        "ref_s": dict(summary(ref_walls), value=ref_wall),
        "job_s": dict(summary(walls), value=statistics.mean(walls)),
        "cpu_s": dict(summary(cpus), value=statistics.mean(cpus)),
        "cpu_util": dict(
            summary([(c / ref_cpu) / (s / ref_wall * w.processes) for c, s in zip(cpus, walls)]),
            value=(sum(cpus) / ref_cpu) / (sum(walls) / ref_wall * w.processes),
        ),
        "peak_rss_mb": dict(summary(rss), value=statistics.median(rss)),
    }


def _layer(layers: dict, name: str, per: float) -> dict:
    row = layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "sums": {}, "by": {}})
    return {
        "calls": row["calls"] / per,
        "self_s": row["self_s"] / per,
        "total_s": row["total_s"] / per,
        "sums": {k: v / per for k, v in row["sums"].items()},
        "by": {k: {key: v[key] / per for key in ("calls", "self_s", "total_s")} for k, v in row["by"].items()},
    }


def per_layer(w: Workload, run: dict) -> dict:
    """Per-layer metrics per job: the mean over traced CLI jobs, or over
    the sweep's passes."""
    if w.argv:
        traced = [j for j in run["jobs"] if j["traced"]]
        untraced = [j for j in run["jobs"] if not j["traced"]]
        table, count = aggregate(*(j["spans"] for j in traced)), len(traced)
        own = [j["wall_s"] - j["memo_warm_s"] - j["dump_s"] for j in traced]
        job_s = statistics.mean(own)
        overhead = statistics.median([j["wall_s"] - j["memo_warm_s"] for j in traced]) - statistics.median(
            [j["wall_s"] for j in untraced]
        )
        extra = {
            "cli.overhead_s": statistics.mean(o - j["root_s"] for o, j in zip(own, traced)),
            "cli.output_bytes": statistics.mean(j["output_bytes"] for j in traced),
            "atlas.memo_warm_s": statistics.mean(j["memo_warm_s"] for j in traced),
            "trace.overhead_s": overhead,
            "numeric.solve.iterations": 0.0,
        }
    else:
        passes = run["timed"]
        table, count = run["layers"], len(passes)
        job_s = statistics.mean(p["traced_wall_s"] for p in passes)
        iters = [i for r in run["jobs"] for i in r["iterations"]]
        extra = {
            "cli.overhead_s": 0.0,
            "cli.output_bytes": 0,
            "atlas.memo_warm_s": 0.0,
            "trace.overhead_s": statistics.median(p["traced_wall_s"] - p["wall_s"] for p in passes),
            "numeric.solve.iterations": statistics.mean(iters) if iters else 0.0,
        }
    L = {name: _layer(table, name, count) for name in {site[2] for site in CALL_SITES}}
    out: dict = {}
    for name in (
        "exactpoly.reduces_to_zero",
        "exactpoly.groebner_basis",
        "exactpoly.normal_form",
        "vorticity.decide",
        "vorticity.satisfies",
        "diagram.canonical_masks",
        "diagram.validate",
        "lemmas.analyze",
        "atlas.enumerate_diagrams",
        "quadrilateral.verify_membership",
        "numeric.solve",
        "numeric.velocities",
        "numeric.residual",
    ):
        out[f"{name}.calls"] = L[name]["calls"]
        out[f"{name}.s"] = L[name]["self_s"]
    decide = L["vorticity.decide"]
    out["vorticity.decide.total_s"] = decide["total_s"]
    for kind in ("Infeasible", "Feasible", "Unknown"):
        split = decide["by"].get(f"kind={kind}", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[f"vorticity.decide.{kind}.calls"] = split["calls"]
        out[f"vorticity.decide.{kind}.s"] = split["self_s"]
        out[f"vorticity.decide.{kind}.total_s"] = split["total_s"]
    zero_tests = L["exactpoly.reduces_to_zero"]["calls"]
    infeasible = out["vorticity.decide.Infeasible.calls"]
    attempts = L["vorticity.satisfies"]["calls"]
    solve = L["numeric.solve"]
    solve_fails = sum(v["calls"] for k, v in solve["by"].items() if k.startswith("error="))
    successes = solve["calls"] - solve_fails
    enum = L["atlas.enumerate_diagrams"]["sums"]
    out.update(
        {
            "exactpoly.groebner_basis.out_terms": L["exactpoly.groebner_basis"]["sums"].get("out_terms", 0),
            "vorticity.witness_hit_ratio": out["vorticity.decide.Feasible.calls"] / attempts if attempts else 0.0,
            "vorticity.cert_hit_ratio": infeasible / zero_tests if zero_tests else 0.0,
            "vorticity.decide.share": decide["total_s"] / job_s,
            "exactpoly.reduces_to_zero.share": L["exactpoly.reduces_to_zero"]["total_s"] / job_s,
            "lemmas.exclusions": L["lemmas.analyze"]["by"].get("excluded=True", {"calls": 0})["calls"],
            "atlas.classes": enum.get("classes", 0),
            "atlas.candidates_valid": enum.get("candidates_valid", 0),
            "atlas.survivors": enum.get("survivors", 0),
            "quadrilateral.basis_size": L["quadrilateral.verify_membership"]["sums"].get("basis_size", 0),
            "numeric.solve.success_ratio": successes / solve["calls"] if solve["calls"] else 0.0,
            "numeric.velocities.calls_per_solution": (
                L["numeric.velocities"]["calls"] / successes if successes else 0.0
            ),
        }
    )
    out.update(extra)
    return out


# -- main ------------------------------------------------------------------------


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main(argv=None) -> int:
    nproc = os.cpu_count() or 1
    table = workloads(nproc)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, default=0, help="order of the solve-sweep vectors within a pass")
    parser.add_argument(
        "--sweep-seed", type=int, default=DEFAULT_SEED, help="seed that draws the solve-sweep strength vectors"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stop through the `finally` blocks, which kill and reap the job.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "vortexdiagrams" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vortexdiagrams

    if Path(vortexdiagrams.__file__).resolve().parent != (SRC / "vortexdiagrams").resolve():
        print(f"error: imported vortexdiagrams from {vortexdiagrams.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    w = table[args.workload]
    expect = EXPECT[w.name]
    work = RUN_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(work)
        load_before = loadavg()
        # Set-up is sampled before and after the jobs, so that its median
        # spans the same stretch of machine load as the jobs do.
        setup = measure_setup(env, work, warm_up=True)
        if w.argv:
            run = run_cli_workload(w, args.seconds, bool(args.trace), env, work, expect)
        else:
            run = run_sweep_workload(args.sweep_seed, args.seed, args.seconds, bool(args.trace), env, work, expect)
        setup += measure_setup(env, work, warm_up=False)
        load_after = loadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(w, run, setup)
    jobs = run["jobs"]
    failed = sum(bool(j["problems"]) for j in jobs)
    report = {
        "workload": w.name,
        "seed": args.seed,
        "sweep_seed": args.sweep_seed,
        "sweep_seed_default": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "processes": w.processes,
        "note": w.note,
        "machine": machine(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "end_to_end": e2e,
        "job_s_tail": tail([j["wall_s"] for j in run["timed"]]),
        "fail_ratio": run["fail_ratio"],
        "fail_ratio_over": run.get("fail_ratio_over", "all jobs of the run"),
        "problems": sorted({p for j in jobs for p in j["problems"]})[:20],
    }
    if w.name == "solve-sweep":
        report.update(passes=run["passes"], unsolved_per_pass=run["unsolved"], vector_s=run["vector_s"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layers = per_layer(w, run)
        report["per_layer"] = layers
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in wanted}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name]["value"], "unit": units[name]} for name in wanted}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
