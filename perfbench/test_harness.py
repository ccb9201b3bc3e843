"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import shutil
import sys
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import CALL_SITES, Tracer, aggregate, package_modules, self_times  # noqa: E402

from vortexdiagrams import atlas, lemmas, numeric  # noqa: E402


def _ledgers():
    return [lemmas.analyze(e.diagram).base_ledger for e in atlas.load_catalog()[:6]]


def test_wrapped_calls_return_what_unwrapped_calls_return():
    modules = package_modules()
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in CALL_SITES}
    ledgers = _ledgers()
    z = np.array([1 + 0.5j, -0.3 + 1j, -1 - 0.2j, 0.4 - 0.9j, 0.1 + 0.1j])
    gamma = [1.0, -2.0, 0.5, 1.5, -0.7]
    plain = [atlas.decide(led, seed=atlas.LEDGER_SEED) for led in ledgers]
    plain_v = numeric.velocities(z, gamma)
    with Tracer(modules) as tracer:
        assert atlas.decide is not originals[("atlas", "decide")]
        traced = [atlas.decide(led, seed=atlas.LEDGER_SEED) for led in ledgers]
        traced_v = numeric.velocities(z, gamma)
    assert traced == plain
    assert np.array_equal(traced_v, plain_v)
    assert tracer.spans, "no spans recorded"
    for (m, a), original in originals.items():
        assert getattr(modules[m], a) is original, f"{m}.{a} not restored"


def test_exceptions_pass_through_and_attributes_are_restored():
    def boom():
        raise KeyError("x")

    fake = types.SimpleNamespace(boom=boom)
    tracer = Tracer({"fake": fake}, sites=(("fake", "boom", "fake.boom"),))
    try:
        with tracer:
            fake.boom()
    except KeyError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert fake.boom is boom
    assert tracer.spans[0][4] == {"error": "KeyError"}


def test_self_times_never_exceed_spans():
    def leaf():
        time.sleep(0.002)

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    def top():
        middle()
        leaf()

    fake = types.SimpleNamespace(leaf=leaf, middle=middle, top=top)
    sites = (("fake", "leaf", "leaf"), ("fake", "middle", "middle"), ("fake", "top", "top"))
    with Tracer({"fake": fake}, sites=sites) as tracer:
        fake.top()
        for led in _ledgers():
            atlas.decide(led, seed=atlas.LEDGER_SEED)
    spans = tracer.spans
    for span, own in zip(spans, self_times(spans)):
        assert -1e-9 <= own <= span[3] - span[2] + 1e-12
    # Overlapping children (as from parallel workers) are covered once.
    made_up = [[None, "p", 0.0, 10.0, None], [0, "c", 1.0, 4.0, None], [0, "c", 3.0, 6.0, None], [0, "c", 9.0, 12.0, None]]
    assert self_times(made_up)[0] == 10.0 - (5.0 + 1.0)
    table = aggregate(made_up)
    assert table["c"]["calls"] == 3 and table["p"]["total_s"] == 10.0


def test_wrong_expected_output_drives_fail_ratio_to_one():
    w = run.workloads(2)["quad-cert"]
    wrong = dict(run.EXPECT["quad-cert"], basis_size=23)
    work = run.RUN_DIR / "test-harness"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run.run_cli_workload(w, 0.0, False, run.child_env(work), work, wrong)
        right = run.run_cli_workload(w, 0.0, False, run.child_env(work), work, run.EXPECT["quad-cert"])
    finally:
        shutil.rmtree(work)
    assert result["fail_ratio"] == 1.0
    assert all(any("basis_size" in p for p in j["problems"]) for j in result["jobs"])
    assert right["fail_ratio"] == 0.0


def test_solution_check_rejects_wrong_outputs():
    vec = run.sweep_vectors(run.DEFAULT_SEED, 0, count=2)
    import child

    solved = child.solve_vector(numeric, vec[0]["gamma"], vec[0]["seed"])
    assert solved is not None
    assert run.check_solution(vec[0]["gamma"], solved, run.EXPECT["solve-sweep"]) == []
    assert run.check_solution(vec[1]["gamma"], solved, run.EXPECT["solve-sweep"]) != []
    assert run.check_solution(vec[0]["gamma"], solved, {"residual_below": 0.0, "identity_tol": 1e-9}) != []


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(x) for x in range(1, 21)])
    assert t == {"value": 10.0, "percentile": 50.0, "samples": 20}


def test_reference_sample_spends_its_share():
    import reference

    assert len(reference.sample(0.0)) == 1
    times = reference.sample(1.0)
    assert sum(wall for wall, _ in times) >= reference.SHARE * 1.0
    assert sum(wall for wall, _ in times[:-1]) < reference.SHARE * 1.0


def test_job_ref_divides_by_the_reference_time():
    w = run.workloads(2)["quad-cert"]
    jobs = [{"wall_s": 3.0, "cpu_s": 2.0, "peak_rss_mb": 30.0, "ref_s": [(0.1, 0.05), (0.2, 0.15)]}]
    e2e = run.end_to_end(w, {"timed": jobs}, [(0.2, 0.04), (0.3, 0.04), (0.6, 0.08)])
    assert abs(e2e["job_ref"]["value"] - 3.0 / 0.15) < 1e-12
    assert abs(e2e["cpu_ref"]["value"] - 2.0 / 0.10) < 1e-12
    assert abs(e2e["cpu_util"]["value"] - (2.0 / 0.10) / (3.0 / 0.15)) < 1e-12
    assert abs(e2e["setup_s"]["value"] - 7.5 * run.NOMINAL_S) < 1e-12


def test_paused_time_is_left_out_of_the_job_time():
    work = run.RUN_DIR / "test-pause"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.8:\n    pass\n"
    try:
        t0 = time.perf_counter()
        res = run.run_process([sys.executable, "-c", busy], {}, work / "out", work / "err", sample_every=0.1)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work)
    assert res["exit"] == 0
    assert len(res["ref_s"]) >= 3
    paused = sum(wall for wall, _ in res["ref_s"])
    assert res["wall_s"] <= elapsed - paused + 1e-6
    assert res["cpu_s"] >= 0.8
