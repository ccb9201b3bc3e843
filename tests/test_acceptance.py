"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a PASS line (bypassing capture) after its assertions, so
a full run reads as a checklist.
"""

import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from oracle3 import oracle_enumerate3
from relabel import color_swapped, relabeled
from synthetic import synthetic_sequence
from vortexdiagrams import lemmas, numeric
from vortexdiagrams.atlas import diff_report, enumerate_diagrams, load_catalog
from vortexdiagrams.diagram import Diagram, canonical_key, stroke_count_C, validate
from vortexdiagrams.exactcheck import normal_form
from vortexdiagrams.exactpoly import groebner_basis
from vortexdiagrams.quadrilateral import quadrilateral_system, verify_membership
from vortexdiagrams.vorticity import (
    ConstraintLedger,
    angular_momentum,
    decide,
    gamma_sum,
    satisfies,
    verify_certificate,
)

# sha256 of `vortexdiagrams enumerate --n 5` stdout (the report payload as
# JSON with sorted keys and indent 2, plus a newline) and of the
# quadrilateral basis text (one `to_text()` per generator, newline-joined).
# A change that alters either output must update the hash and say why.
REPORT_N5_SHA256 = "f3a6053c1c0ea564cea2a5710ded33c4e43f68e9d6dd262461c82d4f31d3b935"
QUADRILATERAL_BASIS_SHA256 = "bbd4fe4fe0d248245a1d4e942cd47335627b44e704a9ee2add8c9ca9e54ed7a1"

EXPECTED_HISTOGRAM = {0: 4, 2: 1, 3: 0, 4: 10, 5: 5, 6: 8, 7: 1, 8: 2}

EXPECTED_EXCLUSIONS = {
    "C2 #1": "Dumbbell",
    "C3 #1": "constraint-infeasibility",
    "C3 #2": "constraint-infeasibility",
    "C4a #2": "Triangle",
    "C4a #4": "Triangle",
    "C4b #4": "Dumbbell",
    "C5b #3": "constraint-infeasibility",
    "C6a #2": "Quadrilateral",
}


def announce(line: str) -> None:
    print(line, flush=True)


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def timed_report():
    """The n=5 report and the seconds its enumeration took."""
    t0 = time.time()
    report = enumerate_diagrams(5)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def report_single(enumerated):
    return enumerated(5)


def test_criterion_1_catalog_reproduction(timed_report, catalog):
    report_single, elapsed = timed_report
    assert len(report_single.survivors) == 31
    assert report_single.histogram == EXPECTED_HISTOGRAM
    assert report_single.candidates_raw == 52 * 52 * 2**10
    diff = diff_report([s.key for s in report_single.survivors], catalog)
    assert diff == {"missing": [], "extra": []}, f"itemized diff: {diff}"
    assert elapsed < 60
    announce(
        f"ACCEPTANCE 1 PASS: 31 survivors, histogram {report_single.histogram}, "
        f"empty catalog diff ({elapsed:.1f}s)"
    )


def test_criterion_2_exclusion_provenance(report_single, catalog):
    rejected = {r["key"]: r for r in report_single.rejected}
    for entry in catalog:
        if entry.status != "excluded":
            continue
        expected = EXPECTED_EXCLUSIONS[entry.figure_ref]
        assert entry.excluding_lemma == expected
        row = rejected[entry.key]
        assert row["reason"] == expected, (entry.figure_ref, row)
        if expected == "constraint-infeasibility":
            assert row["stage"] == "ledger"
        else:
            assert row["stage"] == "lemma"
    announce("ACCEPTANCE 2 PASS: all 8 curated exclusions rejected with matching lemma ids")


def test_criterion_3_groebner_verification():
    t0 = time.time()
    result = verify_membership()
    elapsed = time.time() - t0
    assert result.member
    assert result.cofactor_identity  # sum h_i * p_i == target, by multiplication alone
    gens, target = quadrilateral_system()
    assert not normal_form(target, groebner_basis(gens))  # the Fraction reference agrees
    assert elapsed < 60
    announce(f"ACCEPTANCE 3 PASS: quadrilateral ideal membership certified ({elapsed:.1f}s)")


def test_criterion_4_constraint_decisions(catalog):
    cases = [
        (
            ConstraintLedger((gamma_sum([1, 2]),), (gamma_sum([1, 2]),)),
            "direct-disequality",
        ),
        (
            ConstraintLedger((gamma_sum([2, 3]), angular_momentum([1, 2, 3]))),
            "vanishing-monomial",
        ),
        (
            ConstraintLedger((gamma_sum([1, 2, 3, 4]), angular_momentum([1, 2, 3, 4]))),
            "sum-of-squares",
        ),
        (
            ConstraintLedger((angular_momentum([1, 2, 3]), angular_momentum([1, 2, 3, 4]))),
            "sum-of-squares",
        ),
        (
            ConstraintLedger((gamma_sum([1, 2, 3]), angular_momentum([1, 2, 3]))),
            "sum-of-squares",
        ),
    ]
    for ledger, kind in cases:
        verdict = decide(ledger)
        assert verdict.infeasible
        assert verdict.certificate.kind == kind
        assert verify_certificate(ledger, verdict.certificate)

    unknowns = []
    for entry in catalog:
        if entry.status != "possible":
            continue
        ledger = lemmas.analyze(entry.diagram).base_ledger
        verdict = decide(ledger, seed=11)
        assert not verdict.infeasible, entry.figure_ref
        if verdict.kind == "Feasible":
            assert satisfies(ledger, verdict.witness), entry.figure_ref
        else:
            unknowns.append(entry.figure_ref)
    assert not unknowns, f"documented Unknown ledgers: {unknowns}"

    rng = random.Random(20)
    pool = []
    for size in range(1, 6):
        for J in itertools.combinations(range(1, 6), size):
            pool.append(gamma_sum(J))
            if size >= 2:
                pool.append(angular_momentum(J))
    infeasible_seen = 0
    for _ in range(200):
        ledger = ConstraintLedger(
            tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))),
            tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))),
        )
        verdict = decide(ledger)
        if verdict.kind == "Feasible":
            assert satisfies(ledger, verdict.witness)
        elif verdict.infeasible:
            infeasible_seen += 1
            assert verify_certificate(ledger, verdict.certificate)
        grown = decide(ConstraintLedger(ledger.equalities + (rng.choice(pool),), ledger.nonzeros))
        if verdict.infeasible:
            assert grown.kind != "Feasible"  # monotone
    assert infeasible_seen >= 20
    announce(
        "ACCEPTANCE 4 PASS: certificate kinds as stated, 31/31 feasible catalog ledgers "
        f"with exact witnesses, 200 randomized ledgers monotone ({infeasible_seen} infeasible re-verified)"
    )


def _random_diagram(rng):
    pairs = list(itertools.combinations(range(1, 6), 2))
    return Diagram(
        5,
        [p for p in pairs if rng.random() < 0.35],
        [p for p in pairs if rng.random() < 0.35],
        [v for v in range(1, 6) if rng.random() < 0.4],
        [v for v in range(1, 6) if rng.random() < 0.4],
    )


def test_criterion_5_equivariance():
    from test_lemmas import finding_signature

    rng = random.Random(21)
    violations = 0
    for _ in range(1000):
        d = _random_diagram(rng)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(5)}
        image = relabeled(d, mapping)
        swapped = color_swapped(d)
        if validate(d).valid != validate(image).valid:
            violations += 1
        if validate(d).valid != validate(swapped).valid:
            violations += 1
        if stroke_count_C(d) != stroke_count_C(image) or stroke_count_C(d) != stroke_count_C(swapped):
            violations += 1
        expect = sorted(finding_signature(f, mapping) for f in lemmas.apply_all(d))
        got = sorted(finding_signature(f) for f in lemmas.apply_all(image))
        if expect != got:
            violations += 1
        expect_sw = sorted(finding_signature(f, swap=True) for f in lemmas.apply_all(d))
        got_sw = sorted(finding_signature(f) for f in lemmas.apply_all(swapped))
        if expect_sw != got_sw:
            violations += 1
    assert violations == 0
    announce("ACCEPTANCE 5 PASS: 1000 random diagrams, zero equivariance violations")


def test_criterion_6_small_n_oracle():
    report = enumerate_diagrams(3)
    assert {s.key for s in report.survivors} == oracle_enumerate3()
    announce("ACCEPTANCE 6 PASS: three-vertex enumeration equals the independent oracle")


def test_criterion_7_numeric_identities():
    s = 1 / math.sqrt(2)
    assert numeric.residual(numeric.make_configuration([1, 1], [s, -s], None, 1.0)) < 1e-12
    omega = np.exp(2j * np.pi / 3)
    assert (
        numeric.residual(numeric.make_configuration([1, 1, 1], [1, omega, omega**2], None, 1.0))
        < 1e-12
    )
    rng = np.random.default_rng(22)
    successes = 0
    same_sign = 0
    tries = 0
    worst = 0.0
    while successes < 50 and tries < 200:
        tries += 1
        gamma = rng.uniform(-3, 3, 5)
        if np.any(np.abs(gamma) < 0.2):
            continue
        config = None
        for lam in (1.0, -1.0):
            try:
                config = numeric.solve(gamma, lam, seed=tries, attempts=10)
                break
            except numeric.NoConvergenceError:
                continue
        if config is None:
            continue
        successes += 1
        report = numeric.check_identities(config, tol=1e-9)
        assert report.passed, (gamma.tolist(), report)
        worst = max(worst, report.moment_z, report.moment_w, report.angular)
        # lam * sum(g |z|^2) = sum of pair products > 0 fixes lam's sign
        if np.all(gamma > 0) or np.all(gamma < 0):
            same_sign += 1
            assert config.lam.real * gamma[0] > 0, gamma.tolist()
    assert successes == 50
    assert same_sign > 0
    announce(
        f"ACCEPTANCE 7 PASS: closed forms at 1e-12, 50 solver successes with identities "
        f"below 1e-9 (worst {worst:.1e})"
    )


def test_criterion_8_probe_round_trip(catalog):
    eps = [2.0**-k for k in range(4, 13)]
    hits = 0
    for entry in catalog:
        if entry.status != "possible":
            continue
        sequence = synthetic_sequence(entry.diagram, eps)
        recovered = numeric.probe(sequence, tol=0.15)
        assert canonical_key(recovered) == canonical_key(entry.diagram), entry.figure_ref
        hits += 1
    assert hits == 31
    announce("ACCEPTANCE 8 PASS: 31/31 synthetic sequences probe back to their diagrams")


def test_criterion_9_run_determinism(report_single):
    first = json.dumps(report_single.to_json(), sort_keys=True).encode()
    second = json.dumps(enumerate_diagrams(5).to_json(), sort_keys=True).encode()
    assert first == second
    announce("ACCEPTANCE 9 PASS: two fresh runs give byte-identical reports")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_criterion_10_byte_identical_outputs(report_single):
    payload = json.dumps(report_single.to_json(), sort_keys=True, indent=2) + "\n"
    assert _sha256(payload) == REPORT_N5_SHA256
    gens, _ = quadrilateral_system()
    basis_text = "\n".join(p.to_text() for p in groebner_basis(gens))
    assert _sha256(basis_text) == QUADRILATERAL_BASIS_SHA256
    announce("ACCEPTANCE 10 PASS: n=5 report and quadrilateral basis text byte-identical to the record")
