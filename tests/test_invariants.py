"""Invariants checked at every supported n (3..6).

The paper gives no reference beyond n=5, so n=6 is checked by invariants:
the orbits of the classes partition the valid labeled diagrams, every class
is its own canonical form, `judge` reaches the class's outcome and the
lemma findings carry over on sampled relabelings and color swaps, every
infeasibility certificate re-checks without the Groebner kernel, every
polynomial text parses back to itself, no multiplier branch could exclude a
class that reaches it, and the report is pinned by a recorded hash.
"""

import hashlib
import json
import random

import pytest

from random_diagrams import random_valid_diagrams
from relabel import color_swapped, relabeled
from vortexdiagrams import atlas, exactpoly, lemmas, vorticity
from vortexdiagrams.atlas import judge
from vortexdiagrams.diagram import canonical_masks, from_canonical_masks, orbit_masks, validate
from vortexdiagrams.exactpoly import parse_polynomial
from vortexdiagrams.vorticity import Certificate, ConstraintLedger, decide, satisfies, verify_certificate

VALID_LABELED = {3: 7, 4: 161, 5: 2569, 6: 43579}

# sha256 of `vortexdiagrams enumerate --n 6` stdout, as acceptance 10 pins n=5.
REPORT_N6_SHA256 = "b0df9897442139e6dc12605ab8f1a826ca4d6e23d1f9f45486284c6d88cf290e"


def class_masks(rep) -> list:
    keys = [s.key for s in rep.survivors] + [r["key"] for r in rep.rejected]
    return [tuple(int(x, 16) for x in key.split(":")[1:]) for key in keys]


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_orbits_partition_the_valid_labeled_diagrams(n, enumerated):
    rep = enumerated(n)
    classes = class_masks(rep)
    assert len(classes) == rep.unique_classes
    assert rep.candidates_valid == VALID_LABELED[n]
    assert sum(len(orbit_masks(n, *masks)) for masks in classes) == VALID_LABELED[n]


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_every_class_is_its_own_canonical_form(n, enumerated):
    for masks in class_masks(enumerated(n)):
        assert canonical_masks(n, *masks) == masks


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_every_scanned_class_is_valid(n):
    """`_scan` yields only classes of valid diagrams, so no report
    records a `validate` rejection."""
    invalid = [masks for masks in atlas._scan(n) if not validate(from_canonical_masks(n, masks)).valid]
    assert not invalid, invalid[:5]


def certified_ledgers(rep) -> list:
    """(ledger, certificate) of every Infeasible verdict in the report: survivor
    base and branch ledgers, and ledger-stage rejections rebuilt from JSON."""
    out = []
    for s in rep.survivors:
        for ledger, verdict in [(s.ledger, s.verdict), *s.branches.values()]:
            if verdict.infeasible:
                out.append((ledger, verdict.certificate))
    for r in rep.rejected:
        if "certificate" in r:
            cert = r["certificate"]
            mult = cert.get("multiplier")
            certificate = Certificate(
                cert["kind"],
                parse_polynomial(cert["polynomial"]),
                subset=tuple(cert.get("subset", ())),
                multiplier=parse_polynomial(mult) if mult is not None else None,
            )
            out.append((ConstraintLedger.from_json(r["ledger"], rep.n), certificate))
    return out


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_certificates_re_check_without_the_groebner_kernel(n, monkeypatch, enumerated):
    certified = certified_ledgers(enumerated(n))
    assert certified

    def refuse(*args, **kwargs):
        raise AssertionError("verify_certificate must not run the Groebner kernel")

    for module, name in [
        (exactpoly, "groebner_basis"),
        (exactpoly, "_int_reduce"),
        (exactpoly, "reduces_to_zero"),
        (vorticity, "groebner_basis"),
        (vorticity, "reduces_to_zero"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    for ledger, certificate in certified:
        assert verify_certificate(ledger, certificate), (ledger.to_json(), certificate.to_json())
        # the lift's degree bound is exact for homogeneous equalities
        for e in ledger.equalities:
            assert len({sum(m) for m in e.terms}) == 1, e


def polynomial_texts(payload) -> set:
    """Every polynomial text of a report: ledger equalities and nonzeros,
    certificate polynomials and multipliers, at any depth."""
    out = set()
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in ("equalities", "nonzeros"):
                out.update(value)
            elif key in ("polynomial", "multiplier"):
                out.add(value)
            else:
                out |= polynomial_texts(value)
    elif isinstance(payload, list):
        for value in payload:
            out |= polynomial_texts(value)
    return out


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_every_polynomial_text_of_the_report_parses_back(n, enumerated):
    """perfbench's output checks and `ConstraintLedger.from_json` read the
    report's polynomials through `parse_polynomial`."""
    texts = polynomial_texts(enumerated(n).to_json())
    assert texts
    for text in texts:
        assert parse_polynomial(text).to_text() == text


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_no_judged_class_has_an_infeasible_unit_real_branch(n):
    """`judge` excludes nothing on a multiplier branch, and the branches
    give it nothing to exclude: a `+-1` ledger is infeasible only when it
    forces one strength to zero (an outside of one vertex, so n <= 4), and
    such a class is already excluded before its branches are decided."""
    verdicts: dict = {}
    for masks in atlas._scan(n):
        d = from_canonical_masks(n, masks)
        if not validate(d).valid:
            continue
        analysis = lemmas.analyze(d)
        ledger = analysis.branch_ledgers.get(lemmas.LAMBDA_REAL)
        if ledger is None:
            continue
        if ledger not in verdicts:
            verdicts[ledger] = decide(ledger)
        if verdicts[ledger].infeasible:
            assert n <= 4 and [len(e.terms) for e in ledger.equalities] == [1], (masks, ledger)
            assert analysis.exclusion is not None or decide(analysis.base_ledger).infeasible, masks


# orbit members judged per class: all of them at n=3 and n=4
JUDGED_PER_CLASS = {3: None, 4: None, 5: 3, 6: 2}


def class_outcomes(rep) -> dict:
    """Canonical masks of each class -> (outcome, excluded_by) as the report has it."""
    out = {}
    for s in rep.survivors:
        out[s.key] = ("retained", None)
    for r in rep.rejected:
        out[r["key"]] = ("excluded", r["reason"])
    return {tuple(int(x, 16) for x in key.split(":")[1:]): v for key, v in out.items()}


@pytest.mark.parametrize("n", sorted(JUDGED_PER_CLASS))
def test_judge_outcome_is_the_same_on_every_orbit_member(n, enumerated):
    """Relabeling or swapping colors never changes what `judge` concludes."""
    rng = random.Random(n)
    k = JUDGED_PER_CLASS[n]
    classes = class_outcomes(enumerated(n))
    assert len(classes) == enumerated(n).unique_classes
    mismatches = []
    for masks, expected in sorted(classes.items()):
        orbit = sorted(orbit_masks(n, *masks))
        for member in orbit if k is None else rng.sample(orbit, min(k, len(orbit))):
            j = judge(from_canonical_masks(n, member))  # a fresh memo each time
            if (j.outcome, j.excluded_by) != expected:
                mismatches.append((masks, member, j.outcome, j.excluded_by, expected))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("n", sorted(VALID_LABELED))
def test_lemma_findings_map_onto_the_representatives(n, enumerated):
    """Each class representative's findings, relabeled (and color-swapped on
    about half the draws), are the findings on its image: acceptance 5 at
    every n, on every class instead of random n=5 diagrams."""
    from test_lemmas import finding_signature

    rng = random.Random(100 + n)
    mismatches = []
    for masks in class_masks(enumerated(n)):
        d = from_canonical_masks(n, masks)
        findings = lemmas.apply_all(d)
        for _ in range(2):
            mapping = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            swap = rng.random() < 0.5
            image = relabeled(d, mapping)
            if swap:
                image = color_swapped(image)
            expect = sorted(finding_signature(f, mapping, swap) for f in findings)
            got = sorted(finding_signature(f) for f in lemmas.apply_all(image))
            if expect != got:
                mismatches.append((masks, mapping, swap))
    assert not mismatches, mismatches[:5]


# seeded random valid diagrams judged per n beyond the scan's n <= 6
SAMPLED = {7: 40, 8: 40}


@pytest.mark.parametrize("n", sorted(SAMPLED))
def test_check_path_beyond_the_scan(n):
    """At n=7 and n=8, which no enumeration reaches, `judge`'s outcome
    survives a relabeling plus a color swap, every certificate re-checks
    without the Groebner kernel, every witness satisfies its ledger, and
    judging again with a fresh memo gives an equal `Judgment`."""
    rng = random.Random(n)
    kinds = set()
    for d in random_valid_diagrams(n, SAMPLED[n], seed=n):
        j = judge(d, {})
        assert judge(d, {}) == j, d
        mapping = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        image = judge(color_swapped(relabeled(d, mapping)), {})
        assert (image.outcome, image.excluded_by) == (j.outcome, j.excluded_by), (d, mapping)
        decided = [] if j.verdict is None else [(j.analysis.base_ledger, j.verdict)]
        for ledger, verdict in decided + list(j.branches.values()):
            kinds.add(verdict.kind)
            if verdict.infeasible:
                assert verify_certificate(ledger, verdict.certificate), (d, ledger)
            elif verdict.witness is not None:
                assert satisfies(ledger, verdict.witness), (d, ledger)
    assert {"Feasible", "Infeasible"} <= kinds


def test_n6_counts_and_histogram(enumerated):
    rep = enumerated(6)
    assert rep.unique_classes == 268
    assert len(rep.survivors) == 145
    assert rep.histogram == {0: 15, 2: 7, 3: 9, 4: 32, 5: 27, 6: 29, 7: 14, 8: 9, 9: 1, 10: 2}


def test_n6_report_is_byte_identical_to_the_record(enumerated):
    payload = json.dumps(enumerated(6).to_json(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == REPORT_N6_SHA256
