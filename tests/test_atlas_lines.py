"""Reviewable atlas pins and the branch-modelling guard, at n=5 and n=6.

`golden/atlas<n>.txt` holds one line per diagram class, sorted by key:

    <key> <outcome> C=<C class> base=<kind> branches=<class>:<kind>,... stage=<stage> cert=<kind>

`base` is the verdict kind of the base ledger, and each branch entry the
verdict kind of that multiplier class's ledger, with its certificate kind
after a slash when it is Infeasible.  `stage` is where a rejected class
was stopped, with the lemma or reason; `cert` is the kind of the base
ledger's certificate.  A dash marks what the report does not record for
the class.  A change that moves a class shows as a diff of these files,
beside the report hashes that `test_acceptance` and `test_invariants` pin.
Regenerate them with ``PYTHONPATH=src python tests/test_atlas_lines.py``
and name in the change the keys that moved, and why.
"""

from pathlib import Path

import pytest

from vortexdiagrams.atlas import load_catalog
from vortexdiagrams.diagram import from_canonical_masks, stroke_count_C
from vortexdiagrams.vorticity import ConstraintLedger, decide

GOLDEN = Path(__file__).parent / "golden"


def _kind(verdict) -> str:
    cert = verdict.certificate
    return verdict.kind if cert is None else f"{verdict.kind}/{cert.kind}"


def atlas_lines(report) -> list:
    """One line per class of `report`, sorted by key (see the module docstring)."""
    lines = []
    for s in report.survivors:
        branches = ",".join(f"{cls}:{_kind(ver)}" for cls, (_, ver) in sorted(s.branches.items()))
        lines.append(
            f"{s.key} retained C={s.c_class} base={s.verdict.kind} "
            f"branches={branches or '-'} stage=- cert=-"
        )
    for r in report.rejected:
        masks = tuple(int(x, 16) for x in r["key"].split(":")[1:])
        c_class = stroke_count_C(from_canonical_masks(report.n, masks))
        cert = r.get("certificate")
        base = "-" if cert is None else "Infeasible"
        lines.append(
            f"{r['key']} excluded C={c_class} base={base} branches=- stage={r['stage']}:{r['reason']} "
            f"cert={'-' if cert is None else cert['kind']}"
        )
    return sorted(lines)


@pytest.mark.parametrize("n", [5, 6])
def test_atlas_lines_match_the_golden_file(n, enumerated):
    report = enumerated(n)
    got = atlas_lines(report)
    want = (GOLDEN / f"atlas{n}.txt").read_text().splitlines()
    assert len(got) == report.unique_classes
    got_by_key = {line.split()[0]: line for line in got}
    want_by_key = {line.split()[0]: line for line in want}
    keys = got_by_key.keys() | want_by_key.keys()
    moved = sorted(k for k in keys if got_by_key.get(k) != want_by_key.get(k))
    assert not moved, "classes that moved: " + "; ".join(
        f"{k}: {want_by_key.get(k, '(absent)')} -> {got_by_key.get(k, '(absent)')}" for k in moved
    )
    assert got == want


# The survivors every branch of which, decided together with the base
# ledger, would be infeasible.  `lemmas.analyze` decides each branch ledger
# on its own equalities, which keeps them, and the paper keeps the four at
# n=5 among its 31.
JOINT_EXCLUSIONS = {
    5: ["5:13:20c:0:18", "5:13:213:0:18", "5:1:380:3:0", "5:1:380:3:c"],
    6: ["6:1:7e00:3:0", "6:23:701c:6:0", "6:267:4267:0:30"],
}


@pytest.mark.parametrize("n", sorted(JOINT_EXCLUSIONS))
def test_branches_are_judged_without_the_base_equalities(n, enumerated):
    infeasible: dict = {}
    excluded = []
    for s in enumerated(n).survivors:
        if not s.branches:
            continue
        base = s.ledger
        joint = [
            ConstraintLedger(base.equalities + led.equalities, base.nonzeros + led.nonzeros, n)
            for led, _ in s.branches.values()
        ]
        for ledger in joint:
            if ledger not in infeasible:
                infeasible[ledger] = decide(ledger).infeasible
        if all(infeasible[ledger] for ledger in joint):
            excluded.append(s.key)
    assert excluded == JOINT_EXCLUSIONS[n]
    if n == 5:
        possible = {e.key for e in load_catalog() if e.status == "possible"}
        assert set(excluded) <= possible


if __name__ == "__main__":
    from vortexdiagrams.atlas import enumerate_diagrams

    for n in (5, 6):
        (GOLDEN / f"atlas{n}.txt").write_text("\n".join(atlas_lines(enumerate_diagrams(n))) + "\n")
