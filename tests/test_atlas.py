import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from relabel import relabeled
from vortexdiagrams import atlas, lemmas, vorticity
from vortexdiagrams.atlas import (
    CatalogEntry,
    diff_report,
    enumerate_diagrams,
    load_catalog,
    set_partitions,
)
from vortexdiagrams.diagram import (
    Diagram,
    _masks,
    canonical_key,
    canonical_masks,
    masks_key,
    orbit_masks,
    validate,
)
from vortexdiagrams.exactpoly import Polynomial
from vortexdiagrams.lemmas import analyze
from vortexdiagrams.render import render
from vortexdiagrams.vorticity import decide

GOLDEN = Path(__file__).parent / "golden"

ROBERTS = Diagram(5, [(1, 2), (3, 4)], [(2, 3), (1, 4)], [1, 2, 3, 4], [1, 2, 3, 4])


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_below_one_is_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            enumerate_diagrams(3, workers=workers)

    def test_any_worker_count_loads_no_process_pool(self):
        code = (
            "import sys; from vortexdiagrams.atlas import enumerate_diagrams; "
            "enumerate_diagrams(3, workers=4); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent.futures', 'multiprocessing'))))"
        )
        src = str(Path(atlas.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert out.stdout.strip() == "[]"


def exhaustive_scan(n: int) -> tuple:
    """The scan over every partition pair, kept as the reference for the
    orderly one: canonical masks -> orbit size, and the valid labeled count."""
    data = atlas._partition_data(n)
    classes, seen, valid = {}, set(), 0
    for zd in data:
        for wd in data:
            if not zd[0] or not wd[0]:
                continue
            for zc in atlas._valid_circle_masks(zd, wd[1], n):
                for wc in atlas._valid_circle_masks(wd, zd[1], n):
                    valid += 1
                    masks = (zd[0], wd[0], zc, wc)
                    if masks not in seen:
                        orbit = orbit_masks(n, *masks)
                        seen |= orbit
                        classes[min(orbit)] = len(orbit)
    return classes, valid


class TestOrderlyScan:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_the_exhaustive_scan(self, n):
        classes, valid = exhaustive_scan(n)
        assert atlas._scan(n) == classes
        assert sum(classes.values()) == valid

    @pytest.mark.parametrize("n, types", [(3, 3), (4, 5), (5, 7), (6, 11)])
    def test_one_representative_per_integer_partition(self, n, types):
        partitions = set_partitions(n)
        reps = atlas._type_representatives(partitions)
        shapes = [tuple(sorted(bin(p).count("1") for p in partitions[i])) for i in reps]
        assert len(shapes) == len(set(shapes)) == types
        assert all(sum(shape) == n for shape in shapes)
        for i, parts in enumerate(partitions):
            shape = tuple(sorted(bin(p).count("1") for p in parts))
            assert i >= reps[shapes.index(shape)]


class TestPartitions:
    def test_bell_numbers(self):
        assert len(set_partitions(3)) == 5
        assert len(set_partitions(4)) == 15
        assert len(set_partitions(5)) == 52

    def test_partitions_cover_and_disjoint(self):
        for parts in set_partitions(4):
            union = 0
            for p in parts:
                assert union & p == 0
                union |= p
            assert union == 0b1111


from oracle3 import oracle_enumerate3


class TestSmallN:
    def test_enumerate3_matches_oracle(self):
        report = enumerate_diagrams(3)
        assert {s.key for s in report.survivors} == oracle_enumerate3()
        assert report.candidates_raw == 25 * 64

    def test_enumerate4_is_deterministic(self):
        a = enumerate_diagrams(4)
        b = enumerate_diagrams(4)
        assert [s.key for s in a.survivors] == [s.key for s in b.survivors]
        assert a.histogram == b.histogram

    def test_pipeline_partitions_classes(self):
        report = enumerate_diagrams(4)
        assert len(report.survivors) + len(report.rejected) == report.unique_classes
        keys = {s.key for s in report.survivors}
        assert not keys & {r["key"] for r in report.rejected}


class TestCatalog:
    def test_counts(self):
        entries = load_catalog()
        assert len(entries) == 39
        assert sum(e.status == "possible" for e in entries) == 31
        assert sum(e.status == "excluded" for e in entries) == 8

    def test_all_39_entries_are_rule_consistent(self):
        # the excluded eight are rule-consistent too: they fall to the
        # lemma or ledger stages, never to validation
        for e in load_catalog():
            assert validate(e.diagram).valid, e.figure_ref

    def test_alternating_cycle_is_the_lone_plain_class(self):
        entries = [e for e in load_catalog() if e.c_class == 2 and e.status == "possible"]
        assert len(entries) == 1
        assert canonical_key(entries[0].diagram) == canonical_key(ROBERTS)

    def test_every_possible_entry_revalidates(self):
        for e in load_catalog():
            if e.status != "possible":
                continue
            assert validate(e.diagram).valid, e.figure_ref
            an = analyze(e.diagram)
            assert an.exclusion is None, e.figure_ref
            assert not decide(an.base_ledger, seed=11).infeasible, e.figure_ref
            if an.branch_ledgers:  # at least one multiplier class survives
                verdicts = [decide(led, seed=11) for led in an.branch_ledgers.values()]
                assert any(not v.infeasible for v in verdicts), e.figure_ref

    def test_keys_are_distinct(self):
        keys = [e.key for e in load_catalog()]
        assert len(set(keys)) == 39

    def test_corrupt_count_is_refused(self, tmp_path, monkeypatch):
        text = resources.files("vortexdiagrams.data").joinpath("catalog.jsonl").read_text()
        (tmp_path / "catalog.jsonl").write_text("".join(text.splitlines(keepends=True)[:-1]))
        monkeypatch.setattr(atlas, "resources", SimpleNamespace(files=lambda package: tmp_path))
        with pytest.raises(ValueError, match="corrupt catalog: expected 39 entries, found 38"):
            load_catalog()

    def test_excluded_entries_have_lemmas(self):
        for e in load_catalog():
            if e.status == "excluded":
                assert e.excluding_lemma in {
                    "Dumbbell",
                    "Triangle",
                    "Quadrilateral",
                    "constraint-infeasibility",
                }

    def test_entries_expose_ledgers_and_branches(self):
        by_ref = {e.figure_ref: e for e in load_catalog()}
        plain = by_ref["C4a #1"]
        ledger = analyze(plain.diagram).base_ledger
        assert [p.to_text() for p in ledger.equalities] == ["G1*G2 + G1*G3 + G2*G3"]
        branches = analyze(by_ref["C0 #1"].diagram).branch_ledgers
        assert set(branches) == {"+-1", "+-i"}
        assert decide(branches["+-1"]).kind == "Feasible"


class TestBranchesAnnotateOnly:
    """Multiplier branches annotate a retained diagram and exclude nothing.

    No valid diagram could be excluded by them (the guard in
    test_invariants.py), so the lemma layer is patched here: the Roberts
    diagram, retained with no branches, gets two infeasible ones.
    """

    @pytest.fixture
    def branched(self, monkeypatch):
        real = analyze(ROBERTS)
        branches = {
            "+-1": vorticity.ConstraintLedger((vorticity.gamma_sum([5]),)),
            "+-i": vorticity.ConstraintLedger(
                (vorticity.angular_momentum(range(1, 6)), vorticity.angular_momentum([1, 2]))
            ),
        }
        monkeypatch.setattr(lemmas, "analyze", lambda d: real._replace(branch_ledgers=branches))
        return branches

    def test_judge_retains_a_diagram_whose_every_branch_is_infeasible(self, branched):
        j = atlas.judge(ROBERTS)
        assert (j.outcome, j.excluded_by) == ("retained", None)
        assert j.verdict.kind == "Feasible"
        assert {cls: (led, ver.kind) for cls, (led, ver) in j.branches.items()} == {
            cls: (led, "Infeasible") for cls, led in branched.items()
        }

    def test_enumeration_keeps_it_as_a_survivor_with_its_branches(self, branched):
        masks = canonical_masks(5, *_masks(ROBERTS))
        kind, entry = atlas._judge_class(5, masks, {})
        assert (kind, entry.key) == ("survivor", masks_key(5, masks))
        assert set(entry.to_json()["branches"]) == set(branched)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_ledger_rejection_is_a_certified_base_infeasibility(self, n, enumerated):
        ledger_rejections = [r for r in enumerated(n).rejected if r["stage"] == "ledger"]
        assert ledger_rejections
        for r in ledger_rejections:
            assert r["reason"] == "constraint-infeasibility"
            assert set(r) == {"key", "stage", "reason", "ledger", "certificate"}


class TestDiff:
    def test_reproduction_diff_is_empty(self, enumerated):
        report5 = enumerated(5)
        diff = diff_report([s.key for s in report5.survivors], load_catalog())
        assert diff == {"missing": [], "extra": []}

    def test_missing_entry_is_reported(self, enumerated):
        report5 = enumerated(5)
        catalog = load_catalog()
        trimmed = [e for e in catalog if e.figure_ref != "C2 #2"]
        diff = diff_report([s.key for s in report5.survivors], trimmed)
        assert diff["missing"] == []
        assert len(diff["extra"]) == 1

    def test_relabeled_duplicate_is_not_spurious(self, enumerated):
        report5 = enumerated(5)
        catalog = load_catalog()
        mapping = {1: 3, 2: 4, 3: 5, 4: 1, 5: 2}
        duplicate = CatalogEntry(
            relabeled(ROBERTS, mapping), 2, "possible", None, "C2 dup", "", "unknown"
        )
        diff = diff_report([s.key for s in report5.survivors], catalog + [duplicate])
        assert diff == {"missing": [], "extra": []}


class TestDecideDefault:
    def test_default_seed_gives_the_reported_verdicts(self, enumerated):
        """`decide(ledger)` with no seed reproduces every survivor's base
        and branch verdict as the report prints it."""
        report5 = enumerated(5)
        decided = [(s.ledger, s.verdict) for s in report5.survivors]
        decided += [pair for s in report5.survivors for pair in s.branches.values()]
        assert len(decided) == 45
        mismatches = [led.to_json() for led, ver in decided if decide(led).to_json() != ver.to_json()]
        assert not mismatches, mismatches[:3]


class TestRender:
    @pytest.mark.parametrize("fmt", ["dot", "svg", "tikz"])
    def test_golden_alternating_cycle(self, fmt):
        assert render(ROBERTS, fmt) == (GOLDEN / f"roberts.{fmt}").read_text()

    @pytest.mark.parametrize("fmt", ["dot", "svg", "tikz"])
    def test_golden_bare_triangle(self, fmt):
        d = Diagram(5, [(1, 2), (1, 3), (2, 3)], [(1, 2), (1, 3), (2, 3)], [], [])
        assert render(d, fmt) == (GOLDEN / f"bare_triangle.{fmt}").read_text()

    def test_uncircled_diagram_has_no_rings(self):
        d = Diagram(5, [(1, 2), (1, 3), (2, 3)], [(1, 2), (1, 3), (2, 3)], [], [])
        svg = render(d, "svg")
        assert 'fill="none"' not in svg  # rings are the only unfilled circles
        dot = render(d, "dot")
        assert "ring" not in dot

    def test_color_conventions(self):
        svg = render(ROBERTS, "svg")
        assert svg.count("#cc0000") == 2 + 4  # two z-strokes, four z-rings
        assert svg.count("#0000cc") == 2 + 4
        assert "stroke-dasharray" in svg
        tikz = render(ROBERTS, "tikz")
        assert "red" in tikz and "blue" in tikz and "dashed" in tikz

    def test_more_than_eight_vertices_is_refused(self):
        with pytest.raises(ValueError, match="n <= 8"):
            render(Diagram(9, [(1, 2)], [(3, 4)], [1, 2], [3, 4]))

    def test_unsupported_format(self):
        with pytest.raises(ValueError):
            render(ROBERTS, "png")

    def test_mutual_edges_draw_offset_strokes(self):
        d = Diagram(5, [(1, 2)], [(1, 2)], [1, 2], [1, 2])
        svg = render(d, "svg")
        assert svg.count("<line") == 2


class TestStageMonotonicity:
    def test_survivors_shrink_through_stages(self, enumerated):
        report5 = enumerated(5)
        # every survivor passed validation and the lemma stage: rejected
        # classes at later stages never reappear among survivors
        lemma_rejected = {r["key"] for r in report5.rejected if r["stage"] == "lemma"}
        ledger_rejected = {r["key"] for r in report5.rejected if r["stage"] == "ledger"}
        keys = {s.key for s in report5.survivors}
        assert not keys & lemma_rejected
        assert not keys & ledger_rejected
        for s in report5.survivors:
            assert validate(s.diagram).valid


class TestVerdictMemo:
    @pytest.fixture
    def decide_calls(self, monkeypatch):
        calls = []

        def counting(ledger, seed=0):
            calls.append(ledger)
            return decide(ledger, seed=seed)

        monkeypatch.setattr(atlas, "decide", counting)
        return calls

    def test_each_enumeration_decides_its_own_ledgers(self, decide_calls):
        enumerate_diagrams(5)
        assert len(decide_calls) == 50
        enumerate_diagrams(5)
        assert len(decide_calls) == 100

    def test_judge_without_memo_decides_afresh(self, decide_calls):
        atlas.judge(ROBERTS)
        once = len(decide_calls)
        assert once >= 1
        atlas.judge(ROBERTS)
        assert len(decide_calls) == 2 * once
        memo: dict = {}
        atlas.judge(ROBERTS, memo)
        atlas.judge(ROBERTS, memo)
        assert len(decide_calls) == 3 * once


def fresh_polynomial_caches():
    """Empty every cache that keeps the report's polynomials across runs,
    so that the next run builds them all."""
    for cache in vorticity.POLYNOMIAL_CACHES:
        cache.cache_clear()


class TestPolynomialText:
    def test_each_polynomial_of_the_n5_report_is_rendered_once(self, monkeypatch):
        # `to_text` keeps its text; a fresh render must still produce it
        fresh_polynomial_caches()
        render = Polynomial._render
        rendered = []
        monkeypatch.setattr(Polynomial, "_render", lambda p: rendered.append(p) or render(p))
        enumerate_diagrams(5).to_json()
        assert rendered
        assert len({id(p) for p in rendered}) == len(rendered)
        for p in rendered:
            assert p.to_text() == render(p)

    def test_each_subset_polynomial_of_the_n5_report_is_one_object(self, monkeypatch):
        # the lemmas build every subset sum and momentum through these names
        fresh_polynomial_caches()
        built: dict = {}
        for name in ("gamma_sum", "angular_momentum"):

            def record(J, build=getattr(lemmas, name)):
                p = build(J)
                built.setdefault(p.to_text(), {})[id(p)] = p
                return p

            monkeypatch.setattr(lemmas, name, record)
        enumerate_diagrams(5).to_json()
        assert len(built) == 27
        assert all(len(objects) == 1 for objects in built.values())
