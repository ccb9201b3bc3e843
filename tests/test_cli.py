import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synthetic import synthetic_sequence, to_jsonl
from vortexdiagrams import atlas, exactcheck, exactpoly, quadrilateral
from vortexdiagrams.atlas import load_catalog
from vortexdiagrams.cli import _join_signed_values, build_parser, main
from vortexdiagrams.diagram import Diagram, canonical_key
from vortexdiagrams.exactcheck import normal_form
from vortexdiagrams.exactpoly import groebner_basis
from vortexdiagrams.numeric import SingularSequenceSample, make_configuration
from vortexdiagrams.render import render


@pytest.fixture
def roberts_file(tmp_path):
    d = Diagram(5, [(1, 2), (3, 4)], [(2, 3), (1, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
    path = tmp_path / "roberts.json"
    path.write_text(json.dumps(d.to_json()))
    return path


@pytest.fixture
def c3_variant_file(tmp_path):
    d = Diagram(5, [(1, 2), (1, 3), (2, 3)], [(1, 4), (2, 3)], [2, 3], [1, 2, 3, 4])
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(d.to_json()))
    return path


class TestCheck:
    def test_retained_diagram_exits_zero(self, roberts_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["check", str(roberts_file), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["outcome"] == "retained"
        assert result["c_class"] == 2

    def test_contradictory_diagram_exits_one(self, c3_variant_file, tmp_path):
        out = tmp_path / "res.json"
        assert main(["check", str(c3_variant_file), "--out", str(out)]) == 1
        result = json.loads(out.read_text())
        assert result["outcome"] == "excluded"
        assert result["excluded_by"] == "constraint-infeasibility"
        assert result["reason"] == (
            "RuleIV-vorticity(z), RuleIV-vorticity(w) G2 + G3=0 vs SumT12(z), CorSumT12(z) nonzero"
        )

    def test_product_certificate_excludes_the_n6_triangle_pair(self, tmp_path):
        # z: triangles 126 and 345, w: all of 1..6, so e2(126) = e2(345) =
        # e2(1..6) = 0; one triangle's sum vanishes, and with it its strengths
        d = Diagram(6, [(1, 2), (1, 6), (2, 6), (3, 4), (3, 5), (4, 5)], list(itertools.combinations(range(1, 7), 2)))
        assert canonical_key(d) == "6:1711:7fff:0:0"
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(d.to_json()))
        out = tmp_path / "res.json"
        assert main(["check", str(path), "--out", str(out)]) == 1
        result = json.loads(out.read_text())
        assert (result["outcome"], result["excluded_by"]) == ("excluded", "constraint-infeasibility")
        certificate = result["verdict"]["certificate"]
        assert (certificate["kind"], certificate["subset"]) == ("product", [1, 2, 3, 4])

    def test_invalid_diagram_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(Diagram(5, [(1, 2)], [], [], []).to_json()))
        assert main(["check", str(path)]) == 1

    def test_invalid_diagram_lists_its_rule_failures(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(Diagram(5, [(1, 2)], [(1, 2)], [1], [1, 2]).to_json()))
        out = tmp_path / "res.json"
        assert main(["check", str(path), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["rule_failures"] == [
            "R1a: bare end 2 of z-stroke 12",
            "R4: lone z-circle in component [1, 2]",
            "R2: pair (1, 2) both z-close and z-far",
        ]

    def test_structural_exclusion_reported(self, tmp_path):
        d = Diagram(5, [(1, 2), (3, 4)], [(1, 2), (3, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(d.to_json()))
        out = tmp_path / "res.json"
        assert main(["check", str(path), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["excluded_by"] == "Dumbbell"

    def test_more_than_eight_vertices_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(Diagram(9, [(1, 2)], [(3, 4)], [1, 2], [3, 4]).to_json()))
        assert main(["check", str(path)]) == 2
        assert "n <= 8 (strengths G1..G8)" in capsys.readouterr().err

    def test_invalid_diagram_prints_only_its_rule_report(self, tmp_path, capsys):
        d = Diagram(5, [(1, 2)], [(1, 2)], [1], [1, 2])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d.to_json()))
        assert main(["check", str(path)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "diagram": d.to_json(),
            "canonical_key": canonical_key(d),
            "c_class": 2,
            "valid": False,
            "rule_failures": [
                "R1a: bare end 2 of z-stroke 12",
                "R4: lone z-circle in component [1, 2]",
                "R2: pair (1, 2) both z-close and z-far",
            ],
            "outcome": "invalid",
        }

    def test_more_than_eight_vertices_is_refused_before_the_rules(self, tmp_path, capsys):
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(Diagram(9, [(1, 2)], [(1, 2)], [1], []).to_json()))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: judging supported for n <= 8 (strengths G1..G8), got n=9\n")

    @pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.figure_ref)
    def test_catalog_entry_outcome(self, entry, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(entry.diagram.to_json()))
        out = tmp_path / "res.json"
        code = main(["check", str(path), "--out", str(out)])
        result = json.loads(out.read_text())
        if entry.status == "possible":
            assert (code, result["outcome"]) == (0, "retained")
        else:
            assert (code, result["outcome"]) == (1, "excluded")
            assert result["excluded_by"] == entry.excluding_lemma


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, data",
        [
            (["check"], []),
            (["check"], {"n": "5", "z_strokes": [[1, 2]]}),
            (["check"], {"n": 5, "z_strokes": [[1, "2"]]}),
            (["check"], {"n": -2}),
            (["catalog", "--diff"], [1]),
            (["catalog", "--diff"], {"survivors": [{"key": "6:16ef:16ef:0:1f"}]}),
        ],
    )
    def test_is_usage_error(self, command, data, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert main(command + [str(path)]) == 2


class TestEnumerate:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["enumerate", "--n", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["survivor_count"] == 1
        assert report["candidates_raw"] == 25 * 64

    def test_bad_n_is_usage_error(self):
        assert main(["enumerate", "--n", "9"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, workers, capsys):
        assert main(["enumerate", "--n", "3", "--workers", workers]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["enumerate", "--n", "3", "--out", str(a)]) == 0
        assert main(["enumerate", "--n", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n5_has_an_empty_catalog_diff(self, tmp_path, capsys):
        assert main(["enumerate", "--n", "5", "--out", str(tmp_path / "report.json")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("survivors: 31   ") and err.endswith("catalog diff: empty\n")

    def test_nonempty_catalog_diff_exits_one(self, tmp_path, capsys, monkeypatch):
        # a catalog without one possible entry makes that survivor extra
        entries = load_catalog()
        dropped = next(e for e in entries if e.status == "possible")
        monkeypatch.setattr(atlas, "load_catalog", lambda: [e for e in entries if e is not dropped])
        assert main(["enumerate", "--n", "5", "--out", str(tmp_path / "report.json")]) == 1
        diff = {"missing": [], "extra": [dropped.key]}
        assert capsys.readouterr().err.endswith(f"catalog diff: {diff}\n")

    def test_the_raw_candidate_budget_is_no_option(self, capsys):
        # the scan never visits the raw space, so no budget on it is taken
        assert main(["enumerate", "--n", "3", "--max-raw-candidates", "1000"]) == 2
        assert "unrecognized arguments: --max-raw-candidates 1000" in capsys.readouterr().err


class TestCatalog:
    def test_dump(self, tmp_path):
        out = tmp_path / "catalog.json"
        assert main(["catalog", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["possible"] == 31
        assert data["excluded"] == 8
        assert len(data["entries"]) == 39

    def test_diff_against_small_report_flags_missing(self, tmp_path):
        report = {"survivors": []}
        rp = tmp_path / "report.json"
        rp.write_text(json.dumps(report))
        out = tmp_path / "diff.json"
        assert main(["catalog", "--diff", str(rp), "--out", str(out)]) == 1
        diff = json.loads(out.read_text())
        assert len(diff["missing"]) == 31

    def test_diff_refuses_an_n6_report(self, tmp_path, capsys, enumerated):
        rp = tmp_path / "report.json"
        rp.write_text(json.dumps(enumerated(6).to_json()))
        assert main(["catalog", "--diff", str(rp)]) == 2
        assert "n=5 only" in capsys.readouterr().err


class TestRender:
    def test_render_formats(self, roberts_file, tmp_path):
        for fmt in ("dot", "svg", "tikz"):
            out = tmp_path / f"r.{fmt}"
            assert main(["render", str(roberts_file), "--format", fmt, "--out", str(out)]) == 0
            assert out.read_text()

    def test_without_out_writes_stdout(self, roberts_file, capsys):
        assert main(["render", str(roberts_file), "--format", "tikz"]) == 0
        d = Diagram.from_json(json.loads(roberts_file.read_text()))
        assert capsys.readouterr().out == render(d, "tikz")

    def test_byte_stable(self, roberts_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", str(roberts_file), "--out", str(a)])
        main(["render", str(roberts_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolveProbe:
    def test_solve_writes_configuration(self, tmp_path):
        out = tmp_path / "solution.json"
        assert main(["solve", "--gamma", "1,1", "--lambda", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["residual"] < 1e-12
        assert data["identities"]["passed"]

    def test_solve_no_convergence_path(self, tmp_path):
        # zero strength is rejected up front as a usage-level error
        assert main(["solve", "--gamma", "1,0"]) == 2

    def test_solve_refuses_an_impossible_multiplier_sign(self, tmp_path, capsys):
        out = tmp_path / "solution.json"
        assert main(["solve", "--gamma", "-1,-2,-0.5", "--lambda", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "no solution exists: the strengths are all negative, "
            "so the multiplier needs a negative real part\n"
        )
        assert not out.exists()

    def test_solve_reports_an_exhausted_budget(self, tmp_path, capsys):
        # mixed signs are never refused, and lambda = 1 has no solution here
        out = tmp_path / "solution.json"
        assert main(["solve", "--gamma", "1,-2", "--lambda", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "no convergence after 24 attempts\n"
        assert not out.exists()

    def test_leading_negative_strength_needs_no_equals_sign(self, tmp_path, capsys):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        gamma = "-1,2,-1.5,0.7,2.2"
        assert main(["solve", "--gamma", gamma, "--out", str(spaced)]) == 0
        assert main(["solve", f"--gamma={gamma}", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "text, lam", [("-0.6+0.8i", complex(-0.6, 0.8)), ("-i", -1j), ("-1", -1.0), ("0.6-0.8i", complex(0.6, -0.8))]
    )
    def test_leading_minus_multiplier_needs_no_equals_sign(self, text, lam):
        for argv in (["--lambda", text], [f"--lambda={text}"]):
            args = build_parser().parse_args(_join_signed_values(["solve", "--gamma", "1,1,1", *argv]))
            assert abs(args.lam - lam) < 1e-15

    def test_both_signed_options_spaced(self, tmp_path, capsys):
        # Gamma = (-1, -1) with lambda = -1 is the two-vortex solution reflected
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["solve", "--gamma", "-1,-1", "--lambda", "-1+0i", "--out", str(spaced)]) == 0
        assert main(["solve", "--gamma=-1,-1", "--lambda=-1+0i", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert json.loads(spaced.read_text())["configuration"]["lambda"] == [-1.0, 0.0]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("gamma", ["1", "1,nan,2", "inf,1"])
    def test_too_few_or_non_finite_strengths_are_usage_errors(self, gamma, capsys):
        assert main(["solve", "--gamma", gamma]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_probe_round_trip(self, tmp_path):
        d = Diagram(5, [(1, 2), (3, 4)], [(2, 3), (1, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        samples = tmp_path / "seq.jsonl"
        samples.write_text(to_jsonl(synthetic_sequence(d)))
        out = tmp_path / "probe.json"
        assert main(["probe", str(samples), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert Diagram.from_json(got["diagram"]) == d

    def test_failed_probe_exits_one(self, tmp_path, capsys):
        # a circled coordinate blurred into the ambiguous exponent band
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        points = []
        for eps, c in synthetic_sequence(d).points:
            z = list(c.z)
            z[0] *= eps**0.25  # exponent -2 drifts to -1.75
            points.append((eps, make_configuration(c.gamma, z, c.w, c.lam)))
        samples = tmp_path / "seq.jsonl"
        samples.write_text(to_jsonl(SingularSequenceSample(tuple(points))))
        out = tmp_path / "probe.json"
        assert main(["probe", str(samples), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("probe failed: ")
        assert not out.exists()
        # 0.25 from -2 is maximal at a tolerance of 0.3
        assert main(["probe", str(samples), "--tol", "0.3", "--out", str(out)]) == 0
        assert Diagram.from_json(json.loads(out.read_text())["diagram"]) == d

    def test_probe_rejects_bad_sample(self, tmp_path):
        samples = tmp_path / "seq.jsonl"
        lines = []
        for eps in (0.1, 0.1, 0.1, 0.1):
            lines.append(
                json.dumps(
                    {
                        "epsilon": eps,
                        "z": [[1.0, 0.0], [2.0, 0.0]],
                        "w": [[1.0, 0.0], [2.0, 0.0]],
                    }
                )
            )
        samples.write_text("\n".join(lines))
        assert main(["probe", str(samples)]) == 2

    @pytest.mark.parametrize(
        "malform",
        [
            lambda rows: [[1, 2]] + rows[1:],
            lambda rows: [dict(rows[0], epsilon=None)] + rows[1:],
            lambda rows: [dict(rows[0], z=5)] + rows[1:],
            lambda rows: [dict(rows[0], w=rows[0]["w"][:3])] + rows[1:],
            lambda rows: [dict(r, gamma=r["gamma"][:3]) for r in rows],
            lambda rows: [dict(rows[0], gamma="11111")] + rows[1:],
            lambda rows: [{k: v[:4] if k != "epsilon" else v for k, v in rows[0].items()}] + rows[1:],
            lambda rows: [{k: v[:1] if k != "epsilon" else v for k, v in r.items()} for r in rows],
            lambda rows: [{k: v[:0] if k != "epsilon" else v for k, v in r.items()} for r in rows],
        ],
        ids=[
            "list-line", "null-epsilon", "number-z", "short-w", "short-gamma", "text-gamma",
            "mixed-vertex-counts", "one-vertex", "no-vertex",
        ],
    )
    def test_malformed_sample_is_usage_error(self, malform, tmp_path, capsys):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        rows = [json.loads(line) for line in to_jsonl(synthetic_sequence(d)).splitlines()]
        samples = tmp_path / "seq.jsonl"
        samples.write_text("".join(json.dumps(row) + "\n" for row in malform(rows)))
        assert main(["probe", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol, tmp_path, capsys):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        samples = tmp_path / "seq.jsonl"
        samples.write_text(to_jsonl(synthetic_sequence(d)))
        assert main(["probe", str(samples), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --tol: the tolerance must be finite and positive\n")

    @pytest.mark.parametrize(
        "argv, option",
        [(["solve", "--gamma", "1,1", "--lambda", "abc"], "--lambda"), (["probe", "seq.jsonl", "--tol", "abc"], "--tol")],
    )
    def test_option_that_is_no_number_is_named(self, argv, option, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {option}: 'abc' is not a number\n")
        assert "_parse_" not in err


class TestVerifyGroebner:
    def test_exit_zero_and_summary(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["verify-groebner", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verified"] is True
        assert data["basis_size"] == 22
        assert data["member"] is data["cofactor_identity"] is True
        assert data["cofactors"] == list(quadrilateral.COFACTORS)
        # the Fraction normal form, which the command does not run, agrees
        gens, target = quadrilateral.quadrilateral_system()
        assert not normal_form(target, groebner_basis(gens))

    def test_runs_no_fraction_normal_form(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verify-groebner must not run the Fraction normal form")

        monkeypatch.setattr(exactcheck, "normal_form", refuse)
        monkeypatch.setattr(quadrilateral, "normal_form", refuse)
        assert main(["verify-groebner"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_wrong_cofactor_exits_one(self, monkeypatch):
        cofactors = list(quadrilateral.COFACTORS)
        assert "9*a*b*G1*G3" in cofactors[0]
        cofactors[0] = cofactors[0].replace("9*a*b*G1*G3", "8*a*b*G1*G3")
        monkeypatch.setattr(quadrilateral, "COFACTORS", tuple(cofactors))
        assert main(["verify-groebner"]) == 1

    def test_exhausted_budget_is_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(exactpoly, "MAX_PAIR_REDUCTIONS", 5)
        assert main(["verify-groebner"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pair reduction budget exceeded (5)\n"

    def test_any_other_runtime_error_propagates(self, monkeypatch):
        def fail():
            raise RuntimeError("not a budget")

        monkeypatch.setattr(quadrilateral, "verify_membership", fail)
        with pytest.raises(RuntimeError, match="not a budget"):
            main(["verify-groebner"])

    def test_stdout_is_pinned(self, capsys):
        # the whole JSON, flags and cofactors included, not only the basis
        assert main(["verify-groebner"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GROEBNER_STDOUT_SHA256


# sha256 of `verify-groebner`'s stdout
VERIFY_GROEBNER_STDOUT_SHA256 = "56221d22d5836313a2d919ba86b17094716429fc0cfabb7f8d5cf0f7bc3debfe"


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_run(argv):
    """Exit code of `main(argv)` in a fresh interpreter (None: import only),
    and the modules that interpreter has loaded by then."""
    script = (
        "import json, sys\n"
        "from vortexdiagrams import cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = None if argv is None else cli.main(argv)\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


# the diagram model and constraint logic, which verify-groebner never runs
DIAGRAM_CODE = {"vortexdiagrams.diagram", "vortexdiagrams.vorticity"}
# the exact algebra and what builds on it, which render never runs
ALGEBRA_CODE = {
    "vortexdiagrams.exactpoly",
    "vortexdiagrams.vorticity",
    "vortexdiagrams.lemmas",
    "vortexdiagrams.atlas",
}
# code that no enumeration calls: the kernel's checks and the drawings
OFF_ENUMERATION = {"vortexdiagrams.exactcheck", "vortexdiagrams.render"}
# what `dataclasses` would load; the package's records do without it
RECORD_MACHINERY = {"dataclasses", "inspect"}


class TestImportFootprint:
    """A cold command loads only the modules it runs; the pytest process
    has imported everything already, so each check runs in a subprocess."""

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (
                None,
                {
                    "numpy",
                    "multiprocessing",
                    "vortexdiagrams.atlas",
                    "vortexdiagrams.exactpoly",
                    *DIAGRAM_CODE,
                    *OFF_ENUMERATION,
                },
            ),
            (
                ["enumerate", "--n", "3"],
                {"numpy", "vortexdiagrams.numeric", *RECORD_MACHINERY, *OFF_ENUMERATION},
            ),
            (
                ["verify-groebner"],
                {
                    "numpy",
                    "multiprocessing",
                    *RECORD_MACHINERY,
                    "vortexdiagrams.atlas",
                    "vortexdiagrams.lemmas",
                    "vortexdiagrams.render",
                    *DIAGRAM_CODE,
                },
            ),
        ],
        ids=["import", "enumerate", "verify-groebner"],
    )
    def test_exact_algebra_commands_load_no_numpy(self, argv, absent):
        code, modules = _fresh_run(argv)
        assert code in (None, 0)
        assert not absent & modules

    def test_enumerate_loads_exactly_its_pipeline(self):
        # a new import that drags more of the package onto the path fails here
        code, modules = _fresh_run(["enumerate", "--n", "3"])
        assert code == 0
        assert {m for m in modules if m.startswith("vortexdiagrams")} == {
            "vortexdiagrams",
            "vortexdiagrams.cli",
            "vortexdiagrams.diagram",
            "vortexdiagrams.exactpoly",
            "vortexdiagrams.vorticity",
            "vortexdiagrams.lemmas",
            "vortexdiagrams.atlas",
        }

    def test_render_loads_no_exact_algebra(self, roberts_file, tmp_path):
        code, modules = _fresh_run(["render", str(roberts_file), "--out", str(tmp_path / "r.svg")])
        assert code == 0
        assert {"vortexdiagrams.render", "vortexdiagrams.diagram"} <= modules
        assert not (ALGEBRA_CODE | {"vortexdiagrams.exactcheck", "numpy"}) & modules

    def test_solve_loads_its_solver(self):
        code, modules = _fresh_run(["solve", "--gamma", "1,1,1,-2,0.5"])
        assert code == 0
        assert {"numpy", "vortexdiagrams.numeric"} <= modules
        assert "vortexdiagrams.exactpoly" not in modules


def _run_script(name, argv, monkeypatch):
    """`main()` of scripts/<name> run in this process with the given arguments."""
    path = Path(__file__).resolve().parent.parent / "scripts" / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    return script.main()


class TestExperimentScripts:
    def test_identity_sweep_prints_a_row_per_solve(self, monkeypatch, capsys):
        assert _run_script("identity_sweep.py", ["--count", "2", "--seed", "3"], monkeypatch) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["strengths", "lam", "residual", "moments", "angular"]
        assert set(lines[1]) == {"-"}
        rows = lines[2:-1]
        assert len(rows) == 2
        for row in rows:
            strengths, lam, *residuals = row.split()
            assert len(strengths.split(",")) == 5 and lam in ("+1", "-1")
            assert all(float(r) < 1e-8 for r in residuals)
        assert lines[-1].startswith("2 solves out of ")

    @pytest.mark.parametrize("only, count", [("all", 39), ("possible", 31)])
    def test_render_catalog_writes_one_file_per_entry(self, only, count, tmp_path, monkeypatch, capsys):
        argv = ["--format", "dot", "--out-dir", str(tmp_path), "--only", only]
        assert _run_script("render_catalog.py", argv, monkeypatch) == 0
        files = sorted(tmp_path.iterdir())
        assert len(files) == count
        assert all(f.suffix == ".dot" and f.read_text().startswith("graph") for f in files)
        assert capsys.readouterr().out == f"wrote {count} files to {tmp_path}/\n"


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_runs_as_a_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "vortexdiagrams", "catalog"], env=env, capture_output=True
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["possible"] == 31

    def test_report_does_not_depend_on_the_hash_seed(self):
        # nor on `python -O`, which strips every assert statement
        reports = []
        for seed, flags in (("0", []), ("1", []), ("0", ["-O"])):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, *flags, "-m", "vortexdiagrams", "enumerate", "--n", "4"],
                env=env,
                capture_output=True,
                check=True,
                timeout=60,
            )
            reports.append(done.stdout)
        assert reports[0].startswith(b"{") and reports[0] == reports[1] == reports[2]

    def test_unit_modulus_enforced(self):
        assert main(["solve", "--gamma", "1,1", "--lambda", "3"]) == 2

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["solve", "--gamma", "1,1", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: the seed must not be negative, got -1\n"

    @pytest.mark.parametrize("lam", ["nan", "nanj", "inf", "-inf", "-nan", "infi", "nan+nani"])
    def test_non_finite_multiplier_is_usage_error(self, lam, capsys):
        assert main(["solve", "--gamma", "1,1,1", "--lambda", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert captured.err.count("error: argument --lambda: ") == 1
        assert captured.err.endswith("error: argument --lambda: the multiplier must be finite\n")
