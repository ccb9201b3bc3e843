"""Command-line front end.

Subcommands: enumerate, check, catalog, render, solve, probe,
verify-groebner.  Machine-readable output is JSON with sorted keys, so a
fixed invocation produces byte-identical reports.  Exit codes: 0 success
or valid, 1 domain-negative result (invalid diagram, infeasible ledger,
no solution or no convergence), 2 usage or internal error.

Each handler imports the module behind its subcommand, so a cold process
pays only for what it runs: `solve` and `probe` load `numeric` and with
it numpy, which the exact-algebra commands never call; `render` loads
`render` and `diagram` only; `verify-groebner` loads `quadrilateral`,
`exactpoly` and `exactcheck` only; `enumerate` loads neither `render` nor
`exactcheck`.  `main` does not import `exactpoly` either: its
`ResourceLimitError` can only have been raised once a handler has loaded it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _write(text: str, out=None) -> None:
    """`text` to the file `out`, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(data, out=None) -> None:
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", out)


def _load_diagram(path: str) -> Diagram:
    from .diagram import Diagram

    with open(path) as fh:
        return Diagram.from_json(json.load(fh))


def _cmd_enumerate(args) -> int:
    from . import atlas

    report = atlas.enumerate_diagrams(args.n, workers=args.workers)
    payload = report.to_json()
    _dump(payload, args.out)
    hist = " ".join(f"C={k}:{v}" for k, v in sorted(report.histogram.items()))
    print(f"survivors: {len(report.survivors)}   {hist}", file=sys.stderr)
    if report.diff_vs_catalog is not None:
        diff = report.diff_vs_catalog
        if diff["missing"] or diff["extra"]:
            print(f"catalog diff: {diff}", file=sys.stderr)
            return 1
        print("catalog diff: empty", file=sys.stderr)
    return 0


def _infeasibility_reason(analysis, verdict) -> str:
    cert = verdict.certificate
    text = cert.polynomial.to_text()
    if cert.kind == "direct-disequality":
        eq_src = ", ".join(analysis.provenance.get(text + " = 0", ["ledger"]))
        nz_src = ", ".join(analysis.provenance.get(text + " != 0", ["ledger"]))
        return f"{eq_src} {text}=0 vs {nz_src} nonzero"
    return f"{cert.kind}: {text} = 0 forced"


def _cmd_check(args) -> int:
    from . import atlas
    from .diagram import canonical_key, stroke_count_C

    d = _load_diagram(args.diagram)
    if d.n > 8:
        raise ValueError(f"judging supported for n <= 8 (strengths G1..G8), got n={d.n}")
    rules = atlas.validate(d)
    result: dict = {
        "diagram": d.to_json(),
        "canonical_key": canonical_key(d),
        "c_class": stroke_count_C(d),
        "valid": rules.valid,
        "rule_failures": list(rules.failures),
    }
    if not rules.valid:
        result["outcome"] = "invalid"
        _dump(result, args.out)
        return 1
    j = atlas.judge(d)
    result["outcome"] = j.outcome
    result["findings"] = [f.to_json() for f in j.analysis.findings]
    result["ledger"] = j.analysis.base_ledger.to_json()
    if j.verdict is not None:
        result["verdict"] = j.verdict.to_json()
    if j.branches:
        result["branches"] = atlas.branches_to_json(j.branches)
    if j.excluded_by is not None:
        result["excluded_by"] = j.excluded_by
    if j.analysis.exclusion is not None:
        result["reason"] = j.analysis.exclusion.reason
    elif j.excluded_by == "constraint-infeasibility":
        result["reason"] = _infeasibility_reason(j.analysis, j.verdict)
    _dump(result, args.out)
    return 0 if j.outcome == "retained" else 1


def _load_survivor_keys(path: str) -> list:
    with open(path) as fh:
        report = json.load(fh)
    survivors = report.get("survivors") if isinstance(report, dict) else None
    if not isinstance(survivors, list) or not all(
        isinstance(s, dict) and isinstance(s.get("key"), str) for s in survivors
    ):
        raise ValueError(f"{path}: not an enumeration report with keyed survivors")
    keys = [s["key"] for s in survivors]
    if report.get("n", 5) != 5 or not all(k.startswith("5:") for k in keys):
        raise ValueError(f"{path}: the curated catalog covers n=5 only, and this report is not for n=5")
    return keys


def _cmd_catalog(args) -> int:
    from . import atlas

    entries = atlas.load_catalog()
    if args.diff:
        diff = atlas.diff_report(_load_survivor_keys(args.diff), entries)
        _dump(diff, args.out)
        return 0 if not diff["missing"] and not diff["extra"] else 1
    payload = {
        "entries": [dict(e.to_json(), key=e.key) for e in entries],
        "possible": sum(e.status == "possible" for e in entries),
        "excluded": sum(e.status == "excluded" for e in entries),
    }
    _dump(payload, args.out)
    return 0


def _cmd_render(args) -> int:
    from .render import render

    _write(render(_load_diagram(args.diagram), args.format), args.out)
    return 0


def _parse_lambda(text: str) -> complex:
    """A unit complex number; a trailing `i` is read as Python's `j`."""
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        lam = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(abs(lam)):
        raise argparse.ArgumentTypeError("the multiplier must be finite")
    if abs(abs(lam) - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError("the multiplier must have unit modulus")
    return lam / abs(lam)


def _parse_tol(text: str) -> float:
    """A finite, positive probe tolerance."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError("the tolerance must be finite and positive")
    return tol


def _cmd_solve(args) -> int:
    from . import numeric

    gamma = [float(x) for x in args.gamma.split(",")]
    try:
        config = numeric.solve(gamma, args.lam, seed=args.seed)
    except numeric.NoConvergenceError as exc:
        print(exc, file=sys.stderr)  # a refusal, or the exhausted budget
        return 1
    ident = numeric.check_identities(config)
    payload = {
        "configuration": config.to_json(),
        "residual": numeric.residual(config),
        "classification": numeric.classify(config.z_array(), config.gamma),
        "identities": {
            "moment_z": ident.moment_z,
            "moment_w": ident.moment_w,
            "angular": ident.angular,
            "passed": ident.passed,
        },
    }
    _dump(payload, args.out)
    return 0


def _cmd_probe(args) -> int:
    from . import numeric
    from .diagram import canonical_key

    with open(args.samples) as fh:
        sample = numeric.SingularSequenceSample.from_jsonl(fh.read())
    try:
        d = numeric.probe(sample, tol=args.tol)
    except (numeric.AmbiguousExponentError, ValueError) as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return 1
    _dump({"diagram": d.to_json(), "canonical_key": canonical_key(d)}, args.out)
    return 0


def _cmd_verify_groebner(args) -> int:
    from . import quadrilateral

    result = quadrilateral.verify_membership()
    _dump(result.to_json(), args.out)
    return 0 if result.verified else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexdiagrams",
        description="Two-colored diagram pipelines for planar five-vortex configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="exhaustively enumerate valid diagram classes")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--workers", type=int, default=1,
                   help="ignored (the scan runs in this process); must be at least 1")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="validate a diagram, apply lemmas, decide its ledger")
    p.add_argument("diagram")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("catalog", help="dump the curated catalog or diff a report against it")
    p.add_argument("--diff")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("render", help="render a diagram")
    p.add_argument("diagram")
    p.add_argument("--format", choices=("dot", "svg", "tikz"), default="svg")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("solve", help="solve the balance system for given strengths")
    p.add_argument("--gamma", required=True, help="comma-separated strengths, e.g. 1,1,1,-2,0.5")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=1.0 + 0.0j)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("probe", help="classify a singular-sequence sample onto a diagram")
    p.add_argument("samples")
    p.add_argument("--tol", type=_parse_tol, default=0.15)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("verify-groebner", help="certify the quadrilateral ideal membership")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_groebner)

    return parser


# Options whose value may start with a minus sign.
_SIGNED_OPTIONS = ("--gamma", "--lambda")


def _join_signed_values(argv: list) -> list:
    """`--gamma -1,2` spelled as `--gamma=-1,2`, and likewise `--lambda -i`.

    argparse reads a token that starts with a minus sign as an option
    unless the whole token is one number, so a strength list led by a
    negative strength, or a multiplier such as -0.6+0.8i, would never
    reach its option as its own token.
    """
    out: list = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        exactpoly = sys.modules.get(f"{__package__}.exactpoly")
        if exactpoly is None or not isinstance(exc, exactpoly.ResourceLimitError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
