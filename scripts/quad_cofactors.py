"""Derive the cofactors that certify the quadrilateral ideal membership.

The four balance polynomials p1..p4 of `quadrilateral_system` and the
target are homogeneous (degrees 4, 6, 4, 4 and 8), so cofactors with
sum h_i * p_i = target can be taken homogeneous of degree 8 - deg p_i.
Their coefficients are the unknowns of one linear system, one equation
per degree-8 monomial.  It is solved modulo the prime 2^61 - 1 by
Gaussian elimination in a fixed order, with every free unknown set to
0, and each coefficient is lifted back to a rational by rational
reconstruction.  The result is checked exactly, by
`quadrilateral.check_cofactor_identity`, before the cofactor texts are
printed one per line.

The package does not run this script: `quadrilateral.COFACTORS` holds
its output, and `verify_membership` checks that identity by
multiplication whatever way the cofactors were found.

Example:
    python scripts/quad_cofactors.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from vortexdiagrams.exactpoly import Polynomial
from vortexdiagrams.quadrilateral import RING, check_cofactor_identity, quadrilateral_system

PRIME = 2**61 - 1


def _monomials(degree: int, nvars: int) -> list:
    """Every exponent tuple of the given total degree, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _rational(x: int, p: int = PRIME) -> Fraction:
    """The fraction n/d with |n|, d below sqrt(p/2) that is x mod p."""
    bound = int((p // 2) ** 0.5)
    r0, r1, t0, t1 = p, x % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        raise ArithmeticError(f"no rational reconstruction of {x} mod {p}")
    return Fraction(r1, t1)


def _solve_mod(rows: list, ncols: int, p: int = PRIME) -> list:
    """One solution mod p of the sparse system, free unknowns at 0.

    Each row is a dict column -> coefficient, with the right-hand side at
    column `ncols`.  Rows are reduced one by one against the pivots found
    so far; a reduced row's smallest column becomes its pivot.
    """
    pivots: dict = {}  # column -> row normalized to 1 there
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            if c == ncols:
                raise ArithmeticError("inconsistent system: the target is not a member")
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    x = [0] * ncols
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        x[c] = (row.get(ncols, 0) - sum(v * x[k] for k, v in row.items() if c < k < ncols)) % p
    return x


def derive_cofactors() -> tuple:
    """Cofactors (h1, h2, h3, h4) with sum h_i * p_i == target, checked."""
    gens, target = quadrilateral_system()
    nvars = len(RING)
    degree = target.total_degree()
    columns = [
        (i, m) for i, g in enumerate(gens) for m in _monomials(degree - g.total_degree(), nvars)
    ]
    equations: dict = {}  # degree-8 monomial -> {column: coefficient}
    for col, (i, m) in enumerate(columns):
        for mg, c in gens[i].terms.items():
            mono = tuple(a + b for a, b in zip(m, mg))
            equations.setdefault(mono, {})[col] = c
    for mono, c in target.terms.items():
        equations.setdefault(mono, {})[len(columns)] = c
    rows = [
        {col: c.numerator * pow(c.denominator, -1, PRIME) for col, c in equations[mono].items()}
        for mono in sorted(equations)
    ]
    x = _solve_mod(rows, len(columns))
    terms: list = [{} for _ in gens]
    for (i, m), value in zip(columns, x):
        if value:
            terms[i][m] = _rational(value)
    cofactors = tuple(Polynomial(t, RING) for t in terms)
    if not check_cofactor_identity(gens, target, [h.to_text() for h in cofactors]):
        raise ArithmeticError("reconstructed cofactors do not give the target")
    return cofactors


def main() -> int:
    for h in derive_cofactors():
        print(h.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
