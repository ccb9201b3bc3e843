"""Checks of the exact-algebra kernel that do not use it.

`normal_form`, division with `Fraction`s over exponent tuples, is the
reference the packed kernel of `exactpoly` is tested against; only the
tests run it.  `lift` proves ideal membership by cofactors, which
`is_cofactor_identity` confirms by `Polynomial` `*`, `+` and `==` alone.
No enumeration runs any of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub

from .exactpoly import LIFT_PRIME, Polynomial, _grevlex_key, _mono_mul


def _mono_divides(m1: tuple, m2: tuple) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_div(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(sub, m1, m2))


# -- division and normal forms ------------------------------------------


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of `p` under multivariate division by `basis`.

    No term of the result is divisible by any basis leading term, and
    ``p - result`` lies in the ideal generated by `basis` (exact division,
    no scalar slack).  This is the `Fraction` reference for the packed
    integer kernel of `exactpoly`: textbook division (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2, section 3), which
    takes the largest remaining term and divides it by the first basis
    element whose leading monomial divides it.
    """
    divisors = [(g.leading_monomial(), g) for g in basis if g]
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        m = max(work, key=_grevlex_key)
        c = work.pop(m)
        for lm, g in divisors:
            if _mono_divides(lm, m):
                q = _mono_div(m, lm)
                factor = c / g.terms[lm]
                for mg, cg in g.terms.items():
                    if mg != lm:
                        mm = _mono_mul(mg, q)
                        nc = work.get(mm, 0) - factor * cg
                        if nc:
                            work[mm] = nc
                        else:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return Polynomial(remainder, p.ring, _clean=False)


# -- cofactor lift -----------------------------------------------------------
#
# A membership claim p in <g_1, ..., g_k> is proved by cofactors h_i with
# sum h_i * g_i == p, the "lift" of Cox, Little and O'Shea (*Ideals,
# Varieties, and Algorithms*, ch. 2).  `lift` finds them by linear algebra
# modulo a prime plus rational reconstruction (von zur Gathen & Gerhard,
# *Modern Computer Algebra*, section 5.10), and `is_cofactor_identity`
# checks them with `Polynomial` `*`, `+` and `==` alone: no division and no
# Groebner basis, so the check is independent of the kernel.


def _monomials(degree: int, positions: tuple, nvars: int) -> list:
    """Every exponent tuple of the given total degree in the variables at
    `positions` of an `nvars`-variable ring, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(positions, degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _rational(x: int) -> Fraction:
    """The fraction n/d with |n|, d below sqrt(P/2) that is x mod P,
    P = `LIFT_PRIME`."""
    p = LIFT_PRIME
    bound = int((p // 2) ** 0.5)
    r0, r1, t0, t1 = p, x % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        raise ArithmeticError(f"no rational reconstruction of {x} mod {p}")
    return Fraction(r1, t1)


def _solve_mod(rows: list, ncols: int) -> list:
    """One solution mod P = `LIFT_PRIME` of the sparse system, free
    unknowns at 0.

    Each row is a dict column -> coefficient, with the right-hand side at
    column `ncols`.  Rows are reduced one by one against the pivots found
    so far; a reduced row's smallest column becomes its pivot.
    """
    p = LIFT_PRIME
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


def is_cofactor_identity(p: Polynomial, gens, cofactors) -> bool:
    """True iff sum(h_i * g_i) == p, by `Polynomial` `*`, `+` and `==` alone."""
    total = Polynomial.zero(p.ring)
    for h, g in zip(cofactors, gens, strict=True):
        total = total + h * g
    return total == p


def lift(p: Polynomial, gens) -> tuple[Polynomial, ...] | None:
    """Cofactors h_i with sum h_i * gens[i] == p, or None.

    Each h_i is sought homogeneous of degree deg p - deg gens[i] in the
    variables that `p` and `gens` use.  Their coefficients are the unknowns
    of one sparse linear system, one equation per monomial, solved modulo
    `LIFT_PRIME` in a fixed order with every free unknown at 0; each
    coefficient is then lifted back to a rational by rational
    reconstruction.  The cofactors are returned only once
    `is_cofactor_identity` confirms them exactly, so a returned tuple proves
    membership however it was found.  None means none were found: `p` is
    not a member, or it is one whose cofactors need a higher degree (only
    possible for inhomogeneous input) or coefficients beyond the
    reconstruction bound.
    """
    gens = tuple(gens)
    ring = p.ring
    used = p.variables().union(*(g.variables() for g in gens))
    positions = tuple(i for i, name in enumerate(ring) if name in used)
    degree = p.total_degree()
    columns = [
        (i, m)
        for i, g in enumerate(gens)
        if g and g.total_degree() <= degree
        for m in _monomials(degree - g.total_degree(), positions, len(ring))
    ]
    equations: dict = {}  # monomial -> {column: coefficient}
    for col, (i, m) in enumerate(columns):
        for mg, c in gens[i].terms.items():
            equations.setdefault(_mono_mul(m, mg), {})[col] = c
    for mono, c in p.terms.items():
        equations.setdefault(mono, {})[len(columns)] = c
    try:
        rows = [
            {col: c.numerator * pow(c.denominator, -1, LIFT_PRIME) for col, c in eq.items()}
            for _, eq in sorted(equations.items())
        ]
        x = _solve_mod(rows, len(columns))
        terms: list = [{} for _ in gens]
        for (i, m), value in zip(columns, x):
            if value:
                terms[i][m] = _rational(value)
    except (ArithmeticError, ValueError):  # inconsistent, unreconstructible, or prime | denominator
        return None
    cofactors = tuple(Polynomial(t, ring) for t in terms)
    return cofactors if is_cofactor_identity(p, gens, cofactors) else None
