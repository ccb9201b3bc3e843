"""Exact multivariate polynomial arithmetic over the rationals.

Sparse dict-of-terms polynomials with Buchberger-style Groebner bases,
multivariate division (normal forms) and ideal membership.  Sized for the
small ring this project needs (the eleven variables of `DEFAULT_VARS`,
low degree); coefficients are always exact `Fraction`s so that identities
proved here are proofs, not float coincidences.

There is one monomial order, grevlex by ring position: a ring tuple lists
its variables from most to least significant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import neg
import json
import re

DEFAULT_VARS = ("a", "b", "c", "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8")

ZERO = Fraction(0)
ONE = Fraction(1)


class ResourceLimitError(RuntimeError):
    """Raised when a basis computation exceeds its configured budget."""


def _grevlex_key(exps: tuple):
    """Sort key of an exponent tuple: larger key, larger monomial.

    Graded reverse lexicographic by ring position: higher total degree
    wins, and a tie goes to the smaller exponent in the last variable
    where the two differ.
    """
    return (sum(exps), tuple(map(neg, exps[::-1])))


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    return tuple(a + b for a, b in zip(m1, m2))


def _mono_divides(m1: tuple, m2: tuple) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_div(m1: tuple, m2: tuple) -> tuple:
    return tuple(a - b for a, b in zip(m1, m2))


def _mono_lcm(m1: tuple, m2: tuple) -> tuple:
    return tuple(max(a, b) for a, b in zip(m1, m2))


class Polynomial:
    """Immutable sparse polynomial: map exponent tuple -> nonzero Fraction."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, terms=None, ring: tuple[str, ...] = DEFAULT_VARS, _clean=True):
        self.ring = ring
        if terms is None:
            self.terms = {}
        elif _clean:
            clean = {}
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(m)] = c
            self.terms = clean
        else:
            self.terms = terms
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring=DEFAULT_VARS) -> "Polynomial":
        return cls({}, ring, _clean=False)

    @classmethod
    def constant(cls, value, ring=DEFAULT_VARS) -> "Polynomial":
        c = Fraction(value)
        if c == 0:
            return cls.zero(ring)
        return cls({(0,) * len(ring): c}, ring, _clean=False)

    @classmethod
    def variable(cls, name: str, ring=DEFAULT_VARS) -> "Polynomial":
        i = ring.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(ring)))
        return cls({exps: ONE}, ring, _clean=False)

    # -- ring operations ------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials over different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.ring)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            nc = res.get(m, ZERO) + c
            if nc:
                res[m] = nc
            else:
                res.pop(m, None)
        return Polynomial(res, self.ring, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()}, self.ring, _clean=False)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.ring)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.ring)
            return Polynomial({m: cc * c for m, cc in self.terms.items()}, self.ring, _clean=False)
        self._check(other)
        res: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                nc = res.get(m, ZERO) + c1 * c2
                if nc:
                    res[m] = nc
                else:
                    del res[m]
        return Polynomial(res, self.ring, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.ring)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- structure ------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grevlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def variables(self) -> set[str]:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.ring[i])
        return used

    def evaluate(self, assignment: dict) -> Fraction:
        """Exact evaluation at a full rational assignment name -> value."""
        point = [Fraction(assignment.get(v, 0)) for v in self.ring]
        total = ZERO
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    term *= point[i] ** e
            total += term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: _grevlex_key(mc[0]), reverse=True)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.ring[i])
                elif e > 1:
                    factors.append(f"{self.ring[i]}^{e}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            chunks.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json_terms(self) -> list[dict]:
        out = []
        for m, c in self.sorted_terms():
            exps = {self.ring[i]: e for i, e in enumerate(m) if e}
            out.append({"coeff": str(c), "exps": exps})
        return out

    def __repr__(self):
        return f"Polynomial({self.to_text()})"


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*"
    r"(?P<vars>(?:\*?\s*[A-Za-zΓ][A-Za-z0-9]*(?:\^\d+)?\s*)*)"
)


def parse_polynomial(text, ring: tuple[str, ...] = DEFAULT_VARS) -> Polynomial:
    """Parse the text form ``3/2*G1^2*G2 - G3 + 1`` or a JSON term list.

    Greek gamma aliases (``Γ1``) are accepted for the ``G`` variables.
    """
    if isinstance(text, list):
        terms: dict = {}
        for item in text:
            c = Fraction(item["coeff"])
            exps = [0] * len(ring)
            for name, e in item["exps"].items():
                exps[ring.index(_normalize_var(name))] += int(e)
            m = tuple(exps)
            terms[m] = terms.get(m, ZERO) + c
        return Polynomial(terms, ring)
    text = text.strip()
    if text.startswith("["):
        return parse_polynomial(json.loads(text), ring)
    if text in ("0", ""):
        return Polynomial.zero(ring)
    terms = {}
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        sign = -1 if match.group("sign") == "-" else 1
        coeff = Fraction(match.group("coeff")) if match.group("coeff") else ONE
        exps = [0] * len(ring)
        for piece in re.findall(r"[A-Za-zΓ][A-Za-z0-9]*(?:\^\d+)?", match.group("vars") or ""):
            if "^" in piece:
                name, power = piece.split("^")
                e = int(power)
            else:
                name, e = piece, 1
            exps[ring.index(_normalize_var(name))] += e
        m = tuple(exps)
        c = terms.get(m, ZERO) + sign * coeff
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        pos = match.end()
    return Polynomial(terms, ring, _clean=False)


def _normalize_var(name: str) -> str:
    return "G" + name[1:] if name.startswith("Γ") else name


# -- division and normal forms ------------------------------------------


def _divisor(terms: dict) -> tuple:
    """``(lead monomial, lead coefficient, terms)`` of a nonzero term map."""
    lm = max(terms, key=_grevlex_key)
    return lm, terms[lm], terms


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of `p` under multivariate division by `basis`.

    No term of the result is divisible by any basis leading term, and
    ``p - result`` lies in the ideal generated by `basis` (exact division,
    no scalar slack).
    """
    divisors = [_divisor(g.terms) for g in basis if g]
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        m = max(work, key=_grevlex_key)
        c = work.pop(m)
        for lm, lc, gterms in divisors:
            if _mono_divides(lm, m):
                q = _mono_div(m, lm)
                factor = c / lc
                for mg, cg in gterms.items():
                    if mg is lm or mg == lm:
                        continue
                    mm = _mono_mul(mg, q)
                    nc = work.get(mm, ZERO) - factor * cg
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return Polynomial(remainder, p.ring, _clean=False)


# -- integer kernel for basis computation --------------------------------
#
# Buchberger runs on content-stripped integer polynomials: remainders are
# the same up to a nonzero rational scalar, which zero-tests and leading
# monomials do not see, and Python int arithmetic is much faster than
# Fraction churn.


def _to_int_terms(p: Polynomial) -> dict:
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return _int_strip({m: int(c * den) for m, c in p.terms.items()})


def _int_strip(terms: dict) -> dict:
    content = gcd(*terms.values())
    if content > 1:
        return {m: c // content for m, c in terms.items()}
    return terms


def _int_reduce(terms: dict, divisors, counter=None) -> dict:
    """Pseudo-reduction of integer `terms` by `divisors`; full tail reduction.

    Returns a remainder equal to a nonzero rational multiple of the exact
    normal form.
    """
    work = dict(terms)
    remainder: dict = {}
    while work:
        m = max(work, key=_grevlex_key)
        c = work.pop(m)
        for lm, lc, gterms in divisors:
            if _mono_divides(lm, m):
                if counter is not None:
                    counter["reductions"] += 1
                    if counter["reductions"] > counter["max_reductions"]:
                        raise ResourceLimitError(
                            f"pair reduction budget exceeded ({counter['max_reductions']})"
                        )
                q = _mono_div(m, lm)
                d = gcd(c, lc)
                scale, factor = lc // d, c // d
                if scale != 1:
                    for k in work:
                        work[k] *= scale
                    for k in remainder:
                        remainder[k] *= scale
                for mg, cg in gterms.items():
                    if mg == lm:
                        continue
                    mm = _mono_mul(mg, q)
                    nc = work.get(mm, 0) - factor * cg
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return _int_strip(remainder)


def _int_spoly(f: dict, g: dict, lmf: tuple, lmg: tuple) -> dict:
    lcm = _mono_lcm(lmf, lmg)
    cf, cg = f[lmf], g[lmg]
    d = gcd(cf, cg)
    mf, mg = _mono_div(lcm, lmf), _mono_div(lcm, lmg)
    sf, sg = cg // d, cf // d
    res: dict = {}
    for m, c in f.items():
        res[_mono_mul(m, mf)] = c * sf
    for m, c in g.items():
        mm = _mono_mul(m, mg)
        nc = res.get(mm, 0) - c * sg
        if nc:
            res[mm] = nc
        else:
            res.pop(mm, None)
    return res


def groebner_basis(
    gens,
    max_basis_terms: int = 50_000,
    max_pair_reductions: int = 200_000,
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Buchberger with normal (smallest-lcm) pair selection and both classic
    pair-pruning criteria.  Output generators are monic, tails fully
    reduced, sorted by leading monomial: deterministic for a given input.
    Raises ResourceLimitError when the configured budgets are exceeded.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    counter = {"reductions": 0, "max_reductions": max_pair_reductions}

    basis: list[tuple] = []  # _divisor triples, in insertion order
    lms: list[tuple] = []

    for g in gens:
        r = _int_reduce(_to_int_terms(g), basis, counter)
        if r:
            basis.append(_divisor(r))
            lms.append(basis[-1][0])

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}

    def coprime(i, j):
        return all(a == 0 or b == 0 for a, b in zip(lms[i], lms[j]))

    while pairs:
        i, j = min(pairs, key=lambda ij: (_grevlex_key(_mono_lcm(lms[ij[0]], lms[ij[1]])), ij))
        pairs.discard((i, j))
        if coprime(i, j):
            continue
        lcm_ij = _mono_lcm(lms[i], lms[j])
        if any(
            k != i and k != j
            and _mono_divides(lms[k], lcm_ij)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        s = _int_spoly(basis[i][2], basis[j][2], lms[i], lms[j])
        r = _int_reduce(s, basis, counter)
        if r:
            basis.append(_divisor(r))
            lms.append(basis[-1][0])
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
            if sum(len(b[2]) for b in basis) > max_basis_terms:
                raise ResourceLimitError(f"basis term budget exceeded ({max_basis_terms})")

    # Interreduce: drop generators whose lead is divisible by another lead,
    # then reduce each survivor against the rest (its lead is irreducible
    # among minimal leads, so full reduction just cleans the tail).
    minimal = [
        basis[i]
        for i in range(len(basis))
        if not any(j != i and _mono_divides(lms[j], lms[i]) for j in range(len(basis)))
    ]
    polys = []
    for idx, (_, _, terms) in enumerate(minimal):
        lm, lc, reduced = _divisor(_int_reduce(terms, minimal[:idx] + minimal[idx + 1:]))
        polys.append(
            Polynomial({m: Fraction(c, lc) for m, c in reduced.items()}, ring, _clean=False)
        )
    polys.sort(key=lambda p: _grevlex_key(p.leading_monomial()))
    return polys


def reduces_to_zero(p: Polynomial, basis) -> bool:
    """Fast zero-test for the normal form of `p` against `basis`."""
    if not p:
        return True
    divisors = [_divisor(_to_int_terms(g)) for g in basis if g]
    return not _int_reduce(_to_int_terms(p), divisors)


def ideal_member(p: Polynomial, gens) -> bool:
    """True iff `p` lies in the ideal generated by `gens`."""
    return reduces_to_zero(p, groebner_basis(gens))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lmf, lmg)
    tf = Polynomial({_mono_div(lcm, lmf): 1 / f.leading_coefficient()}, f.ring, _clean=False)
    tg = Polynomial({_mono_div(lcm, lmg): 1 / g.leading_coefficient()}, g.ring, _clean=False)
    return tf * f - tg * g
