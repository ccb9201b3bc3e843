"""Exact multivariate polynomial arithmetic over the rationals.

Sparse dict-of-terms polynomials with Buchberger-style Groebner bases and
ideal membership decided by a zero-test against a basis.  Sized for the
small rings this project needs (the eight strengths G1..G8 of
`DEFAULT_VARS`, low degree); coefficients are always exact `Fraction`s so
that identities proved here are proofs, not float coincidences.

There is one monomial order, grevlex by ring position: a ring tuple lists
its variables from most to least significant.

`Polynomial` keys its terms by exponent tuples.  Buchberger and the
zero-test run on one integer kernel instead: content-stripped integer
coefficients and packed monomials, one Python int per monomial whose
integer order is the grevlex order, so that products are additions and
divisibility is one subtraction and mask (layout below, limit
`MAX_DEGREE`).  A `Basis` is made only by `groebner_basis`, from the
packed divisors of the minimal basis Buchberger leaves; every
`reduces_to_zero` and residue against it reuses them.  The normal form
against a Groebner basis does not depend on which basis of the ideal it
is, so zero-tests and residues need neither the interreduction nor
`Fraction` coefficients: the reduced polynomials are built only when
first read.
The code that checks this kernel without using it, the
`Fraction` reference `normal_form` and the cofactor proof `lift`, lives
in `exactcheck`.

A many-candidate membership search screens each candidate first by
`Basis.residue`, one scalar: a nonzero multiple of its normal form,
evaluated at a fixed pseudo-random point modulo `LIFT_PRIME`.  A nonzero
residue proves the candidate is not a member; only a zero residue is
confirmed by the exact `reduces_to_zero`.  `Basis.packed_residue` is the
same screen over terms already keyed by `packed_key`, so a search can
hold its candidates in that form and build a `Polynomial` only for the
few that pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, neg
import random
import re

DEFAULT_VARS = ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8")

ZERO = Fraction(0)
ONE = Fraction(1)


# The budgets of `groebner_basis`: terms over all basis generators, and
# reduction steps over all pair and generator reductions.
MAX_BASIS_TERMS = 50_000
MAX_PAIR_REDUCTIONS = 200_000


class ResourceLimitError(RuntimeError):
    """Raised when a basis computation exceeds its budget."""


def _grevlex_key(exps: tuple):
    """Sort key of an exponent tuple: larger key, larger monomial.

    Graded reverse lexicographic by ring position: higher total degree
    wins, and a tie goes to the smaller exponent in the last variable
    where the two differ.
    """
    return (sum(exps), tuple(map(neg, exps[::-1])))


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(add, m1, m2))


class Polynomial:
    """Immutable sparse polynomial: map exponent tuple -> nonzero Fraction.

    `_hash`, `_packed` (the integer kernel's terms, see `_int_terms`) and
    `_text` (see `to_text`) are computed on first use and kept.
    """

    __slots__ = ("ring", "terms", "_hash", "_packed", "_text")

    def __init__(self, terms: dict, ring: tuple[str, ...] = DEFAULT_VARS, _clean=True):
        self.ring = ring
        if _clean:
            clean = {}
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(m)] = c
            self.terms = clean
        else:
            self.terms = terms
        self._hash = None
        self._packed = None
        self._text = None

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

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.ring)
            return Polynomial({m: cc * c for m, cc in self.terms.items()}, self.ring, _clean=False)
        self._check(other)
        # Integer numerators over each factor's common denominator, so that
        # only the output terms become Fractions.
        da, left = _over_common_denominator(self.terms)
        db, right = _over_common_denominator(other.terms)
        res: dict = {}
        for m1, c1 in left:
            for m2, c2 in right:
                m = _mono_mul(m1, m2)
                res[m] = res.get(m, 0) + c1 * c2
        den = da * db
        return Polynomial({m: Fraction(c, den) for m, c in res.items() if c}, self.ring, _clean=False)

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

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """The canonical text, terms in decreasing grevlex order; rendered
        on first use and kept in `_text`."""
        if self._text is None:
            self._text = self._render()
        return self._text

    def _render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for m, c in sorted(self.terms.items(), key=lambda mc: _grevlex_key(mc[0]), reverse=True):
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

    def __repr__(self):
        return f"Polynomial({self.to_text()})"


# One term: an optional sign, then a coefficient or a first factor, then
# `* factor` any number of times.  A zero denominator does not match.
_FACTOR = r"[A-Za-z][A-Za-z0-9]*(?:\^\d+)?"
_TERM_RE = re.compile(
    rf"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/0*[1-9]\d*)?)?"
    rf"(?P<factors>(?(coeff)|{_FACTOR})(?:\s*\*\s*{_FACTOR})*)\s*"
)


def _over_common_denominator(terms: dict) -> tuple:
    """(d, [(monomial, c * d)]) with d the lcm of the denominators, so every
    c * d is an int."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()]


def parse_polynomial(text, ring: tuple[str, ...] = DEFAULT_VARS) -> Polynomial:
    """Parse the text form ``3/2*G1^2*G2 - G3 + 1``; zero is ``0``.

    Every term after the first needs its sign, and every term a
    coefficient or a variable; anything else, empty text, a zero
    denominator or a variable outside `ring` raises `ValueError`.
    """
    text = text.strip()
    if not text:
        raise ValueError("cannot parse empty text as a polynomial")
    terms = {}
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or (pos and not match.group("sign")):
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        sign = -1 if match.group("sign") == "-" else 1
        coeff = Fraction(match.group("coeff")) if match.group("coeff") else ONE
        exps = [0] * len(ring)
        for piece in re.findall(_FACTOR, match.group("factors")):
            name, _, power = piece.partition("^")
            if name not in ring:
                raise ValueError(f"unknown variable {name!r} in polynomial {text!r}")
            exps[ring.index(name)] += int(power or 1)
        m = tuple(exps)
        c = terms.get(m, ZERO) + sign * coeff
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        pos = match.end()
    return Polynomial(terms, ring, _clean=False)


# -- packed monomials -------------------------------------------------------
#
# The integer kernel keys each monomial of an n-variable ring by one Python
# int made of n + 1 fields of _FIELD_BITS bits.  The top field holds the
# total degree; below it, field i (counted from the bottom) holds
# MAX_DEGREE - e_i, so the last variable sits just under the degree.
# Integer order is then grevlex by ring position: the higher degree wins,
# and a tie goes to the smaller exponent in the last variable where the
# two monomials differ.  With `one` the key of the unit monomial,
#
#     key(m1 * m2) = key(m1) + key(m2) - one,
#
# and m1 divides m2 iff no field of (key(m1) | guards) - key(m2) borrows
# its guard bit (the top bit of each variable field, always clear in a
# key).  No exponent exceeds the total degree and reduction never raises
# the degree, so checking the degree where a monomial enters the kernel
# (input terms and S-polynomial lcms) keeps every field in range.

_FIELD_BITS = 16
_GUARD_BIT = 1 << (_FIELD_BITS - 1)
# Largest total degree, hence largest exponent, that a packed key holds.
MAX_DEGREE = _GUARD_BIT - 1


class _Packing:
    """The packed-monomial layout of a ring with `nvars` variables."""

    __slots__ = ("nvars", "one", "guards", "degree_shift")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.degree_shift = _FIELD_BITS * nvars
        self.one = sum(MAX_DEGREE << (_FIELD_BITS * i) for i in range(nvars))
        self.guards = sum(_GUARD_BIT << (_FIELD_BITS * i) for i in range(nvars))

    def pack(self, exps: tuple) -> int:
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise ResourceLimitError(
                f"total degree {degree} exceeds the packed-monomial limit {MAX_DEGREE}"
            )
        key = self.one + (degree << self.degree_shift)
        for i, e in enumerate(exps):
            if e:
                key -= e << (_FIELD_BITS * i)
        return key

    def unpack(self, key: int) -> tuple:
        return tuple(
            MAX_DEGREE - ((key >> (_FIELD_BITS * i)) & MAX_DEGREE) for i in range(self.nvars)
        )

    def lcm(self, k1: int, k2: int) -> int:
        """Key of the lcm; its degree field may exceed MAX_DEGREE (it is
        the top field, so it cannot wrap), which `_int_spoly` checks."""
        key = degree = 0
        for i in range(self.nvars):
            shift = _FIELD_BITS * i
            field = min((k1 >> shift) & MAX_DEGREE, (k2 >> shift) & MAX_DEGREE)
            key |= field << shift
            degree += MAX_DEGREE - field
        return key | (degree << self.degree_shift)


@lru_cache(maxsize=None)
def _packing(nvars: int) -> _Packing:
    """The one `_Packing` of each ring size."""
    return _Packing(nvars)


def packed_key(exps: tuple) -> int:
    """The packed key of the monomial with exponent tuple `exps`, as the
    kernel keys it in a ring of ``len(exps)`` variables."""
    return _packing(len(exps)).pack(exps)


# -- integer kernel ----------------------------------------------------------
#
# Buchberger and the zero-test run on content-stripped integer polynomials
# (dicts from packed key to int): remainders are the same up to a nonzero
# rational scalar, which zero-tests and leading monomials do not see, and
# Python int arithmetic is much faster than Fraction churn.  A divisor is
# ``(lead | guards, lead, lead coefficient, tail)`` with the tail a tuple of
# ``(key, coefficient)`` pairs.  Its lead coefficient is positive: a
# negative one would make `_int_reduce` negate every pending term at each
# step that uses it.


def _int_terms(p: Polynomial, packing: _Packing) -> dict:
    """`p`'s content-stripped integer terms by packed key.

    Packed once per polynomial and kept in its `_packed` slot (the layout
    depends only on the ring), so callers must not mutate the result:
    `_divisor` only reads it and `_int_reduce` copies it.
    """
    terms = p._packed
    if terms is None:
        pack = packing.pack
        terms = _int_strip({pack(m): c for m, c in _over_common_denominator(p.terms)[1]})
        p._packed = terms
    return terms


def _int_strip(terms: dict) -> dict:
    content = gcd(*terms.values())
    if content > 1:
        return {m: c // content for m, c in terms.items()}
    return terms


def _divisor(terms: dict, guards: int) -> tuple:
    lm = max(terms)
    if terms[lm] < 0:
        terms = {m: -c for m, c in terms.items()}
    return lm | guards, lm, terms[lm], tuple((m, c) for m, c in terms.items() if m != lm)


def _int_reduce(terms: dict, divisors, guards: int, counter=None, full: bool = True) -> dict:
    """Pseudo-reduction of integer `terms` by `divisors`, leading term first.

    Returns a content-stripped remainder equal to a nonzero rational
    multiple of the exact normal form.  With ``full=False`` it stops at the
    first irreducible term and returns that term alone: remainder terms are
    only ever rescaled by nonzero factors, so it is nonzero iff the normal
    form is.  Pending terms wait in a max-heap of keys (Monagan & Pearce);
    a key cancelled to zero leaves a stale heap entry that is skipped.
    """
    work = dict(terms)
    heap = [-m for m in work]
    heapify(heap)
    remainder: dict = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for top, lm, lc, tail in divisors:
            if (top - m) & guards == guards:
                break
        else:
            # Fires only for non-members.  Commands zero-test only the
            # quadrilateral target and candidates whose residue is zero,
            # members in every run so far, so only the tests reach it; without
            # it the tests' n=6 residue screen takes about three times as long.
            if not full:
                return {m: c}
            remainder[m] = c
            continue
        if counter is not None:
            counter["reductions"] += 1
            if counter["reductions"] > MAX_PAIR_REDUCTIONS:
                raise ResourceLimitError(f"pair reduction budget exceeded ({MAX_PAIR_REDUCTIONS})")
        d = gcd(c, lc)
        scale, factor = lc // d, c // d
        if scale != 1:
            for k in work:
                work[k] *= scale
            for k in remainder:
                remainder[k] *= scale
        shift = m - lm
        for mg, cg in tail:
            mm = mg + shift
            nc = work.get(mm)
            if nc is None:
                work[mm] = -factor * cg
                heappush(heap, -mm)
            else:
                nc -= factor * cg
                if nc:
                    work[mm] = nc
                else:
                    del work[mm]
    return _int_strip(remainder)


def _int_spoly(f: tuple, g: tuple, lcm_fg: int, packing: _Packing) -> dict:
    degree = lcm_fg >> packing.degree_shift
    if degree > MAX_DEGREE:
        raise ResourceLimitError(
            f"S-polynomial degree {degree} exceeds the packed-monomial limit {MAX_DEGREE}"
        )
    _, lmf, cf, tailf = f
    _, lmg, cg, tailg = g
    d = gcd(cf, cg)
    sf, sg = cg // d, cf // d
    shift = lcm_fg - lmf
    res = {m + shift: c * sf for m, c in tailf}
    shift = lcm_fg - lmg
    for m, c in tailg:
        mm = m + shift
        nc = res.get(mm, 0) - c * sg
        if nc:
            res[mm] = nc
        else:
            res.pop(mm, None)
    return res


# The prime of `Basis.residue`, and of `exactcheck.lift`'s linear algebra.
LIFT_PRIME = 2**61 - 1
# Seed of the point at which `Basis.residue` evaluates normal forms.
_RESIDUE_SEED = 2024


@lru_cache(maxsize=None)
def _residue_point(nvars: int) -> tuple:
    """`nvars` distinct pseudo-random residues mod `LIFT_PRIME`, all drawn
    from one generator (reseeding per coordinate would make them equal)."""
    return tuple(random.Random(_RESIDUE_SEED).sample(range(2, LIFT_PRIME), nvars))


class Basis:
    """A minimal Groebner basis, held as its packed integer divisors.

    `groebner_basis` makes it from the divisors Buchberger leaves; every
    zero-test and residue against it walks them.  `len` counts them, which
    is the size of the reduced basis too.  The residue tables are built
    here: the memo of monomial values, each divisor's inverse lead
    coefficient mod `LIFT_PRIME` and the point `_residue_point`.  The
    reduced polynomials are built on the first read of `polys` (or
    iteration) and kept.
    """

    __slots__ = ("ring", "_packing", "_divisors", "_polys", "_values", "_reducers", "_point")

    def __init__(self, divisors: tuple, ring: tuple[str, ...]):
        self.ring = ring
        self._packing = _packing(len(ring))
        self._divisors = divisors
        self._polys = None
        self._values = {}
        self._reducers = tuple(
            (top, lm, pow(lc, -1, LIFT_PRIME) if lc % LIFT_PRIME else None, tail)
            for top, lm, lc, tail in divisors
        )
        self._point = _residue_point(len(ring))

    @property
    def polys(self) -> tuple:
        if self._polys is None:
            self._polys = _reduced_polynomials(self._divisors, self.ring)
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self._divisors)

    def residue(self, p: Polynomial) -> int:
        """(NF(q) mod P)(t): q the content-stripped integer multiple of p
        that the kernel packs, P = `LIFT_PRIME`, t the fixed `_residue_point`.

        NF is the normal form of `exactcheck.normal_form` against this
        basis, so NF(q) is a nonzero multiple of NF(p) and vanishes at t
        exactly where NF(p) does.  The walk runs on the minimal divisors;
        NF against a Groebner basis is the ideal's unique normal form, so
        the value is the one its reduced polynomials give.  A nonzero
        residue proves NF(p) != 0.
        Zero means NF(p) = 0, or a coincidence of probability at most
        deg / P (Schwartz-Zippel), or that P divides a leading coefficient,
        where the value is undefined; only the exact `reduces_to_zero`
        settles a zero.
        """
        if p.ring != self.ring:
            raise ValueError("polynomials over different rings")
        return self.packed_residue(_int_terms(p, self._packing))

    def packed_residue(self, terms: dict) -> int:
        """The residue of integer terms keyed by packed monomials of this
        basis's ring (`packed_key`).

        NF is linear, so the value is the sum of the coefficients times the
        values of their monomials, which a memo keyed by packed monomial
        keeps: a standard monomial m is worth m(t); a reducible one is
        worth -lc^-1 times the sum of c * value over its first divisor's
        tail terms, shifted onto it.  0 where P divides a leading
        coefficient.
        """
        values = self._values
        total = 0
        try:
            for key, c in terms.items():
                value = values.get(key)
                if value is None:
                    value = self._residue_walk(key)
                total += c * value
        except ValueError:  # P divides a leading coefficient
            return 0
        return total % LIFT_PRIME

    def _residue_walk(self, key: int) -> int:
        """Fill the memo down from `key` with an explicit stack, so a chain
        of reductions thousands of steps deep needs no recursion; return
        the value of `key`.  No key is pushed twice: every tail runs in
        descending key order, as `_int_reduce` emits it, so a step pushes
        only keys below the one it expands and every key still pending, and
        a push skips a valued key."""
        values, reducers, point = self._values, self._reducers, self._point
        guards = self._packing.guards
        unpack = self._packing.unpack
        todo = [(key, None)]
        while todo:
            m, rule = todo.pop()
            if rule is not None:  # every shifted tail term has its value now
                shift, inv, tail = rule
                values[m] = -inv * sum(c * values[k + shift] for k, c in tail) % LIFT_PRIME
                continue
            for top, lm, inv, tail in reducers:
                if (top - m) & guards == guards:
                    if inv is None:
                        raise ValueError("leading coefficient divisible by the prime")
                    shift = m - lm
                    todo.append((m, (shift, inv, tail)))
                    todo.extend((k + shift, None) for k, _ in tail if k + shift not in values)
                    break
            else:
                value = 1
                for t, e in zip(point, unpack(m)):
                    if e:
                        value = value * pow(t, e, LIFT_PRIME) % LIFT_PRIME
                values[m] = value
        return values[key]


def groebner_basis(gens) -> Basis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Buchberger with normal (smallest-lcm) pair selection and both classic
    pair-pruning criteria.  The returned `Basis` zero-tests and takes
    residues against the minimal basis that Buchberger leaves: normal forms
    against any Groebner basis of an ideal are the same (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2, sections 6-7), and
    a minimal basis has the reduced basis's leading terms, hence its size.
    The reduced generators, monic, tails fully reduced and sorted by
    leading monomial (deterministic for a given input), are built on the
    first read of the polynomials.  Raises ResourceLimitError when
    `MAX_BASIS_TERMS` or `MAX_PAIR_REDUCTIONS` is exceeded or a degree
    outgrows the packed monomials (`MAX_DEGREE`).
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("polynomials over different rings")
    packing = _packing(len(ring))
    guards = packing.guards
    counter = {"reductions": 0}

    basis: list[tuple] = []  # divisors, in insertion order
    pairs: list[tuple] = []  # heap of (lcm key, i, j)
    pending: set = set()  # the (i, j) still in `pairs`
    total_terms = 0

    def add(terms: dict) -> None:
        nonlocal total_terms
        div = _divisor(terms, guards)
        new = len(basis)
        for k in range(new):
            heappush(pairs, (packing.lcm(basis[k][1], div[1]), k, new))
            pending.add((k, new))
        basis.append(div)
        total_terms += len(terms)

    for g in gens:
        r = _int_reduce(_int_terms(g, packing), basis, guards, counter)
        if r:
            add(r)

    degree_shift = packing.degree_shift
    while pairs:
        lcm_ij, i, j = heappop(pairs)
        pending.discard((i, j))
        lmi, lmj = basis[i][1], basis[j][1]
        if lcm_ij >> degree_shift == (lmi >> degree_shift) + (lmj >> degree_shift):
            continue  # coprime leads
        if any(
            k != i and k != j
            and (basis[k][0] - lcm_ij) & guards == guards
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        r = _int_reduce(_int_spoly(basis[i], basis[j], lcm_ij, packing), basis, guards, counter)
        if r:
            add(r)
            if total_terms > MAX_BASIS_TERMS:
                raise ResourceLimitError(f"basis term budget exceeded ({MAX_BASIS_TERMS})")

    # The minimal basis: the generators whose lead no other lead divides
    # (Buchberger's leads are distinct, so this keeps one generator per
    # minimal lead), in insertion order.
    minimal = tuple(
        div
        for i, div in enumerate(basis)
        if not any(j != i and (basis[j][0] - div[1]) & guards == guards for j in range(len(basis)))
    )
    return Basis(minimal, ring)


def _reduced_polynomials(minimal: tuple, ring: tuple) -> tuple:
    """The reduced Groebner basis of a minimal one, given as its divisors:
    each generator reduced against the rest (its lead is irreducible among
    minimal leads, so full reduction just cleans the tail), made monic and
    sorted by leading monomial."""
    packing = _packing(len(ring))
    reduced = []
    for idx, (_, lm, lc, tail) in enumerate(minimal):
        terms = dict(tail)
        terms[lm] = lc
        terms = _int_reduce(terms, minimal[:idx] + minimal[idx + 1:], packing.guards)
        reduced.append((max(terms), terms))
    reduced.sort(key=lambda lead_terms: lead_terms[0])
    unpack = packing.unpack
    polys = []
    for lead, terms in reduced:
        lc = terms[lead]
        g = Polynomial({unpack(m): Fraction(c, lc) for m, c in terms.items()}, ring, _clean=False)
        # `terms` is content-stripped, and its lead is positive (reduction
        # by divisors with positive leads scales by positive factors only),
        # so these are the integer terms `_int_terms` would pack for monic g
        g._packed = terms
        polys.append(g)
    return tuple(polys)


def reduces_to_zero(p: Polynomial, basis: Basis) -> bool:
    """Zero-test for the normal form of `p` against `basis`, whose packed
    divisors are reused.  The answer is False as soon as a leading term is
    irreducible.
    """
    if not p:
        return True
    if basis.ring != p.ring:
        raise ValueError("polynomials over different rings")
    packing = basis._packing
    return not _int_reduce(_int_terms(p, packing), basis._divisors, packing.guards, full=False)
