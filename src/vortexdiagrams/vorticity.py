"""Vorticity expressions and real feasibility of constraint ledgers.

Builds the subset vorticity sums and angular momenta that diagram lemmas
emit, and decides whether a ledger of polynomial equalities plus
disequalities admits real vortex strengths, producing machine-checkable
certificates for the infeasible direction and exact rational witnesses
for the feasible one.

The witness search compiles the ledger's equalities once into integers.
A pass reads an equality's integer form at a point and returns its value
and gradient; where every equality is linear in a strength, the gradient
entry is the coefficient that completes the point, so the point is
tested and completed from the same numbers.  Only a point that solves
every equality reaches `satisfies`, which checks it exactly in
`Fraction`s; the search itself evaluates no nonzero constraint.  The
certificate candidates are packed monomial keys, screened by their
residue against the Groebner basis; a `Certificate` is built only for a
candidate whose residue is zero, and kept only once the exact zero-test
confirms it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .exactpoly import (
    DEFAULT_VARS,
    ONE,
    Polynomial,
    groebner_basis,
    packed_key,
    parse_polynomial,
    reduces_to_zero,
)

N_VORTICES = 5
# Random rational points tried by `decide`'s late witness search, after the
# certificate search has failed; the quick search before it tries 40.  In
# one enumeration the quick search runs 41 times at n=5 and finds 27
# witnesses, 119 times at n=6 and finds 67.  The late search never
# succeeds at n=4 or n=5 (1 and 2 runs), but at n=6 it runs 19 times and
# finds 8 witnesses that would otherwise leave their ledgers Unknown.
WITNESS_ATTEMPTS = 200
# The witness search's default seed, the one the recorded reports use.
LEDGER_SEED = 11


# The caches that keep report polynomials (immutable, so shared by every
# ledger and certificate that uses them), listed in one place so that all
# of them can be emptied together.
POLYNOMIAL_CACHES = []


def polynomial_cache(function):
    """`function` memoized without bound, its cache added to POLYNOMIAL_CACHES."""
    cached = lru_cache(maxsize=None)(function)
    POLYNOMIAL_CACHES.append(cached)
    return cached


def gamma_var(i: int) -> Polynomial:
    """The strength G_i: the one-vertex `gamma_sum`, shared with it."""
    return gamma_sum((i,))


@polynomial_cache
def _gamma_vars(n: int) -> tuple:
    """G1..Gn, built once per n: every ledger requires them nonzero."""
    return tuple(gamma_var(i) for i in range(1, n + 1))


def _subset(J) -> tuple:
    """J's distinct labels, sorted, once each is known to be an int in 1..8
    (not a bool): the cache below would take 2.0 or True for 2 or 1."""
    J = tuple(J)
    for j in J:
        if isinstance(j, bool) or not isinstance(j, int) or not 1 <= j <= len(DEFAULT_VARS):
            raise ValueError(f"vertex label {j!r} is not an integer in 1..{len(DEFAULT_VARS)}")
    return tuple(sorted(set(J)))


@polynomial_cache
def _unit_polynomial(monomials: tuple) -> Polynomial:
    """The sum of the monomials with these exponent tuples, each with
    coefficient 1, built once per tuple and shared by every vorticity sum
    and certificate that uses it: polynomials are immutable."""
    return Polynomial(dict.fromkeys(monomials, ONE), DEFAULT_VARS, _clean=False)


@polynomial_cache
def _subset_polynomial(J: tuple, size: int) -> Polynomial:
    """The sum over the `size`-subsets S of J of the product of G_s over S."""
    return _unit_polynomial(tuple(_squarefree(S) for S in itertools.combinations(J, size)))


def gamma_sum(J) -> Polynomial:
    """Total vorticity of the subset J: sum of G_j over J."""
    J = _subset(J)
    if not J:
        raise ValueError("empty vertex subset")
    return _subset_polynomial(J, 1)


def angular_momentum(J) -> Polynomial:
    """Vortex angular momentum of the subset J: sum of G_j*G_k, j < k in J."""
    J = _subset(J)
    if len(J) < 2:
        raise ValueError("angular momentum needs at least two vertices")
    return _subset_polynomial(J, 2)


class _LedgerFields(NamedTuple):
    equalities: tuple
    nonzeros: tuple
    n: int


class ConstraintLedger(_LedgerFields):
    """Equalities (= 0) and disequalities (!= 0) on the vortex strengths.

    The constructor always requires G1..G_n nonzero, and it is the one gate
    for what a ledger holds: an n outside 1..8, a polynomial not over
    `DEFAULT_VARS` or naming a strength past G_n, or a zero nonzero
    (0 != 0 never holds), is a `ValueError`.  A zero equality is dropped; a
    constant one makes the ledger infeasible.
    """

    __slots__ = ()

    def __new__(cls, equalities=(), nonzeros=(), n: int = N_VORTICES):
        if not 1 <= n <= len(DEFAULT_VARS):
            raise ValueError(f"a ledger needs n in 1..{len(DEFAULT_VARS)}, got n={n}")
        base = _gamma_vars(n)
        extra = tuple(dict.fromkeys(p for p in nonzeros if p not in base))
        equalities = tuple(dict.fromkeys(p for p in equalities if p))
        named = equalities + extra
        if any(p.ring != DEFAULT_VARS for p in named):
            raise ValueError(f"a ledger holds polynomials over G1..G{len(DEFAULT_VARS)} only")
        if any(any(m[n:]) for p in named for m in p.terms):
            past = set().union(*(p.variables() for p in named)) - set(DEFAULT_VARS[:n])
            raise ValueError(f"a ledger for n={n} names strengths past G{n}: {', '.join(sorted(past))}")
        if not all(extra):
            raise ValueError("a ledger cannot require the zero polynomial nonzero")
        return super().__new__(cls, equalities, base + extra, n)

    def to_json(self) -> dict:
        return {
            "equalities": [p.to_text() for p in self.equalities],
            "nonzeros": [p.to_text() for p in self.nonzeros],
        }

    @classmethod
    def from_json(cls, data: dict, n: int = N_VORTICES) -> "ConstraintLedger":
        """The ledger `to_json` wrote, through the constructor's gate; a
        field that is not a list of strings is a `ValueError` naming it."""
        fields = []
        for name in ("equalities", "nonzeros"):
            texts = data.get(name, [])
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                raise ValueError(f"ledger field {name!r} must be a list of polynomial strings")
            fields.append(tuple(map(parse_polynomial, texts)))
        return cls(*fields, n)


class Certificate(NamedTuple):
    """Re-checkable witness of infeasibility.

    `polynomial` lies in the equality ideal: `decide` finds it by a normal
    form 0 against the Groebner basis (screened by `Basis.residue`, then
    confirmed by `reduces_to_zero`), `verify_certificate` re-proves it by
    cofactors.  `kind` names the real-arithmetic argument that makes
    its vanishing contradict the nonzero constraints.
    """

    kind: str  # direct-disequality | vanishing-monomial | sum-of-squares
    polynomial: Polynomial
    subset: tuple[int, ...] = ()
    multiplier: Polynomial | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "polynomial": self.polynomial.to_text()}
        if self.subset:
            out["subset"] = list(self.subset)
        if self.multiplier is not None:
            out["multiplier"] = self.multiplier.to_text()
        return out


class Verdict(NamedTuple):
    kind: str  # Feasible | Infeasible | Unknown
    witness: dict | None = None
    certificate: Certificate | None = None

    @property
    def infeasible(self) -> bool:
        return self.kind == "Infeasible"

    def to_json(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.witness is not None:
            out["witness"] = {k: str(v) for k, v in sorted(self.witness.items())}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


WITNESS_POOL = tuple(
    Fraction(v)
    for v in (1, -1, 2, -2, 3, -3, Fraction(1, 2), -Fraction(1, 2), Fraction(1, 3), -Fraction(1, 3), Fraction(5, 2), -Fraction(5, 2))
)


def satisfies(ledger: ConstraintLedger, assignment: dict) -> bool:
    """Exact check: all equalities vanish, all disequalities do not."""
    return all(p.evaluate(assignment) == 0 for p in ledger.equalities) and all(
        q.evaluate(assignment) != 0 for q in ledger.nonzeros
    )


# The witness pool over its common denominator: every pool value is
# a numerator of `_POOL_NUMERATORS` divided by `_POOL_DENOMINATOR`.
_POOL_DENOMINATOR = lcm(*(v.denominator for v in WITNESS_POOL))
_POOL_NUMERATORS = tuple(int(v * _POOL_DENOMINATOR) for v in WITNESS_POOL)


def _integer_form(p: Polynomial) -> tuple:
    """`p` as integer terms over the strengths, for points over
    `_POOL_DENOMINATOR`.

    Each term is ``(coefficient, factors)``: the slot of each variable
    factor, repeated by exponent, and the term's coefficient times the lcm
    of p's denominators and times den to the term's degree below p's.  The
    slot of G_i is i - 1, inside a point of n numerators: the ledger admits
    no strength past G_n.  At a point x = t / den, the sum of the terms with
    each factor read as its numerator in t is p(x) times a nonzero constant,
    so it vanishes exactly when p(x) does.
    """
    terms = [(c, [i for i, e in enumerate(m) for _ in range(e)]) for m, c in p.terms.items()]
    scale = lcm(*(c.denominator for c, _ in terms))
    degree = max(len(f) for _, f in terms)
    den = _POOL_DENOMINATOR
    return tuple(
        (c.numerator * (scale // c.denominator) * den ** (degree - len(f)), tuple(f))
        for c, f in terms
    )


def _linear_pass(form: tuple, point: tuple) -> tuple:
    """``(value, gradient)`` of an `_integer_form` at ``point / den``.

    `value` is zero exactly when the equality vanishes.  Each term is
    multiplied out once, and its product over each factor's numerator
    (exact: no pool numerator is zero) adds to that slot's gradient.
    Where the form is a * x + b in the strength x at slot s,
    ``gradient[s]`` times the denominator is a, and b is `value` less
    ``gradient[s] * point[s]``.  It is the search's only integer evaluation.
    """
    value = 0
    gradient = [0] * len(point)
    for c, factors in form:
        for slot in factors:
            c *= point[slot]
        value += c
        for slot in factors:
            gradient[slot] += c // point[slot]
    return value, gradient


@lru_cache(maxsize=64)
def _witness_points(seed: int, attempts: int, n: int) -> tuple:
    """The `attempts` pool points of `_search_witness`, as numerators, drawn
    once from ``random.Random(seed)``: every ledger of a run replays them."""
    rng = random.Random(seed)
    return tuple(tuple(rng.choice(_POOL_NUMERATORS) for _ in range(n)) for _ in range(attempts))


def _search_witness(ledger: ConstraintLedger, attempts: int, seed: int):
    """Random pool points, each also completed by solving the equalities
    for one variable when they are linear in it, last variable first.

    Only the equalities are compiled, once, into integer form, and points
    are pool numerators over `_POOL_DENOMINATOR`, so testing a point makes
    no `Fraction`.  Each point takes one `_linear_pass` over each equality.
    A point at which every equality vanishes, and every completion, which
    solves them all by construction, goes to `satisfies`: the one check of
    the nonzero constraints, made exactly in `Fraction`s.
    """
    gammas = DEFAULT_VARS[: ledger.n]
    forms = [_integer_form(p) for p in ledger.equalities]
    # the slots every equality is linear in, last first
    solvable = [
        slot
        for slot in reversed(range(len(gammas)))
        if forms and all(factors.count(slot) < 2 for f in forms for _, factors in f)
    ]
    den = _POOL_DENOMINATOR
    for point in _witness_points(seed, attempts, ledger.n):
        passes = [_linear_pass(f, point) for f in forms]
        if not any(value for value, _ in passes):
            witness = {g: Fraction(t, den) for g, t in zip(gammas, point)}
            if satisfies(ledger, witness):
                return witness
        for slot in solvable:
            # The root -b / a, kept as (-b, a), of every equality a * x + b,
            # x the strength at `slot`; none when two disagree or one has
            # a = 0, b != 0.
            root = None
            for value, gradient in passes:
                a = gradient[slot] * den
                b = value - gradient[slot] * point[slot]
                if not a:
                    if b:
                        break
                    continue
                if root is None:
                    root = (-b, a)
                elif root[0] * a != -b * root[1]:
                    break
            else:
                # a root of 0 completes nothing: every strength is nonzero
                if root is None or not root[0]:
                    continue
                witness = {g: Fraction(t, den) for g, t in zip(gammas, point)}
                witness[gammas[slot]] = Fraction(*root)
                if satisfies(ledger, witness):
                    return witness
    return None


def _squarefree(subset) -> tuple:
    """Exponent tuple of the product of G_i over i in `subset`."""
    return tuple(int(j in subset) for j in range(1, len(DEFAULT_VARS) + 1))


def _square(i: int, mult: tuple) -> tuple:
    """Exponent tuple of (G_i * m)^2, m the monomial with exponents `mult`."""
    return tuple(2 * (e + (j == i)) for j, e in enumerate(mult, start=1))


def _sum_of_squares(subset, mult: Polynomial) -> Polynomial:
    """The sum over i in `subset` of (G_i * mult)^2."""
    total = Polynomial.zero()
    for i in subset:
        part = gamma_var(i) * mult
        total = total + part * part
    return total


@lru_cache(maxsize=None)
def _certificate_candidates(n: int) -> tuple:
    """Monomial and sum-of-squares certificates, in search order.

    Each candidate is ``(terms, kind, subset, multiplier)``: `terms` maps
    the packed key of each monomial to its coefficient, always 1, as
    `Basis.packed_residue` reads them, and `multiplier` is the exponent
    tuple of a sum of squares' multiplier (None for a monomial).
    `_candidate_certificate` turns one into its `Certificate`.

    Each polynomial appears once, with the first subset and multiplier
    that build it.  The monomials are squarefree: if a monomial of degree
    at most 4 with a square in it lies in the ideal, so does M^2, M the
    product of its (at most three) variables, and M^2 is already here as
    the sum of squares with subset (i,), i the least of them, and the
    product of the others as multiplier.  They depend on n only, so each
    n builds them once, from exponent arithmetic alone.
    """
    out = {}
    # (b) a squarefree monomial in two or three (nonzero) vorticities lies
    # in the ideal: some vorticity would vanish.  A lone G_i in the ideal is
    # found first, as a direct disequality: every ledger requires it nonzero.
    for size in (2, 3):
        for S in itertools.combinations(range(1, n + 1), size):
            terms = {packed_key(_squarefree(S)): 1}
            out[frozenset(terms)] = (terms, "vanishing-monomial", S, None)
    # (c) a sum of squares of monomials lies in the ideal: over the reals
    # each part vanishes, forcing some vorticity to zero.  The multipliers
    # are 1, G_j, G_j*G_k (j < k) and G_j^2.
    multipliers = [_squarefree(())] + [_squarefree((i,)) for i in range(1, n + 1)]
    multipliers += [_squarefree(jk) for jk in itertools.combinations(range(1, n + 1), 2)]
    multipliers += [_square(i, _squarefree(())) for i in range(1, n + 1)]
    # (G_i * mult)^2 is one monomial, and distinct i give distinct
    # monomials, so each sum has coefficient 1 on each of its terms.
    # `verify_certificate` re-derives it with `_sum_of_squares`.
    for mult in multipliers:
        square = {i: packed_key(_square(i, mult)) for i in range(1, n + 1)}
        for size in range(1, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                terms = {square[i]: 1 for i in S}
                out.setdefault(frozenset(terms), (terms, "sum-of-squares", S, mult))
    return tuple(out.values())


def _candidate_certificate(candidate: tuple) -> Certificate:
    """The `Certificate` that a packed candidate stands for."""
    _, kind, subset, mult = candidate
    if mult is None:
        return Certificate(kind, _unit_polynomial((_squarefree(subset),)), subset)
    poly = _unit_polynomial(tuple(_square(i, mult) for i in subset))
    return Certificate(kind, poly, subset, _unit_polynomial((mult,)))


def _certificate_search(ledger: ConstraintLedger, basis):
    """The first member of the equality ideal among the candidates.

    A candidate whose residue is nonzero is no member; only a zero residue
    is confirmed by the exact zero-test.  A packed candidate becomes a
    `Certificate` only then.
    """
    residue = basis.residue
    # (a) a polynomial required nonzero lies in the equality ideal.
    for q in ledger.nonzeros:
        if not residue(q) and reduces_to_zero(q, basis):
            return Certificate("direct-disequality", q)
    packed_residue = basis.packed_residue
    for candidate in _certificate_candidates(ledger.n):
        if not packed_residue(candidate[0]):
            cert = _candidate_certificate(candidate)
            if reduces_to_zero(cert.polynomial, basis):
                return cert
    return None


def decide(ledger: ConstraintLedger, seed: int = LEDGER_SEED) -> Verdict:
    """Decide real feasibility of `ledger` with a certificate or witness.

    Infeasible verdicts carry a polynomial of the equality ideal whose
    vanishing contradicts the nonzero constraints over the reals; Feasible
    verdicts carry an exact rational witness.  Unknown is an honest third
    outcome, never silently coerced.

    The quick 40-point witness search is skipped when a polynomial required
    nonzero is also an equality: no witness exists, and the certificate
    search finds a direct disequality.
    """
    if set(ledger.nonzeros).isdisjoint(ledger.equalities):
        quick = _search_witness(ledger, 40, seed)
        if quick is not None:
            return Verdict("Feasible", witness=quick)
    if ledger.equalities:
        basis = groebner_basis(ledger.equalities)
        cert = _certificate_search(ledger, basis)
        if cert is not None:
            return Verdict("Infeasible", certificate=cert)
    witness = _search_witness(ledger, WITNESS_ATTEMPTS, seed + 1)
    if witness is not None:
        return Verdict("Feasible", witness=witness)
    return Verdict("Unknown")


def verify_certificate(ledger: ConstraintLedger, certificate: Certificate) -> bool:
    """Re-check an infeasibility certificate without the Groebner kernel.

    Checks that the certificate's shape carries the claimed real-arithmetic
    contradiction, and that the subset and multiplier it prints are the
    ones its kind uses (none where it uses none), then proves the
    polynomial a member of the equality ideal by `exactcheck.lift`:
    cofactors h_i with sum h_i * e_i equal to it, confirmed by
    multiplication alone.  Every equality the lemmas emit is homogeneous,
    where the lift's degree bound is exact.  Every shape that passes has a
    nonzero polynomial, for which `lift` finds no cofactors over an empty
    list of equalities.
    """
    from .exactcheck import lift

    allowed = {f"G{i}" for i in range(1, ledger.n + 1)}
    if certificate.kind == "direct-disequality":
        if certificate.polynomial not in ledger.nonzeros:
            return False
        if certificate.subset or certificate.multiplier is not None:
            return False
    elif certificate.kind == "vanishing-monomial":
        # The subset printed with it names the strengths that would vanish.
        if len(certificate.polynomial.terms) != 1 or certificate.multiplier is not None:
            return False
        names = certificate.polynomial.variables()
        if not names <= allowed:
            return False
        if certificate.subset != tuple(sorted(int(v[1:]) for v in names)):
            return False
    elif certificate.kind == "sum-of-squares":
        # Only a nonzero monomial multiplier and a nonempty subset make
        # every square vanish and force some vorticity to zero.
        mult = certificate.multiplier if certificate.multiplier is not None else Polynomial.constant(1)
        if len(mult.terms) != 1 or not mult.variables() <= allowed:
            return False
        if not certificate.subset or not set(certificate.subset) <= set(range(1, ledger.n + 1)):
            return False
        if _sum_of_squares(certificate.subset, mult) != certificate.polynomial:
            return False
    else:
        return False
    return lift(certificate.polynomial, ledger.equalities) is not None
