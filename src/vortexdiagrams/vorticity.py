"""Vorticity expressions and real feasibility of constraint ledgers.

Builds the subset vorticity sums and angular momenta that diagram lemmas
emit, and decides whether a ledger of polynomial equalities plus
disequalities admits real vortex strengths, producing machine-checkable
certificates for the infeasible direction and exact rational witnesses
for the feasible one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactpoly import (
    DEFAULT_VARS,
    ONE,
    Polynomial,
    groebner_basis,
    lift,
    parse_polynomial,
    reduces_to_zero,
)

N_VORTICES = 5
# Random rational points tried by `decide`'s late witness search, after the
# certificate search has failed; the quick search before it tries 40.  The
# late search never succeeds at n=5 (2 runs), but at n=6 it runs 19 times
# and finds 8 witnesses that would otherwise leave their ledgers Unknown.
WITNESS_ATTEMPTS = 200
# The witness search's default seed, the one the recorded reports use.
LEDGER_SEED = 11


def gamma_var(i: int) -> Polynomial:
    return Polynomial.variable(f"G{i}")


@lru_cache(maxsize=None)
def _gamma_vars(n: int) -> tuple:
    """G1..Gn, built once per n: every ledger requires them nonzero."""
    return tuple(gamma_var(i) for i in range(1, n + 1))


def gamma_sum(J) -> Polynomial:
    """Total vorticity of the subset J: sum of G_j over J."""
    J = sorted(set(J))
    if not J:
        raise ValueError("empty vertex subset")
    terms = {}
    for j in J:
        exps = [0] * len(DEFAULT_VARS)
        exps[DEFAULT_VARS.index(f"G{j}")] = 1
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(terms, DEFAULT_VARS, _clean=False)


def angular_momentum(J) -> Polynomial:
    """Vortex angular momentum of the subset J: sum of G_j*G_k, j < k in J."""
    J = sorted(set(J))
    if len(J) < 2:
        raise ValueError("angular momentum needs at least two vertices")
    terms = {}
    for j, k in itertools.combinations(J, 2):
        exps = [0] * len(DEFAULT_VARS)
        exps[DEFAULT_VARS.index(f"G{j}")] = 1
        exps[DEFAULT_VARS.index(f"G{k}")] = 1
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(terms, DEFAULT_VARS, _clean=False)


def total_vorticity(n: int = N_VORTICES) -> Polynomial:
    return gamma_sum(range(1, n + 1))


def total_angular_momentum(n: int = N_VORTICES) -> Polynomial:
    return angular_momentum(range(1, n + 1))


@dataclass(frozen=True)
class ConstraintLedger:
    """Equalities (= 0) and disequalities (!= 0) on the vortex strengths.

    Every single vorticity variable is always required nonzero; the
    constructor inserts them if missing.
    """

    equalities: tuple[Polynomial, ...] = ()
    nonzeros: tuple[Polynomial, ...] = ()
    n: int = N_VORTICES

    def __post_init__(self):
        eqs = tuple(dict.fromkeys(p for p in self.equalities if p))
        base = _gamma_vars(self.n)
        extra = tuple(dict.fromkeys(p for p in self.nonzeros if p and p not in base))
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "nonzeros", base + extra)

    def with_equalities(self, more) -> "ConstraintLedger":
        return ConstraintLedger(self.equalities + tuple(more), self.nonzeros, self.n)

    def to_json(self) -> dict:
        return {
            "equalities": [p.to_text() for p in self.equalities],
            "nonzeros": [p.to_text() for p in self.nonzeros],
        }

    @classmethod
    def from_json(cls, data: dict, n: int = N_VORTICES) -> "ConstraintLedger":
        return cls(
            tuple(parse_polynomial(t) for t in data.get("equalities", ())),
            tuple(parse_polynomial(t) for t in data.get("nonzeros", ())),
            n,
        )


@dataclass(frozen=True)
class Certificate:
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


@dataclass(frozen=True)
class Verdict:
    kind: str  # Feasible | Infeasible | Unknown
    witness: dict | None = None
    certificate: Certificate | None = None

    @property
    def feasible(self) -> bool:
        return self.kind == "Feasible"

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


def _integer_form(p: Polynomial, slots: dict) -> tuple:
    """`p` as integer terms over the strengths named in `slots`.

    Each term is ``(coefficient, gap, factors)``: the coefficient times the
    lcm of p's denominators, the term's degree below p's, and the slot of
    each variable factor, repeated by exponent.  At a point x = t / den,
    ``_int_value(form, t, den)`` is p(x) times a nonzero constant, so it
    vanishes exactly when p(x) does.  A term in a variable outside `slots`
    is dropped: `satisfies` reads such a variable as 0.
    """
    kept = []
    for m, c in p.terms.items():
        factors = []
        for i, e in enumerate(m):
            if e:
                slot = slots.get(p.ring[i])
                if slot is None:
                    break
                factors += [slot] * e
        else:
            kept.append((c, factors))
    if not kept:
        return ()
    scale = lcm(*(c.denominator for c, _ in kept))
    degree = max(len(f) for _, f in kept)
    return tuple(
        (c.numerator * (scale // c.denominator), degree - len(f), tuple(f)) for c, f in kept
    )


def _int_value(form: tuple, point: list, den: int) -> int:
    total = 0
    for c, gap, factors in form:
        for slot in factors:
            c *= point[slot]
        if gap:
            c *= den**gap
        total += c
    return total


def _int_holds(eqs: list, nzs: list, point: list, den: int) -> bool:
    """Integer twin of `satisfies` at the point ``point / den``."""
    return all(not _int_value(f, point, den) for f in eqs) and all(
        _int_value(f, point, den) for f in nzs
    )


def _linear_split(form: tuple, slot: int):
    """Forms ``(a, b)`` with form = a * x + b in the variable at `slot`.

    `a` carries one more power of the denominator than its terms' gap, so
    that at ``point / den`` the root is exactly ``-value(b) / value(a)``.
    None when `form` has degree above 1 in that variable.
    """
    lin, const = [], []
    for c, gap, factors in form:
        k = factors.count(slot)
        if k > 1:
            return None
        if k:
            lin.append((c, gap + 1, tuple(f for f in factors if f != slot)))
        else:
            const.append((c, gap, factors))
    return tuple(lin), tuple(const)


def _solve_slot(splits, point: list, den: int):
    """Root ``(num, a)`` solving every split equality for one variable, the
    others fixed at ``point / den``; None if they disagree or it is 0."""
    root = None
    for lin, const in splits:
        a = _int_value(lin, point, den)
        b = _int_value(const, point, den)
        if not a:
            if b:
                return None
            continue
        if root is None:
            root = (-b, a)
        elif root[0] * a != -b * root[1]:
            return None
    if root is None or not root[0]:
        return None
    return root


@lru_cache(maxsize=64)
def _witness_points(seed: int, attempts: int, n: int) -> tuple:
    """The `attempts` pool points of `_search_witness`, as numerators, drawn
    once from ``random.Random(seed)``: every ledger of a run replays them."""
    rng = random.Random(seed)
    return tuple(tuple(rng.choice(_POOL_NUMERATORS) for _ in range(n)) for _ in range(attempts))


def _search_witness(ledger: ConstraintLedger, attempts: int, seed: int):
    """Random pool points, each also completed by solving the equalities
    for one variable when they are linear in it, last variable first.

    The ledger is compiled once into integer form and points are pool
    numerators over `_POOL_DENOMINATOR`, so an attempt makes no `Fraction`.
    A point that passes the integer check is returned only after
    `satisfies` confirms it exactly.
    """
    gammas = [f"G{i}" for i in range(1, ledger.n + 1)]
    slots = {g: i for i, g in enumerate(gammas)}
    eqs = [_integer_form(p, slots) for p in ledger.equalities]
    nzs = [_integer_form(q, slots) for q in ledger.nonzeros]
    solvable = []
    if eqs:
        for slot in reversed(range(len(gammas))):
            splits = [_linear_split(f, slot) for f in eqs]
            if None not in splits:
                solvable.append((slot, splits))
    den = _POOL_DENOMINATOR
    for point in _witness_points(seed, attempts, ledger.n):
        if _int_holds(eqs, nzs, point, den):
            witness = {g: Fraction(t, den) for g, t in zip(gammas, point)}
            if satisfies(ledger, witness):
                return witness
        for slot, splits in solvable:
            root = _solve_slot(splits, point, den)
            if root is None:
                continue
            num, a = root
            full = [t * a for t in point]
            full[slot] = num * den
            if not _int_holds(eqs, nzs, full, den * a):
                continue
            witness = {g: Fraction(t, den) for g, t in zip(gammas, point) if slots[g] != slot}
            witness[gammas[slot]] = Fraction(num, a)
            if satisfies(ledger, witness):
                return witness
    return None


def _monomial(exps: dict) -> Polynomial:
    e = [0] * len(DEFAULT_VARS)
    for name, p in exps.items():
        e[DEFAULT_VARS.index(name)] = p
    return Polynomial({tuple(e): Fraction(1)}, DEFAULT_VARS, _clean=False)


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

    Each polynomial appears once, with the first subset and multiplier
    that build it.  The monomials are squarefree: if a monomial of degree
    at most 4 with a square in it lies in the ideal, so does M^2, M the
    product of its (at most three) variables, and M^2 is already here as
    the sum of squares with subset (i,), i the least of them, and the
    product of the others as multiplier.  They depend on n only, so each
    n builds them once.
    """
    gammas = [f"G{i}" for i in range(1, n + 1)]
    out = {}
    # (b) a squarefree monomial in the (nonzero) vorticities lies in the
    # ideal: some vorticity would vanish.
    for size in (1, 2, 3):
        for S in itertools.combinations(range(1, n + 1), size):
            m = _monomial({f"G{i}": 1 for i in S})
            out[m] = Certificate("vanishing-monomial", m, subset=S)
    # (c) a sum of squares of monomials lies in the ideal: over the reals
    # each part vanishes, forcing some vorticity to zero.
    multipliers = [_monomial({})]
    multipliers += [_monomial({g: 1}) for g in gammas]
    multipliers += [
        _monomial({gammas[j]: 1, gammas[k]: 1}) for j in range(n) for k in range(j + 1, n)
    ]
    multipliers += [_monomial({g: 2}) for g in gammas]
    # (G_i * mult)^2 is one monomial, 2(e_i + e_mult), and distinct i give
    # distinct monomials, so each sum is built term by term with coefficient
    # 1.  `verify_certificate` re-derives it with `_sum_of_squares`.
    for mult in multipliers:
        (m,) = mult.terms
        square = {}
        for i in range(1, n + 1):
            e = list(m)
            e[DEFAULT_VARS.index(f"G{i}")] += 1
            square[i] = tuple(2 * x for x in e)
        for size in range(1, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                sos = Polynomial({square[i]: ONE for i in S}, DEFAULT_VARS, _clean=False)
                out.setdefault(sos, Certificate("sum-of-squares", sos, subset=S, multiplier=mult))
    return tuple(out.values())


def _certificate_search(ledger: ConstraintLedger, basis):
    """The first member of the equality ideal among the candidates.

    A candidate whose residue is nonzero is no member; only a zero residue
    is confirmed by the exact zero-test.
    """
    residue = basis.residue
    # (a) a polynomial required nonzero lies in the equality ideal.
    for q in ledger.nonzeros:
        if not residue(q) and reduces_to_zero(q, basis):
            return Certificate("direct-disequality", q)
    for cert in _certificate_candidates(ledger.n):
        if not residue(cert.polynomial) and reduces_to_zero(cert.polynomial, basis):
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
    polynomial a member of the equality ideal by `exactpoly.lift`:
    cofactors h_i with sum h_i * e_i equal to it, confirmed by
    multiplication alone.  Every equality the lemmas emit is homogeneous,
    where the lift's degree bound is exact.
    """
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
    if not ledger.equalities:
        return False
    return lift(certificate.polynomial, ledger.equalities) is not None
