from fractions import Fraction
import json
from math import gcd, lcm
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from candidates import table_candidates

from vortexdiagrams.atlas import load_catalog
from vortexdiagrams import atlas, exactpoly, quadrilateral
from vortexdiagrams.exactcheck import _rational, is_cofactor_identity, lift, normal_form
from vortexdiagrams.lemmas import analyze
from vortexdiagrams.exactpoly import (
    DEFAULT_VARS,
    LIFT_PRIME,
    MAX_DEGREE,
    Basis,
    Polynomial,
    ResourceLimitError,
    _Packing,
    _divisor,
    _grevlex_key,
    _int_reduce,
    _int_terms,
    _packing,
    _residue_point,
    groebner_basis,
    packed_key,
    parse_polynomial,
    reduces_to_zero,
)

G = [Polynomial.variable(f"G{i}") for i in range(1, 6)]
G1, G2, G3, G4, G5 = G
G1_AT = DEFAULT_VARS.index("G1")  # G1..G5 sit at positions G1_AT..G1_AT + 4


def random_poly(rng, max_terms=4, max_deg=2, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(DEFAULT_VARS)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(G1_AT, G1_AT + 5)] += 1
        c = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
        m = tuple(exps)
        terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(terms)


def packed_divisors(polys, ring=DEFAULT_VARS):
    """The kernel's divisors of the given polynomials, in their order."""
    packing = _packing(len(ring))
    return tuple(_divisor(_int_terms(g, packing), packing.guards) for g in polys)


def s_polynomial(f, g):
    """The S-polynomial of f and g, whose reduction Buchberger's criterion tests."""
    lcm_fg = tuple(map(max, f.leading_monomial(), g.leading_monomial()))

    def scaled_shift(p):
        exps = tuple(a - b for a, b in zip(lcm_fg, p.leading_monomial()))
        return Polynomial({exps: 1 / p.terms[p.leading_monomial()]}, p.ring)

    return scaled_shift(f) * f - scaled_shift(g) * g


def random_point(rng):
    return {f"G{i}": Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(1, 6)}


coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(DEFAULT_VARS)
        for idx in draw(st.lists(st.integers(min_value=G1_AT, max_value=G1_AT + 4), max_size=3)):
            exps[idx] += 1
        terms[tuple(exps)] = Fraction(draw(coeffs))
    return Polynomial(terms)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (G1 + G2) * (G1 - G2) == G1**2 - G2**2

    def test_additive_inverse(self):
        rng = random.Random(0)
        for _ in range(25):
            p = random_poly(rng)
            assert not (p + (-p))

    def test_mul_matches_evaluation(self):
        rng = random.Random(1)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            point = random_point(rng)
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    def test_scalar_and_power(self):
        assert 2 * G1 == G1 + G1
        assert (G1 + 1) ** 2 == G1**2 + 2 * G1 + 1
        assert G1**0 == Polynomial.constant(1)

    def test_zero_coefficients_never_stored(self):
        p = G1 - G1
        assert p.terms == {}
        assert Polynomial({(0,) * len(DEFAULT_VARS): 0}).terms == {}


def double_loop_product(f, g):
    """`f * g` term by term in `Fraction`s: the reference for `__mul__`.
    Returns the product's terms and how many of them cancelled on the way."""
    res = {}
    cancelled = 0
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            nc = res.get(m, Fraction(0)) + c1 * c2
            if nc:
                res[m] = nc
            else:
                del res[m]
                cancelled += 1
    return res, cancelled


class TestProductReference:
    """`__mul__` multiplies integer numerators over common denominators;
    the terms must be those of the `Fraction` double loop."""

    def test_random_products(self):
        rng = random.Random(19)
        cancelled = 0
        for _ in range(300):
            f = random_poly(rng, max_terms=5, max_deg=3)
            g = random_poly(rng, max_terms=5, max_deg=3)
            if rng.random() < 0.3:  # (f + g) * (f - g) cancels the cross terms
                f, g = f + g, f - g
            expected, lost = double_loop_product(f, g)
            cancelled += lost
            assert (f * g).terms == expected, (f, g)
        assert cancelled >= 50, cancelled

    def test_other_ring(self):
        rng = random.Random(20)
        for _ in range(50):
            f = random_ring_poly(rng, quadrilateral.RING)
            g = random_ring_poly(rng, quadrilateral.RING)
            product = f * g
            assert product.ring == quadrilateral.RING
            assert product.terms == double_loop_product(f, g)[0]

    def test_zero_constants_and_scalars(self):
        f = Fraction(2, 3) * G1**2 - Fraction(5, 4) * G2 + Fraction(1, 6)
        zero = Polynomial.zero()
        for a, b in [(zero, f), (f, zero), (zero, zero)]:
            assert (a * b).terms == {}
        half = Polynomial.constant(Fraction(-1, 2))
        for a, b in [(half, f), (f, half), (half, half)]:
            assert (a * b).terms == double_loop_product(a, b)[0]
        for scalar in (3, Fraction(-7, 9), 0):
            expected = double_loop_product(f, Polynomial.constant(scalar))[0]
            assert (f * scalar).terms == (scalar * f).terms == expected


class TestOrders:
    def test_grevlex_ties_break_on_last_variable(self):
        G6, G7 = Polynomial.variable("G6"), Polynomial.variable("G7")
        cases = [
            # equal degree: G1*G2 beats G1*G3 because G3 (lower priority) appears
            (G1 * G2 + G1 * G3, G1 * G2),
            # higher degree beats a higher power of a more significant variable
            (G6**2 + G6 * G7**2, G6 * G7**2),
        ]
        for p, lead in cases:
            assert p.leading_monomial() == lead.leading_monomial()


class TestNormalForm:
    def test_self_reduction(self):
        assert not normal_form(G1 + G2, [G1 + G2])

    def test_power_sum_identity(self):
        total = G1 + G2 + G3 + G4
        L = G1 * G2 + G1 * G3 + G1 * G4 + G2 * G3 + G2 * G4 + G3 * G4
        basis = groebner_basis([total, L])
        p = G1**2 + G2**2 + G3**2 + G4**2
        assert not normal_form(p, basis)

    def test_random_ideal_members_reduce_to_zero(self):
        rng = random.Random(2)
        for _ in range(10):
            gens = [random_poly(rng) for _ in range(2)]
            if not all(gens):
                continue
            member = gens[0] * random_poly(rng) + gens[1] * random_poly(rng)
            basis = groebner_basis(gens)
            assert not normal_form(member, basis)
            assert reduces_to_zero(member, basis)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(15):
            basis = [p for p in (random_poly(rng), random_poly(rng)) if p]
            p = random_poly(rng)
            r = normal_form(p, basis)
            assert normal_form(r, basis) == r

    def test_difference_stays_in_ideal(self):
        # p - normal_form(p) must evaluate to zero wherever the ideal does
        basis = groebner_basis([G1 + G2, G3 - G4])
        p = G1 * G3 + G2 * G5 + 3
        r = normal_form(p, basis)
        point = {"G1": 2, "G2": -2, "G3": 7, "G4": 7, "G5": Fraction(1, 3)}
        assert p.evaluate(point) == r.evaluate(point)

    def test_a_cancelled_term_comes_back(self):
        # G1*G2 -> G2*G3 cancels -G2*G3; G2^2 -> G2*G3 brings it back,
        # and G2*G3 -> G3^2 stays
        p = G1 * G2 - G2 * G3 + G2**2
        assert normal_form(p, [G1 - G3, G2 - G3]) == G3**2

    def test_quadrilateral_target(self):
        gens, target = quadrilateral.quadrilateral_system()
        assert not normal_form(target, groebner_basis(gens))
        # against the generators themselves, which are no Groebner basis,
        # division leaves a remainder whose terms no leading monomial divides
        for divisors in (gens, gens[::-1]):
            r = normal_form(target, divisors)
            assert r
            for m in r.terms:
                for g in divisors:
                    assert not all(a <= b for a, b in zip(g.leading_monomial(), m))


class TestGroebner:
    def test_linear_elimination(self):
        basis = groebner_basis([G1 + G2, G1 - G2])
        assert list(basis) == [G2, G1] or list(basis) == [G1, G2]
        assert {p.to_text() for p in basis} == {"G1", "G2"}

    def test_monomial_ideal_already_basis(self):
        gens = [G1**2, G1 * G2]
        basis = groebner_basis(gens)
        assert {p.to_text() for p in basis} == {"G1^2", "G1*G2"}
        assert not normal_form(s_polynomial(*gens), basis)

    def test_buchberger_self_check_random(self):
        rng = random.Random(4)
        done = 0
        while done < 10:
            gens = [random_poly(rng, max_terms=3) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if g]
            if len(gens) < 2:
                continue
            basis = groebner_basis(gens)
            for g in gens:
                assert reduces_to_zero(g, basis)
            polys = basis.polys
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    assert reduces_to_zero(s_polynomial(polys[i], polys[j]), basis)
            done += 1

    def test_deterministic(self):
        gens = [G1 * G2 - G3, G2 * G3 - G4, G1 + G2 + G3]
        one = groebner_basis(gens)
        two = groebner_basis(gens)
        assert one.polys == two.polys

    def test_reduced_output_is_monic_and_sorted(self):
        basis = groebner_basis([2 * G1 + 4 * G2, 3 * G3**2 - 6 * G4])
        lms = [_grevlex_key(p.leading_monomial()) for p in basis]
        assert lms == sorted(lms)
        assert all(p.terms[p.leading_monomial()] == 1 for p in basis)

    def test_budget_exhaustion(self, monkeypatch):
        # cyclic-4: plenty of pair reductions
        gens = [
            G1 + G2 + G3 + G4,
            G1 * G2 + G2 * G3 + G3 * G4 + G4 * G1,
            G1 * G2 * G3 + G2 * G3 * G4 + G3 * G4 * G1 + G4 * G1 * G2,
            G1 * G2 * G3 * G4 - 1,
        ]
        with monkeypatch.context() as m:
            m.setattr(exactpoly, "MAX_PAIR_REDUCTIONS", 5)
            with pytest.raises(ResourceLimitError, match=r"pair reduction budget exceeded \(5\)"):
                groebner_basis(gens)
        with monkeypatch.context() as m:
            m.setattr(exactpoly, "MAX_BASIS_TERMS", 3)
            with pytest.raises(ResourceLimitError, match=r"basis term budget exceeded \(3\)"):
                groebner_basis(gens)
        assert groebner_basis(gens)  # within the default budgets

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            groebner_basis([Polynomial.zero()])


class TestMembership:
    def test_disjoint_variables(self):
        assert not reduces_to_zero(G1, groebner_basis([G2]))

    def test_member_and_evaluation_oracle_agree(self):
        rng = random.Random(5)
        checked = 0
        while checked < 12:
            gens = [g for g in (random_poly(rng, 3), random_poly(rng, 3)) if g]
            if len(gens) < 2:
                continue
            candidate = gens[0] * random_poly(rng) + gens[1] * random_poly(rng)
            if rng.random() < 0.5:
                candidate = candidate + G5 + 1  # very unlikely to stay inside
            basis = groebner_basis(gens)
            verdict = reduces_to_zero(candidate, basis)
            # a member must vanish on every common zero we can sample
            if verdict:
                for _ in range(10):
                    point = random_point(rng)
                    if all(g.evaluate(point) == 0 for g in gens):
                        assert candidate.evaluate(point) == 0
            else:
                # exhibit at least one point separating candidate from the ideal
                # via the normal form being nonzero
                assert normal_form(candidate, basis)
            checked += 1


def random_form(rng, degree):
    """A nonzero homogeneous polynomial of `degree` in G1..G5."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(DEFAULT_VARS)
        for _ in range(degree):
            exps[rng.randrange(G1_AT, G1_AT + 5)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return Polynomial(terms)


def random_combination(rng, gens, degree):
    """sum h_i * gens[i] with random homogeneous h_i, homogeneous of `degree`."""
    return sum((random_form(rng, degree - g.total_degree()) * g for g in gens), Polynomial.zero())


class TestLift:
    def test_agrees_with_the_kernel_on_homogeneous_ideals(self):
        rng = random.Random(13)
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            gens = [random_form(rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                candidate = random_combination(rng, gens, 3)
            else:
                candidate = random_form(rng, 3)
            member = reduces_to_zero(candidate, groebner_basis(gens))
            cofactors = lift(candidate, gens)
            assert (cofactors is not None) == member, (candidate, gens)
            if member:
                assert is_cofactor_identity(candidate, gens, cofactors)
                for h, g in zip(cofactors, gens, strict=True):
                    assert {sum(m) for m in h.terms} <= {3 - g.total_degree()}
            outcomes[member] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_rejects_disjoint_variables(self):
        assert lift(G1, [G2]) is None

    def test_rejects_a_non_member_of_the_right_degree(self):
        # G1*G2 has the degree of both generators but is not in <G1^2, G2^2>.
        assert lift(G1 * G2, [G1**2, G2**2]) is None
        one = Polynomial.constant(1)
        assert lift(G1**2 - G2**2, [G1**2, G2**2]) == (one, -one)

    def test_zero_has_the_trivial_cofactors(self):
        assert lift(Polynomial.zero(), [G1, G2]) == (Polynomial.zero(), Polynomial.zero())


class TestSerialization:
    def test_text_round_trip(self):
        p = Fraction(3, 2) * G1**2 * G2 - G3 + 5
        assert parse_polynomial(p.to_text()) == p

    def test_zero(self):
        assert parse_polynomial("0") == Polynomial.zero()
        assert Polynomial.zero().to_text() == "0"

    def test_canonical_text_ordering_is_stable(self):
        p = G2 + G1 + G3**2
        assert p.to_text() == "G3^2 + G1 + G2"

    def test_repr_shows_the_text(self):
        assert repr(G1 - Fraction(1, 2) * G2**2) == "Polynomial(-1/2*G2^2 + G1)"

    def test_equality_with_a_non_number_is_not_implemented(self):
        assert G1.__eq__("G1") is NotImplemented
        assert G1 != "G1" and Polynomial.constant(1) == 1


class TestRefusals:
    """Refusals of the exact layer that no command input reaches."""

    def test_malformed_text(self):
        with pytest.raises(ValueError, match=r"cannot parse polynomial at: '\*\* 2'"):
            parse_polynomial("G1 ** 2")

    @pytest.mark.parametrize("text", ["", "   ", "\n"])
    def test_empty_text(self, text):
        with pytest.raises(ValueError, match="empty text"):
            parse_polynomial(text)

    def test_greek_gamma_is_no_variable(self):
        with pytest.raises(ValueError, match=r"cannot parse polynomial at: 'Γ1 \+ Γ2'"):
            parse_polynomial("Γ1 + Γ2")
        with pytest.raises(ValueError, match=r"cannot parse polynomial at: '\*Γ2'"):
            parse_polynomial("G1*Γ2")

    @pytest.mark.parametrize(
        "text, rest",
        [
            ("G1 +", "+"),
            ("G1 + * G2", "+ * G2"),
            ("G1 - - G2", "- - G2"),
            ("+", "+"),
            ("G1 G2", "G2"),
            ("2G1", "G1"),
            ("G1*", "*"),
            ("1/0*G1", "/0*G1"),
        ],
    )
    def test_a_term_without_coefficient_or_variable_or_sign(self, text, rest):
        with pytest.raises(ValueError, match=f"cannot parse polynomial at: {re.escape(repr(rest))}$"):
            parse_polynomial(text)

    def test_unknown_variable_is_named_with_the_text(self):
        with pytest.raises(ValueError, match=r"unknown variable 'G9' in polynomial 'G1 \+ G9'"):
            parse_polynomial("G1 + G9")
        with pytest.raises(ValueError, match="unknown variable 'a'"):
            parse_polynomial("a*G1")

    def test_terms_that_cancel_in_the_text_leave_none(self):
        assert parse_polynomial("G1 - G1").terms == {}
        assert parse_polynomial("G1 + G2 - G1") == G2

    def test_negative_power(self):
        with pytest.raises(ValueError, match="negative power"):
            G1**-1

    def test_arithmetic_across_rings(self):
        other = Polynomial.variable("G1", ("G1", "G2"))
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
            with pytest.raises(ValueError, match="different rings"):
                op(G1, other)

    def test_zero_has_no_leading_monomial(self):
        with pytest.raises(ValueError, match="no leading monomial"):
            Polynomial.zero().leading_monomial()

    def test_residue_with_no_rational_reconstruction(self):
        # fractions n/d with |n|, d at most 2^30 are reconstructed; 2^30 + 1
        # is n/1 with n past that bound, and every other d makes n larger
        assert _rational(2**30) == 2**30
        assert _rational(-3 * pow(7, -1, LIFT_PRIME)) == Fraction(-3, 7)
        with pytest.raises(ArithmeticError, match="no rational reconstruction"):
            _rational(2**30 + 1)


class TestPackedKernel:
    def test_degree_at_the_limit(self):
        at = G1 ** (MAX_DEGREE - 1) * G2  # total degree exactly MAX_DEGREE
        assert reduces_to_zero(at, groebner_basis([G2 - G3, G3]))
        assert not reduces_to_zero(at, groebner_basis([G3]))
        assert reduces_to_zero(G1**MAX_DEGREE, groebner_basis([G1**MAX_DEGREE - G2, G2]))
        assert list(groebner_basis([at + G3])) == [at + G3]

    def test_degree_one_past_the_limit(self):
        for past in (G1**MAX_DEGREE * G2, G1 ** (MAX_DEGREE + 1)):
            with pytest.raises(ResourceLimitError, match=f"limit {MAX_DEGREE}"):
                reduces_to_zero(past, groebner_basis([G3]))
            with pytest.raises(ResourceLimitError, match=f"limit {MAX_DEGREE}"):
                groebner_basis([past + G3])

    def test_s_polynomial_degree_limit(self):
        # lcm(G1^(MAX-1), G1*G2) has degree MAX_DEGREE; the coprime pair with
        # lead G2*G3 (lcm degree MAX_DEGREE + 1) is pruned before any product.
        basis = groebner_basis([G1 ** (MAX_DEGREE - 1) - G3, G1 * G2])
        assert {p.to_text() for p in basis} == {f"G1^{MAX_DEGREE - 1} - G3", "G1*G2", "G2*G3"}
        with pytest.raises(ResourceLimitError, match=f"S-polynomial degree {MAX_DEGREE + 1}"):
            groebner_basis([G1**MAX_DEGREE - G3, G1 * G2])

    def test_packed_key_matches_a_fresh_packing(self):
        # `packed_key` keeps one layout per ring size; each key must be the
        # one a layout made for the call would give
        rng = random.Random(8)
        for nvars in (1, 3, 5, 8, 5, 1):
            for _ in range(40):
                exps = tuple(rng.randint(0, 6) for _ in range(nvars))
                assert packed_key(exps) == _Packing(nvars).pack(exps), exps

    def test_zero_test_matches_fraction_reference(self):
        # Random ideals in G1..G5; candidates may carry G6, G7 and G8, which
        # no generator contains, up to exponents at the packed limit.
        rng = random.Random(6)
        absent = [Polynomial.variable(v) for v in ("G6", "G7", "G8")]
        packing = _packing(len(DEFAULT_VARS))
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            gens = [g for g in (random_poly(rng, 3) for _ in range(rng.randint(1, 3))) if g]
            if not gens:
                continue
            member = sum((g * random_poly(rng) for g in gens), Polynomial.zero())
            candidates = [random_poly(rng), member, member + random_poly(rng, max_terms=1)]
            far = rng.choice(absent)
            candidates += [
                c * far ** (MAX_DEGREE - c.total_degree() - rng.randint(0, 2)) for c in candidates if c
            ]
            basis = groebner_basis(gens)
            # the generators themselves, in general no Groebner basis, as
            # Buchberger reduces against its partial bases
            divisors = packed_divisors(gens)
            for p in candidates:
                expected = not normal_form(p, basis)
                assert reduces_to_zero(p, basis) == expected, (gens, p)
                outcomes[expected] += 1
                expected = not normal_form(p, gens)
                remainder = _int_reduce(_int_terms(p, packing), divisors, packing.guards, full=False)
                assert (not remainder) == expected, (gens, p)
                outcomes[expected] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @staticmethod
    def assert_packed_as_int_terms(basis):
        """Each generator's `_packed`, set by `groebner_basis`, is what
        `_int_terms` packs for it, keys in the same order."""
        packing = _Packing(len(basis.ring))
        for g in basis:
            packed = g._packed
            g._packed = None
            assert list(packed.items()) == list(_int_terms(g, packing).items()), g

    def test_groebner_output_keeps_its_int_terms(self):
        self.assert_packed_as_int_terms(groebner_basis(quadrilateral.quadrilateral_system()[0]))
        # an integer lead of -1, negated to make the monic generator's terms
        self.assert_packed_as_int_terms(groebner_basis([G2 - G1]))
        self.assert_packed_as_int_terms(groebner_basis([Fraction(-2, 3) * G1 * G2 + 4 * G3, G1 - 6]))
        rng = random.Random(21)
        for _ in range(20):
            gens = [g for g in (random_poly(rng, 3) for _ in range(rng.randint(1, 3))) if g]
            if gens:
                self.assert_packed_as_int_terms(groebner_basis(gens))

    def test_basis_reads_as_its_polynomials(self):
        basis = groebner_basis([G1 + G2, G1 - G2])
        assert isinstance(basis, Basis)
        assert len(basis) == 2 and list(basis) == list(basis.polys)
        assert list(basis) == [G2, G1] and basis.polys == (G2, G1)
        assert sum(len(p.terms) for p in basis) == 2

    def test_zero_test_rejects_another_ring(self):
        small = ("G1", "G2")
        with pytest.raises(ValueError):
            reduces_to_zero(Polynomial.variable("G1", small), groebner_basis([G1]))
        # a divisor of another ring would be packed in the wrong layout
        other = Polynomial.variable("G1", ("G2", "G1"))
        with pytest.raises(ValueError):
            reduces_to_zero(G2, groebner_basis([other]))
        with pytest.raises(ValueError):
            groebner_basis([G2, other])


def value_mod_prime(p, point):
    """p evaluated at `point` (one residue per ring variable) mod LIFT_PRIME."""
    total = 0
    for m, c in p.terms.items():
        term = c.numerator * pow(c.denominator, -1, LIFT_PRIME)
        for t, e in zip(point, m):
            term = term * pow(t, e, LIFT_PRIME) % LIFT_PRIME
        total += term
    return total % LIFT_PRIME


def random_ring_poly(rng, ring, max_terms=4, max_deg=3):
    """A random polynomial over any ring, with fractional coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(ring)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(ring))] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-4, -3, -1, 1, 2, 5]), rng.randint(1, 4))
    return Polynomial(terms, ring)


def integer_multiple(p):
    """The content-stripped integer multiple of p that the kernel packs: p
    times the lcm of its denominators, over the gcd of the integers that
    gives."""
    if not p:
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    return p * Fraction(den, gcd(*(int(c * den) for c in p.terms.values())))


class TestResidue:
    """`Basis.residue` against the `Fraction` normal form, of the integer
    multiple that the kernel packs, evaluated mod the prime."""

    @staticmethod
    def check(basis, rng, count, max_deg=3):
        point = _residue_point(len(basis.ring))
        assert len(set(point)) == len(point)
        zeros = 0
        for _ in range(count):
            p = random_ring_poly(rng, basis.ring, max_deg=max_deg)
            if rng.random() < 0.3:  # an ideal member plus, sometimes, a remainder
                p = rng.choice(basis.polys) * random_ring_poly(rng, basis.ring, 2, 1)
                if rng.random() < 0.5:
                    p = p + random_ring_poly(rng, basis.ring, 1, max_deg)
            expected = value_mod_prime(normal_form(integer_multiple(p), basis), point)
            assert basis.residue(p) == expected, p
            # a nonzero multiple: zero exactly where p's own normal form is
            assert (expected == 0) == (value_mod_prime(normal_form(p, basis), point) == 0), p
            zeros += not expected
        return zeros

    def test_quadrilateral_basis(self):
        basis = groebner_basis(quadrilateral.quadrilateral_system()[0])
        zeros = self.check(basis, random.Random(16), 40, max_deg=7)
        assert 1 <= zeros < 40
        gens, target = quadrilateral.quadrilateral_system()
        assert basis.residue(target) == 0

    def test_catalog_ledger_bases(self):
        rng = random.Random(61)
        zeros = bases = 0
        for entry in load_catalog():
            equalities = analyze(entry.diagram).base_ledger.equalities
            if equalities:
                zeros += self.check(groebner_basis(equalities), rng, 12)
                bases += 1
        assert bases == 33 and zeros >= 20, zeros

    def test_a_deep_reduction_chain_needs_no_recursion(self):
        # G1^k -> G1^(k-1)*G2 -> ... -> G2^k: one memo entry per step.
        basis = groebner_basis([G1 - G2])
        k = 5000
        point = _residue_point(len(DEFAULT_VARS))
        t2 = point[DEFAULT_VARS.index("G2")]
        assert basis.residue(G1**k) == pow(t2, k, LIFT_PRIME)
        assert basis.residue(G1**k - G2**k) == 0

    def test_undefined_mod_the_prime_reads_zero(self):
        # normal_form(G1, [P*G1 + G2]) = -G2/P has no value mod P: P divides
        # the leading coefficient.  A zero residue sends the candidate to
        # the exact test.
        basis = groebner_basis([LIFT_PRIME * G1 + G2])
        assert basis.residue(G1) == 0 and not reduces_to_zero(G1, basis)
        assert basis.residue(G2) != 0

    def test_rejects_another_ring(self):
        with pytest.raises(ValueError):
            groebner_basis([G1]).residue(Polynomial.variable("G1", ("G1", "G2")))


def decided_equality_sets(n):
    """Each distinct equality set of the ledgers that one
    `enumerate_diagrams(n)` decides, in the order first decided."""
    seen = {}
    decide = atlas.decide

    def recorded(ledger, *args, **kwargs):
        if ledger.equalities:
            seen.setdefault(frozenset(ledger.equalities), ledger.equalities)
        return decide(ledger, *args, **kwargs)

    with mock.patch.object(atlas, "decide", recorded):
        atlas.enumerate_diagrams(n)
    return list(seen.values())


def refuse_to_build(*args):
    raise AssertionError("the reduced polynomials were built")


class TestLazyBasis:
    """`groebner_basis` answers zero-tests and residues from its minimal
    basis, before its reduced polynomials exist, exactly as the reduced
    basis does."""

    @staticmethod
    def compare(gens, polys) -> tuple:
        """(members, nonzero residues) among `polys`, after checking that a
        fresh `groebner_basis(gens)` answers like a `Basis` of its reduced
        polynomials without building them."""
        ring = gens[0].ring
        reduced_polys = groebner_basis(gens).polys
        reduced = Basis(packed_divisors(reduced_polys, ring), ring)
        lazy = groebner_basis(gens)
        members = nonzero = 0
        with mock.patch.object(exactpoly, "_reduced_polynomials", refuse_to_build):
            assert len(lazy) == len(reduced)
            for p in polys:
                residue = reduced.residue(p)
                assert lazy.residue(p) == residue, (gens, p)
                # a nonzero residue proves p no member; only a zero one
                # needs the reduced basis's exact zero-test
                member = residue == 0 and reduces_to_zero(p, reduced)
                assert reduces_to_zero(p, lazy) == member, (gens, p)
                members += member
                nonzero += residue != 0
        assert lazy.polys == reduced_polys  # built now, and the same polynomials
        return members, nonzero

    def test_quadrilateral_system(self):
        gens, target = quadrilateral.quadrilateral_system()
        rng = random.Random(26)
        others = [random_ring_poly(rng, quadrilateral.RING, max_deg=6) for _ in range(30)]
        members, nonzero = self.compare(list(gens), [*gens, target, *others])
        assert members >= 5 and nonzero >= 25

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_decided_equality_sets(self, n):
        candidates = [cert.polynomial for _, cert in table_candidates(n)]
        members = nonzero = 0
        equality_sets = decided_equality_sets(n)
        for equalities in equality_sets:
            m, z = self.compare(equalities, [*equalities, *candidates])
            members += m
            nonzero += z
        assert equality_sets and members > 0 and nonzero > 0

    def test_a_generator_whose_lead_another_lead_divides_is_left_out(self):
        # Buchberger keeps G1*G2 + G3^2, then adds G1 and, from their
        # S-polynomial, G3^2; G1 divides the first lead.
        gens = [G1 * G2 + G3**2, G1]
        assert len(groebner_basis(gens)) == 2
        members, nonzero = self.compare(gens, [*gens, G1 * G2, G3**2, G2, G2 * G3 + G1])
        assert members == 4 and nonzero == 2

    def test_commands_never_build_the_reduced_polynomials(self):
        membership = quadrilateral.verify_membership()
        report = json.dumps(atlas.enumerate_diagrams(5).to_json(), sort_keys=True)
        with mock.patch.object(exactpoly, "_reduced_polynomials", refuse_to_build):
            assert quadrilateral.verify_membership() == membership
            assert json.dumps(atlas.enumerate_diagrams(5).to_json(), sort_keys=True) == report
        assert membership.verified and membership.basis_size == 22


class TestSympyOracle:
    """`groebner_basis` against sympy's reduced grevlex basis over the same ring."""

    @staticmethod
    def _sympy_basis(gens):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols(DEFAULT_VARS)
        polys = [
            sympy.Poly.from_dict(
                {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms.items()},
                *syms,
                domain="QQ",
            )
            for g in gens
        ]
        out = set()
        for q in sympy.groebner(polys, *syms, order="grevlex", domain="QQ").polys:
            # Poly.monic would divide by the lex leading coefficient.
            p = Polynomial({m: Fraction(int(c.p), int(c.q)) for m, c in q.terms()})
            out.add(p * (1 / p.terms[p.leading_monomial()]))
        return out

    @staticmethod
    def _ours(gens):
        basis = groebner_basis(gens)
        assert all(p.terms[p.leading_monomial()] == 1 for p in basis)
        return set(basis)

    def test_random_ideals(self):
        rng = random.Random(7)
        checked = 0
        while checked < 15:
            gens = [g for g in (random_poly(rng, 3) for _ in range(rng.randint(1, 3))) if g]
            if not gens:
                continue
            assert self._ours(gens) == self._sympy_basis(gens), gens
            checked += 1

    def test_catalog_base_ledgers(self):
        checked = 0
        for entry in load_catalog():
            gens = analyze(entry.diagram).base_ledger.equalities
            if gens:
                assert self._ours(gens) == self._sympy_basis(gens), entry.figure_ref
                checked += 1
        assert checked == 33
