import pytest

from vortexdiagrams import exactcheck, exactpoly, quadrilateral
from vortexdiagrams.exactcheck import is_cofactor_identity, lift, normal_form
from vortexdiagrams.exactpoly import Polynomial, groebner_basis, parse_polynomial, reduces_to_zero
from vortexdiagrams.quadrilateral import (
    COFACTORS,
    RING,
    quadrilateral_system,
    verify_membership,
)


def test_system_shape():
    gens, target = quadrilateral_system()
    assert len(gens) == 4
    # all generators are homogeneous
    for p in gens + (target,):
        degs = {sum(m) for m in p.terms}
        assert len(degs) == 1
    assert target.total_degree() == 8


def test_membership_verified():
    result = verify_membership()
    assert result.member
    assert result.cofactor_identity
    assert result.verified
    # the Fraction normal form, which no command runs, agrees with the kernel
    gens, target = quadrilateral_system()
    assert not normal_form(target, groebner_basis(gens))


def test_factors_alone_are_not_members():
    gens, _ = quadrilateral_system()
    basis = groebner_basis(gens)
    b = Polynomial.variable("b", RING)
    G1 = Polynomial.variable("G1", RING)
    G3 = Polynomial.variable("G3", RING)
    G4 = Polynomial.variable("G4", RING)
    assert not reduces_to_zero(b**5, basis)
    assert not reduces_to_zero(G1 + G3 + G4, basis)


def test_last_factor_is_half_a_square_sum():
    # with the fourth strength filling the total to zero, the quadratic
    # factor equals half the sum of the four squares
    G1 = Polynomial.variable("G1")
    G2 = Polynomial.variable("G2")
    G3 = Polynomial.variable("G3")
    G4 = Polynomial.variable("G4")
    quad = G1**2 + G1 * G3 + G1 * G4 + G3**2 + G3 * G4 + G4**2
    squares = G1**2 + G2**2 + G3**2 + G4**2
    constraint = G1 + G2 + G3 + G4
    assert not normal_form(2 * quad - squares, groebner_basis([constraint]))


def test_deterministic_basis():
    gens, _ = quadrilateral_system()
    assert groebner_basis(gens).polys == groebner_basis(gens).polys


def test_one_groebner_basis_per_verification(monkeypatch):
    calls = []

    def counted(gens):
        calls.append(len(gens))
        return groebner_basis(gens)

    monkeypatch.setattr(quadrilateral, "groebner_basis", counted)
    assert verify_membership().verified
    assert calls == [4]


class TestCofactors:
    def test_identity_needs_no_groebner_kernel(self, monkeypatch):
        gens, target = quadrilateral_system()

        def refuse(*args, **kwargs):
            raise AssertionError("the cofactor identity must not divide")

        for module in (exactpoly, exactcheck, quadrilateral):
            for name in ("_int_reduce", "groebner_basis", "normal_form", "reduces_to_zero"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        cofactors = [parse_polynomial(text, RING) for text in COFACTORS]
        assert is_cofactor_identity(target, gens, cofactors)

    def test_one_wrong_coefficient_fails_verification(self, monkeypatch):
        cofactors = list(COFACTORS)
        assert "9*a*b*G1*G3" in cofactors[0]
        cofactors[0] = cofactors[0].replace("9*a*b*G1*G3", "8*a*b*G1*G3")
        monkeypatch.setattr(quadrilateral, "COFACTORS", tuple(cofactors))
        result = verify_membership()
        assert result.member
        assert not result.cofactor_identity
        assert not result.verified

    def test_degrees_complement_the_generators(self):
        gens, target = quadrilateral_system()
        nonzero = 0
        for text, g in zip(COFACTORS, gens, strict=True):
            h = parse_polynomial(text, RING)
            if h:
                nonzero += 1
                assert {sum(m) for m in h.terms} == {target.total_degree() - g.total_degree()}
        assert nonzero == 3

    def test_lift_reproduces_them(self):
        gens, target = quadrilateral_system()
        assert tuple(h.to_text() for h in lift(target, gens)) == COFACTORS

    def test_their_texts_parse_back(self):
        assert tuple(parse_polynomial(text, RING).to_text() for text in COFACTORS) == COFACTORS


class TestSympyOracle:
    def test_sympy_expands_the_identity_to_zero(self):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols(RING)
        names = dict(zip(RING, syms))

        def expr(p):
            return sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**e for s, e in zip(syms, m)))
                for m, c in p.terms.items()
            )

        gens, target = quadrilateral_system()
        hs = [sympy.sympify(text.replace("^", "**"), locals=names) for text in COFACTORS]
        total = sum(h * expr(g) for h, g in zip(hs, gens, strict=True))
        assert sympy.expand(total - expr(target)) == 0
