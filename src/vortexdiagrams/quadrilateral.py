"""The quadrilateral obstruction's algebraic core.

An isolated, fully circled, fully mutual-stroked quadrilateral forces four
homogeneous balance polynomials in the cross-ratio-like unknowns a, b and
three independent strengths.  Their ideal contains
b^5 * (G1+G3+G4) * (G1^2+G1*G3+G1*G4+G3^2+G3*G4+G4^2), whose factors are
all nonzero in context (the last one being half a sum of squares), which
is the contradiction the exclusion rests on.  This module builds that
system and certifies the membership by Groebner reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactpoly import Polynomial, groebner_basis, normal_form, reduces_to_zero


def _vars():
    return (
        Polynomial.variable("a"),
        Polynomial.variable("b"),
        Polynomial.variable("G1"),
        Polynomial.variable("G3"),
        Polynomial.variable("G4"),
    )


def quadrilateral_system() -> tuple:
    """The four balance polynomials and the target product."""
    a, b, G1, G3, G4 = _vars()
    p1 = (
        a**2 * (-G3) * (b + G4)
        + a * b * (-G4 * (b - 2 * G3) + G1**2 + 2 * G1 * (G3 + G4))
        - b**2 * G3 * G4
    )
    p2 = (
        a**3 * G3**2 * (G1 + G4)
        + a**2
        * G3
        * (-b * (G1**2 + G1 * G3 + G4 * (2 * G3 - G4)) - (G1 - G3 + G4) * (G1 + G3 + G4) ** 2)
        - a
        * b
        * (
            G1**2 * G4 * (b - 4 * G3)
            + G1 * (G4**2 * (b + 2 * G4) + 2 * G3**3 - 2 * G3**2 * G4 - 2 * G3 * G4**2)
            - G3**2 * G4 * (b + 2 * G4)
        )
        - a * b * (2 * b * G3 * G4**2 - G1**4 - 2 * G1**3 * (G3 + G4) + G3**4 + G4**4)
        + b**2
        * G4
        * (
            G1 * (G4 * (b + G4) - 3 * G3**2 - 2 * G3 * G4)
            + G3 * G4 * (b + G4)
            - G1**3
            - G1**2 * (3 * G3 + G4)
            - G3**3
            - G3**2 * G4
            + G4**3
        )
    )
    p3 = (
        a**3 * (G1 + G4)
        + a**2 * (G3 * (2 * G1 + G3 + 2 * G4) - b * (G1 + 2 * G4))
        + a * b * (b * G4 - 2 * G1 * G3 - G3**2 - 2 * G3 * G4)
        - b**2 * G1 * G4
    )
    p4 = (
        a**2 * G3 * (b - G1)
        - a * b * (b * (G1 + 2 * G3) + G4 * (2 * G1 + 2 * G3 + G4))
        + b**2 * (b * (G1 + G3) + G4 * (2 * G1 + 2 * G3 + G4))
    )
    a_, b_, G1_, G3_, G4_ = _vars()
    target = (
        b_**5
        * (G1_ + G3_ + G4_)
        * (G1_**2 + G1_ * G3_ + G1_ * G4_ + G3_**2 + G3_ * G4_ + G4_**2)
    )
    return (p1, p2, p3, p4), target


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    basis_size: int
    recheck_member: bool
    exact_normal_form_zero: bool

    @property
    def verified(self) -> bool:
        return self.member and self.recheck_member and self.exact_normal_form_zero

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "basis_size": self.basis_size,
            "recheck_member": self.recheck_member,
            "exact_normal_form_zero": self.exact_normal_form_zero,
            "verified": self.verified,
        }


def verify_membership() -> MembershipResult:
    """Prove the target product lies in the quadrilateral ideal.

    The reduction is re-checked against a basis computed from the reversed
    generator list (a different Buchberger pair order) and once more with
    the exact-division normal form.  Reduced bases are unique, so the
    reversed run computes the same basis with the same code; it is not an
    independent check.  Cofactor certificates, checked by multiplication
    alone, are ROADMAP item 2.
    """
    gens, target = quadrilateral_system()
    basis = groebner_basis(gens)
    member = reduces_to_zero(target, basis)
    basis_rev = groebner_basis(tuple(reversed(gens)))
    recheck = reduces_to_zero(target, basis_rev)
    exact_zero = not normal_form(target, basis)
    return MembershipResult(member, len(basis), recheck, exact_zero)
