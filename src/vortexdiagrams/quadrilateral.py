"""The quadrilateral obstruction's algebraic core.

An isolated, fully circled, fully mutual-stroked quadrilateral forces four
homogeneous balance polynomials in the cross-ratio-like unknowns a, b and
three independent strengths.  Their ideal contains
b^5 * (G1+G3+G4) * (G1^2+G1*G3+G1*G4+G3^2+G3*G4+G4^2), whose factors are
all nonzero in context (the last one being half a sum of squares), which
is the contradiction the exclusion rests on.

This module builds that system over the five variables it uses and
certifies the membership in two ways.  The first is a cofactor identity:
`COFACTORS` holds polynomials h1..h4 with h1*p1 + h2*p2 + h3*p3 + h4*p4
equal to the target, as `exactcheck.lift` derives them, and
`exactcheck.is_cofactor_identity` confirms that by `Polynomial`
multiplication and addition alone, so the proof does not rest on the
Groebner kernel (the "lift" of Cox, Little and O'Shea, *Ideals, Varieties,
and Algorithms*, ch. 2).  The second is the packed kernel's reduction of
the target to zero against a Groebner basis of the ideal.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactcheck import (
    is_cofactor_identity,
    normal_form,  # unused here; perfbench/tracer.py wraps quadrilateral.normal_form
)
from .exactpoly import Polynomial, groebner_basis, parse_polynomial, reduces_to_zero


# The five variables the system uses, most significant first.
RING = ("a", "b", "G1", "G3", "G4")


def quadrilateral_system() -> tuple:
    """The four balance polynomials and the target product."""
    a, b, G1, G3, G4 = (Polynomial.variable(name, RING) for name in RING)
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
    target = b**5 * (G1 + G3 + G4) * (G1**2 + G1 * G3 + G1 * G4 + G3**2 + G3 * G4 + G4**2)
    return (p1, p2, p3, p4), target


# h1..h4 with sum h_i * p_i == target.  Each nonzero h_i is homogeneous of
# degree 8 - deg p_i; h2 is 0.  `exactcheck.lift(target, gens)` derives them
# (checked by the tests); the run-time check is the identity alone.
COFACTORS = (
    "-2*a^3*b + 5*a^2*b^2 - 4*a*b^3 + b^4 + 3*a^3*G1 - 5*a^2*b*G1 + a*b^2*G1"
    " + 2*b^3*G1 - 3*a^2*b*G3 + 5*a*b^2*G3 - 2*b^3*G3 + 5*a^2*G1*G3 - 9*a*b*G1*G3"
    " + 4*b^2*G1*G3 + a^2*G3^2 - 4*a*b*G3^2 + 2*b^2*G3^2 + a^3*G4 - a^2*b*G4"
    " - 2*a*b*G1*G4 + b^2*G1*G4 + 2*a^2*G3*G4 - 4*a*b*G3*G4 + b^2*G3*G4 - a*b*G4^2",
    "0",
    "-2*a*b^3 + b^4 + 2*a*b^2*G1 - 2*b^3*G1 - 3*a*b*G1^2 + 2*b^2*G1^2 + a^2*b*G3"
    " - 5*b^3*G3 - 5*a*b*G1*G3 + 4*b^2*G1*G3 - a*b^2*G4 - 4*a*b*G1*G4 + b^2*G1*G4"
    " + a^2*G3*G4 - 5*a*b*G3*G4 - 2*a*b*G4^2",
    "-2*a^3*b + a^2*b^2 + a^2*b*G1 - a*b^2*G1 - a*b*G1^2 + b^2*G1^2 - 3*a^2*b*G3"
    " + a*b^2*G3 - 2*a*b*G1*G3 + b^2*G1*G3 - 3*a*b*G3^2 + b^2*G3^2 - 2*a^3*G4"
    " + 2*a^2*b*G4 + a*b^2*G4 + b^3*G4 - 2*a*b*G1*G4 - 3*a^2*G3*G4 - a*b*G3*G4",
)


class MembershipResult(NamedTuple):
    member: bool
    basis_size: int
    cofactor_identity: bool
    cofactors: tuple

    @property
    def verified(self) -> bool:
        return self.member and self.cofactor_identity

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "basis_size": self.basis_size,
            "cofactor_identity": self.cofactor_identity,
            "cofactors": list(self.cofactors),
            "verified": self.verified,
        }


def verify_membership() -> MembershipResult:
    """Prove the target product lies in the quadrilateral ideal.

    One Groebner basis is computed, and `member` is the packed kernel's
    zero-test of the target against it; `basis_size` is the size of the
    reduced basis, whose polynomials are never built here.
    `cofactor_identity` checks sum h_i * p_i == target for `COFACTORS` by
    multiplication alone, a proof that uses neither the basis nor any
    division.  The result is verified when both hold.
    """
    gens, target = quadrilateral_system()
    basis = groebner_basis(gens)
    member = reduces_to_zero(target, basis)
    cofactors = [parse_polynomial(text, RING) for text in COFACTORS]
    identity = is_cofactor_identity(target, gens, cofactors)
    return MembershipResult(member, len(basis), identity, COFACTORS)
