"""The certificate candidates of `vorticity.KINDS`, read with no screen.

`table_candidates(n)` runs the candidate generators of the kinds whose
candidates depend on n alone, over a basis stand-in whose residue screen
passes every candidate, so it lists them all, in search order, each with
the packed terms it was screened by.
"""

import functools

from vortexdiagrams import vorticity
from vortexdiagrams.vorticity import ConstraintLedger

# The kinds whose candidates depend on n alone, not on the ledger.
PER_N_KINDS = ("vanishing-monomial", "sum-of-squares")


class Unscreened:
    """A basis whose screen passes everything; it records what each
    candidate was screened by: its packed terms, or its polynomial."""

    def __init__(self):
        self.screened = []

    def residue(self, p):
        self.screened.append(p)
        return 0

    def packed_residue(self, terms):
        self.screened.append(terms)
        return 0


@functools.lru_cache(maxsize=None)
def table_candidates(n) -> tuple:
    """``(screened, certificate)`` for every candidate of `PER_N_KINDS` at n."""
    out = []
    for kind in PER_N_KINDS:
        basis = Unscreened()
        certificates = list(vorticity.KINDS[kind][0](ConstraintLedger(n=n), basis))
        assert len(basis.screened) == len(certificates)
        out += zip(basis.screened, certificates)
    return tuple(out)
