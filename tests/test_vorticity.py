import collections
import functools
import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from candidates import table_candidates

from vortexdiagrams import atlas, exactpoly, quadrilateral, vorticity
from vortexdiagrams.exactcheck import lift
from vortexdiagrams.exactpoly import (
    DEFAULT_VARS,
    Polynomial,
    groebner_basis,
    parse_polynomial,
    reduces_to_zero,
)
from vortexdiagrams.vorticity import (
    LEDGER_SEED,
    WITNESS_POOL,
    ConstraintLedger,
    angular_momentum,
    decide,
    gamma_sum,
    gamma_var,
    satisfies,
    verify_certificate,
)

G = {i: gamma_var(i) for i in range(1, 6)}
ONE = Polynomial.constant(1)
RING_ONE = Polynomial.constant(1, quadrilateral.RING)
RING_G1, RING_G3 = (Polynomial.variable(g, quadrilateral.RING) for g in ("G1", "G3"))


class TestBuilders:
    def test_gamma_sum_definition(self):
        assert gamma_sum([1, 2]) == G[1] + G[2]
        assert gamma_sum(range(1, 6)) == G[1] + G[2] + G[3] + G[4] + G[5]

    def test_angular_momentum_definition(self):
        assert angular_momentum([1, 2, 3]) == G[1] * G[2] + G[1] * G[3] + G[2] * G[3]

    def test_extension_identity(self):
        # adding one vertex to the momentum sum
        assert angular_momentum([1, 2, 3, 4]) == angular_momentum([1, 2, 3]) + G[4] * (
            G[1] + G[2] + G[3]
        )

    def test_three_vertex_split(self):
        assert angular_momentum([1, 2, 3]) == G[1] * (G[2] + G[3]) + G[2] * G[3]

    def test_recursive_identity_random_subsets(self):
        rng = random.Random(0)
        for _ in range(20):
            J = sorted(rng.sample(range(1, 6), rng.randint(2, 4)))
            m = rng.choice([v for v in range(1, 6) if v not in J])
            lhs = angular_momentum(J + [m])
            assert lhs == angular_momentum(J) + gamma_var(m) * gamma_sum(J)

    def test_square_expansion_random_subsets(self):
        rng = random.Random(1)
        for _ in range(20):
            J = sorted(rng.sample(range(1, 6), rng.randint(2, 5)))
            squares = sum((gamma_var(j) * gamma_var(j) for j in J), Polynomial.zero())
            assert gamma_sum(J) ** 2 - squares - 2 * angular_momentum(J) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError, match="empty vertex subset"):
            gamma_sum([])
        with pytest.raises(ValueError, match="at least two vertices"):
            angular_momentum([3])

    def test_each_subset_is_one_shared_polynomial(self):
        assert gamma_sum((3, 1, 1)) is gamma_sum([1, 3])
        assert angular_momentum((3, 1, 1)) is angular_momentum([1, 3])
        assert gamma_var(2) is gamma_sum([2])

    def test_shared_polynomials_match_their_definition(self):
        var = {j: Polynomial.variable(f"G{j}") for j in range(1, 9)}
        for size in range(1, 9):
            for J in itertools.combinations(range(1, 9), size):
                assert gamma_sum(J) == sum((var[j] for j in J), Polynomial.zero()), J
                if size > 1:
                    pairs = itertools.combinations(J, 2)
                    expected = sum((var[j] * var[k] for j, k in pairs), Polynomial.zero())
                    assert angular_momentum(J) == expected, J

    @pytest.fixture
    def fresh_subset_caches(self, monkeypatch):
        """An empty cache of subset polynomials, for this test only."""
        build = vorticity._subset_polynomial.__wrapped__
        monkeypatch.setattr(vorticity, "_subset_polynomial", functools.lru_cache(maxsize=None)(build))

    @pytest.mark.parametrize("good_first", [False, True], ids=["bad-first", "good-first"])
    @pytest.mark.parametrize(
        "labels, named",
        [
            ([1.0, 2.0], "1.0"),
            ([True, 2], "True"),
            ([1, 2.0], "2.0"),
            ([1, 9], "9"),
            ([0, 2], "0"),
            (["1", 2], "'1'"),
            ([1, None], "None"),
        ],
    )
    @pytest.mark.parametrize("build", [gamma_sum, angular_momentum])
    def test_a_bad_label_is_refused_by_name(self, fresh_subset_caches, build, labels, named, good_first):
        # a cache keyed by the labels alone would take 2.0 or True for 2 or 1
        if good_first:
            build([1, 2])
        with pytest.raises(ValueError, match=f"vertex label {re.escape(named)} is not"):
            build(labels)
        assert build([1, 2]) is build((2, 1))


class TestLedger:
    def test_gamma_nonzeros_always_present(self):
        led = ConstraintLedger()
        assert set(led.nonzeros) == {G[i] for i in range(1, 6)}

    def test_json_round_trip(self):
        led = ConstraintLedger((gamma_sum([1, 2]),), (gamma_sum([4, 5]),))
        again = ConstraintLedger.from_json(led.to_json())
        assert again.equalities == led.equalities
        assert set(again.nonzeros) == set(led.nonzeros)

    @pytest.mark.parametrize("field", ["equalities", "nonzeros"])
    def test_json_with_an_empty_polynomial_text_is_refused(self, field):
        # an emptied text is no zero polynomial the ledger could drop
        with pytest.raises(ValueError, match="empty text"):
            ConstraintLedger.from_json({field: [""]})
        assert ConstraintLedger.from_json({"equalities": ["0"]}).equalities == ()

    @pytest.mark.parametrize(
        "data, named",
        [
            # decided Unknown: the witness search read G7 as 0, the basis as free
            ({"equalities": ["G1 + G7"]}, "G7"),
            # decided Feasible, with a witness that left G6 out
            ({"equalities": ["G1 - G2 + G6"]}, "G6"),
            ({"nonzeros": ["G2*G8"]}, "G8"),
        ],
    )
    def test_json_with_a_strength_past_n_is_refused(self, data, named):
        with pytest.raises(ValueError, match=f"a ledger for n=5 names strengths past G5: {named}"):
            ConstraintLedger.from_json(data, 5)
        assert ConstraintLedger.from_json(data, 8).n == 8

    @pytest.mark.parametrize(
        "equalities, nonzeros, named",
        [
            # decided Unknown before the gate: the witness search read G7 as
            # 0, the basis as free
            ((G[1] + gamma_var(7),), (), "G7"),
            # decided Feasible, with a witness that left G6 out
            ((G[1] - G[2] + gamma_var(6),), (), "G6"),
            ((), (G[2] * gamma_var(8),), "G8"),
        ],
    )
    def test_a_strength_past_n_is_refused(self, equalities, nonzeros, named):
        with pytest.raises(ValueError, match=f"a ledger for n=5 names strengths past G5: {named}"):
            ConstraintLedger(equalities, nonzeros, n=5)
        assert ConstraintLedger(equalities, nonzeros, n=8).n == 8

    @pytest.mark.parametrize(
        "data", [{"equalities": ["G1 - G2"], "nonzeros": ["0"]}, {"nonzeros": ["0"]}]
    )
    def test_a_zero_nonzero_is_refused(self, data):
        # 0 != 0 never holds: dropping it decided G1 = G2 Feasible
        with pytest.raises(ValueError, match="zero polynomial nonzero"):
            ConstraintLedger.from_json(data, 5)
        with pytest.raises(ValueError, match="zero polynomial nonzero"):
            ConstraintLedger((), (G[3], Polynomial.zero()))

    @pytest.mark.parametrize("n", [-1, 0, 9, 12])
    def test_a_vertex_count_outside_one_to_eight_is_refused(self, n):
        with pytest.raises(ValueError, match=f"a ledger needs n in 1..8, got n={n}$"):
            ConstraintLedger((), (), n)
        with pytest.raises(ValueError, match=f"a ledger needs n in 1..8, got n={n}$"):
            ConstraintLedger.from_json({"equalities": ["G1 - G2"]}, n)
        assert ConstraintLedger((), (), 1).nonzeros == (G[1],)

    @pytest.mark.parametrize(
        "field, value", [("equalities", "G1 - G2"), ("nonzeros", "G3"), ("nonzeros", [1]), ("equalities", {})]
    )
    def test_json_field_that_is_not_a_list_of_strings_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"ledger field '{field}' must be a list"):
            ConstraintLedger.from_json({field: value}, 5)

    @pytest.mark.parametrize("data", [[], "x", None, 5])
    def test_json_that_is_not_an_object_is_refused(self, data):
        with pytest.raises(ValueError, match="a ledger must be a JSON object"):
            ConstraintLedger.from_json(data, 5)

    @pytest.mark.parametrize("field", ["equalities", "nonzeros"])
    def test_another_ring_is_refused(self, field):
        g1 = Polynomial.variable("G1", quadrilateral.RING)
        with pytest.raises(ValueError, match="over G1..G8 only"):
            ConstraintLedger(**{field: (g1 + 1,)})

    def test_a_constant_equality_is_an_infeasible_ledger(self):
        led = ConstraintLedger((Polynomial.constant(1),))
        assert led.equalities == (Polynomial.constant(1),)
        assert decide(led).certificate == vorticity.Certificate("direct-disequality", G[1])

    def test_deduplication(self):
        led = ConstraintLedger((gamma_sum([1, 2]), gamma_sum([1, 2])), (G[1],))
        assert len(led.equalities) == 1
        assert led.nonzeros.count(G[1]) == 1


class TestDecideInfeasible:
    def test_direct_disequality(self):
        led = ConstraintLedger((gamma_sum([1, 2]),), (gamma_sum([1, 2]),))
        verdict = decide(led)
        assert verdict.infeasible
        assert verdict.certificate.kind == "direct-disequality"
        assert verify_certificate(led, verdict.certificate)

    def test_vanishing_monomial(self):
        led = ConstraintLedger((gamma_sum([2, 3]), angular_momentum([1, 2, 3])))
        verdict = decide(led)
        assert verdict.infeasible
        assert verdict.certificate.kind == "vanishing-monomial"
        assert verdict.certificate.polynomial == G[2] * G[3]
        assert verify_certificate(led, verdict.certificate)

    def test_sum_of_squares_four(self):
        led = ConstraintLedger((gamma_sum([1, 2, 3, 4]), angular_momentum([1, 2, 3, 4])))
        verdict = decide(led)
        assert verdict.infeasible
        assert verdict.certificate.kind == "sum-of-squares"
        assert verify_certificate(led, verdict.certificate)

    def test_sum_of_squares_three(self):
        led = ConstraintLedger((gamma_sum([1, 2, 3]), angular_momentum([1, 2, 3])))
        verdict = decide(led)
        assert verdict.infeasible
        assert verdict.certificate.kind == "sum-of-squares"
        assert verify_certificate(led, verdict.certificate)

    def test_nested_momenta(self):
        led = ConstraintLedger((angular_momentum([1, 2, 3]), angular_momentum([1, 2, 3, 4])))
        verdict = decide(led)
        assert verdict.infeasible
        assert verdict.certificate.kind == "sum-of-squares"
        # the certificate polynomial really lies in the equality ideal
        basis = groebner_basis(led.equalities)
        assert reduces_to_zero(verdict.certificate.polynomial, basis)
        assert verify_certificate(led, verdict.certificate)


class TestDecideFeasible:
    def test_momentum_alone(self):
        led = ConstraintLedger((angular_momentum([1, 2, 3]),))
        verdict = decide(led)
        assert verdict.kind == "Feasible"
        assert satisfies(led, verdict.witness)
        assert angular_momentum([1, 2, 3]).evaluate(verdict.witness) == 0

    def test_trivial(self):
        verdict = decide(ConstraintLedger())
        assert verdict.kind == "Feasible"
        assert all(v != 0 for v in verdict.witness.values())

    def test_total_momentum_with_partial(self):
        led = ConstraintLedger(
            (angular_momentum(range(1, 6)), angular_momentum([1, 2, 3])),
        )
        verdict = decide(led)
        assert verdict.kind == "Feasible"
        assert satisfies(led, verdict.witness)

    def test_witnesses_are_exact(self):
        led = ConstraintLedger((gamma_sum([1, 2, 3]),), (gamma_sum([4, 5]),))
        verdict = decide(led)
        assert verdict.kind == "Feasible"
        w = verdict.witness
        assert sum(Fraction(w[f"G{i}"]) for i in (1, 2, 3)) == 0
        assert Fraction(w["G4"]) + Fraction(w["G5"]) != 0


def random_ledger(rng):
    pool = []
    for size in range(1, 6):
        for J in itertools.combinations(range(1, 6), size):
            pool.append(gamma_sum(J))
            if size >= 2:
                pool.append(angular_momentum(J))
    eqs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
    nzs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
    return ConstraintLedger(eqs, nzs)


class TestDecideProperties:
    def test_monotone_under_added_equalities(self):
        rng = random.Random(7)
        count = 0
        for _ in range(200):
            led = random_ledger(rng)
            verdict = decide(led)
            bigger = ConstraintLedger(
                led.equalities + (rng.choice(list(led.nonzeros)),), led.nonzeros, led.n
            )
            after = decide(bigger)
            if verdict.infeasible:
                count += 1
                assert after.kind != "Feasible"
        assert count > 20  # the family actually exercises infeasible cases

    def test_every_infeasible_certificate_re_verifies(self):
        rng = random.Random(8)
        seen = 0
        for _ in range(120):
            led = random_ledger(rng)
            verdict = decide(led)
            if verdict.infeasible:
                seen += 1
                assert verify_certificate(led, verdict.certificate)
            elif verdict.kind == "Feasible":
                assert satisfies(led, verdict.witness)
        assert seen > 10

    def test_unknown_is_reported_not_coerced(self):
        ledgers = [
            # an equality with no rational point in reach of the search pool:
            # G1^2 + G2^2 - 7 = 0 has no rational solutions at all
            ConstraintLedger((G[1] * G[1] + G[2] * G[2] - 7,)),
            # (G1-G2)*G3 = 0 with G1-G2 required nonzero is really infeasible,
            # but no certificate family captures it
            ConstraintLedger(((G[1] - G[2]) * G[3],), (G[1] - G[2],)),
        ]
        for led in ledgers:
            verdict = decide(led)
            assert verdict.kind == "Unknown"
            assert verdict.witness is None


def _fraction_search_witness(ledger, attempts, seed):
    """The witness search in plain `Fraction` arithmetic: random pool points,
    each also completed by solving every equality for one variable (last
    first) when all are linear in it."""
    rng = random.Random(seed)
    gammas = [f"G{i}" for i in range(1, ledger.n + 1)]
    for _ in range(attempts):
        sample = {g: rng.choice(WITNESS_POOL) for g in gammas}
        if satisfies(ledger, sample):
            return sample
        for var in reversed(gammas):
            partial = {g: v for g, v in sample.items() if g != var}
            value = None
            for p in ledger.equalities:
                idx = p.ring.index(var)
                if any(m[idx] > 1 for m in p.terms):
                    break
                a = b = Fraction(0)
                for m, c in p.terms.items():
                    for i, e in enumerate(m):
                        if e and i != idx:
                            c *= partial.get(p.ring[i], 0) ** e
                    if m[idx]:
                        a += c
                    else:
                        b += c
                if not a:
                    if b:
                        break
                    continue
                if value is None:
                    value = -b / a
                elif value != -b / a:
                    break
            else:
                if value:
                    full = dict(partial, **{var: value})
                    if satisfies(ledger, full):
                        return full
    return None


class TestWitnessSearch:
    @staticmethod
    def search(ledger, attempts, seed, monkeypatch):
        """`_search_witness`, checked against the `Fraction` reference."""
        confirmed = []

        def confirm(led, w):
            confirmed.append((w, satisfies(led, w)))
            return confirmed[-1][1]

        monkeypatch.setattr(vorticity, "satisfies", confirm)
        got = vorticity._search_witness(ledger, attempts, seed)
        assert got == _fraction_search_witness(ledger, attempts, seed), ledger
        # only points that solve every equality reach the exact check, which
        # alone judges the nonzero constraints; the first it accepts is the
        # witness returned
        for w, _ in confirmed:
            assert all(p.evaluate(w) == 0 for p in ledger.equalities), (ledger, w)
        assert [w for w, ok in confirmed if ok] == ([got] if got is not None else [])
        return got

    def test_matches_fraction_reference(self, monkeypatch):
        rng = random.Random(30)
        pool = [gamma_sum(J) for size in (1, 2, 3) for J in itertools.combinations(range(1, 6), size)]
        pool += [angular_momentum(J) for J in itertools.combinations(range(1, 6), 3)]
        # inhomogeneous terms and fractional coefficients, absent from ledgers
        # the lemmas emit
        pool += [
            parse_polynomial(t)
            for t in ("1/2*G1*G2 + G3 - 3/4", "G4^2 - 4", "2/3*G5 + 1", "G1*G2*G3 - 6*G4 + 1/3")
        ]
        found = 0
        for seed in range(120):
            ledger = ConstraintLedger(
                tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))),
                tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))),
            )
            found += self.search(ledger, 40, seed, monkeypatch) is not None
        assert 20 <= found <= 100, found

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_fraction_reference_on_the_decided_ledgers(self, n, monkeypatch):
        # both searches `decide` runs, on every ledger an enumeration decides
        ledgers = dict.fromkeys(ledger for ledger, _ in decided(n)[0])
        for ledger in ledgers:
            self.search(ledger, 40, LEDGER_SEED, monkeypatch)
            self.search(ledger, vorticity.WITNESS_ATTEMPTS, LEDGER_SEED + 1, monkeypatch)


class TestVerifyCertificate:
    def test_rejects_wrong_shape(self):
        Certificate = vorticity.Certificate
        pair = gamma_sum([2, 3])
        led = ConstraintLedger((pair, angular_momentum([1, 2, 3])), (pair,))
        # G2*G3 = e2(1,2,3) - G1*(G2 + G3) lies in the ideal, so the forgeries
        # on it below are wrong only in the kind, subset or multiplier
        # reports print.
        monomial = G[2] * G[3]
        assert verify_certificate(led, Certificate("vanishing-monomial", monomial, subset=(2, 3)))
        assert verify_certificate(led, Certificate("direct-disequality", pair))
        forged = [
            Certificate("vanishing-monomial", G[1] + G[2]),
            # no longer a certificate kind, even for a ledger this infeasible
            Certificate("saturation-unit", Polynomial.constant(1)),
            # a kind that names none, as a JSON report could print it
            Certificate(["direct-disequality"], pair),
            Certificate("vanishing-monomial", monomial, subset=(1,)),
            Certificate("vanishing-monomial", monomial, subset=(1,), multiplier=G[1] + G[4]),
            Certificate("vanishing-monomial", monomial, subset=(2, 3), multiplier=G[1] + G[4]),
            Certificate("vanishing-monomial", monomial),
            # no polynomial the ledger requires nonzero
            Certificate("direct-disequality", monomial),
            Certificate("direct-disequality", pair, subset=(2, 3)),
            Certificate("direct-disequality", pair, multiplier=Polynomial.constant(1)),
        ]
        for cert in forged:
            assert not verify_certificate(led, cert), cert
        # G1 = G2 is feasible, yet each polynomial below lies in its ideal: a
        # sum of squares contradicts it only with a nonzero monomial multiplier
        # and a nonempty subset.
        led = ConstraintLedger((G[1] - G[2],))
        assert decide(led).kind == "Feasible"
        zero = Polynomial.zero()
        forged = [
            Certificate(
                "sum-of-squares",
                vorticity._sum_of_squares((1,), G[1] - G[2]),
                subset=(1,),
                multiplier=G[1] - G[2],
            ),
            Certificate("sum-of-squares", zero, subset=(1,), multiplier=zero),
            Certificate("sum-of-squares", zero, subset=(), multiplier=Polynomial.constant(1)),
        ]
        for cert in forged:
            assert not verify_certificate(led, cert), cert

    def test_rejects_a_subset_label_past_n(self):
        # The n=5 ledger whose one equality is 1 generates the whole ring, so
        # `lift` proves every polynomial a member and only the shape check
        # can reject.  G1^2 + G6^2 is the sum of squares its subset (1, 6)
        # prints, and G1*G6 the monomial, but 6 names no strength of the
        # ledger: the subset must lie in 1..n.  The same shapes on (1, 2)
        # pass.
        led = ConstraintLedger((Polynomial.constant(1),), n=5)
        one = Polynomial.constant(1)
        for k, passes in ((6, False), (2, True)):
            gk = vorticity.gamma_var(k)
            squares = G[1] * G[1] + gk * gk
            assert vorticity._sum_of_squares((1, k), one) == squares
            assert lift(squares, led.equalities) is not None
            cert = vorticity.Certificate("sum-of-squares", squares, subset=(1, k), multiplier=one)
            assert verify_certificate(led, cert) == passes
            monomial = G[1] * gk
            assert lift(monomial, led.equalities) is not None
            cert = vorticity.Certificate("vanishing-monomial", monomial, subset=(1, k))
            assert verify_certificate(led, cert) == passes

    @pytest.mark.parametrize(
        "certificate",
        [
            # a bool or float label: the rebuild raised on it, or True
            # passed for 1
            vorticity.Certificate("sum-of-squares", G[1] * G[1] + G[2] * G[2], (True, 2), ONE),
            vorticity.Certificate("sum-of-squares", G[1] * G[1] + G[2] * G[2], (1.0, 2), ONE),
            vorticity.Certificate("vanishing-monomial", G[1] * G[2], (True, 2)),
            # a polynomial over another ring: the rebuild or the lift raised
            vorticity.Certificate("sum-of-squares", G[1] * G[1] + G[2] * G[2], (1, 2), RING_ONE),
            vorticity.Certificate("vanishing-monomial", RING_G1 * RING_G3, (1, 3)),
            # no polynomial, or a subset that is no tuple of labels
            vorticity.Certificate("vanishing-monomial", None, (1, 2)),
            vorticity.Certificate("sum-of-squares", G[1] * G[1] + G[2] * G[2], 2, ONE),
        ],
        ids=[
            "bool-label",
            "float-label",
            "bool-monomial-label",
            "ring-multiplier",
            "ring-polynomial",
            "no-polynomial",
            "int-subset",
        ],
    )
    def test_answers_false_on_a_malformed_certificate(self, certificate):
        # the ledger's one equality 1 makes every polynomial over G1..G8 a
        # member, so only the shape check can reject
        led = ConstraintLedger((Polynomial.constant(1),), n=5)
        assert verify_certificate(led, certificate) is False

    def test_rejects_a_forged_product(self):
        # e2(126) = e2(345) = e2(1..6) = 0 forces s(126) * s(345) into the
        # ideal, and with it P_126 * P_345, P_T the sum of G_i^2 over T
        led = ConstraintLedger(tuple(map(angular_momentum, ([1, 2, 6], [3, 4, 5], range(1, 7)))), n=6)
        P = functools.partial(vorticity._sum_of_squares, mult=1)
        g6 = gamma_var(6)
        cert = decide(led).certificate
        assert cert == vorticity.Certificate("product", P((1, 2, 6)) * P((3, 4, 5)), (1, 2, 6), P((3, 4, 5)))
        assert verify_certificate(led, cert)
        # every polynomial is a member for the ledger whose one equality is
        # 1, so only the shape check can reject; T1 = T2 or a two-label T is
        # no forgery, since P_T^2 is positive too
        whole = ConstraintLedger((Polynomial.constant(1),), n=6)
        assert verify_certificate(whole, cert)
        def times(mult):
            # the certificate with this multiplier and the product it builds
            return cert._replace(polynomial=P((1, 2, 6)) * mult, multiplier=mult)

        forged = [
            cert._replace(subset=(), polynomial=Polynomial.zero()),
            cert._replace(multiplier=None),
            times(G[3] * G[3] - G[4] * G[4]),
            times(G[3] * G[3] + ONE),
            times(Polynomial.zero()),
            times(P((3, 4, 7))),
            cert._replace(subset=(1, 2, 7), polynomial=P((1, 2, 7)) * P((3, 4, 5))),
            cert._replace(polynomial=P((1, 2, 6)) * P((3, 4, 5)) + g6 * g6),
        ]
        for f in forged:
            assert not verify_certificate(whole, f), f

    def test_rejects_a_sum_of_squares_of_another_subset(self):
        # G1^2 + G2^2 + G3^2 lies in the ideal and is the certificate `decide`
        # finds, but the subset (1, 2) printed with it builds G1^2 + G2^2
        led = ConstraintLedger((gamma_sum([1, 2, 3]), angular_momentum([1, 2, 3])))
        cert = decide(led).certificate
        assert verify_certificate(led, cert) and cert.subset == (1, 2, 3)
        assert not verify_certificate(led, cert._replace(subset=(1, 2)))

    def test_rejects_any_certificate_for_a_ledger_without_equalities(self):
        # every ledger requires G1 nonzero, so this is a well-formed direct
        # disequality, but an empty ideal holds nothing
        led = ConstraintLedger()
        assert G[1] in led.nonzeros and not led.equalities
        assert not verify_certificate(led, vorticity.Certificate("direct-disequality", G[1]))

    def test_rejects_non_member(self):
        led = ConstraintLedger((gamma_sum([2, 3]),))
        forged = decide(
            ConstraintLedger((gamma_sum([2, 3]), angular_momentum([1, 2, 3])))
        ).certificate
        assert not verify_certificate(led, forged)


def _monomial(exps: dict) -> Polynomial:
    e = [0] * len(DEFAULT_VARS)
    for name, p in exps.items():
        e[DEFAULT_VARS.index(name)] = p
    return Polynomial({tuple(e): Fraction(1)})


@functools.lru_cache(maxsize=None)
def reference_candidates(n):
    """The certificate candidates in search order, built as `Polynomial`s:
    the monomials of two or three strengths, then the sums of squares, each
    polynomial once, with the first subset and multiplier that build it."""
    gammas = [f"G{i}" for i in range(1, n + 1)]
    out = {}
    for size in (2, 3):
        for S in itertools.combinations(range(1, n + 1), size):
            m = _monomial({f"G{i}": 1 for i in S})
            out[m] = vorticity.Certificate("vanishing-monomial", m, subset=S)
    multipliers = [_monomial({})]
    multipliers += [_monomial({g: 1}) for g in gammas]
    multipliers += [
        _monomial({gammas[j]: 1, gammas[k]: 1}) for j in range(n) for k in range(j + 1, n)
    ]
    multipliers += [_monomial({g: 2}) for g in gammas]
    # (G_i * mult)^2 is the monomial 2(e_i + e_mult)
    for mult in multipliers:
        (m,) = mult.terms
        square = {}
        for i in range(1, n + 1):
            e = list(m)
            e[DEFAULT_VARS.index(f"G{i}")] += 1
            square[i] = tuple(2 * x for x in e)
        for size in range(1, n + 1):
            for S in itertools.combinations(range(1, n + 1), size):
                sos = Polynomial({square[i]: Fraction(1) for i in S})
                cert = vorticity.Certificate("sum-of-squares", sos, subset=S, multiplier=mult)
                out.setdefault(sos, cert)
    return list(out.values())


def candidate_certificates(n):
    return [cert for _, cert in table_candidates(n)]


class TestCertificateCandidates:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_packed_candidates_match_the_polynomial_reference(self, n):
        candidates = table_candidates(n)
        certificates = candidate_certificates(n)
        # order, kind, polynomial, subset and multiplier
        assert certificates == reference_candidates(n)
        packing = exactpoly._Packing(len(DEFAULT_VARS))
        for terms, cert in candidates:
            assert terms == exactpoly._int_terms(cert.polynomial, packing)

    @pytest.mark.parametrize("n, count", [(3, 63), (4, 209), (5, 621), (6, 1714)])
    def test_sums_of_squares_match_the_product_reference(self, n, count):
        candidates = candidate_certificates(n)
        assert len(candidates) == count
        squares = [c for c in candidates if c.kind == "sum-of-squares"]
        assert squares
        for cert in squares:
            assert cert.polynomial == vorticity._sum_of_squares(cert.subset, cert.multiplier)
            # The ledger's only equality is the candidate itself, so the
            # membership step holds and a rejection could only be the shape.
            assert verify_certificate(ConstraintLedger((cert.polynomial,), n=n), cert)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_candidates_are_distinct_and_cover_the_monomials_with_a_square(self, n):
        polys = [c.polynomial for c in candidate_certificates(n)]
        candidates = set(polys)
        assert len(candidates) == len(polys)
        # A monomial of degree 2..4 with a square in it divides M^2, M the
        # product of its variables, so M^2 in the ideal follows from it.
        for exps in itertools.product(range(3), repeat=n):
            if 2 <= sum(exps) <= 4 and max(exps) == 2:
                M = Polynomial.constant(1)
                for i, e in enumerate(exps, start=1):
                    if e:
                        M = M * gamma_var(i)
                assert M * M in candidates, exps


@functools.lru_cache(maxsize=None)
def decided(n):
    """Every (ledger, verdict) that one `enumerate_diagrams(n)` decides, and
    the number of exact zero-tests the decisions made."""
    calls = []
    zero_tests = 0

    def counted(p, basis):
        nonlocal zero_tests
        zero_tests += 1
        return reduces_to_zero(p, basis)

    def recorded(ledger, seed=LEDGER_SEED):
        verdict = decide(ledger, seed)
        calls.append((ledger, verdict))
        return verdict

    with mock.patch.object(vorticity, "reduces_to_zero", counted), mock.patch.object(
        atlas, "decide", recorded
    ):
        atlas.enumerate_diagrams(n)
    return tuple(calls), zero_tests


class TestDecisionStages:
    @pytest.mark.parametrize(
        "n, stages, kinds",
        [
            (3, (1, 1, 0, 0), (1, 0, 0, 0)),
            (4, (6, 7, 0, 1), (3, 1, 3, 0)),
            (5, (27, 21, 0, 2), (9, 2, 10, 0)),
            (6, (67, 58, 8, 10), (24, 5, 28, 1)),
        ],
    )
    def test_which_stage_decides_each_distinct_ledger(self, n, stages, kinds):
        # (quick search, certificate, late search, Unknown), and the
        # certificates by kind; a change to any count has to be deliberate
        stage = collections.Counter()
        kind = collections.Counter()
        for ledger, verdict in dict(decided(n)[0]).items():
            if verdict.infeasible:
                stage["certificate"] += 1
                kind[verdict.certificate.kind] += 1
            elif verdict.kind == "Feasible":
                quick = vorticity._search_witness(ledger, 40, LEDGER_SEED) == verdict.witness
                stage["quick" if quick else "late"] += 1
            else:
                stage[verdict.kind] += 1
        assert tuple(stage[s] for s in ("quick", "certificate", "late", "Unknown")) == stages
        names = ("direct-disequality", "vanishing-monomial", "sum-of-squares", "product")
        assert tuple(kind[k] for k in names) == kinds


class TestResidueScreen:
    @pytest.mark.parametrize("n, infeasible", [(3, 1), (4, 7), (5, 21), (6, 58)])
    def test_one_exact_zero_test_per_infeasible_verdict(self, n, infeasible):
        calls, zero_tests = decided(n)
        assert sum(verdict.infeasible for _, verdict in calls) == infeasible
        assert zero_tests == infeasible

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_member_has_residue_zero(self, n):
        # The exact zero-test is the oracle for every candidate and required
        # nonzero polynomial against every basis the enumeration builds; the
        # packed candidates' residue is their polynomial's.
        packed = [terms for terms, _ in table_candidates(n)]
        candidates = [c.polynomial for c in candidate_certificates(n)]
        bases: dict = {}  # equality set -> (basis, residue of each polynomial checked)
        members = false_zeros = 0
        for ledger, _ in decided(n)[0]:
            if not ledger.equalities:
                continue
            key = frozenset(ledger.equalities)
            first = key not in bases
            if first:
                bases[key] = (groebner_basis(ledger.equalities), {})
            basis, checked = bases[key]
            for p in (*ledger.nonzeros, *candidates):
                if p in checked:
                    continue
                member = reduces_to_zero(p, basis)
                residue = checked[p] = basis.residue(p)
                assert residue == 0 or not member, (ledger.to_json(), p)
                members += member
                false_zeros += residue == 0 and not member
            if first:
                for terms, p in zip(packed, candidates):
                    assert basis.packed_residue(terms) == checked[p], (ledger.to_json(), p)
        assert members > 0
        assert false_zeros == 0

    @pytest.mark.parametrize("n, direct", [(5, 9), (6, 24)])
    def test_contradictory_ledgers_skip_the_witness_search(self, n, direct):
        certified = [
            (ledger, verdict.certificate)
            for ledger, verdict in decided(n)[0]
            if verdict.infeasible and verdict.certificate.kind == "direct-disequality"
        ]
        assert len(certified) == direct
        with mock.patch.object(vorticity, "_search_witness", side_effect=AssertionError):
            for ledger, certificate in certified:
                # every direct disequality here is also one of the equalities
                assert not set(ledger.nonzeros).isdisjoint(ledger.equalities)
                assert decide(ledger).certificate == certificate
            pair = gamma_sum([2, 3])
            led = ConstraintLedger((pair, angular_momentum([1, 2, 3])), (pair,))
            verdict = decide(led)
        assert verdict.certificate == vorticity.Certificate("direct-disequality", pair)
        assert verify_certificate(led, verdict.certificate)


class TestLedgerBases:
    @pytest.mark.parametrize("n, count", [(3, 2), (4, 12), (5, 43)])
    def test_groebner_output_keeps_its_int_terms(self, n, count):
        # the `_packed` terms `groebner_basis` sets are what `_int_terms`
        # packs for the same generator, keys in the same order
        packing = exactpoly._Packing(len(DEFAULT_VARS))
        systems = dict.fromkeys(ledger.equalities for ledger, _ in decided(n)[0] if ledger.equalities)
        for equalities in systems:
            for g in groebner_basis(equalities):
                packed = g._packed
                g._packed = None
                assert list(packed.items()) == list(exactpoly._int_terms(g, packing).items()), g
        assert len(systems) == count
