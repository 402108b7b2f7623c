import random

import pytest

from aptgroup import BasisTable, Modulus, Triple, decompose, recombine
from aptgroup.decompose import GeneratorUnavailableError, PrimeIdealRef, ideal_valuations
from aptgroup.triples import identity
from aptgroup.primes import factorize


class TestIdealValuations:
    def test_identity_is_empty(self, tables):
        assert ideal_valuations(tables[23].mod, identity(23)) == {}

    def test_single_prime(self, tables):
        vals = ideal_valuations(tables[23].mod, Triple(23, 13, 12, 59))
        assert len(vals) == 1
        ((ref, e),) = vals.items()
        assert ref.p == 59 and e == 2

    def test_worked_square(self, tables):
        vals = ideal_valuations(tables[974].mod, Triple(974, 359, 16, 615))
        assert vals == {
            PrimeIdealRef(3, 1, False): 2,
            PrimeIdealRef(5, 1, False): 2,
            PrimeIdealRef(41, 16, False): 2,
        }

    def test_parity_and_conservation(self, tables):
        rng = random.Random(5)
        for m, bt in tables.items():
            primes = bt.split_primes(120)
            for _ in range(12):
                vec = {p: rng.randint(-2, 2) for p in rng.sample(primes, 3)}
                t = recombine(bt, vec)
                if t.is_identity():
                    continue
                vals = ideal_valuations(bt.mod, t)
                assert all(e % 2 == 0 for e in vals.values())
                prod = 1
                for ref, e in vals.items():
                    prod *= ref.p**e
                odd = t.c
                while odd % 2 == 0:
                    odd //= 2
                assert prod == odd * odd

    def test_root_identifies_side(self, tables):
        # conjugating the triple swaps every ideal to its conjugate
        bt = tables[974]
        t = Triple(974, 359, 16, 615)
        flipped = ideal_valuations(bt.mod, -t)
        assert flipped == {
            PrimeIdealRef(3, 2, True): 2,
            PrimeIdealRef(5, 4, True): 2,
            PrimeIdealRef(41, 25, True): 2,
        }


class TestDecompose:
    def test_basis_elements_are_atomic(self, tables):
        for m, bt in tables.items():
            for p in bt.split_primes(60):
                d = decompose(bt, bt.beta(p).triple)
                assert dict(d.terms) == {p: 1} and d.special_coeff == 0
                assert d.verified

    def test_worked_example(self, tables):
        d = decompose(tables[974], Triple(974, 4141, 66, 4625))
        assert dict(d.terms) == {37: 1, 5: -1}
        assert d.verified and d.special_coeff == 0

    def test_identity(self, tables):
        d = decompose(tables[23], identity(23))
        assert d.terms == () and d.special_coeff == 0 and d.verified

    def test_special_coefficient_m7(self):
        bt = BasisTable(Modulus(7))
        d = decompose(bt, Triple(7, 1, 3, 8))
        assert d.terms == () and d.special_coeff == 2
        assert recombine(bt, d) == Triple(7, 1, 3, 8)

    def test_special_coefficient_m15(self):
        bt = BasisTable(Modulus(15))
        t = 3 * Triple(15, 1, 1, 4)
        d = decompose(bt, t)
        assert d.terms == () and d.special_coeff == 3

    def test_power_of_two_third_component(self, tables23):
        # [7, 3, 16] decomposes differently under the two pillar choices
        t = Triple(23, 7, 3, 16)
        d2 = decompose(tables23[2], t)
        assert dict(d2.terms) == {2: 1}
        d3 = decompose(tables23[3], t)
        assert dict(d3.terms) == {2: -3, 3: -1}
        assert recombine(tables23[3], d3) == t

    def test_bound_enforced(self, tables):
        with pytest.raises(GeneratorUnavailableError):
            decompose(tables[23], Triple(23, 13, 12, 59), bound=31)

    def test_json_shape(self, tables):
        d = decompose(tables[974], Triple(974, 4141, 66, 4625))
        doc = d.to_json_dict()
        assert doc == {
            "m": 974,
            "input": [4141, 66, 4625],
            "terms": [{"p": 5, "coeff": -1}, {"p": 37, "coeff": 1}],
            "special": 0,
            "verified": True,
        }


class TestRecombine:
    def test_worked_example(self, tables):
        got = recombine(tables[974], {37: 1, 5: -1})
        assert got == Triple(974, 4141, 66, 4625)

    def test_empty(self, tables):
        assert recombine(tables[23], {}) == identity(23)

    def test_unknown_prime_fails(self, tables):
        with pytest.raises(ValueError):
            recombine(tables[23], {5: 1})  # 5 is inert for m = 23

    def test_special_requires_m7_or_m15(self, tables):
        with pytest.raises(ValueError):
            recombine(tables[23], {}, special_coeff=1)


class TestRoundTrips:
    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_small_roundtrips(self, tables, m):
        bt = tables[m]
        primes = bt.split_primes(150)
        rng = random.Random(m * 7)
        for _ in range(40):
            support = rng.sample(primes, rng.randint(1, 5))
            vec = {p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in support}
            t = recombine(bt, vec)
            d = decompose(bt, t)
            assert dict(d.terms) == {p: s for p, s in vec.items() if s}
            assert d.special_coeff == 0 and d.verified

    def test_roundtrip_with_special(self):
        bt = BasisTable(Modulus(7))
        rng = random.Random(3)
        primes = bt.split_primes(60)
        for _ in range(25):
            vec = {p: rng.randint(-2, 2) for p in rng.sample(primes, 2)}
            sp = rng.randint(-3, 3)
            t = recombine(bt, vec, special_coeff=sp)
            d = decompose(bt, t)
            want = {p: s for p, s in vec.items() if s}
            # 2 and the special element coincide for m = 7
            sp_want = sp + want.pop(2, 0)
            assert dict(d.terms) == want and d.special_coeff == sp_want

    def test_roundtrip_primes_above_trial_division(self, tables):
        # the third component is 1000033 * 1000037: no factor below 10^6
        bt = tables[35]
        t = recombine(bt, {1000033: 1, 1000037: 1})
        assert t == Triple(35, 906413495341, -71425202196, 1000070001221)
        d = decompose(bt, t)
        assert dict(d.terms) == {1000033: 1, 1000037: 1} and d.verified
