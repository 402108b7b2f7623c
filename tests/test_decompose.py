import importlib
import itertools
import random
import re
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st
from conftest import brute_triples, descent, double_and_add, ideal_valuation, termwise_recombine, valuation

from aptgroup import BasisTable, DecompositionError, Modulus, Triple, decompose, recombine
from aptgroup.basis import Category
from aptgroup.decompose import PrimeIdealRef, ideal_valuations
from aptgroup.triples import add, identity, scalar_mul
from aptgroup.primes import factorize, is_prime, is_squarefree
from aptgroup.quadfield import kronecker, splitting_type

# the package's `decompose` attribute is the function; the tests patch the module
decompose_module = importlib.import_module("aptgroup.decompose")

# every square-free m < 400 (7, 15 and 23 among them) and two larger worked moduli
ORACLE_M = [m for m in range(5, 400) if is_squarefree(m)] + [614, 974]


def seeded_triples(bt: BasisTable, rng: random.Random, count: int):
    """count recombinations of up to 3 split primes <= 60, with the special element when it exists."""
    primes = bt.split_primes(60)
    for _ in range(count):
        vec = {p: rng.randint(-3, 3) for p in rng.sample(primes, min(3, len(primes)))}
        special = rng.randint(-2, 2) if bt.special() is not None else 0
        yield recombine(bt, vec, special_coeff=special)


def opposite_side_vectors(bt: BasisTable, rng: random.Random, count: int, bound: int, smax: int):
    """count vectors whose first two terms lie on opposite sides of an odd pillar q, and the pillar q.

    Both basis triples have q in their third components; the signs are
    chosen by the cross term, so that the product of their powers is
    divisible by a power of q.  A third term, up to smax in size, rides along.
    """
    primes = bt.split_primes(bound)
    odd = [pl.p for pl in bt.pillars if pl.p != 2]
    for _ in range(count):
        q = rng.choice(odd)
        p1, p2 = rng.sample([p for p in primes if bt.beta(p).triple.c % q == 0], 2)
        x, y = bt.beta(p1).triple, bt.beta(p2).triple
        sign = rng.choice((-1, 1))
        s1 = sign * rng.randint(1, smax)
        if (x.a * y.b - y.a * x.b) % q == 0:  # the same side: the signs differ
            sign = -sign
        s2 = sign * rng.randint(1, smax)
        vec = {p1: s1, p2: s2}
        vec.setdefault(rng.choice(primes), rng.randint(-smax, smax))
        yield vec, q


def trial_sign(bt: BasisTable, cur: Triple, q: int) -> int:
    """The descent's sign found by trial: +1 when cur - beta(q) lowers v_q(c), -1 when cur + beta(q) does."""
    step = bt.beta(q).triple
    v0 = valuation(cur.c, q)
    if valuation(add(cur, -step).c, q) < v0:
        return 1
    assert valuation(add(cur, step).c, q) < v0, (cur, q)
    return -1


def oracle_ideal_valuations(mod: Modulus, t: Triple) -> dict[PrimeIdealRef, int]:
    """ideal_valuations by the general valuation at both ideals over each odd q."""
    out = {}
    for q, e in factorize(t.c).items():
        if q == 2:
            continue
        info = splitting_type(mod, q)
        plain = ideal_valuation(mod, t.a, -t.b, info)
        conj = ideal_valuation(mod, t.a, -t.b, info, conj=True)
        assert sorted((plain, conj)) == [0, 2 * e], (t, q)
        if plain:
            out[PrimeIdealRef(q, info.root, False)] = plain
        else:
            out[PrimeIdealRef(q, q - info.root, True)] = conj
    return out


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

    def test_matches_general_valuation(self):
        checked = 0
        for m in ORACLE_M:
            bt = BasisTable(Modulus(m))
            for t in seeded_triples(bt, random.Random(m), 5):
                for x in (t, -t):
                    assert ideal_valuations(bt.mod, x) == oracle_ideal_valuations(bt.mod, x), x
                    checked += 1
        assert checked >= 2000


class TestResidueSign:
    def test_residue_sign_matches_trial_add(self):
        steps = Counter()
        for m in ORACLE_M:
            bt = BasisTable(Modulus(m))
            for t in seeded_triples(bt, random.Random(m), 5):
                for cur, q, sign in descent(bt, t)[2]:
                    assert sign == trial_sign(bt, cur, q), (m, cur, q)
                    steps["two" if q == 2 else bt.beta(q).category.name] += 1
        # steps at a split 2 (the special element's, at m = 7 and 15, among them),
        # at pillars, at composite primes and at 2-torsion primes
        assert min(steps.values()) >= 100 and len(steps) == 4 and sum(steps.values()) >= 5000, steps

    @pytest.mark.parametrize("wrong", ["no-op", "flipped"])
    def test_wrong_step_raises_instead_of_looping(self, tables, monkeypatch, wrong):
        # decompose multiplies only to verify: a broken product must fail that check, not pass a wrong answer
        triples = (Triple(974, 4141, 66, 4625), recombine(tables[974], {5: 2, 41: -1, 37: 3, 11: -5}))
        real_mul = decompose_module.mul
        if wrong == "no-op":
            monkeypatch.setattr(decompose_module, "mul", lambda m, x, y: x)
        else:
            monkeypatch.setattr(decompose_module, "mul", lambda m, x, y: real_mul(m, x, (y[0], -y[1], y[2])))
        for t in triples:
            with pytest.raises(DecompositionError, match="recombination produced"):
                decompose(tables[974], t)


class TestRecombineOracle:
    @pytest.mark.parametrize(
        "m, vec, special",
        [
            # the pillars' powers cancel between the terms: 974 has pillars 5 and 41
            (974, {5: 2, 41: -1, 37: 3, 11: -5}, 0),
            (974, {5: -7, 41: 0, 3: 40, 37: -40, 11: 0}, 0),
            (974, {}, 0),
            (23, {2: -9, 3: 0, 13: 12}, 0),
            (7, {2: 0, 11: -3, 23: 5}, -17),
            (15, {17: 4, 19: -6}, 250),
            (15, {}, -1),
        ],
    )
    def test_matches_term_by_term(self, m, vec, special):
        bt = BasisTable(Modulus(m))
        t = recombine(bt, vec, special)
        assert t == termwise_recombine(bt, vec, special)
        assert decompose(bt, t).coefficients() == {p: s for p, s in vec.items() if s}

    def test_seeded_vectors_match_term_by_term(self):
        for m in (7, 15, 23, 35, 614, 974):
            bt = BasisTable(Modulus(m))
            primes = bt.split_primes(200)
            rng = random.Random(m)
            for _ in range(20):
                vec = {p: rng.randint(-60, 60) for p in rng.sample(primes, min(4, len(primes)))}
                special = rng.randint(-60, 60) if bt.special() is not None else 0
                assert recombine(bt, vec, special) == termwise_recombine(bt, vec, special), (m, vec)

    # every square-free m < 400 with an odd pillar: 154 moduli, pillars 3 to 13
    ODD_PILLAR_M = [m for m in ORACLE_M[:-2] if any(pl.p != 2 for pl in BasisTable(Modulus(m)).pillars)]

    @pytest.mark.parametrize(
        "ms, count, bound, smax",
        [
            ([974], 20, 200, 60),  # pillars 5 and 41
            (ODD_PILLAR_M, 2, 100, 9),
            ([10000019], 6, 60, 20),  # pillar 3, of order 1275
        ],
        ids=["974", "m<400", "10000019"],
    )
    def test_opposite_sides_of_an_odd_pillar_match_term_by_term(self, ms, count, bound, smax):
        # the product has content at q, which recombine divides out without a gcd
        checked = 0
        for m in ms:
            bt = BasisTable(Modulus(m))
            for vec, q in opposite_side_vectors(bt, random.Random(m), count, bound, smax):
                a, _, c = decompose_module._product(bt, vec)
                assert a % q == 0 and c % q == 0, (m, vec, q)
                t = recombine(bt, vec)
                assert t == termwise_recombine(bt, vec), (m, vec)
                d = decompose(bt, t)
                assert d.coefficients() == {p: s for p, s in vec.items() if s} and d.verified, (m, vec)
                checked += 1
        assert checked == count * len(ms)


class TestCheck:
    """decompose's check is one unreduced product compared by cross-multiplication."""

    VECTORS = [(974, {5: 2, 41: -1, 37: 3, 11: -5}, 0), (23, {2: -9, 13: 12}, 0), (15, {17: 4, 19: -6}, 5)]

    def test_no_gcd_and_no_normalize(self, monkeypatch):
        triples_module = importlib.import_module("aptgroup.triples")
        gcds, normalized = [], []
        real_gcd = triples_module.gcd
        real_normalize = triples_module.normalize

        def gcd_spy(x, y):
            gcds.append((x, y))
            return real_gcd(x, y)

        def normalize_spy(*args):
            normalized.append(args)
            return real_normalize(*args)

        monkeypatch.setattr(triples_module, "gcd", gcd_spy)
        monkeypatch.setattr(triples_module, "normalize", normalize_spy)
        monkeypatch.setattr(decompose_module, "normalize", normalize_spy)
        for m, vec, special in self.VECTORS:
            bt = BasisTable(Modulus(m))
            t = recombine(bt, vec, special)  # builds every beta the checks use
            gcds.clear()
            d = decompose(bt, t)
            assert d.verified and gcds == [], (m, gcds)
            gcds.clear()
            assert recombine(bt, vec, special) == t
            # only Triple(...) takes one, gcd(gcd(a, b), c)
            assert [args for args in gcds if max(map(abs, args)) > 4] == [(t.a, t.b), (1, t.c)], m
        assert normalized == []

    @pytest.mark.parametrize("wrong", ["coefficient", "sign", "conjugate"])
    def test_wrong_coefficients_raise(self, monkeypatch, wrong):
        def mutate(terms):
            p = max(terms)
            if wrong == "coefficient":
                return {**terms, p: terms[p] + 1}
            if wrong == "sign":
                return {**terms, p: -terms[p]}
            return {q: -s for q, s in terms.items()}

        product = decompose_module._product
        monkeypatch.setattr(decompose_module, "_product", lambda bt, terms: product(bt, mutate(terms)))
        for m, vec, special in self.VECTORS:
            bt = BasisTable(Modulus(m))
            t = termwise_recombine(bt, vec, special)
            # decompose checks the coefficient at 2 together with the rest, the special one included
            coeffs = {**vec, 2: vec.get(2, 0) + special} if special else vec
            text = f"recombination produced {termwise_recombine(bt, mutate(coeffs))}, expected {t}"
            with pytest.raises(DecompositionError, match=f"^{re.escape(text)}$"):
                decompose(bt, t)


class TestDescentOracle:
    def test_matches_descent(self):
        seen = Counter()
        for m in ORACLE_M:
            bt = BasisTable(Modulus(m))
            for t in seeded_triples(bt, random.Random(m), 5):
                d = decompose(bt, t)
                want, special, _ = descent(bt, t)
                assert (d.coefficients(), d.special_coeff) == (want, special), (m, t)
                seen["special"] += special != 0
                seen["split two"] += 2 in want
                for pl in bt.pillars:
                    # a pillar whose power the composite terms cancel out of t.c
                    seen["pillar"] += pl.p in want
                    seen["cancelled pillar"] += pl.p in want and t.c % pl.p != 0
        assert min(seen.values()) >= 5 and len(seen) == 4, seen

    def test_one_factorization(self, tables, monkeypatch):
        # composite and 2-torsion primes of m = 974 (the first 2-torsion ones are
        # 937 and 983) with coefficients up to 100: a descent of one unit per step
        # would factor sum(|s|) + 1 = 498 third components
        bt = tables[974]
        vec = {3: 100, 11: -97, 37: 64, 193: -3, 937: 1, 983: -100, 2999: 55}
        cats = [bt.category_of(p) for p in vec]
        assert cats.count(Category.TWO_TORSION) == 3 and cats.count(Category.COMPOSITE) == 4
        t = recombine(bt, vec)
        calls = []
        real_factorize = decompose_module.factorize

        def spy(n):
            calls.append(n)
            return real_factorize(n)

        monkeypatch.setattr(decompose_module, "factorize", spy)
        d = decompose(bt, t)
        assert d.coefficients() == vec and d.verified
        assert calls == [t.c]

    def test_exponent_at_split_two(self):
        # at a split 2, (a + b sqrt(-m)) / 2 carries the ideal power: the
        # exponent of s * beta(2) at 2 is |s| (v_2(c) - 1) of beta(2), not |s| v_2(c)
        checked = 0
        for m in ORACLE_M:
            if m % 8 != 7:
                continue
            bt = BasisTable(Modulus(m))
            step = bt.beta(2).triple
            e = valuation(step.c, 2) - 1
            for s in range(-12, 13):
                t = recombine(bt, {2: s})
                assert valuation(t.c, 2) == (abs(s) * e + 1 if s else 0), (m, s)
                d = decompose(bt, t)
                assert (d.coefficients(), d.special_coeff) == (({}, s) if bt.special() else ({2: s} if s else {}, 0))
                checked += 1
        assert checked >= 40 * 25


class TestFreeness:
    @pytest.mark.parametrize("m", [7, 15, 23, 35, 974])
    def test_sign_vectors_are_distinct_and_round_trip(self, m):
        # a collision among the 3^6 combinations would be a relation between basis triples
        bt = BasisTable(Modulus(m))
        primes = bt.split_primes(200)[:6]
        seen = {}
        for signs in itertools.product((-1, 0, 1), repeat=6):
            vec = {p: s for p, s in zip(primes, signs) if s}
            t = recombine(bt, vec)
            assert seen.setdefault(t, signs) == signs, (m, t, seen[t], signs)
            d = decompose(bt, t)
            special = vec.pop(2, 0) if bt.special() else 0
            assert (d.coefficients(), d.special_coeff) == (vec, special), (m, signs)
        assert len(seen) == 3**6


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
        assert recombine(bt, d.coefficients(), d.special_coeff) == Triple(7, 1, 3, 8)

    @pytest.mark.parametrize("m", [7, 15])
    def test_special_coefficient_adds_to_that_of_two(self, m):
        # [q, r, 4] is beta(2) at m = 7 and 15
        bt = BasisTable(Modulus(m))
        rng = random.Random(m)
        for _ in range(20):
            x, y = (rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(2))
            rest = {p: rng.randint(-9, 9) for p in rng.sample(bt.split_primes(200)[1:], 2)}
            assert recombine(bt, {2: x}, y) == recombine(bt, {2: x + y}), (m, x, y)
            assert recombine(bt, {**rest, 2: x}, y) == recombine(bt, {**rest, 2: x + y}), (m, rest, x, y)
            d = decompose(bt, recombine(bt, {**rest, 2: x}, y))
            assert (d.coefficients(), d.special_coeff) == ({p: s for p, s in rest.items() if s}, x + y)

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
        assert recombine(tables23[3], d3.coefficients()) == t

    @pytest.mark.parametrize(
        "m,t,want",
        [
            # c = 3 * 5 * 41: the pillars 5 and 41 divide c, yet both coefficients are 0
            (974, Triple(974, 359, 16, 615), [3]),
            # c = 2 * 3 * 5 * 166667; the pillar 3, of order 1275, gets coefficient 0
            (10000019, Triple(10000019, 5000009, 1, 5000010), [5, 166667]),
        ],
    )
    def test_pillar_beta_built_only_for_a_nonzero_coefficient(self, m, t, want):
        bt = BasisTable(Modulus(m))
        built = []
        compute = bt._compute_beta

        def spy(info):
            built.append(info.p)
            return compute(info)

        bt._compute_beta = spy
        d = decompose(bt, t)
        assert d.verified and sorted(built) == want == [p for p, _ in d.terms]

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

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(st.sampled_from([23, 35, 974]), st.integers(10**6, 10**12),
           st.lists(st.integers(10**6, 10**8), max_size=2),
           st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=3, max_size=3))
    def test_round_trip_large_split_primes(self, tables, m, large, smaller, coeffs):
        # one split prime up to 10^12 and at most two up to 10^8, so that rho
        # splits c in about 10^4 steps; sympy is the oracle of primality and factoring
        sympy = pytest.importorskip("sympy")
        bt = tables[m]
        vec = {}
        for n, coeff in zip([large, *smaller], coeffs):
            n |= 1
            while not (is_prime(n) and kronecker(bt.mod, n) == 1):
                assert not sympy.isprime(n) or kronecker(bt.mod, n) != 1, n
                n += 2
            assert sympy.isprime(n)
            vec[n] = coeff
        t = recombine(bt, vec)
        assert factorize(t.c) == sympy.factorint(t.c)
        d = decompose(bt, t)
        assert dict(d.terms) == vec and d.verified


class TestLargeClassNumber:
    """Round trips at m = 10^8 + 7: h = 7253, one pillar, 2, of order 7253."""

    M = 100000007

    @pytest.fixture(scope="class")
    def bt(self):
        return BasisTable(Modulus(self.M))

    def test_structure(self, bt):
        assert bt.table.h == 7253 and [(pl.p, pl.order) for pl in bt.pillars] == [(2, 7253)]
        assert [bt.category_of(p) for p in (3, 11, 13)] == [Category.COMPOSITE] * 3

    @pytest.mark.parametrize(
        # coefficients up to 20 on the composites; in the last two their pillar
        # exponents add up, and c (96,206 and 123,540 bits) is nearly all a
        # power of 2, which factorize takes out in one shift
        "vec",
        [
            {2: 1},
            {2: -1},
            {2: 1, 3: -20, 13: 20},
            {2: -1, 3: -5, 11: 4, 13: -3},
            {2: 1, 3: 20, 11: 20, 13: 20},
            {2: -1, 3: 20, 11: 20, 13: 10},
            {3: -10, 11: -20, 13: -20},
            {3: 20, 11: -20, 13: 7},
            {2: 1, 3: -13, 11: 20, 13: -20},
            {2: 10, 3: -30, 11: 30, 13: -30},
        ],
    )
    def test_round_trip(self, bt, vec):
        t = recombine(bt, vec)
        d = decompose(bt, t)
        assert d.coefficients() == vec and d.special_coeff == 0 and d.verified

    def test_split_two_matches_the_oracles(self, bt):
        # beta(2) is the pillar: its c is a power of 2 of 7253 bits
        t = bt.beta(2).triple
        for n in (-9, -2, -1, 0, 1, 2, 9):
            assert scalar_mul(n, t) == double_and_add(n, t), n
        for vec in ({2: 3, 3: -5}, {2: -2, 11: 4, 13: 0}):
            assert recombine(bt, vec) == termwise_recombine(bt, vec), vec

    def test_half_triple(self, bt):
        m = self.M
        t = Triple(m, (m - 1) // 2, 1, (m + 1) // 2)
        d = decompose(bt, t)
        assert d.terms == ((2, 1), (3, 4), (154321, -1)) and d.verified
        assert recombine(bt, d.coefficients()) == t


class TestBruteForceTriples:
    def test_every_small_triple_decomposes_on_its_primes(self):
        # the triples come from an exhaustive scan, not from recombine: every
        # primitive triple with b > 0 and c <= 400, over each square-free 5 <= m < 400
        count = 0
        for m in range(5, 400):
            if any(m % (q * q) == 0 for q in range(2, isqrt(m) + 1)):
                continue
            bt = BasisTable(Modulus(m))
            pillars_and_two = {2} | {pl.p for pl in bt.pillars}
            for t in brute_triples(m, 400):
                d = decompose(bt, t)
                assert d.verified, t
                assert all(t.c % p == 0 or p in pillars_and_two for p, _ in d.terms), (t, d.terms)
                count += 1
        assert count == 7139
