import itertools
from collections import Counter
from math import gcd, prod

import pytest
from conftest import class_route_beta, crt_two_torsion_triple, form_power, ideal_valuation, third_shape

from aptgroup.basis import (
    MAX_BOUND,
    BasisElement,
    BasisTable,
    BoundTooLargeError,
    Category,
    NotTwoTorsionError,
    solve_norm_equation,
    split_primes,
    two_torsion_triple,
)
from aptgroup import basis, classgroup, primes, quadfield
from aptgroup.classgroup import ClassGroupTable, compose_forms, prime_form, reduce_form
from aptgroup.fixtures import BETA23_PILLAR2, BETA23_PILLAR3
from aptgroup.decompose import decompose, recombine
from aptgroup.primes import is_prime, is_squarefree
from aptgroup.quadfield import Modulus, splitting_type
from aptgroup.triples import Triple

SPLIT35 = [3, 11, 13, 17, 29, 47, 71, 73, 79, 83, 97, 103, 109, 149, 151]
SPLIT23 = [2, 3, 13, 29, 31, 41, 47, 59, 71, 73, 101, 127, 131, 139, 151, 163, 167, 173, 179, 193, 197]
SPLIT974 = [3, 5, 11, 13, 31, 37, 41, 43, 59, 71, 73, 89, 97, 101, 103, 109, 127, 131, 137, 149, 163]


class TestPrimeSets:
    def test_L_35(self):
        assert split_primes(Modulus(35), 151) == SPLIT35

    def test_L_23(self):
        assert split_primes(Modulus(23), 41) == [2, 3, 13, 29, 31, 41]
        assert split_primes(Modulus(23), 197) == SPLIT23

    def test_L_974(self):
        assert split_primes(Modulus(974), 13) == [3, 5, 11, 13]
        assert split_primes(Modulus(974), 163) == SPLIT974

    def test_L0_23(self):
        assert BasisTable(Modulus(23)).two_torsion_primes(180) == [59, 101, 167, 173]

    def test_L0_974(self):
        assert BasisTable(Modulus(974)).two_torsion_primes(983) == [937, 983]

    def test_L0_equals_L_for_35(self):
        mod = Modulus(35)
        for bound in (10, 50, 151):
            assert BasisTable(mod).two_torsion_primes(bound) == split_primes(mod, bound)


class TestTwoTorsionPrimesAgainstClassRoute:
    """two_torsion_primes, the prime values of the ambiguous forms, against the class of each split prime."""

    @staticmethod
    def class_route(table, bound):
        return [p for p in split_primes(table.mod, bound) if table.class_of_prime(p) in table.twotorsion]

    def test_every_small_modulus(self):
        for m in range(5, 1000):
            if not is_squarefree(m):
                continue
            table = ClassGroupTable(Modulus(m))
            bt = BasisTable(table.mod, table=table)
            # the split primes of a smaller bound are a prefix of those up to 400
            want = self.class_route(table, 400)
            for bound in (2, 3, 50, 400):
                assert bt.two_torsion_primes(bound) == [p for p in want if p <= bound], (m, bound)

    @pytest.mark.parametrize("m", [7, 15])
    def test_split_two(self, m):
        table = ClassGroupTable(Modulus(m))
        got = BasisTable(table.mod, table=table).two_torsion_primes(400)
        assert got[0] == 2 and got == self.class_route(table, 400)

    @pytest.mark.parametrize("m", [2000002, 3000010, 10000019])
    def test_large_class_groups(self, m):
        table = ClassGroupTable(Modulus(m))
        assert BasisTable(table.mod, table=table).two_torsion_primes(1000) == self.class_route(table, 1000)

    def test_bounds(self):
        bt = BasisTable(Modulus(7))
        for bound in (-1, 0, 1):
            assert bt.two_torsion_primes(bound) == []
        with pytest.raises(BoundTooLargeError):
            bt.two_torsion_primes(MAX_BOUND + 1)


class TestNormEquation:
    def test_contains_worked_pair(self):
        assert (13, 12) in solve_norm_equation(Modulus(23), 59 * 59)

    def test_unit_norm(self):
        assert solve_norm_equation(Modulus(23), 1) == [(1, 0)]
        assert solve_norm_equation(Modulus(974), 1) == [(1, 0)]

    def test_36_over_35(self):
        assert solve_norm_equation(Modulus(35), 36) == [(1, 1)]

    def test_empty_allowed(self):
        assert solve_norm_equation(Modulus(23), 3) == []

    @pytest.mark.parametrize("m,n", [(23, 59 * 59), (35, 4 * 9), (974, 615 * 615)])
    def test_against_double_scan(self, m, n):
        from math import isqrt

        naive = [
            (u, v)
            for u in range(isqrt(n) + 1)
            for v in range(isqrt(n // m) + 1)
            if u * u + m * v * v == n and gcd(u, v) == 1
        ]
        assert solve_norm_equation(Modulus(m), n) == sorted(naive)


class TestLemmaOneTriple:
    def test_L0_prime(self):
        mod = Modulus(23)
        assert two_torsion_triple(mod, [(splitting_type(mod, 59), 1, False)]) == Triple(23, 13, 12, 59)

    def test_ramified_style_double_cover(self):
        mod = Modulus(35)
        assert two_torsion_triple(mod, [(splitting_type(mod, 3), 1, False)]) == Triple(35, 1, 1, 6)

    def test_split_two(self):
        mod = Modulus(7)
        assert two_torsion_triple(mod, [(splitting_type(mod, 2), 1, False)]) == Triple(7, 3, 1, 4)

    def test_pillar_power(self):
        mod = Modulus(974)
        assert two_torsion_triple(mod, [(splitting_type(mod, 5), 6, False)]) == Triple(974, 14651, 174, 15625)

    def test_conjugate_factor(self):
        # conjugating every factor yields the same positive-entry triple
        mod = Modulus(23)
        assert two_torsion_triple(mod, [(splitting_type(mod, 59), 1, True)]) == Triple(23, 13, 12, 59)

    def test_rejects_non_two_torsion(self):
        mod = Modulus(23)
        with pytest.raises(NotTwoTorsionError):
            two_torsion_triple(mod, [(splitting_type(mod, 3), 1, False)])  # class has order 3

    def test_rejects_odd_inert(self):
        mod = Modulus(23)
        with pytest.raises(ValueError):
            two_torsion_triple(mod, [(splitting_type(mod, 5), 1, False)])

    def test_rejects_ramified_two(self):
        mod = Modulus(974)
        with pytest.raises(ValueError):
            two_torsion_triple(mod, [(splitting_type(mod, 2), 1, False)])

    def test_rejects_repeated_prime(self):
        mod = Modulus(23)
        info = splitting_type(mod, 59)
        for conj in (False, True):
            with pytest.raises(ValueError):
                two_torsion_triple(mod, [(info, 1, False), (info, 1, conj)])

    @pytest.mark.parametrize("m,factors", [
        (35, [(2, 1, False)]),
        (35, [(5, 1, False)]),
        (23, [(59, 0, False)]),
        (23, [(59, 1, False), (59, 2, True)]),
    ], ids=["inert-two", "ramified-odd", "zero-exponent", "repeated-prime"])
    def test_rejects_all_but_distinct_split_primes_with_positive_exponents(self, m, factors):
        # a ValueError, not the NotTwoTorsionError of a product of the right shape
        mod = Modulus(m)
        with pytest.raises(ValueError) as info:
            two_torsion_triple(mod, [(splitting_type(mod, p), e, conj) for p, e, conj in factors])
        assert type(info.value) is ValueError

    def test_empty_product_is_identity(self):
        mod = Modulus(23)
        assert two_torsion_triple(mod, []) == Triple(23, 1, 0, 1)


class TestSpecialElement:
    def test_m7(self):
        bt = BasisTable(Modulus(7))
        assert bt.special() == bt.beta(2).triple == Triple(7, 3, 1, 4)

    def test_m15(self):
        bt = BasisTable(Modulus(15))
        assert bt.special() == bt.beta(2).triple == Triple(15, 1, 1, 4)

    @pytest.mark.parametrize("m", [23, 31, 39, 47, 974, 35])
    def test_absent_otherwise(self, m):
        bt = BasisTable(Modulus(m))
        assert bt.special() is None and 2 not in bt._beta

    def test_closed_form_matches_scan(self):
        found = {}
        for m in range(5, 3000):
            if is_squarefree(m):
                scan = [(u, v) for u, v in solve_norm_equation(Modulus(m), 16) if v > 0]
                if scan:
                    found[m] = scan
        assert sorted(found) == [7, 15]
        for m, [(u, v)] in found.items():
            bt = BasisTable(Modulus(m))
            assert bt.special() == bt.beta(2).triple == Triple(m, u, v, 4), m


class TestExponentVectors:
    def test_exps_974(self, tables):
        bt = tables[974]
        assert [(e.a, e.conj) for e in bt.exponent_vector(3)] == [(1, False), (1, False)]
        assert [(e.a, e.conj) for e in bt.exponent_vector(37)] == [(3, False), (0, False)]

    def test_bounds(self, tables):
        bt = tables[974]
        for p in bt.split_primes(163):
            if bt.category_of(p) is not Category.COMPOSITE:
                continue
            for e, pl in zip(bt.exponent_vector(p), bt.pillars):
                assert 0 <= e.a <= pl.order // 2

    def test_rejects_L0_and_pillars(self, tables):
        bt = tables[974]
        with pytest.raises(ValueError, match="the class of 937 is 2-torsion"):
            bt.exponent_vector(937)
        with pytest.raises(ValueError, match="5 is a pillar prime"):
            bt.exponent_vector(5)


BETA_FIXTURES_35 = {
    71: (1, 12, 71), 73: (17, 12, 73), 83: (43, 12, 83), 149: (131, 12, 149),
    3: (1, 1, 6), 11: (13, 3, 22), 13: (19, 3, 26), 17: (29, 3, 34),
    29: (23, 9, 58), 47: (31, 15, 94), 79: (157, 3, 158),
}
BETA_FIXTURES_974 = {
    5: (14651, 174, 15625), 41: (61129, 1020, 68921), 3: (359, 16, 615),
    37: (3167, 108, 4625), 937: (37, 30, 937), 983: (965, 6, 983),
}


class TestBeta:
    def test_values_35(self, tables):
        for p, want in BETA_FIXTURES_35.items():
            t = tables[35].beta(p).triple
            assert (t.a, t.b, t.c) == want, p

    def test_values_974(self, tables):
        for p, want in BETA_FIXTURES_974.items():
            t = tables[974].beta(p).triple
            assert (t.a, t.b, t.c) == want, p

    def test_values_23_both_configs(self, tables23):
        pillar2 = {59: (13, 12, 59), 101: (83, 12, 101), 167: (121, 24, 167),
                   173: (11, 36, 173), 2: (7, 3, 16), 3: (11, 1, 12),
                   13: (29, 9, 52), 29: (91, 15, 116)}
        pillar3 = {3: (19, 4, 27), 2: (11, 1, 12), 13: (7, 8, 39), 29: (41, 16, 87)}
        for p, want in pillar2.items():
            t = tables23[2].beta(p).triple
            assert (t.a, t.b, t.c) == want, p
        for p, want in pillar3.items():
            t = tables23[3].beta(p).triple
            assert (t.a, t.b, t.c) == want, p

    def test_categories(self, tables):
        bt = tables[974]
        assert bt.beta(937).category is Category.TWO_TORSION
        assert bt.beta(5).category is Category.PILLAR
        assert bt.beta(5).pillar_index == 1
        assert bt.beta(3).category is Category.COMPOSITE

    def test_rejects_prime_outside_L(self, tables):
        with pytest.raises(ValueError):
            tables[23].beta(5)

    def test_positive_entries_and_primitive(self, tables):
        for m, bt in tables.items():
            for el in bt.elements(60):
                t = el.triple
                assert t.a > 0 and t.b > 0
                assert gcd(t.a, t.b) == 1

    def test_injective_on_range(self, tables):
        for m, bt in tables.items():
            seen = [el.triple for el in bt.elements(200)]
            assert len(set(seen)) == len(seen)

    def test_third_shape(self, tables):
        bt = tables[974]
        assert third_shape(bt.beta(37)) == {5: 3, 37: 1}
        assert third_shape(bt.beta(5)) == {5: 6}
        assert third_shape(bt.beta(937)) == {937: 1}

    def test_third_shape_matches_category(self, tables, tables23):
        for bt in (*tables.values(), tables23[2], tables23[3]):
            mod = bt.mod
            pillar_order = {pl.p: pl.order for pl in bt.pillars}
            for el in bt.elements(60):
                shape = third_shape(el)
                two_part = shape.pop(2, 0)
                # expected odd part and the 2-power carried by p and pillars
                if el.category is Category.TWO_TORSION:
                    own = {el.p: 1}
                elif el.category is Category.PILLAR:
                    own = {el.p: pillar_order[el.p]}
                else:
                    own = {el.p: 1}
                    for e, pl in zip(el.exps, bt.pillars):
                        if e.a:
                            own[pl.p] = own.get(pl.p, 0) + e.a
                n2 = own.pop(2, 0)
                assert shape == own, el
                # the remaining factor 2^(1-delta) may be absorbed by reduction
                assert two_part in (n2, n2 + 1 - mod.delta), el


class TestUniqueRepresentationScale:
    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_exactly_one_scale(self, m):
        mod = Modulus(m)
        for p in BasisTable(mod).two_torsion_primes(400):
            plain = [s for s in solve_norm_equation(mod, p * p) if s[1] > 0]
            double = [s for s in solve_norm_equation(mod, 4 * p * p) if s[1] > 0]
            assert len(plain) + len(double) == 1, (m, p, plain, double)


class TestPrimesProvedOnce:
    """Sieved and factored primes are not proved prime again."""

    @pytest.fixture
    def proofs(self, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(quadfield, "is_prime", spy)
        monkeypatch.setattr(classgroup, "is_prime", spy)
        return calls

    def test_elements_prove_nothing(self, proofs):
        bt = BasisTable(Modulus(35))
        proofs.clear()
        els = bt.elements(10**4)
        assert proofs == []
        assert [el.p for el in els] == split_primes(Modulus(35), 10**4)
        assert bt.category_of(9973) is Category.TWO_TORSION and proofs == []

    def test_two_torsion_primes_prove_nothing(self, proofs):
        bt = BasisTable(Modulus(974))
        proofs.clear()
        assert bt.two_torsion_primes(983) == [937, 983]
        assert proofs == []

    def test_decompose_proves_only_in_factorize(self, proofs):
        bt = BasisTable(Modulus(35))
        t = recombine(bt, {1000033: 1, 1000037: 1})
        proofs.clear()
        assert decompose(bt, t).coefficients() == {1000033: 1, 1000037: 1}
        assert proofs == []

    def test_cold_decompose_proves_each_prime_once(self, proofs, monkeypatch):
        # on a fresh table the betas of the primes that factorize proved are not proved again
        t = recombine(BasisTable(Modulus(35)), {1000033: 1, 1000037: 1})
        bt = BasisTable(Modulus(35))
        proofs.clear()
        monkeypatch.setattr(primes, "is_prime", lambda n: proofs.append(n) or is_prime(n))
        assert decompose(bt, t).coefficients() == {1000033: 1, 1000037: 1}
        # factorize also tests the composite c once
        assert sorted(n for n in proofs if n > 1000 and is_prime(n)) == [1000033, 1000037], proofs

    def test_default_pillars_are_not_proved_again(self, proofs):
        # the default picks come from the sieve with their splitting data
        bt = BasisTable(Modulus(974))
        assert [pl.p for pl in bt.pillars] == [5, 41]
        assert proofs == []

    def test_override_pillars_are_proved_once(self, proofs):
        bt = BasisTable(Modulus(974), (5, 41))
        assert [pl.p for pl in bt.pillars] == [5, 41]
        assert proofs == [5, 41]

    def test_public_beta_proves_once(self, proofs):
        bt = BasisTable(Modulus(974))
        proofs.clear()
        assert bt.beta(1009).category is Category.COMPOSITE
        assert bt.category_of(1009) is Category.COMPOSITE
        assert bt.exponent_vector(1009) == bt.beta(1009).exps
        assert proofs == [1009]

    def test_public_beta_still_rejects(self, tables):
        bt = tables[35]
        with pytest.raises(ValueError, match="1000001 is not prime"):
            bt.beta(1000001)
        with pytest.raises(ValueError, match="1000003 does not split"):
            bt.beta(1000003)
        with pytest.raises(ValueError, match="1000001 is not prime"):
            bt.category_of(1000001)
        with pytest.raises(ValueError, match="5 does not split"):
            bt.exponent_vector(5)


class TestSievedPrimesClassifiedOnce:
    """elements classifies each sieved prime by one splitting record; two_torsion_primes by none."""

    @pytest.fixture
    def symbols(self, monkeypatch):
        calls = Counter()

        def counting(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        legendre = counting("_legendre", quadfield._legendre)
        monkeypatch.setattr(quadfield, "_legendre", legendre)
        monkeypatch.setattr(basis, "_legendre", legendre)
        monkeypatch.setattr(quadfield, "sqrt_mod", counting("sqrt_mod", quadfield.sqrt_mod))
        return calls

    # 168 primes up to 1000: 2 takes a Legendre symbol, each odd prime one
    # sqrt_mod, whose Euler criterion is that symbol
    def test_elements(self, symbols):
        bt = BasisTable(Modulus(974))
        split = split_primes(bt.mod, 1000)
        symbols.clear()
        assert [el.p for el in bt.elements(1000)] == split and len(split) == 90
        assert symbols == {"_legendre": 1, "sqrt_mod": 167}
        # a second call classifies only the 78 primes that have no beta
        symbols.clear()
        assert [el.p for el in bt.elements(1000)] == split
        assert symbols == {"_legendre": 1, "sqrt_mod": 77}

    def test_two_torsion_primes(self, symbols):
        bt = BasisTable(Modulus(974))
        symbols.clear()
        assert bt.two_torsion_primes(983) == [937, 983]
        # the primes are values of the ambiguous forms: no square root is taken
        assert symbols == {}


class TestEnumerateBasis:
    def test_m35_bound_17(self):
        got = [el.triple for el in BasisTable(Modulus(35)).elements(17)]
        assert [(t.a, t.b, t.c) for t in got] == [(1, 1, 6), (13, 3, 22), (19, 3, 26), (29, 3, 34)]

    def test_m23_pillar2_bound_29(self):
        got = [el.triple for el in BasisTable(Modulus(23), (2,)).elements(29)]
        assert [(t.a, t.b, t.c) for t in got] == [(7, 3, 16), (11, 1, 12), (29, 9, 52), (91, 15, 116)]

    def test_tiny_bound(self):
        assert BasisTable(Modulus(23)).elements(1) == []
        assert BasisTable(Modulus(7)).elements(1) == []

    def test_deterministic(self):
        a = [el.triple for el in BasisTable(Modulus(974)).elements(100)]
        b = [el.triple for el in BasisTable(Modulus(974)).elements(100)]
        assert a == b


# ---- reference oracles: the norm-equation scan and the Hensel filter


def scan_triples(mod, n):
    """Primitive triples with third component n, or 2n when delta = 0, by exhaustive scan.

    These are the triples of the generators of all ideals of norm n^2 with
    no rational factor, sorted by (a, c).
    """
    scales = [(n * n, n)] + ([(4 * n * n, 2 * n)] if mod.delta == 0 else [])
    out = [Triple(mod.m, u, v, c) for sq, c in scales for u, v in solve_norm_equation(mod, sq) if v > 0]
    return sorted(out, key=lambda t: (t.a, t.c))


def scan_two_torsion_triples(mod, factors):
    """The scanned triples whose generator has valuation 2e at each odd factor (or all conjugates)."""
    n = prod(info.p**e for info, e, _ in factors)
    odd = [(info, e, conj) for info, e, conj in factors if info.p != 2]

    def matches(u, v):
        return all(ideal_valuation(mod, u, v, info, conj) == 2 * e for info, e, conj in odd)

    return [t for t in scan_triples(mod, n) if matches(t.a, t.b) or matches(t.a, -t.b)]


def scan_beta(bt, p):
    """beta(p) by the scan: the unique survivor, or the smallest triple for a composite p."""
    cat = bt.category_of(p)
    if cat is Category.COMPOSITE:
        exps = bt.exponent_vector(p)
        n = p * prod(pl.p**e.a for e, pl in zip(exps, bt.pillars))
        return BasisElement(p, scan_triples(bt.mod, n)[0], cat, exps=exps)
    if cat is Category.PILLAR:
        pillar = next(pl for pl in bt.pillars if pl.p == p)
        (t,) = scan_two_torsion_triples(bt.mod, [(pillar.info, pillar.order, False)])
        return BasisElement(p, t, cat, pillar_index=pillar.index)
    (t,) = scan_two_torsion_triples(bt.mod, [(splitting_type(bt.mod, p), 1, False)])
    return BasisElement(p, t, cat)


SWEEP = [m for m in range(5, 400) if is_squarefree(m)]
# moduli below 3000 with two odd pillars whose composite scans stay short
TWO_PILLARS = [974, 1513, 1582, 1590, 1598, 1886, 1918, 2329, 2379, 2437, 2542]


class TestCategoryConsistency:
    def test_category_and_exponents_match_beta(self):
        # decompose ranks primes by the cached beta(p).category
        for m in SWEEP:
            bt = BasisTable(Modulus(m))
            for p in bt.split_primes(100):
                cat = bt.category_of(p)
                el = bt.beta(p)
                assert cat == el.category, (m, p)
                if cat is Category.COMPOSITE:
                    assert bt.exponent_vector(p) == el.exps, (m, p)


class TestAgainstScan:
    def test_beta_sweep(self):
        for m in SWEEP:
            bt = BasisTable(Modulus(m))
            for p in bt.split_primes(100):
                assert bt.beta(p) == scan_beta(bt, p), (m, p)

    def test_two_torsion_triple_per_pattern(self):
        # every conjugation pattern of a composite beta's factors: the
        # scan's generator when the product's class is 2-torsion, else
        # NotTwoTorsionError; the scan cannot tell the ideals above 2 apart.
        # The product is 2-torsion exactly when each pillar keeps its
        # canonical flag or its exponent is half the pillar order.
        shapes = set()
        for m in SWEEP + TWO_PILLARS:
            mod = Modulus(m)
            bt = BasisTable(mod)
            table = bt.table
            for p in bt.split_primes(100):
                if bt.category_of(p) is not Category.COMPOSITE:
                    continue
                moved = [(pl, e) for e, pl in zip(bt.exponent_vector(p), bt.pillars) if e.a]
                for flips in itertools.product((False, True), repeat=len(moved)):
                    factors = [(splitting_type(mod, p), 1, False)]
                    cls = table.class_of_prime(p)
                    for (pl, e), conj in zip(moved, flips):
                        factors.append((pl.info, e.a, conj))
                        cls = compose_forms(cls, form_power(table, pl.form.inverse() if conj else pl.form, e.a))
                    admissible = all(
                        conj == e.conj or 2 * e.a == pl.order for (pl, e), conj in zip(moved, flips)
                    )
                    assert (cls in table.twotorsion) == admissible, (m, p, flips)
                    if cls not in table.twotorsion:
                        with pytest.raises(NotTwoTorsionError):
                            two_torsion_triple(mod, factors)
                    elif any(f[0].p == 2 for f in factors):
                        assert two_torsion_triple(mod, factors) in scan_two_torsion_triples(mod, factors)
                    else:
                        assert [two_torsion_triple(mod, factors)] == scan_two_torsion_triples(mod, factors)
                    shapes.add(len(moved))
        assert shapes == {1, 2}


class TestClassRoute:
    """beta read off prime_form(p, 2) is beta through the class of p in Cl."""

    def test_default_pillars(self):
        for m in SWEEP:
            bt = BasisTable(Modulus(m))
            for p in bt.split_primes(200):
                assert bt.beta(p) == class_route_beta(bt, p), (m, p)

    @pytest.mark.parametrize("m,pillars", [(23, (3,)), (974, (5, 41))])
    def test_pillar_overrides(self, m, pillars):
        bt = BasisTable(Modulus(m), pillars)
        assert [pl.p for pl in bt.pillars] == list(pillars)
        for p in bt.split_primes(200):
            assert bt.beta(p) == class_route_beta(bt, p), (m, p)

    @pytest.mark.parametrize(
        "m,pillars,bound,tied",
        [
            # pillar 5 has order 6: the p with exponent 3 there admit both flags
            (974, None, 2000, True),
            (974, (5, 41), 2000, True),
            # three pillars of orders 8, 2 and 2, or 4, 2 and 2: up to eight admissible patterns
            (137678, None, 200, True),
            (142222, None, 200, True),
            # three odd pillars, of orders 63, 3 and 3: one pattern each
            (3321607, None, 200, False),
        ],
    )
    def test_ties_and_three_pillars(self, m, pillars, bound, tied):
        bt = BasisTable(Modulus(m), pillars)
        ties = 0
        for p in bt.split_primes(bound):
            el = bt.beta(p)
            assert el == class_route_beta(bt, p), (m, p)
            ties += any(2 * e.a == pl.order for e, pl in zip(el.exps, bt.pillars))
        assert (ties > 0) == tied

    @pytest.mark.parametrize("first", [(2,), (3,)])
    def test_pillar_forms_are_kept_per_table(self, first):
        # the default table of 23 has pillar 2; an override on the same
        # class group must not read the default's memoized pillar powers
        mod = Modulus(23)
        table = ClassGroupTable(mod)
        bts = {(2,): BasisTable(mod, table=table), (3,): BasisTable(mod, (3,), table=table)}
        want = {(2,): BETA23_PILLAR2, (3,): BETA23_PILLAR3}
        assert [pl.p for pl in bts[(2,)].pillars] == [2]
        for key in sorted(bts, key=lambda k: k != first):
            for p, t in want[key].items():
                got = bts[key].beta(p).triple
                assert (got.a, got.b, got.c) == t, (key, p)
        assert bts[(2,)]._pillar_forms.keys() == bts[(3,)]._pillar_forms.keys() == {(1, 1)}
        assert bts[(2,)]._pillar_forms != bts[(3,)]._pillar_forms


class TestCofactorMemo:
    """The pillar part of a composite beta is built once per class of Cl^2."""

    @staticmethod
    def image(bt, p):
        return reduce_form(*prime_form(bt.mod, splitting_type(bt.mod, p), 2))

    @pytest.mark.parametrize("m", [974, 137678])
    def test_one_entry_per_image(self, monkeypatch, m):
        bt = BasisTable(Modulus(m))
        composite = [p for p in bt.split_primes(400) if bt.category_of(p) is Category.COMPOSITE]
        images = {}
        for p in composite:
            images.setdefault(self.image(bt, p), []).append(p)
        assert set(bt._cofactors) == set(images)
        assert len(bt._cofactors) < bt.quotient.size
        # two primes of one image share the entry: the second composes and
        # runs Cornacchia once per admissible pattern, and lifts no pillar form
        p1, p2 = next(ps for ps in images.values() if len(ps) > 1)[:2]
        fresh = BasisTable(bt.mod, table=bt.table)
        fresh.beta(p1)
        entry = fresh._cofactors[self.image(bt, p1)]
        calls = Counter()

        def counting(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        for name in ("united", "_generator_triple", "prime_form"):
            monkeypatch.setattr(basis, name, counting(name, getattr(basis, name)))
        assert fresh.beta(p2) == bt.beta(p2)
        assert fresh._cofactors == {self.image(bt, p1): entry}
        forms = len(entry[2])
        assert calls == {"united": forms, "_generator_triple": forms, "prime_form": 1}

    def test_memo_is_bounded_by_the_quotient(self):
        bt = BasisTable(Modulus(974))
        bt.elements(5000)
        assert len(bt._cofactors) == bt.quotient.size - 1 == 17
        assert bt.table.identity not in bt._cofactors


def _outcome(route, mod, factors):
    """The triple, or the class of the ValueError raised."""
    try:
        return route(mod, factors)
    except ValueError as exc:
        return type(exc)


def test_two_torsion_triple_matches_crt_route():
    # every list of one split p <= 60 (exponent 1-3, either flag) and up to
    # two pillar factors (exponent 1-3, either flag), p a pillar included:
    # composing the prime forms gives the triple, or the error, that gluing
    # the lifted roots by CRT gives
    outcomes = set()
    for m in SWEEP + [974]:
        mod = Modulus(m)
        bt = BasisTable(mod)
        options = [[(pl.info, a, conj) for a in (1, 2, 3) for conj in (False, True)] for pl in bt.pillars]
        tails = [t for k in range(3) for opts in itertools.combinations(options, k) for t in itertools.product(*opts)]
        for p in bt.split_primes(60):
            info = splitting_type(mod, p)
            for e, conj, tail in itertools.product((1, 2, 3), (False, True), tails):
                factors = [(info, e, conj), *tail]
                got = _outcome(two_torsion_triple, mod, factors)
                assert got == _outcome(crt_two_torsion_triple, mod, factors), (m, factors)
                outcomes.add(got if isinstance(got, type) else Triple)
    assert outcomes == {Triple, NotTwoTorsionError, ValueError}


def _norm(bt, el):
    """Norm of the ideal whose square gives beta(p)."""
    if el.category is Category.PILLAR:
        return el.p ** bt.pillars[el.pillar_index - 1].order
    return el.p * prod(pl.p**e.a for e, pl in zip(el.exps, bt.pillars))


@pytest.mark.parametrize("m", [719, 761, 4001, 2966, 1559])
def test_beta_is_smallest_sympy_solution(m):
    # moduli whose pillar betas the scan could not reach
    cornacchia = pytest.importorskip("sympy.solvers.diophantine.diophantine").cornacchia
    mod = Modulus(m)
    bt = BasisTable(mod)
    for p in bt.split_primes(200):
        el = bt.beta(p)
        n = _norm(bt, el)
        scales = [(n, n * n)] + ([(2 * n, 4 * n * n)] if mod.delta == 0 else [])
        sols = sorted(
            (Triple(m, int(x), int(y), c) for c, sq in scales for x, y in cornacchia(1, m, sq)
             if x > 0 and y > 0 and gcd(x, y) == 1),
            key=lambda t: (t.a, t.c),
        )
        assert el.triple == sols[0], (m, p)
        if el.category is not Category.COMPOSITE:
            assert len(sols) == 1, (m, p, sols)
