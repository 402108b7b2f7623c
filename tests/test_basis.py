from math import gcd

import pytest

from aptgroup.basis import (
    BasisTable,
    Category,
    NotTwoTorsionError,
    solve_norm_equation,
    special_four_element,
    split_primes,
    two_torsion_triple,
)
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
        assert two_torsion_triple(mod, [(splitting_type(mod, 59), 1)]) == Triple(23, 13, 12, 59)

    def test_ramified_style_double_cover(self):
        mod = Modulus(35)
        assert two_torsion_triple(mod, [(splitting_type(mod, 3), 1)]) == Triple(35, 1, 1, 6)

    def test_split_two(self):
        mod = Modulus(7)
        assert two_torsion_triple(mod, [(splitting_type(mod, 2), 1)]) == Triple(7, 3, 1, 4)

    def test_pillar_power(self):
        mod = Modulus(974)
        assert two_torsion_triple(mod, [(splitting_type(mod, 5), 6)]) == Triple(974, 14651, 174, 15625)

    def test_conjugate_factor(self):
        # conjugating every factor yields the same positive-entry triple
        mod = Modulus(23)
        assert two_torsion_triple(mod, [(splitting_type(mod, 59), 1, True)]) == Triple(23, 13, 12, 59)

    def test_rejects_non_two_torsion(self):
        mod = Modulus(23)
        with pytest.raises(NotTwoTorsionError):
            two_torsion_triple(mod, [(splitting_type(mod, 3), 1)])  # class has order 3

    def test_rejects_odd_inert(self):
        mod = Modulus(23)
        with pytest.raises(ValueError):
            two_torsion_triple(mod, [(splitting_type(mod, 5), 1)])

    def test_rejects_ramified_two(self):
        mod = Modulus(974)
        with pytest.raises(ValueError):
            two_torsion_triple(mod, [(splitting_type(mod, 2), 1)])

    def test_empty_product_is_identity(self):
        mod = Modulus(23)
        assert two_torsion_triple(mod, []) == Triple(23, 1, 0, 1)


class TestSpecialElement:
    def test_m7(self):
        assert special_four_element(Modulus(7)) == Triple(7, 3, 1, 4)

    def test_m15(self):
        assert special_four_element(Modulus(15)) == Triple(15, 1, 1, 4)

    @pytest.mark.parametrize("m", [23, 31, 39, 47, 974, 35])
    def test_absent_otherwise(self, m):
        assert special_four_element(Modulus(m)) is None


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
        with pytest.raises(ValueError):
            bt.exponent_vector(937)
        with pytest.raises(ValueError):
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
        assert bt.beta(37).third_shape() == {5: 3, 37: 1}
        assert bt.beta(5).third_shape() == {5: 6}
        assert bt.beta(937).third_shape() == {937: 1}

    def test_third_shape_matches_category(self, tables, tables23):
        for bt in (*tables.values(), tables23[2], tables23[3]):
            mod = bt.mod
            pillar_order = {pl.p: pl.order for pl in bt.pillars}
            for el in bt.elements(60):
                shape = el.third_shape()
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


class TestEnumerateBasis:
    def test_m35_bound_17(self):
        got = [el.triple for el in BasisTable(Modulus(35)).elements(17)]
        assert [(t.a, t.b, t.c) for t in got] == [(1, 1, 6), (13, 3, 22), (19, 3, 26), (29, 3, 34)]

    def test_m23_pillar2_bound_29(self):
        got = [el.triple for el in BasisTable(Modulus(23), (2,)).elements(29)]
        assert [(t.a, t.b, t.c) for t in got] == [(7, 3, 16), (11, 1, 12), (29, 9, 52), (91, 15, 116)]

    def test_tiny_bound(self):
        assert BasisTable(Modulus(23)).elements(1) == []
        specials = BasisTable(Modulus(7)).elements(1)
        assert [el.triple for el in specials] == [Triple(7, 3, 1, 4)]

    def test_deterministic(self):
        a = [el.triple for el in BasisTable(Modulus(974)).elements(100)]
        b = [el.triple for el in BasisTable(Modulus(974)).elements(100)]
        assert a == b
