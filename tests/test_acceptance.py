"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact; there are no tolerances anywhere.  Run with
pytest -s to see the per-criterion lines as they complete.
"""

import random
from contextlib import contextmanager
from math import gcd

from conftest import valuation

from aptgroup import Modulus, Triple, decompose, recombine
from aptgroup.basis import solve_norm_equation
from aptgroup.classgroup import ClassGroupTable
from aptgroup.triples import add, identity, scalar_mul
from aptgroup.primes import is_squarefree


@contextmanager
def criterion(num, description):
    failed = True
    try:
        yield
        failed = False
    finally:
        print(f"criterion {num} ({description}): {'FAIL' if failed else 'PASS'}")


def test_criterion_1_class_group_structures(tables):
    with criterion(1, "class group structures for m = 35, 23, 974"):
        assert list(tables[35].table.structure) == [2]
        assert list(tables[23].table.structure) == [3]
        assert list(tables[974].table.structure) == [12, 3]
        assert list(tables[974].quotient.invariant_factors) == [6, 3]


def test_criterion_2_prime_sequences(tables):
    with criterion(2, "split-prime and 2-torsion-prime sequences"):
        assert tables[35].split_primes(151) == [3, 11, 13, 17, 29, 47, 71, 73, 79, 83,
                                     97, 103, 109, 149, 151]
        assert tables[35].two_torsion_primes(151) == tables[35].split_primes(151)
        assert tables[23].split_primes(197) == [2, 3, 13, 29, 31, 41, 47, 59, 71, 73, 101, 127,
                                     131, 139, 151, 163, 167, 173, 179, 193, 197]
        assert tables[23].two_torsion_primes(180) == [59, 101, 167, 173]
        assert tables[974].split_primes(163) == [3, 5, 11, 13, 31, 37, 41, 43, 59, 71, 73, 89,
                                      97, 101, 103, 109, 127, 131, 137, 149, 163]
        assert tables[974].two_torsion_primes(983) == [937, 983]


GEN_35 = {
    71: (1, 12, 71), 73: (17, 12, 73), 83: (43, 12, 83), 149: (131, 12, 149),
    3: (1, 1, 6), 11: (13, 3, 22), 13: (19, 3, 26), 17: (29, 3, 34),
    29: (23, 9, 58), 47: (31, 15, 94), 79: (157, 3, 158),
}
GEN_23_TT = {59: (13, 12, 59), 101: (83, 12, 101), 167: (121, 24, 167), 173: (11, 36, 173)}
GEN_23_P2 = {2: (7, 3, 16), 3: (11, 1, 12), 13: (29, 9, 52), 29: (91, 15, 116)}
GEN_23_P3 = {3: (19, 4, 27), 2: (11, 1, 12), 13: (7, 8, 39), 29: (41, 16, 87)}
GEN_974 = {
    5: (14651, 174, 15625), 41: (61129, 1020, 68921), 3: (359, 16, 615),
    37: (3167, 108, 4625), 937: (37, 30, 937), 983: (965, 6, 983),
}


def test_criterion_3_generator_fixtures(tables, tables23):
    with criterion(3, "exact generator triples for all worked moduli"):
        for p, want in GEN_35.items():
            t = tables[35].beta(p).triple
            assert (t.a, t.b, t.c) == want, (35, p)
        for p, want in GEN_23_TT.items():
            t = tables[23].beta(p).triple
            assert (t.a, t.b, t.c) == want, (23, p)
        for p, want in GEN_23_P2.items():
            t = tables23[2].beta(p).triple
            assert (t.a, t.b, t.c) == want, (23, 2, p)
        for p, want in GEN_23_P3.items():
            t = tables23[3].beta(p).triple
            assert (t.a, t.b, t.c) == want, (23, 3, p)
        for p, want in GEN_974.items():
            t = tables[974].beta(p).triple
            assert (t.a, t.b, t.c) == want, (974, p)


def test_criterion_4_group_identity():
    with criterion(4, "worked addition identity for m = 974"):
        lhs = add(Triple(974, 4141, 66, 4625), Triple(974, 14651, 174, 15625))
        assert lhs == Triple(974, 3167, 108, 4625)


def test_criterion_5_two_never_torsion_sweep():
    with criterion(5, "class above 2 has order > 2 for 16 < m <= 500, -m = 1 mod 8"):
        checked = 0
        for m in range(17, 501):
            if m % 8 != 7 or not is_squarefree(m):
                continue
            table = ClassGroupTable(Modulus(m))
            assert table.order_of(table.class_of_prime(2)) > 2, m
            checked += 1
        assert checked >= 50


def test_criterion_6_unique_representation_scale(tables):
    with criterion(6, "exactly one of p^2, (2p)^2 has a coprime representation"):
        for m, bt in tables.items():
            mod = bt.mod
            for p in bt.two_torsion_primes(1000):
                plain = [s for s in solve_norm_equation(mod, p * p) if s[1] > 0]
                double = [s for s in solve_norm_equation(mod, 4 * p * p) if s[1] > 0]
                assert len(plain) + len(double) == 1, (m, p)


def test_criterion_7_prime_power_divisibility(tables):
    with criterion(7, "p^(nb) divides the third component of n-fold multiples"):
        rng = random.Random(2024)
        cases = []
        for m, bt in tables.items():
            gens = [bt.beta(p) for p in bt.split_primes(150)]
            pool = [
                el for el in gens
                if el.p != 2 and el.category.value in ("two-torsion", "pillar")
            ]
            cases.extend((bt, el) for el in pool)
        done = 0
        while done < 100:
            bt, el = rng.choice(cases)
            t = el.triple
            p = el.p
            b = valuation(t.c, p)
            n = rng.randint(1, 5)
            tn = scalar_mul(n, t)
            assert valuation(tn.c, p) >= n * b, (bt.mod.m, p, n)
            done += 1
        assert done == 100


def test_criterion_8_freeness_round_trip(tables):
    with criterion(8, "decompose(recombine(s)) = s for 200 random vectors per m"):
        for m, bt in tables.items():
            primes = bt.split_primes(200)
            rng = random.Random(m * 31 + 7)
            for _ in range(200):
                support = rng.sample(primes, rng.randint(1, 5))
                vec = {p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in support}
                t = recombine(bt, vec)
                d = decompose(bt, t)
                assert dict(d.terms) == vec, (m, vec, d.terms)
                assert d.special_coeff == 0 and d.verified


def test_criterion_9_group_axioms(tables):
    with criterion(9, "500 random triples per m satisfy the group axioms"):
        for m, bt in tables.items():
            primes = bt.split_primes(100)
            rng = random.Random(m)
            pool = []
            for _ in range(500):
                support = rng.sample(primes, rng.randint(1, 2))
                vec = {p: rng.choice([-2, -1, 1, 2]) for p in support}
                pool.append(recombine(bt, vec))
            e = identity(m)
            for t1, t2, t3 in zip(pool, pool[1:], pool[2:]):
                s = add(t1, t2)
                assert s.a * s.a + m * s.b * s.b == s.c * s.c
                assert gcd(gcd(s.a, s.b), s.c) == 1
                assert s == add(t2, t1)
                assert add(s, t3) == add(t1, add(t2, t3))
            for t in pool[:120]:
                assert add(t, e) == t
                assert add(t, -t) == e
                if not t.is_identity():
                    for n in range(1, 7):
                        assert not scalar_mul(n, t).is_identity()
