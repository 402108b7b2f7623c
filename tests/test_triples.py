import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from aptgroup import Modulus, NotASolutionError, Triple
from aptgroup.basis import BasisTable
from aptgroup.quadfield import kronecker
from aptgroup.triples import ModulusMismatchError, add, identity, normalize, parse_triple, scalar_mul
from aptgroup.primes import factorize
from conftest import brute_triples, double_and_add


class TestNormalize:
    def test_identity(self):
        assert normalize(23, 2, 0, 2) == Triple(23, 1, 0, 1)

    def test_joint_sign_flip(self):
        assert normalize(7, -3, 1, 4) == Triple(7, 3, -1, 4)

    def test_content_and_signs(self):
        assert normalize(35, -34, 2, 36) == Triple(35, 17, -1, 18)
        assert normalize(35, 34, -2, -36) == Triple(35, 17, -1, 18)

    def test_idempotent(self):
        t = normalize(35, -34, 2, 36)
        assert normalize(35, t.a, t.b, t.c) == t

    def test_rejects_non_solution(self):
        with pytest.raises(NotASolutionError):
            normalize(23, 1, 1, 5)

    def test_rejects_zero_c(self):
        with pytest.raises(NotASolutionError):
            normalize(23, 0, 0, 0)

    def test_parse_triple(self):

        assert parse_triple(23, "13,12,59") == Triple(23, 13, 12, 59)
        assert parse_triple(23, "[13, 12, 59]") == Triple(23, 13, 12, 59)
        assert parse_triple(7, "-3,1,4") == Triple(7, 3, -1, 4)
        with pytest.raises(ValueError):
            parse_triple(23, "13,12")

    def test_triple_validates(self):
        with pytest.raises(NotASolutionError):
            Triple(23, -13, 12, 59)  # canonical representative needs a > 0
        with pytest.raises(NotASolutionError):
            Triple(23, 26, 24, 118)  # not primitive


class TestGroupLaw:
    def test_worked_identity(self):
        got = add(Triple(974, 4141, 66, 4625), Triple(974, 14651, 174, 15625))
        assert got == Triple(974, 3167, 108, 4625)

    def test_identity_element(self, tables):
        for m, bt in tables.items():
            t = bt.beta(bt.split_primes(50)[0]).triple
            assert add(t, identity(m)) == t

    def test_inverse(self):
        t = Triple(23, 13, 12, 59)
        assert add(t, -t) == identity(23)
        assert -(-t) == t
        assert -Triple(23, 13, 12, 59) == Triple(23, 13, -12, 59)
        assert -identity(23) == identity(23)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            add(identity(23), identity(35))

    def test_operator_sugar(self):
        t = Triple(23, 13, 12, 59)
        assert t - t == identity(23)
        assert 2 * t == add(t, t)


class TestScalarMul:
    def test_doubling(self):
        assert scalar_mul(2, Triple(35, 1, 1, 6)) == Triple(35, 17, -1, 18)
        assert scalar_mul(2, Triple(7, 3, 1, 4)) == Triple(7, 1, 3, 8)

    def test_zero(self):
        assert scalar_mul(0, Triple(23, 13, 12, 59)) == identity(23)

    def test_negative_matches_inverse(self):
        t = Triple(23, 13, 12, 59)
        assert scalar_mul(-3, t) == -scalar_mul(3, t)

    def test_agrees_with_repeated_addition(self):
        t = Triple(974, 359, 16, 615)
        acc = identity(974)
        for n in range(1, 7):
            acc = add(acc, t)
            assert scalar_mul(n, t) == acc

    @pytest.mark.parametrize("m", [7, 15])
    def test_special_element_matches_double_and_add(self, m):
        # c = 4: every power carries a power of 2 in its content
        sp = BasisTable(Modulus(m)).special()
        for n in [*range(-100, 101), 1023, 1024, 4097, -12345, 19999, -20000, 20000]:
            assert scalar_mul(n, sp) == double_and_add(n, sp), n

    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_matches_double_and_add(self, m):
        rng = random.Random(m + 3)
        for t in rng.sample(brute_triples(m, POOL_CMAX[m]), 20):
            for n in range(-40, 41):
                assert scalar_mul(n, t) == double_and_add(n, t), (t, n)


POOL_CMAX = {23: 250, 35: 250, 974: 1300}
# primitive triples over moduli with a split 2 (7, 15, 23), 2 inert (35) and 2 ramified (974)
HYPOTHESIS_POOL = [t for m in (7, 15, 23, 35, 974) for t in brute_triples(m, 300)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(HYPOTHESIS_POOL), st.integers(-500, 500), st.integers(-500, 500))
def test_scalar_mul_is_additive(t, a, b):
    assert add(scalar_mul(a, t), scalar_mul(b, t)) == scalar_mul(a + b, t)


class TestGroupProperties:
    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_closure_assoc_comm(self, m):
        pool = brute_triples(m, POOL_CMAX[m])
        assert pool, "oracle pool must not be empty"
        rng = random.Random(m)
        for _ in range(40):
            t1, t2, t3 = (rng.choice(pool) for _ in range(3))
            s = add(t1, t2)
            assert s.a * s.a + m * s.b * s.b == s.c * s.c
            assert s == add(t2, t1)
            assert add(s, t3) == add(t1, add(t2, t3))

    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_torsion_free_spot_check(self, m):
        pool = brute_triples(m, POOL_CMAX[m])
        rng = random.Random(m + 1)
        for _ in range(25):
            t = rng.choice(pool)
            for n in range(1, 7):
                assert not scalar_mul(n, t).is_identity()

    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_prime_power_divisibility_of_multiples(self, m):
        # third component of n*[u, v, p^b w] keeps at least p^(nb)
        pool = brute_triples(m, POOL_CMAX[m])
        rng = random.Random(m + 2)
        checked = 0
        for t in rng.sample(pool, min(len(pool), 60)):
            for p, b in factorize(t.c).items():
                if p == 2:
                    continue
                for n in (2, 3, 4, 5):
                    tn = scalar_mul(n, t)
                    v = 0
                    c = tn.c
                    while c % p == 0:
                        c //= p
                        v += 1
                    assert v >= n * b, (t, p, n, tn)
                checked += 1
        assert checked > 10

    @pytest.mark.parametrize("m", [23, 35, 974, 29, 101])
    def test_third_component_prime_conditions(self, m):
        # odd primes dividing c split; even c needs -m = 1 mod 4;
        # -m = 5 mod 8 additionally forbids 4 | c
        mod = Modulus(m)
        for t in brute_triples(m, 200):
            for q in factorize(t.c):
                if q != 2:
                    assert kronecker(mod, q) == 1
            if t.c % 2 == 0:
                assert (-m) % 4 == 1
            if (-m) % 8 == 5:
                assert t.c % 4 != 0
