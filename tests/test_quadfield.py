import random

import pytest
from conftest import ideal_valuation

from aptgroup.primes import is_squarefree, primes_up_to
from aptgroup.quadfield import (
    MAX_MODULUS,
    InvalidModulusError,
    Modulus,
    SplitKind,
    kronecker,
    lift_root,
    splitting_type,
    sqrt_mod,
)


class TestModulus:
    @pytest.mark.parametrize("m,delta,disc", [(23, 0, -23), (35, 0, -35), (974, 1, -3896), (7, 0, -7), (5, 1, -20), (6, 1, -24)])
    def test_constants(self, m, delta, disc):
        mod = Modulus(m)
        assert (mod.delta, mod.disc) == (delta, disc)

    @pytest.mark.parametrize("m", [12, 18, 50, 975 * 975])
    def test_rejects_non_squarefree(self, m):
        with pytest.raises(InvalidModulusError):
            Modulus(m)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, -7])
    def test_rejects_small(self, m):
        with pytest.raises(InvalidModulusError):
            Modulus(m)

    @pytest.mark.parametrize("m", [MAX_MODULUS + 1, 10**10 + 19, 10**47 + 3])
    def test_rejects_large(self, m):
        with pytest.raises(InvalidModulusError, match=r"10\^10"):
            Modulus(m)

    def test_accepts_up_to_the_limit(self):
        assert MAX_MODULUS == 10**10
        assert Modulus(9999999967).disc == -9999999967

    def test_disc_residue(self):
        for m in range(5, 200):
            try:
                mod = Modulus(m)
            except InvalidModulusError:
                continue
            assert mod.disc % 4 in (0, 1)


class TestKronecker:
    @pytest.mark.parametrize(
        "m,p,want",
        [(35, 71, 1), (35, 5, 0), (23, 2, 1), (23, 5, -1), (974, 2, 0), (23, 23, 0)],
    )
    def test_values(self, m, p, want):
        assert kronecker(Modulus(m), p) == want

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            kronecker(Modulus(23), 15)

    def test_euler_criterion(self):
        mod = Modulus(29)
        for p in primes_up_to(200):
            if p == 2 or 29 % p == 0:
                continue
            euler = pow(-29 % p, (p - 1) // 2, p)
            assert kronecker(mod, p) == (1 if euler == 1 else -1)


class TestSplitting:
    @pytest.mark.parametrize(
        "m,p,kind,root",
        [
            (974, 41, SplitKind.SPLIT, 16),
            (974, 5, SplitKind.SPLIT, 1),
            (35, 5, SplitKind.RAMIFIED, 0),
            (23, 5, SplitKind.INERT, None),
            (23, 2, SplitKind.SPLIT, 1),
            (974, 2, SplitKind.RAMIFIED, 0),
            (29, 2, SplitKind.RAMIFIED, 1),
        ],
    )
    def test_examples(self, m, p, kind, root):
        info = splitting_type(Modulus(m), p)
        assert (info.kind, info.root) == (kind, root)

    def test_trichotomy_matches_kronecker(self):
        mod = Modulus(974)
        for p in primes_up_to(100):
            info = splitting_type(mod, p)
            k = kronecker(mod, p)
            want = {1: SplitKind.SPLIT, 0: SplitKind.RAMIFIED, -1: SplitKind.INERT}[k]
            assert info.kind is want

    def test_root_canonical_half(self):
        mod = Modulus(23)
        for p in primes_up_to(500):
            if p != 2 and kronecker(mod, p) == 1:
                r = splitting_type(mod, p).root
                assert 0 < r <= (p - 1) // 2
                assert (r * r + 23) % p == 0


class TestSqrtMod:
    @pytest.mark.parametrize("a,p,want", [(-974 % 41, 41, 16), (0, 7, 0), (-23 % 3, 3, 1)])
    def test_examples(self, a, p, want):
        assert sqrt_mod(a, p) == want

    def test_non_residue(self):
        assert sqrt_mod(2, 5) is None

    @pytest.mark.parametrize("p", [3, 5, 13, 17, 97, 101, 193, 257])
    def test_against_brute_force(self, p):
        for a in range(p):
            roots = [r for r in range(p) if r * r % p == a]
            got = sqrt_mod(a, p)
            if not roots:
                assert got is None
            else:
                assert got in roots
                assert got == 0 or got <= (p - 1) // 2


def digit_lift(m, p, root, k):
    """Hensel lifting one p-adic digit per step: the root of x^2 = -m (mod p^k) above root."""
    pk, r = p, root % p
    for _ in range(k - 1):
        f = (r * r + m) % (pk * p)
        if f:
            r = (r - (f // pk * pow(2 * r % p, -1, p)) % p * pk) % (pk * p)
        pk *= p
    return r


def digit_lift_2(m, k):
    """The root = 1 (mod 4) of x^2 = -m (mod 2^(k+1)), one binary digit per step."""
    b = 1
    for j in range(3, k + 1):
        if (b * b + m) % 2 ** (j + 1):
            b += 2 ** (j - 1)
    return b


def random_moduli(rng, count, residue=None):
    """Square-free m in [5, 10^9], all = residue (mod 8) when residue is given."""
    out = []
    while len(out) < count:
        m = rng.randrange(5, 10**9)
        if (residue is None or m % 8 == residue) and is_squarefree(m):
            out.append(m)
    return out


class TestNewtonLift:
    def test_odd_primes_match_digit_lift(self):
        rng = random.Random(20140111)
        primes = primes_up_to(3000)[1:]
        cases = 0
        for m in random_moduli(rng, 60):
            mod = Modulus(m)
            split = [p for p in primes if kronecker(mod, p) == 1]
            for p in rng.sample(split, 8):
                root = splitting_type(mod, p).root
                for k in (1, 2, rng.randrange(3, 12), rng.randrange(12, 80)):
                    for r0 in (root, p - root):
                        assert lift_root(mod, p, r0, k) == digit_lift(m, p, r0, k), (m, p, r0, k)
                        cases += 1
        assert cases == 60 * 8 * 4 * 2

    def test_two_matches_digit_lift(self):
        # 2 splits exactly when -m = 1 (mod 8)
        rng = random.Random(20140112)
        for m in random_moduli(rng, 40, residue=7):
            mod = Modulus(m)
            assert kronecker(mod, 2) == 1
            for k in [*range(1, 20), *rng.sample(range(20, 400), 10)]:
                b = lift_root(mod, 2, 1, k)
                assert b == digit_lift_2(m, k) % 2**k, (m, k)
                assert (b * b + m) % 2 ** (k + 1) == 0

    def test_large_power(self):
        # a pillar 2 of order h needs the root modulo 2^(2h + 1); the
        # precisions straddle the Newton steps (2^j + 2 at p = 2, 2^j at odd
        # p), where the last step skips the inverse's update, and a digit lift
        # to the top precision reduces to the lift at every lower one
        want = digit_lift_2(100000007, 4098)
        for k in (2049, 2050, 2051, 3001, 4097, 4098):
            assert lift_root(Modulus(100000007), 2, 1, k) == want % 2**k, k
        r = lift_root(Modulus(974), 5, 1, 500)
        assert r == digit_lift(974, 5, 1, 500) and (r * r + 974) % 5**500 == 0
        mod = Modulus(974)
        root = splitting_type(mod, 3).root
        for r0 in (root, 3 - root):
            want = digit_lift(974, 3, r0, 2049)
            for k in (1023, 1024, 1025, 2048, 2049):
                assert lift_root(mod, 3, r0, k) == want % 3**k, (k, r0)


class TestValuations:
    def test_lift_root(self):
        mod = Modulus(974)
        r = lift_root(mod, 5, 1, 6)
        assert (r * r + 974) % 5**6 == 0 and r % 5 == 1

    def test_valuation_of_known_square(self):
        # <615, 16 + sqrt(-974)>^2 = <359 - 16 sqrt(-974)>
        mod = Modulus(974)
        for p in (3, 5, 41):
            info = splitting_type(mod, p)
            assert ideal_valuation(mod, 359, -16, info, conj=False) == 2
            assert ideal_valuation(mod, 359, 16, info, conj=True) == 2
            assert ideal_valuation(mod, 359, 16, info, conj=False) == 0

    def test_valuation_splits_norm(self):
        mod = Modulus(23)
        info = splitting_type(mod, 59)
        # 13^2 + 23*12^2 = 59^2: full valuation on one side
        v_plain = ideal_valuation(mod, 13, 12, info)
        v_conj = ideal_valuation(mod, 13, 12, info, conj=True)
        assert sorted((v_plain, v_conj)) == [0, 2]

    def test_rational_prime_counts_once_per_side(self):
        mod = Modulus(23)
        info = splitting_type(mod, 3)
        # 3 * (1 + sqrt(-23)) has one extra valuation on each side
        base_plain = ideal_valuation(mod, 1, 1, info)
        base_conj = ideal_valuation(mod, 1, 1, info, conj=True)
        assert ideal_valuation(mod, 3, 3, info) == base_plain + 1
        assert ideal_valuation(mod, 3, 3, info, conj=True) == base_conj + 1
