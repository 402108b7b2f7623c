import random
import time
from math import isqrt, prod

import pytest

from aptgroup import BasisTable, primes, decompose, recombine
from aptgroup.cli import main
from aptgroup.primes import FactoringBudgetError, factorize, is_prime
from aptgroup.quadfield import Modulus, kronecker

# The least strong pseudoprimes to the prime bases up to 37 and up to 41
# (Sorenson & Webster, Math. Comp. 86, 2017), with their factors.
PSI12 = (318665857834031151167461, 399165290221, 798330580441)
PSI13 = (3317044064679887385961981, 1287836182261, 2575672364521)

# (n, factorization) with every prime factor above the trial-division range
LARGE = [
    (1000033 * 1000037, {1000033: 1, 1000037: 1}),
    (1000003**3 * 1000033, {1000003: 3, 1000033: 1}),
    (1009**2, {1009: 2}),
    ((10**9 + 7) * (10**9 + 9), {10**9 + 7: 1, 10**9 + 9: 1}),
    ((2**31 - 1) * (2**61 - 1), {2**31 - 1: 1, 2**61 - 1: 1}),
    (2 * 3**5 * 97 * 1000033**5 * 1000037**3, {2: 1, 3: 5, 97: 1, 1000033: 5, 1000037: 3}),
]


def naive_factorize(n):
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    # trial division runs over the primes below 1000: 997 is the last, 1009 the next
    @pytest.mark.parametrize(
        "n,want",
        [
            (997**2, {997: 2}),
            (997 * 1009, {997: 1, 1009: 1}),
            (1009 * 1013, {1009: 1, 1013: 1}),
            (2 * 997**2, {2: 1, 997: 2}),
            (991 * 997, {991: 1, 997: 1}),
            (1000003, {1000003: 1}),  # the first prime above 1000^2
            (7 * 1000003, {7: 1, 1000003: 1}),
        ],
    )
    def test_around_the_trial_bound(self, n, want):
        assert factorize(n) == want
        assert list(factorize(n)) == sorted(want)

    def test_matches_naive_trial_division(self):
        for n in range(1, 20001):
            assert factorize(n) == naive_factorize(n), n

    @pytest.mark.parametrize("n,want", LARGE)
    def test_large_prime_factors(self, n, want):
        assert factorize(n) == want

    @pytest.mark.parametrize("n", [1, 2, 97, 720, 10**12 + 39, 999983 * 1000003, 3**40 * 7919])
    def test_product_of_primes(self, n):
        got = factorize(n)
        assert prod(p**e for p, e in got.items()) == n
        assert all(is_prime(p) for p in got) and list(got) == sorted(got)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_prime_powers_match_sympy(self, seed):
        # valuations up to 20,000 of primes in the trial range, each divided
        # out by repeated squaring, not one factor at a time
        factorint = pytest.importorskip("sympy").factorint
        rng = random.Random(seed)
        for _ in range(10):
            ps = rng.sample([2, 3, 5, 7, 11, 13, 31, 97, 991, 997], rng.randint(1, 4))
            n = prod(p ** rng.choice([1, 2, 3, 255, 256, 257, rng.randint(1, 20000)]) for p in ps)
            n *= rng.randint(1, 10**6)
            assert factorize(n) == factorint(n), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @pytest.mark.parametrize("n,want", [
        (1009**400, {1009: 400}),
        (1000003**60, {1000003: 60}),
        ((1009 * 1013) ** 50, {1009: 50, 1013: 50}),
        (1009**7 * 1013**14, {1009: 7, 1013: 14}),  # a 7th power whose root is no power
        (2**10 * 997**3 * 100043**12 * 1000033**3, {2: 10, 997: 3, 100043: 12, 1000033: 3}),
    ], ids=["1009^400", "1000003^60", "(1009*1013)^50", "1009^7*1013^14", "mixed"])
    def test_powers_above_the_trial_range(self, n, want):
        # a power is taken to its root before rho; 1009^400 took 21.6 s through rho alone
        start = time.perf_counter()
        assert factorize(n) == want
        assert time.perf_counter() - start < 1

    def test_kth_root(self):
        rng = random.Random(5)
        for _ in range(2000):
            n, k = rng.randrange(1, 10 ** rng.randint(1, 120)), rng.randint(3, 50)
            r = primes._kth_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)

    def test_budget_stops_rho(self, monkeypatch):
        # (10^9 + 7)(10^9 + 9) takes about 50,000 rho steps to split
        n = (10**9 + 7) * (10**9 + 9)
        monkeypatch.setattr(primes, "RHO_BUDGET", 10**4)
        with pytest.raises(FactoringBudgetError, match="60-bit composite"):
            factorize(n)
        # trial division and primality tests need no rho step
        assert factorize(2**5 * 997 * (10**9 + 7)) == {2: 5, 997: 1, 10**9 + 7: 1}
        monkeypatch.setattr(primes, "RHO_BUDGET", 10**6)
        assert factorize(n) == {10**9 + 7: 1, 10**9 + 9: 1}


    def test_known_primes_split_before_rho(self, monkeypatch):
        p, q, r = 10**9 + 7, 10**9 + 9, 10**9 + 21
        n = 3 * p**2 * q * r
        want = {3: 1, p: 2, q: 1, r: 1}
        monkeypatch.setattr(primes, "RHO_BUDGET", 1)
        assert factorize(n, known=iter([5, 997, r, q])) == want
        assert factorize(n, known=[q, r, p]) == want
        # a prime, a power or a product of two large primes needs no hint, and reads none
        assert factorize(p * 997, known=iter("not read")) == {997: 1, p: 1}
        assert factorize(p**3, known=iter("not read")) == {p: 3}
        with pytest.raises(FactoringBudgetError):
            factorize(n, known=[p])

    def test_known_primes_prove_nothing(self, monkeypatch):
        # composites, 1, the trial primes and the part itself in known: every
        # part is still proved prime, and rho finishes what they leave
        p, q, r = 10**9 + 7, 10**9 + 9, 10**9 + 21
        n = p * q * r
        monkeypatch.setattr(primes, "RHO_BUDGET", 10**6)
        for known in ([1, 3, n], [p * q], [n, q * r, p * q * 7], [-p, 0, 1001]):
            assert factorize(7 * n, known=known) == {7: 1, p: 1, q: 1, r: 1}, known


class TestIsPrime:
    # n < 1000 is a set lookup: 997 is the last prime below the cut, 1009 the first above
    def test_matches_trial_division_across_the_lookup(self):
        for n in range(-5, 3000):
            assert is_prime(n) == (n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))), n

    @pytest.mark.parametrize("n", [0, 1, 15, 999, 1001])
    def test_kronecker_rejects_non_primes(self, n):
        with pytest.raises(ValueError, match="not prime"):
            kronecker(Modulus(35), n)

    @pytest.mark.parametrize("p", ["4", "1001"])
    def test_cli_beta_of_non_prime_exit_2(self, capsys, p):
        code = main(["beta", "-m", "35", p])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error:") and "not prime" in out.err and "Traceback" not in out.err

    @pytest.mark.parametrize("psi", [PSI12, PSI13])
    def test_least_strong_pseudoprimes_are_composite(self, psi):
        n, p, q = psi
        assert n == p * q and is_prime(p) and is_prime(q)
        # both pass the strong test to every base up to 37, psi13 to 41 as well
        assert all(primes._strong_probable_prime(n, a) for a in primes._MR_WITNESSES[:12])
        assert not is_prime(n)

    def test_psi13_is_the_proven_bound(self):
        n = PSI13[0]
        assert primes._MR_PROVEN_BELOW == n
        assert all(primes._strong_probable_prime(n, a) for a in primes._MR_WITNESSES)
        assert not primes._strong_lucas_probable_prime(n)

    def test_psi12_round_trip_at_m5(self):
        # accepted as prime, psi12 made the sum of its two factors' betas decompose as beta(psi12)
        _, p, q = PSI12
        bt = BasisTable(Modulus(5))
        d = decompose(bt, recombine(bt, {p: 1, q: 1}))
        assert dict(d.terms) == {p: 1, q: 1} and d.verified

    def test_cli_beta_of_psi12_exit_2(self, capsys):
        code = main(["beta", "-m", "5", str(PSI12[0])])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == f"error: {PSI12[0]} is not prime\n"

    def test_strong_lucas_matches_sympy(self):
        # below 30000 eight odd composites pass, the least 5459 (OEIS A217255)
        is_strong_lucas_prp = pytest.importorskip("sympy.ntheory.primetest").is_strong_lucas_prp
        passed = []
        for n in range(1001, 30001, 2):
            got = primes._strong_lucas_probable_prime(n)
            assert got == is_strong_lucas_prp(n), n
            if got and not is_prime(n):
                passed.append(n)
        assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]

    @pytest.mark.parametrize("seed", range(3))
    def test_above_the_proven_bound_matches_sympy(self, seed):
        isprime = pytest.importorskip("sympy").isprime
        rng = random.Random(seed)
        for _ in range(400):
            n = rng.randrange(PSI13[0], 10 ** rng.randint(25, 120))
            assert is_prime(n) == isprime(n), n
        # a prime above the bound, its square and its product with a prime
        p = next(n for n in range(10**30 + 1, 10**31, 2) if isprime(n))
        assert is_prime(p) and not is_prime(p * p) and not is_prime(p * 1000003)
