import random
from math import isqrt, prod

import pytest

from aptgroup import primes
from aptgroup.cli import main
from aptgroup.primes import FactoringBudgetError, factorize, is_prime
from aptgroup.quadfield import Modulus, kronecker

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
