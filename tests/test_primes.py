from math import prod

import pytest

from aptgroup.primes import factorize, is_prime

# (n, factorization) with every prime factor above the trial-division range
LARGE = [
    (1000033 * 1000037, {1000033: 1, 1000037: 1}),
    (1000003**3 * 1000033, {1000003: 3, 1000033: 1}),
    (1009**2, {1009: 2}),
    ((10**9 + 7) * (10**9 + 9), {10**9 + 7: 1, 10**9 + 9: 1}),
    ((2**31 - 1) * (2**61 - 1), {2**31 - 1: 1, 2**61 - 1: 1}),
    (2 * 3**5 * 97 * 1000033**5 * 1000037**3, {2: 1, 3: 5, 97: 1, 1000033: 5, 1000037: 3}),
]


class TestFactorize:
    @pytest.mark.parametrize("n,want", LARGE)
    def test_large_prime_factors(self, n, want):
        assert factorize(n) == want

    @pytest.mark.parametrize("n", [1, 2, 97, 720, 10**12 + 39, 999983 * 1000003, 3**40 * 7919])
    def test_product_of_primes(self, n):
        got = factorize(n)
        assert prod(p**e for p, e in got.items()) == n
        assert all(is_prime(p) for p in got) and list(got) == sorted(got)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

