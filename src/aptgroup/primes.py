"""Small exact prime utilities: primality, sieving, factoring.

Everything here is deterministic; Miller-Rabin uses a witness set that is
proven correct for all n < 3.3 * 10^24, far beyond what this package needs.
Factoring has a budget: a cofactor that Pollard-Brent rho does not split
within RHO_BUDGET steps raises FactoringBudgetError.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Iterations of x -> x^2 + c that one rho split may take.  Rho needs about
# the square root of the smallest prime factor: on a 2-vCPU Xeon, at about
# 0.4 us a step, a product of primes near 10^13 and 3 * 10^13 (27 digits)
# splits after 6.4 million steps in 2.5 s, while primes near 10^14 and
# 3 * 10^14 (29 digits) took about 15 s.  The budget lets the first through
# and stops the second after about 4 s.
RHO_BUDGET = 1 << 23


class FactoringBudgetError(ArithmeticError):
    """A composite that rho did not split within RHO_BUDGET steps."""

    def __init__(self, n: int):
        super().__init__(
            f"factoring budget exceeded: a {n.bit_length()}-bit composite has no factor "
            f"found within {RHO_BUDGET} Pollard-Brent steps"
        )


def is_prime(n: int) -> bool:
    """Primality: a set lookup below 1000, deterministic Miller-Rabin above."""
    if n < 1000:
        return n in _SMALL_PRIMES
    for p in _MR_WITNESSES:
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (empty list for bound < 2)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            step = len(range(i * i, bound + 1, i))
            sieve[i * i :: i] = b"\x00" * step
    return [i for i in range(2, bound + 1) if sieve[i]]


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factorize(n).values())


# Trial division runs over the primes below 1000; larger factors are left to rho.
_TRIAL_PRIMES = tuple(primes_up_to(1000))
_SMALL_PRIMES = frozenset(_TRIAL_PRIMES)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1.

    Trial division removes the primes below 1000; once a trial prime passes
    the square root of what is left, that cofactor is 1 or a prime.
    Otherwise the cofactor is split by Pollard-Brent rho until every part
    passes Miller-Rabin; a split that takes over RHO_BUDGET steps raises
    FactoringBudgetError.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    if n & 1 == 0:
        out[2] = (n & -n).bit_length() - 1
        n >>= out[2]
    for p in _TRIAL_PRIMES[1:]:  # 2 is out already
        if p * p > n:
            # no factor below p is left, so n is 1 or a prime above every key
            if n > 1:
                out[n] = 1
            return out
        if n % p == 0:
            n, out[p] = _divide_out(n, p)
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            f = _rho_factor(n)
            stack += [f, n // f]
    return dict(sorted(out.items()))


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) for the largest e with p^e | n.

    n is divided by p, p^2, p^4, ... while it can be, and then by the
    same powers from the largest down, each once if it divides: that is
    O(log e) divisions, where one division at a time would take e.
    """
    powers, e, q = [], 0, p
    while n % q == 0:
        n //= q
        e += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            e += 1 << i
    return n, e


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n.

    Pollard's rho with Brent's cycle detection and batched gcds (Brent,
    BIT 20, 1980), on x -> x^2 + c from x = 2; a c whose cycle closes
    modulo n itself is replaced by the next one.  A round of Brent's walk
    takes at most 2r steps; FactoringBudgetError is raised instead of a
    round that could take the steps over all c past RHO_BUDGET.
    """
    batch = 128
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > RHO_BUDGET:
                raise FactoringBudgetError(n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


__all__ = [
    "RHO_BUDGET",
    "FactoringBudgetError",
    "is_prime",
    "primes_up_to",
    "is_squarefree",
    "factorize",
]
