"""Small exact prime utilities: primality, sieving, factoring.

Everything here is deterministic; Miller-Rabin uses a witness set that is
proven correct for all n < 3.3 * 10^24, far beyond what this package needs.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
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
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 2
    return True


# Trial division stops here; larger factors are left to rho.
_TRIAL_BOUND = 1000


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1.

    Trial division removes the primes below 1000; the cofactor is split by
    Pollard-Brent rho until every part passes Miller-Rabin.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            f = _rho_factor(n)
            stack += [f, n // f]
    return dict(sorted(out.items()))


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n.

    Pollard's rho with Brent's cycle detection and batched gcds (Brent,
    BIT 20, 1980), on x -> x^2 + c from x = 2; a c whose cycle closes
    modulo n itself is replaced by the next one.
    """
    batch = 128
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
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


def valuation(n: int, p: int) -> int:
    """Largest v with p^v | n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Solve x = r1 (mod m1), x = r2 (mod m2); return (x, lcm(m1, m2)).

    Raises ValueError when the congruences are incompatible.
    """
    g, s, _ = xgcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible congruences")
    l = m1 // g * m2
    x = (r1 + (r2 - r1) // g * s % (m2 // g) * m1) % l
    return x, l


__all__ = [
    "is_prime",
    "primes_up_to",
    "is_squarefree",
    "factorize",
    "valuation",
    "xgcd",
    "crt",
    "gcd",
]
