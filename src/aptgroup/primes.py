"""Small exact prime utilities: primality, sieving, factoring.

Everything here is deterministic.  Below 3.3 * 10^24 primality is proven:
Miller-Rabin to the 13 prime bases up to 41 has no false positive there.
Above, it is the Baillie-PSW test, which has no known false positive.
Factoring has a budget: a cofactor that Pollard-Brent rho does not split
within RHO_BUDGET steps raises FactoringBudgetError.  A caller may pass
primes it has already proved, which split a cofactor before rho runs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Iterable
from math import gcd, isqrt

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least composite that is a strong probable prime to every base above
# (Sorenson & Webster, Math. Comp. 86, 2017); below it those bases prove.
_MR_PROVEN_BELOW = 3317044064679887385961981

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
    """Primality: a set lookup below 1000, then Miller-Rabin to the bases up
    to 41, proven below _MR_PROVEN_BELOW (about 3.3 * 10^24); from there on,
    Baillie-PSW, a strong test to base 2 and a strong Lucas test (Baillie &
    Wagstaff, Math. Comp. 35, 1980), with no composite known to pass.
    """
    if n < 1000:
        return n in _SMALL_PRIMES
    if any(n % p == 0 for p in _MR_WITNESSES):
        return False
    if n < _MR_PROVEN_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_WITNESSES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of the odd n > 2 to the base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of the odd n > 1000 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4; with n + 1 = d * 2^s, n passes when U_d = 0 or some
    V_{d 2^r} = 0 (mod n), r < s.  A square has no such D and fails.
    """
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) == 1:
        d = -d - 2 if d > 0 else -d + 2
    if j == 0:  # |d| < n shares a factor with n
        return False
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k, from k = 1 along the bits of (n + 1) / 2^s
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        # to 2k: U V, V^2 - 2 Q^k and Q^2k
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # to 2k + 1: (U + V)/2 and (D U + V)/2, halved mod the odd n
            u, v = u + v, d * u + v
            u = (u + n if u & 1 else u) // 2 % n
            v = (v + n if v & 1 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending; below 1000 a slice of the trial primes, sieved once."""
    if bound < 1000:
        return list(_TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, bound)])
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            step = len(range(i * i, bound + 1, i))
            sieve[i * i :: i] = b"\x00" * step
    return [i for i in range(2, bound + 1) if sieve[i]]


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factorize(n).values())


# Trial division runs over the primes below 1000; larger factors are left to roots and rho.
_TRIAL_PRIMES = tuple(primes_up_to(1000))
_SMALL_PRIMES = frozenset(_TRIAL_PRIMES)


def factorize(n: int, *, known: Iterable[int] = ()) -> dict[int, int]:
    """Prime factorization of n >= 1.

    Trial division removes the primes below 1000; once a trial prime passes
    the square root of what is left, that cofactor is 1 or a prime.
    Otherwise each part left is replaced by its root when it is a perfect
    power, and else split by Pollard-Brent rho until every part is prime; a
    split that takes over RHO_BUDGET steps raises FactoringBudgetError.

    known holds primes the caller has already proved, such as those of a
    basis table.  It is read, once, only when a composite part with no
    perfect root is left, and that part is split by the first of them
    that divides it before any rho step is taken.  Every part is still
    proved by is_prime before it is reported, so known speeds splitting
    up but proves nothing.
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
    stack = [(n, 1)] if n > 1 else []  # (part, its exponent in the input)
    hint = None  # the primes of known above 1000, once a part needs them
    while stack:
        n, e = stack.pop()
        # a root costs a few percent of a primality test, and spares one on a power
        if root := _perfect_root(n):
            stack.append((root[0], e * root[1]))
        elif is_prime(n):
            out[n] = out.get(n, 0) + e
        else:
            if hint is None:
                # no trial prime divides a part, and no part is split by itself
                hint = [q for q in known if q > 1000]
            f = next((q for q in hint if n % q == 0 and q != n), 0) or _rho_factor(n)
            stack += [(f, e), (n // f, e)]
    return dict(sorted(out.items()))


def _perfect_root(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k = n for the least prime k that has one, or None.

    Every prime factor of n is above 1000, so a root r^k = n has k < log_1000 n.
    """
    for k in _TRIAL_PRIMES:
        if 1000**k > n:
            break
        r = isqrt(n) if k == 2 else _kth_root(n, k)
        if r**k == n:
            return r, k
    return None


def _kth_root(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, by Newton's iteration from above."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


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
