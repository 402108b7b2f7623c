"""Exact arithmetic in the imaginary quadratic field Q(sqrt(-m)).

The modulus m is a square-free integer with 3 < m <= 10^10.  Elements of
the maximal order are (u + v*sqrt(-m)) / 2^(1-delta) where delta = 0
exactly when -m = 1 (mod 4).  This module provides the field constants,
the Kronecker symbol of -m, the splitting data of rational primes with a
canonical square root convention, and Newton lifts of those roots to
prime powers, from which classgroup.prime_form writes the powers of a
prime ideal as forms.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .primes import is_prime, is_squarefree

__all__ = [
    "MAX_MODULUS",
    "InvalidModulusError",
    "Modulus",
    "SplitKind",
    "PrimeSplitInfo",
    "kronecker",
    "splitting_type",
    "sqrt_mod",
    "lift_root",
]


# Largest accepted modulus.  On a 2-vCPU Xeon, `classgroup -m M` near 10^10
# takes about 0.55-0.65 s from process start (m = 9999999967, h = 45691), and
# up to 1.9-2.2 s and 100 MB when many small primes split (m = 9996032471,
# h = 236606): enumeration grows like sqrt(m), the rest like h.
MAX_MODULUS = 10**10


class InvalidModulusError(ValueError):
    """The modulus is not a square-free integer with 3 < m <= MAX_MODULUS."""


class Modulus(namedtuple("Modulus", "m delta disc")):
    """A square-free integer 3 < m <= MAX_MODULUS with derived field constants.

    Modulus(m) checks m and derives the rest; the result is the tuple
    (m, delta, disc), compared, hashed and ordered as a tuple.  delta is 0
    when -m = 1 (mod 4) (the order contains half-integers) and 1
    otherwise; disc is the field discriminant, -m for m = 3 (mod 4) and
    -4m otherwise.
    """

    __slots__ = ()

    def __new__(cls, m: int) -> "Modulus":
        if m <= 3:
            raise InvalidModulusError(f"modulus must exceed 3, got {m}")
        if m > MAX_MODULUS:
            # checked before is_squarefree, which would factor a huge m
            raise InvalidModulusError(f"modulus must not exceed 10^10, got {m}")
        if not is_squarefree(m):
            raise InvalidModulusError(f"modulus must be square-free, got {m}")
        return tuple.__new__(cls, (m, 0 if (-m) % 4 == 1 else 1, -m if m % 4 == 3 else -4 * m))

    def __getnewargs__(self) -> tuple[int]:
        # pickle and copy rebuild a modulus from m alone
        return (self.m,)

    @classmethod
    def _make(cls, iterable) -> "Modulus":
        # _replace builds through here: it checks m and derives the rest, and
        # raises ValueError when delta or disc is given
        return cls(next(iter(iterable)))


class SplitKind(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class PrimeSplitInfo(namedtuple("PrimeSplitInfo", "p kind root", defaults=(None,))):
    """Splitting data of a rational prime p.

    For split or ramified odd p, root is the canonical square root r of -m
    mod p with 0 <= r <= (p-1)/2; the chosen prime ideal above p is
    <p, root + sqrt(-m)>, and its conjugate corresponds to p - root.  For a
    split 2 (only when -m = 1 mod 8) the chosen ideal is
    <2, (1 + sqrt(-m))/2> and root is 1.  Inert primes carry no root.
    """

    __slots__ = ()


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a mod an odd prime p.

    Returns r with r*r = a (mod p) and 0 < r <= (p-1)/2 when a is a nonzero
    residue, 0 when p | a, and None when a is a non-residue: for p = 3
    (mod 4) r = a^((p+1)/4), whose square is +-a, decides; else Euler's
    criterion, then Tonelli-Shanks.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        if r * r % p != a:
            return None
    elif pow(a, (p - 1) // 2, p) != 1:
        return None
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        t = pow(a, q, p)
        r = pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            s = i
            c = b * b % p
            t = t * c % p
            r = r * b % p
    return min(r, p - r)


def kronecker(mod: Modulus, p: int) -> int:
    """Kronecker symbol of -m at the prime p: 1 split, -1 inert, 0 ramified.

    For p = 2 the value is 1 exactly when -m = 1 (mod 8).  Raises
    ValueError when p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _legendre(mod, p)


def splitting_type(mod: Modulus, p: int) -> PrimeSplitInfo:
    """Splitting data of p, with the canonical (smaller) root convention.

    Raises ValueError when p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _split_info(mod, p)


def _legendre(mod: Modulus, p: int) -> int:
    """kronecker for a p already known to be prime, such as a sieved one."""
    if p == 2:
        if (-mod.m) % 8 == 1:
            return 1
        return 0 if mod.disc % 2 == 0 else -1
    if mod.m % p == 0:
        return 0
    return 1 if pow(-mod.m % p, (p - 1) // 2, p) == 1 else -1


def _split_info(mod: Modulus, p: int) -> PrimeSplitInfo:
    """splitting_type for a p already known to be prime.

    An odd p costs one sqrt_mod, whose residue test is the Legendre
    symbol: None is inert, 0 ramified, any other root split.
    """
    if p == 2:
        k = _legendre(mod, 2)
        if k == 1:
            return PrimeSplitInfo(2, SplitKind.SPLIT, root=1)
        if k == -1:
            return PrimeSplitInfo(2, SplitKind.INERT)
        # ramified: <2, sqrt(-m)> for even m, <2, 1 + sqrt(-m)> for m = 1 mod 4
        return PrimeSplitInfo(2, SplitKind.RAMIFIED, root=mod.m % 2)
    r = sqrt_mod(-mod.m, p)
    if r is None:
        return PrimeSplitInfo(p, SplitKind.INERT)
    if r == 0:
        return PrimeSplitInfo(p, SplitKind.RAMIFIED, root=0)
    return PrimeSplitInfo(p, SplitKind.SPLIT, root=r)


def lift_root(mod: Modulus, p: int, root: int, k: int) -> int:
    """Newton lift: for an odd split p, the root of x^2 = -m (mod p^k) above root mod p.

    For a split 2 it is the root = 1 (mod 4) of x^2 = -m (mod 2^(k+1)),
    unique mod 2^k.  The step r <- r - (r^2 + m) / (2r) takes a root mod
    p^j to one mod p^(2j), and one mod 2^j (j >= 3) to one mod 2^(2j-2)
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).  That
    step needs the inverse u of 2r only mod p^j (of b only mod 2^(j-2) for
    p = 2), and u follows its own Newton step u <- u (2 - x u), which
    doubles its precision with products alone (ibid., ch. 9), so no step
    computes a modular inverse.
    """
    if p == 2:
        # reduced by masks: CPython takes a power-of-two % by long division
        b, u, j = 1, 1, 3  # u = b^-1 mod 2^(j-2)
        while j <= k:
            j = 2 * j - 2
            b = (b - (b * b + mod.m) // 2 * u) & ((1 << j) - 1)
            if j <= k:
                u = u * (2 - b * u) & ((1 << (j - 2)) - 1)
        assert (b * b + mod.m) & ((2 << k) - 1) == 0
        return b & ((1 << k) - 1)
    r, e = root % p, 1
    u = pow(2 * r, -1, p) if k > 1 else 0  # (2r)^-1 mod p^e
    while e < k:
        e = min(2 * e, k)
        pe = p**e
        r = (r - (r * r + mod.m) * u) % pe
        if e < k:
            u = u * (2 - 2 * r * u) % pe
    assert (r * r + mod.m) % p**k == 0
    return r
