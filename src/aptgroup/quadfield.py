"""Exact arithmetic in the imaginary quadratic field Q(sqrt(-m)).

The modulus m is a square-free integer > 3.  Elements of the maximal order
are (u + v*sqrt(-m)) / 2^(1-delta) where delta = 0 exactly when -m = 1
(mod 4).  This module provides the field constants, the Kronecker
symbol of -m, the splitting data of rational primes with a canonical
square root convention, and prime-ideal valuations of elements via
Hensel-lifted roots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import gcd

from .primes import is_prime, is_squarefree

__all__ = [
    "InvalidModulusError",
    "Modulus",
    "SplitKind",
    "PrimeSplitInfo",
    "kronecker",
    "splitting_type",
    "sqrt_mod",
    "lift_root",
    "ideal_valuation",
]


class InvalidModulusError(ValueError):
    """The modulus is not a square-free integer greater than 3."""


@dataclass(frozen=True, order=True)
class Modulus:
    """A square-free integer m > 3 together with derived field constants.

    delta is 0 when -m = 1 (mod 4) (the order contains half-integers) and 1
    otherwise; disc is the field discriminant, -m for m = 3 (mod 4) and -4m
    otherwise.
    """

    m: int
    delta: int = field(init=False, compare=False)
    disc: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.m <= 3:
            raise InvalidModulusError(f"modulus must exceed 3, got {self.m}")
        if not is_squarefree(self.m):
            raise InvalidModulusError(f"modulus must be square-free, got {self.m}")
        object.__setattr__(self, "delta", 0 if (-self.m) % 4 == 1 else 1)
        object.__setattr__(self, "disc", -self.m if self.m % 4 == 3 else -4 * self.m)


class SplitKind(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class PrimeSplitInfo:
    """Splitting data of a rational prime p.

    For split or ramified odd p, root is the canonical square root r of -m
    mod p with 0 <= r <= (p-1)/2; the chosen prime ideal above p is
    <p, root + sqrt(-m)>, and its conjugate corresponds to p - root.  For a
    split 2 (only when -m = 1 mod 8) the chosen ideal is
    <2, (1 + sqrt(-m))/2> and root is 1.  Inert primes carry no root.
    """

    p: int
    kind: SplitKind
    root: int | None = None


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a mod an odd prime p.

    Returns r with r*r = a (mod p) and 0 < r <= (p-1)/2 when a is a nonzero
    residue, 0 when p | a, and None when a is a non-residue (Tonelli-Shanks
    in the 1 mod 4 case).
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
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

    For p = 2 the value is 1 exactly when -m = 1 (mod 8).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        if (-mod.m) % 8 == 1:
            return 1
        return 0 if mod.disc % 2 == 0 else -1
    if mod.m % p == 0:
        return 0
    return 1 if pow(-mod.m % p, (p - 1) // 2, p) == 1 else -1


def splitting_type(mod: Modulus, p: int) -> PrimeSplitInfo:
    """Splitting data of p, with the canonical (smaller) root convention."""
    k = kronecker(mod, p)
    if k == -1:
        return PrimeSplitInfo(p, SplitKind.INERT)
    if p == 2:
        if k == 1:
            return PrimeSplitInfo(2, SplitKind.SPLIT, root=1)
        # ramified: <2, sqrt(-m)> for even m, <2, 1 + sqrt(-m)> for m = 1 mod 4
        return PrimeSplitInfo(2, SplitKind.RAMIFIED, root=mod.m % 2)
    if k == 0:
        return PrimeSplitInfo(p, SplitKind.RAMIFIED, root=0)
    r = sqrt_mod(-mod.m, p)
    assert r is not None and r != 0
    return PrimeSplitInfo(p, SplitKind.SPLIT, root=r)


def lift_root(mod: Modulus, p: int, root: int, k: int) -> int:
    """Hensel lift: the root of x^2 = -m (mod p^k) congruent to root mod p.

    p must be an odd split prime and root a square root of -m mod p.
    """
    pk = p
    r = root % p
    for _ in range(k - 1):
        pk_next = pk * p
        f = (r * r + mod.m) % pk_next
        if f:
            step = (f // pk * pow((2 * r) % p, -1, p)) % p
            r = (r - step * pk) % pk_next
        pk = pk_next
    assert (r * r + mod.m) % pk == 0
    return r


def ideal_valuation(mod: Modulus, u: int, v: int, info: PrimeSplitInfo, conj: bool = False) -> int:
    """Valuation of u + v*sqrt(-m) at the prime ideal over an odd split p.

    The ideal is <p, r + sqrt(-m)> with r = info.root, or its conjugate
    (r replaced by p - r) when conj is set.  u + v*sqrt(-m) lies in the
    ideal's j-th power exactly when u = v * r_j (mod p^j) for the lifted
    root r_j, up to the valuation of the norm.
    """
    if info.kind is not SplitKind.SPLIT or info.p == 2:
        raise ValueError("valuations are supported at odd split primes only")
    p = info.p
    n = u * u + mod.m * v * v
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    vmax = 0
    while n % p == 0:
        n //= p
        vmax += 1
    if vmax == 0:
        return 0
    g = gcd(u, v)
    shared = 0
    while g % p == 0:
        g //= p
        shared += 1
    if shared:
        pe = p**shared
        return shared + ideal_valuation(mod, u // pe, v // pe, info, conj)
    r = lift_root(mod, p, info.root if not conj else p - info.root, vmax)
    w = (u - v * r) % p**vmax
    j = 0
    while j < vmax and w % p == 0:
        w //= p
        j += 1
    return j
