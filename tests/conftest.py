from math import gcd, isqrt

import pytest

from aptgroup import BasisTable, Modulus, Triple
from aptgroup.basis import BasisElement
from aptgroup.classgroup import ClassGroupTable, FormClass, compose_forms
from aptgroup.primes import factorize
from aptgroup.quadfield import PrimeSplitInfo, SplitKind, lift_root

WORKED_M = (23, 35, 974)


@pytest.fixture(scope="session")
def tables() -> dict[int, BasisTable]:
    """One shared BasisTable per worked modulus (default pillars)."""
    return {m: BasisTable(Modulus(m)) for m in WORKED_M}


@pytest.fixture(scope="session")
def tables23() -> dict[int, BasisTable]:
    """The two pillar configurations for m = 23."""
    return {2: BasisTable(Modulus(23), (2,)), 3: BasisTable(Modulus(23), (3,))}


def brute_triples(m: int, cmax: int) -> list[Triple]:
    """Primitive triples with 0 < b and c <= cmax, by exhaustive scan.

    Independent of the basis machinery; used as an oracle pool.
    """
    out = []
    for c in range(2, cmax + 1):
        n = c * c
        v = 1
        while m * v * v < n:
            r = n - m * v * v
            u = isqrt(r)
            if u * u == r and u > 0 and gcd(gcd(u, v), c) == 1:
                out.append(Triple(m, u, v, c))
            v += 1
    return out


def form_power(table: ClassGroupTable, f: FormClass, n: int) -> FormClass:
    """f^n in the class group (n may be negative), by binary powering."""
    result = table.identity
    base = f if n >= 0 else f.inverse()
    n = abs(n)
    while n:
        if n & 1:
            result = compose_forms(result, base)
        if n > 1:
            base = compose_forms(base, base)
        n >>= 1
    return result


def third_shape(el: BasisElement) -> dict[int, int]:
    """Prime factorization of a basis triple's third component."""
    return factorize(el.triple.c)


def valuation(n: int, p: int) -> int:
    """Largest v with p^v | n (n != 0), by repeated division."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ideal_valuation(mod: Modulus, u: int, v: int, info: PrimeSplitInfo, conj: bool = False) -> int:
    """Valuation of u + v*sqrt(-m) at the prime ideal over an odd split p.

    The general oracle for decompose's one-residue tests.  The ideal is
    <p, r + sqrt(-m)> with r = info.root, or its conjugate (r replaced by
    p - r) when conj is set.  u + v*sqrt(-m) lies in the ideal's j-th power
    exactly when u = v * r_j (mod p^j) for the lifted root r_j, up to the
    valuation of the norm; a common factor p^s of u and v adds s.
    """
    if info.kind is not SplitKind.SPLIT or info.p == 2:
        raise ValueError("valuations are supported at odd split primes only")
    p = info.p
    n = u * u + mod.m * v * v
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    vmax = valuation(n, p)
    if vmax == 0:
        return 0
    shared = valuation(gcd(u, v), p)
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
