from math import gcd, isqrt

import pytest

from aptgroup import BasisTable, Modulus, Triple
from aptgroup.basis import BasisElement
from aptgroup.classgroup import ClassGroupTable, FormClass, compose_forms
from aptgroup.primes import factorize

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
