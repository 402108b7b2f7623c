"""The abelian group of primitive triples (a, b, c) with a^2 + m*b^2 = c^2.

Triples are taken projectively: (a, b, c) ~ (ka, kb, |k|c).  Each class has
a unique primitive representative with c > 0 and a > 0, which is what the
Triple type stores.  The group law is induced by complex multiplication of
a + b*sqrt(-m); the identity is [1, 0, 1] and the inverse of [a, b, c] is
[a, -b, c].  For square-free m > 3 the group is torsion free.

The arithmetic runs on bare elements (a, b, c) of Z[sqrt(-m)], with
their third components, by mul and power: a sum of many terms is one
product, reduced to its primitive representative once.  normalize does
that by a gcd, for any solution; decompose.recombine knows where the
content of its product can lie and divides it out there instead.  power
reads x^n off a ladder of repeated squares x, x^2, x^4, ..., which it
extends as far as n needs; scalar_mul starts a fresh one from its triple
each time, while basis.BasisTable keeps one per beta, so that powering a
beta again squares nothing already squared.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

__all__ = [
    "ModulusMismatchError",
    "NotASolutionError",
    "Triple",
    "identity",
    "normalize",
    "parse_triple",
    "add",
    "scalar_mul",
    "mul",
    "power",
]


class ModulusMismatchError(ValueError):
    """Group operation applied to triples over different moduli."""


class NotASolutionError(ValueError):
    """The given integers do not solve a^2 + m*b^2 = c^2."""


class Triple(namedtuple("Triple", "m a b c")):
    """Canonical representative of a group element: primitive, c > 0, a > 0.

    A triple is the tuple (m, a, b, c), checked when it is made: equality,
    hashing and ordering are the tuple's, and it iterates as (m, a, b, c).
    It prints as [a, b, c].  t + u, t - u, -t and n * t are the group
    operations; t * n raises TypeError rather than repeat the tuple.
    """

    __slots__ = ()

    def __new__(cls, m: int, a: int, b: int, c: int) -> "Triple":
        if c <= 0 or a <= 0:
            raise NotASolutionError(f"not canonical: ({a}, {b}, {c})")
        if a * a + m * b * b != c * c:
            raise NotASolutionError(f"({a}, {b}, {c}) does not solve x^2 + {m}y^2 = z^2")
        if gcd(gcd(a, b), c) != 1:
            raise NotASolutionError(f"not primitive: ({a}, {b}, {c})")
        return tuple.__new__(cls, (m, a, b, c))

    @classmethod
    def _make(cls, iterable) -> "Triple":
        # _replace builds through here, so it checks as Triple(...) does
        return cls(*iterable)

    def is_identity(self) -> bool:
        return self.c == 1

    def __neg__(self) -> "Triple":
        return Triple(self.m, self.a, -self.b, self.c)

    def __add__(self, other: "Triple") -> "Triple":
        return add(self, other)

    def __sub__(self, other: "Triple") -> "Triple":
        return add(self, -other)

    def __mul__(self, n):
        return NotImplemented

    def __rmul__(self, n: int) -> "Triple":
        return scalar_mul(n, self)

    def __repr__(self) -> str:
        return f"[{self.a}, {self.b}, {self.c}]"


def identity(m: int) -> Triple:
    return Triple(m, 1, 0, 1)


def normalize(m: int, a: int, b: int, c: int) -> Triple:
    """Canonical representative of the class of (a, b, c).

    Divides out the content, makes c positive, then flips the sign of
    (a, b) jointly so that a > 0.  Idempotent on canonical triples.
    """
    if c == 0:
        raise NotASolutionError("third component must be nonzero")
    if a * a + m * b * b != c * c:
        raise NotASolutionError(f"({a}, {b}, {c}) does not solve x^2 + {m}y^2 = z^2")
    if a == 0:
        # would force m*b^2 = c^2 with square-free m > 1
        raise NotASolutionError("first component cannot vanish")
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    if c < 0:
        c = -c
    if a < 0:
        a, b = -a, -b
    return Triple(m, a, b, c)


def parse_triple(m: int, text: str) -> Triple:
    """Parse "a,b,c" (optionally bracketed, spaces allowed) canonically."""
    parts = text.strip().strip("[]()").replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(f"expected three components, got {text!r}")
    a, b, c = (int(p) for p in parts)
    return normalize(m, a, b, c)


Element = tuple[int, int, int]


def mul(m: int, x: Element, y: Element) -> Element:
    """(a1a2 - m b1b2, a1b2 + a2b1, c1c2), less the power of 2 common to all three.

    The product of a1 + b1*sqrt(-m) and a2 + b2*sqrt(-m), with the third
    components multiplied alongside; the result solves the equation when
    both factors do.
    """
    a1, b1, c1 = x
    a2, b2, c2 = y
    a, b, c = a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1, c1 * c2
    low = a | b | c
    k = (low & -low).bit_length() - 1
    return a >> k, b >> k, c >> k


Ladder = tuple[Element, ...]


def power(m: int, ladder: Ladder, n: int) -> tuple[Element, Ladder]:
    """x^n by right-to-left binary powering (Cohen, GTM 138, Alg. 1.2.1), and the ladder it used.

    ladder is x, x^2, x^4, ..., at least x, each entry the mul of the one
    before by itself.  x^n is the product of the entries at the set bits of
    |n|, popcount(|n|) - 1 calls of mul; the ladder is squared on past its
    end only where |n| needs it, into a new tuple that is returned (ladder
    itself when it was long enough), so a caller may keep it for the next
    power.  n < 0 gives the conjugate of x^|n|, which is the power of the
    conjugate.  For a primitive x the content of x^n is a power of 2: an
    odd q would have to divide both ideals over q, or be ramified or
    inert.  mul takes the 2 out at each step, so any order of the products
    gives x^n over its full 2-content, the same element.
    """
    if not n:
        return (1, 0, 1), ladder
    k = abs(n)
    while len(ladder) < k.bit_length():
        x = ladder[-1]
        ladder += (mul(m, x, x),)
    acc = None
    for x in ladder:
        if k & 1:
            acc = x if acc is None else mul(m, acc, x)
        k >>= 1
        if not k:
            break
    a, b, c = acc
    return ((a, -b, c) if n < 0 else acc), ladder


def add(t1: Triple, t2: Triple) -> Triple:
    """Group law: [a1,b1,c1] + [a2,b2,c2] = [a1a2 - m b1b2, a1b2 + a2b1, c1c2]."""
    if t1.m != t2.m:
        raise ModulusMismatchError(f"cannot add triples over m={t1.m} and m={t2.m}")
    return normalize(t1.m, *mul(t1.m, (t1.a, t1.b, t1.c), (t2.a, t2.b, t2.c)))


def scalar_mul(n: int, t: Triple) -> Triple:
    """n-fold sum: one power of a + b*sqrt(-m), normalized once; scalar_mul(0, t) is the identity."""
    x, _ = power(t.m, ((t.a, t.b, t.c),), n)
    return normalize(t.m, *x)
