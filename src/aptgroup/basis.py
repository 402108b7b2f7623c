"""Free generating sets for the triple group, indexed by split primes.

For each prime p with Kronecker symbol 1 the map beta assigns one primitive
triple, built from a prime-ideal product whose class is 2-torsion:

  * two-torsion primes (the chosen ideal's class already squares to the
    identity): the generator of the squared ideal gives a triple with third
    component p or 2p;
  * pillar primes: the generator of the 2h-th ideal power gives third
    component p^h, up to a factor 2 absorbed by primitive reduction;
  * all other split primes: the chosen ideal is first multiplied into the
    2-torsion subgroup by canonical pillar exponents of at most half the
    pillar order (conjugate pillars absorb the rest), and among the triples
    of the admissible conjugation patterns of those pillar factors (the
    canonical flags, with both flags for an exponent of exactly half the
    pillar order) the one with the smallest first component wins.

Each triple comes from the generator of a squared ideal, found by
Cornacchia's algorithm (two_torsion_triple): one Euclid run per
admissible pattern.
The image of beta, together with the distinguished [q, r, 4] element for
m in {7, 15}, generates the triple group freely.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Sequence

from .classgroup import ClassGroupTable, Pillar, QuotientData, quotient_setup
from .primes import crt, primes_up_to
from .quadfield import Modulus, PrimeSplitInfo, SplitKind, kronecker, lift_root, splitting_type
from .triples import Triple, normalize

__all__ = [
    "MAX_BOUND",
    "BoundTooLargeError",
    "NotTwoTorsionError",
    "Category",
    "ExpEntry",
    "BasisElement",
    "BasisTable",
    "split_primes",
    "solve_norm_equation",
    "two_torsion_triple",
    "special_four_element",
]


# Largest accepted prime bound.  On a 2-vCPU Xeon, generators -m 35 takes
# 0.2 s from process start at bound 10^4, 0.7 s at 10^5 and 7 s at 10^6
# (39257 triples); the cost grows with the number of split primes.
MAX_BOUND = 10**6


class BoundTooLargeError(ValueError):
    """A prime bound above MAX_BOUND."""

    def __init__(self, bound: int):
        super().__init__(f"prime bound must not exceed 10^6, got {bound}")


class NotTwoTorsionError(ValueError):
    """The ideal product's class is not 2-torsion, so no generator exists."""


class Category(str, enum.Enum):
    TWO_TORSION = "two-torsion"
    PILLAR = "pillar"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class ExpEntry:
    """One pillar exponent of a composite basis element.

    With h the pillar's order, a is taken from {0, ..., floor(h/2)}; conj
    records whether the conjugate pillar ideal is the one used.  At exactly
    h/2 both choices work and the unconjugated ideal is preferred.
    """

    j: int  # 1-based pillar index
    a: int
    conj: bool


@dataclass(frozen=True)
class BasisElement:
    p: int
    triple: Triple
    category: Category
    pillar_index: int | None = None
    exps: tuple[ExpEntry, ...] = ()


def split_primes(mod: Modulus, bound: int) -> list[int]:
    """Primes p <= bound with Kronecker symbol 1 (2 included iff -m = 1 mod 8).

    Raises BoundTooLargeError when bound exceeds MAX_BOUND.
    """
    if bound > MAX_BOUND:
        raise BoundTooLargeError(bound)
    return [p for p in primes_up_to(bound) if kronecker(mod, p) == 1]


def solve_norm_equation(mod: Modulus, n: int) -> list[tuple[int, int]]:
    """All coprime (u, v) with u, v >= 0 and u^2 + m*v^2 = n, sorted by u.

    Exhaustive scan over v with an exact square test; n = 1 yields [(1, 0)].
    """
    if n < 1:
        raise ValueError("norm must be positive")
    m = mod.m
    out = []
    v = 0
    while m * v * v <= n:
        r = n - m * v * v
        u = isqrt(r)
        if u * u == r and gcd(u, v) == 1:
            out.append((u, v))
        v += 1
    return sorted(out)


IdealFactor = tuple[PrimeSplitInfo, int] | tuple[PrimeSplitInfo, int, bool]


def _normalize_factors(factors: Iterable[IdealFactor]) -> list[tuple[PrimeSplitInfo, int, bool]]:
    out = []
    for f in factors:
        info, e = f[0], f[1]
        conj = bool(f[2]) if len(f) > 2 else False
        if e < 0:
            raise ValueError("ideal exponents must be non-negative")
        if e:
            out.append((info, e, conj))
    return out


def two_torsion_triple(mod: Modulus, factors: Iterable[IdealFactor]) -> Triple:
    """The primitive triple attached to an ideal product with 2-torsion class.

    factors lists (split info, exponent[, conjugate]) pairs; the product I
    of norm n must have class of order at most 2, so that I^2 is principal
    with a generator z of norm n^2.  I^2 = <N, (r + sqrt(-m)) / 2^(1-delta)>
    with N = n^2 and r a square root of -m modulo 4N / 2^(2 delta), built by
    CRT from the Hensel-lifted roots of the factors; Cornacchia's algorithm
    on (N, r), or on (2N, r) for 4N when delta = 0 (Cohen, GTM 138,
    Alg. 1.5.2 and 1.5.3), finds z or shows that I^2 is not principal.
    Conjugating every factor gives the same triple.  A ramified factor
    squares to a rational principal ideal and drops out projectively; 2 may
    appear only inert or split.
    """
    n = 1
    r, modulus = (0, 1) if mod.delta else (1, 2)  # r is odd when delta = 0
    for info, e, conj in _normalize_factors(factors):
        p = info.p
        if info.kind is SplitKind.INERT and p != 2:
            raise ValueError(f"odd inert prime {p} has no degree-one ideal")
        if info.kind is SplitKind.RAMIFIED and p == 2:
            raise ValueError("a factor above 2 requires 2 inert or split")
        if info.kind is not SplitKind.SPLIT:
            # inert <2> and ramified ideals square to rational ideals
            continue
        n *= p**e
        if p == 2:
            # the root = 1 (mod 4) of b^2 = -m (mod 2^(2e+2)), as in <2, (1 + sqrt(-m))/2>
            b = 1
            for k in range(3, 2 * e + 2):
                if (b * b + mod.m) % 2 ** (k + 1):
                    b += 2 ** (k - 1)
            r, modulus = crt(r, modulus, -b if conj else b, 2 ** (2 * e + 1))
        else:
            root = lift_root(mod, p, p - info.root if conj else info.root, 2 * e)
            r, modulus = crt(r, modulus, root, p ** (2 * e))
    if n == 1:
        return Triple(mod.m, 1, 0, 1)
    if modulus != n * n << (1 - mod.delta):
        raise ValueError("each prime may appear in only one factor")
    # Cornacchia: Euclid on (modulus, r) down to the square root of the norm
    norm = n * n << 2 * (1 - mod.delta)
    a, b, limit = modulus, r, isqrt(norm)
    while b > limit:
        a, b = b, a % b
    y2, rest = divmod(norm - b * b, mod.m)
    y = isqrt(y2)
    # for composite N the square test alone could pass on another ideal's
    # generator: z = (b + y sqrt(-m)) / 2^(1-delta) must lie in I^2 or its conjugate
    if rest or y * y != y2 or ((b - r * y) % modulus and (b + r * y) % modulus):
        raise NotTwoTorsionError(
            "ideal product has no generator of the required norm; its class is not 2-torsion"
        )
    return normalize(mod, b, y, n << (1 - mod.delta))


def special_four_element(mod: Modulus) -> Triple | None:
    """The primitive triple [q, r, 4], present only for m = 7 and m = 15.

    q^2 + m*r^2 = 16 with r > 0 needs m <= 16, and r >= 2 would need m <= 4;
    with r = 1 only 16 - 7 = 3^2 and 16 - 15 = 1^2 are squares.
    """
    if mod.m == 7:
        return Triple(7, 3, 1, 4)
    if mod.m == 15:
        return Triple(15, 1, 1, 4)
    return None


class BasisTable:
    """Cached beta values over one modulus and pillar configuration.

    The class group and quotient presentation are computed once; beta
    values are filled in lazily and shared.  All state is read-only after
    each computation, so concurrent readers are safe.
    """

    def __init__(
        self,
        mod: Modulus,
        pillars: Sequence[int] | None = None,
        table: ClassGroupTable | None = None,
    ):
        self.mod = mod
        self.table = table if table is not None else ClassGroupTable(mod)
        self.quotient: QuotientData = quotient_setup(self.table, pillars)
        self._beta: dict[int, BasisElement] = {}

    @property
    def pillars(self) -> tuple[Pillar, ...]:
        return self.quotient.pillars

    def split_primes(self, bound: int) -> list[int]:
        return split_primes(self.mod, bound)

    def two_torsion_primes(self, bound: int) -> list[int]:
        return [
            p
            for p in self.split_primes(bound)
            if self.table.in_two_torsion(self.table.class_of_prime(p))
        ]

    def special(self) -> Triple | None:
        return special_four_element(self.mod)

    def _classify(self, p: int) -> tuple[Category, tuple[ExpEntry, ...]]:
        """The category of p and, for a composite p, its exponent vector.

        Each coordinate b of the inverse image class is folded into
        min(b, h - b) with a conjugate flag when the upper half was taken;
        ties at exactly h/2 prefer the unconjugated pillar.
        """
        if kronecker(self.mod, p) != 1:
            raise ValueError(f"{p} does not split: beta({p}) is undefined")
        fp = self.table.class_of_prime(p)
        if self.table.in_two_torsion(fp):
            return Category.TWO_TORSION, ()
        if any(pl.p == p for pl in self.pillars):
            return Category.PILLAR, ()
        b = self.quotient.coords(fp.inverse())
        out = []
        for bj, pl in zip(b, self.pillars):
            if bj <= pl.order // 2:
                out.append(ExpEntry(pl.index, bj, False))
            else:
                out.append(ExpEntry(pl.index, pl.order - bj, True))
        return Category.COMPOSITE, tuple(out)

    def category_of(self, p: int) -> Category:
        return self._classify(p)[0]

    def exponent_vector(self, p: int) -> tuple[ExpEntry, ...]:
        """Canonical pillar exponents moving the ideal above p into 2-torsion."""
        cat, exps = self._classify(p)
        if cat is Category.TWO_TORSION:
            raise ValueError(f"the class of {p} is 2-torsion; its exponent vector is trivial")
        if cat is Category.PILLAR:
            raise ValueError(f"{p} is a pillar prime")
        return exps

    def beta(self, p: int) -> BasisElement:
        got = self._beta.get(p)
        if got is None:
            got = self._beta[p] = self._compute_beta(p)
        return got

    def _compute_beta(self, p: int) -> BasisElement:
        """The smallest triple, by (a, c), over the admissible conjugation patterns.

        The canonical flags put the product into 2-torsion.  Flipping pillar
        j moves its class by the pillar's class to the power -+2a, which by
        the independence of the pillar images stays 2-torsion iff 2a = h.
        """
        cat, exps = self._classify(p)
        pillar = next(pl for pl in self.pillars if pl.p == p) if cat is Category.PILLAR else None
        own = (pillar.info, pillar.order) if pillar else (splitting_type(self.mod, p), 1)
        choices = [
            [(pl.info, e.a, c) for c in ((False, True) if 2 * e.a == pl.order else (e.conj,))]
            for e, pl in zip(exps, self.pillars)
            if e.a
        ]
        patterns = itertools.product(*choices)
        found = [two_torsion_triple(self.mod, [own, *pattern]) for pattern in patterns]
        triple = min(found, key=lambda t: (t.a, t.c))
        return BasisElement(p, triple, cat, pillar.index if pillar else None, exps)

    def elements(self, bound: int) -> list[BasisElement]:
        """beta(p) for every split prime p up to bound, ascending.

        For m in {7, 15} the distinguished [q, r, 4] element equals beta(2)
        and is included even when the bound excludes 2.
        """
        ps = self.split_primes(bound)
        if self.special() is not None and 2 not in ps:
            ps = [2, *ps]
        return [self.beta(p) for p in ps]

