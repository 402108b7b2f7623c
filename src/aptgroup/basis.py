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
    pillar order (conjugate pillars absorb the rest), and among all
    primitive triples realizing the
    resulting norm equation the one with the smallest first component wins.

The image of beta, together with the distinguished [q, r, 4] element for
m in {7, 15}, generates the triple group freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Sequence

from .classgroup import ClassGroupTable, Pillar, QuotientData, quotient_setup
from .primes import factorize, primes_up_to
from .quadfield import (
    Modulus,
    PrimeSplitInfo,
    SplitKind,
    ideal_valuation,
    kronecker,
    splitting_type,
)
from .triples import Triple

__all__ = [
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

    def third_shape(self) -> dict[int, int]:
        """Prime factorization of the triple's third component."""
        return factorize(self.triple.c)


def split_primes(mod: Modulus, bound: int) -> list[int]:
    """Primes p <= bound with Kronecker symbol 1 (2 included iff -m = 1 mod 8)."""
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


def _principal_square_triples(mod: Modulus, n: int) -> list[Triple]:
    """Primitive triples from generators z of ideals with norm n^2.

    Writing z = (u + v*sqrt(-m)) / 2^(1-delta), the norm equation is
    u^2 + m*v^2 = (2^(1-delta) * n)^2; integral generators appear, when
    delta = 0, as the coprime solutions at scale n^2 and give the triple
    [u, v, n] instead of [u, v, 2n].  Sorted by first component.
    """
    out = []
    if mod.delta == 0:
        for u, v in solve_norm_equation(mod, 4 * n * n):
            if v > 0:
                out.append(Triple(mod.m, u, v, 2 * n))
        for u, v in solve_norm_equation(mod, n * n):
            if v > 0:
                out.append(Triple(mod.m, u, v, n))
    else:
        for u, v in solve_norm_equation(mod, n * n):
            if v > 0:
                out.append(Triple(mod.m, u, v, n))
    return sorted(out, key=lambda t: (t.a, t.c))


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
    must have class of order at most 2, so that I^2 is principal with a
    generator z of norm N(I)^2.  The candidate solutions of the norm
    equation are filtered by exact ideal valuations (Hensel criterion) at
    the odd primes of the product, up to replacing z by its conjugate;
    exactly one primitive triple survives.  An empty candidate set means
    the class was not 2-torsion.  A ramified factor squares to a rational
    principal ideal and drops out projectively; 2 may appear only inert or
    split.
    """
    odd_split: list[tuple[PrimeSplitInfo, int, bool]] = []
    n = 1
    for info, e, conj in _normalize_factors(factors):
        if info.p == 2:
            if info.kind is SplitKind.RAMIFIED:
                raise ValueError("a factor above 2 requires 2 inert or split")
            if info.kind is SplitKind.SPLIT:
                n *= 2**e
            # inert <2> contributes a rational factor, projectively trivial
            continue
        if info.kind is SplitKind.INERT:
            raise ValueError(f"odd inert prime {info.p} has no degree-one ideal")
        if info.kind is SplitKind.RAMIFIED:
            continue
        odd_split.append((info, e, conj))
        n *= info.p**e

    if n == 1:
        return Triple(mod.m, 1, 0, 1)

    def matches(u: int, v: int) -> bool:
        # v_Q(u + v*sqrt(-m)) = 2e at each listed ideal Q (odd primes)
        return all(
            ideal_valuation(mod, u, v, info, conj) == 2 * e for info, e, conj in odd_split
        )

    survivors = [
        t
        for t in _principal_square_triples(mod, n)
        if matches(t.a, t.b) or matches(t.a, -t.b)
    ]
    if not survivors:
        raise NotTwoTorsionError(
            "ideal product has no generator of the required norm; its class is not 2-torsion"
        )
    if len(survivors) > 1:
        raise AssertionError(f"generator not unique: {survivors}")
    return survivors[0]


def special_four_element(mod: Modulus) -> Triple | None:
    """The primitive triple [q, r, 4], present only for m = 7 and m = 15."""
    for u, v in solve_norm_equation(mod, 16):
        if v > 0:
            return Triple(mod.m, u, v, 4)
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

    def category_of(self, p: int) -> Category:
        if kronecker(self.mod, p) != 1:
            raise ValueError(f"{p} does not split: beta({p}) is undefined")
        if self.table.in_two_torsion(self.table.class_of_prime(p)):
            return Category.TWO_TORSION
        if any(pl.p == p for pl in self.pillars):
            return Category.PILLAR
        return Category.COMPOSITE

    def exponent_vector(self, p: int) -> tuple[ExpEntry, ...]:
        """Canonical pillar exponents moving the ideal above p into 2-torsion.

        Each coordinate b of the inverse image class is folded into
        min(b, h - b) with a conjugate flag when the upper half was taken;
        ties at exactly h/2 prefer the unconjugated pillar.
        """
        cat = self.category_of(p)
        if cat is Category.TWO_TORSION:
            raise ValueError(f"the class of {p} is 2-torsion; its exponent vector is trivial")
        if cat is Category.PILLAR:
            raise ValueError(f"{p} is a pillar prime")
        fp = self.table.class_of_prime(p)
        b = self.quotient.coords(fp.inverse())
        out = []
        for bj, pl in zip(b, self.pillars):
            if bj <= pl.order // 2:
                out.append(ExpEntry(pl.index, bj, False))
            else:
                out.append(ExpEntry(pl.index, pl.order - bj, True))
        return tuple(out)

    def beta(self, p: int) -> BasisElement:
        got = self._beta.get(p)
        if got is None:
            got = self._beta[p] = self._compute_beta(p)
        return got

    def _compute_beta(self, p: int) -> BasisElement:
        cat = self.category_of(p)
        info = splitting_type(self.mod, p)
        if cat is Category.TWO_TORSION:
            triple = two_torsion_triple(self.mod, [(info, 1)])
            return BasisElement(p, triple, Category.TWO_TORSION)
        if cat is Category.PILLAR:
            pl = next(pl for pl in self.pillars if pl.p == p)
            triple = two_torsion_triple(self.mod, [(pl.info, pl.order)])
            return BasisElement(p, triple, Category.PILLAR, pillar_index=pl.index)
        exps = self.exponent_vector(p)
        n = p
        for e, pl in zip(exps, self.pillars):
            n *= pl.p**e.a
        candidates = _principal_square_triples(self.mod, n)
        if not candidates:
            raise AssertionError(f"no primitive triple realizes beta({p})")
        return BasisElement(p, candidates[0], Category.COMPOSITE, exps=exps)

    def elements(self, bound: int) -> list[BasisElement]:
        """beta(p) for every split prime p up to bound, ascending.

        For m in {7, 15} the distinguished [q, r, 4] element equals beta(2)
        and is included even when the bound excludes 2.
        """
        ps = self.split_primes(bound)
        if self.special() is not None and 2 not in ps:
            ps = [2, *ps]
        return [self.beta(p) for p in ps]

