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
Cornacchia's algorithm (two_torsion_triple): the squared ideal is the
Gauss composition of the forms of its prime-power factors
(classgroup.prime_form and united).  A table reads all it needs of p off
one form, prime_form(p, 2), the square of the ideal over p: reduced, it is
the image of p in Cl^2, which gives the category; unreduced, it is the
form of the factor over p.  The pillar exponents and flags of a composite
p depend only on that image, so a table builds the pillar part of the
squared ideal once per class of Cl^2, one united form per admissible
pattern, and a composite beta costs one composition and one Euclid run
per pattern (one, but for a tie at half a pillar order).  A pillar or
two-torsion beta costs one Euclid run.  A table computes each beta(p) once,
from one record of the splitting data of p: BasisTable.beta proves p prime, while
elements and decompose, whose primes come from the sieve or from
factorize, proved already, prove none.  elements classifies each sieved
prime by that record alone: whether -m has a square root mod p tells
whether p splits.  two_torsion_primes classifies no prime one at a time:
the primes whose class is 2-torsion are the prime values of the ambiguous
forms, which it enumerates.
The image of beta generates the triple group freely.  For m in {7, 15}
beta(2) is the distinguished [q, r, 4] element, which BasisTable.special
reads off the memo; no other modulus has one.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import reduce
from math import gcd, isqrt, prod

from .classgroup import (
    ClassGroupTable,
    FormClass,
    Pillar,
    QuotientData,
    prime_form,
    quotient_setup,
    reduce_form,
    united,
)
from .primes import primes_up_to
from .quadfield import Modulus, PrimeSplitInfo, SplitKind, splitting_type
from .quadfield import _legendre, _split_info
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
]


# Largest accepted prime bound.  On a 2-vCPU Xeon, generators -m 35 takes
# 0.07 s from process start at bound 10^4, 0.17 s at 10^5 and 1.2 s at 10^6
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


class ExpEntry(namedtuple("ExpEntry", "j a conj")):
    """One pillar exponent of a composite basis element.

    j is the 1-based pillar index.  With h the pillar's order, a is taken
    from {0, ..., floor(h/2)}; conj records whether the factor is a power
    of <p, -r + sqrt(-m)>, the conjugate of the chosen ideal
    <p, r + sqrt(-m)> of the pillar's PrimeSplitInfo.  At exactly h/2 both
    choices work and the chosen ideal is preferred.
    """

    __slots__ = ()


# a composite beta's pillar exponents, pillar norm and pillar forms, one per admissible pattern
Cofactor = tuple[tuple[ExpEntry, ...], int, tuple[tuple[int, int, int], ...]]


class BasisElement(namedtuple("BasisElement", "p triple category pillar_index exps", defaults=(None, ()))):
    """beta(p) with its category; a pillar's 1-based index, or a composite's pillar exponents."""

    __slots__ = ()


def split_primes(mod: Modulus, bound: int) -> list[int]:
    """Primes p <= bound with Kronecker symbol 1 (2 included iff -m = 1 mod 8).

    Raises BoundTooLargeError when bound exceeds MAX_BOUND.
    """
    return [p for p in _sieve(bound) if _legendre(mod, p) == 1]


def _sieve(bound: int) -> list[int]:
    """The primes up to bound; raises BoundTooLargeError when bound exceeds MAX_BOUND."""
    if bound > MAX_BOUND:
        raise BoundTooLargeError(bound)
    return primes_up_to(bound)


def solve_norm_equation(mod: Modulus, n: int) -> list[tuple[int, int]]:
    """All coprime (u, v) with u, v >= 0 and u^2 + m*v^2 = n, sorted by u.

    Exhaustive scan over v with an exact square test; n = 1 yields [(1, 0)].
    Nothing in the package calls it: it is kept only for the benchmark's
    norm-scan counter and as the tests' brute-force oracle.
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


IdealFactor = tuple[PrimeSplitInfo, int, bool]


def two_torsion_triple(mod: Modulus, factors: Iterable[IdealFactor]) -> Triple:
    """The primitive triple attached to an ideal product with 2-torsion class.

    factors lists (split info, exponent, conjugate) triples of distinct
    split primes with exponent at least 1; the product I of norm n must
    have class of order at most 2, so that I^2 is principal with a
    generator z of norm n^2.  The factors' forms prime_form(p, 2e), b
    negated for a conjugate factor, compose (unreduced, by united) to the
    form (N, B, C) of the conjugate of I^2, N = n^2; so I^2 = <N, (r +
    sqrt(-m)) / 2^(1-delta)> with r = B / 2^delta a square root of -m
    modulo 4N / 2^(2 delta).  Cornacchia's algorithm on (N, r), or on
    (2N, r) for 4N when delta = 0 (Cohen, GTM 138, Alg. 1.5.2 and 1.5.3),
    finds z or shows that I^2 is not principal.  Conjugating every factor
    gives the same triple.  The empty product gives the identity.
    """
    factors = list(factors)
    if len({info.p for info, e, _ in factors if info.kind is SplitKind.SPLIT and e >= 1}) != len(factors):
        raise ValueError("factors must be distinct split primes with exponents at least 1")
    if not factors:
        return Triple(mod.m, 1, 0, 1)
    n, form = 1, None
    for info, e, conj in factors:
        n *= info.p**e
        a, b, c = prime_form(mod, info, 2 * e)
        f = (a, -b, c) if conj else (a, b, c)
        form = f if form is None else united(form, f)
    return _generator_triple(mod, form, n)


def _generator_triple(mod: Modulus, form: tuple[int, int, int], n: int) -> Triple:
    """The triple of the generator of I^2, given the unreduced form (n^2, B, C) of its conjugate.

    Cornacchia's algorithm, as two_torsion_triple states it; raises
    NotTwoTorsionError when I^2 has no generator.
    """
    modulus = form[0] << (1 - mod.delta)
    r = (form[1] >> mod.delta) % modulus
    # Cornacchia: Euclid on (modulus, r) down to the square root of the norm
    norm = modulus << (1 - mod.delta)
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
    return normalize(mod.m, b, y, n << (1 - mod.delta))


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
        self._pillar_of: dict[int, Pillar] = {pl.p: pl for pl in self.pillars}
        self._pillar_forms: dict[tuple[int, int], tuple[int, int, int]] = {}
        self._cofactors: dict[FormClass, Cofactor] = {}

    @property
    def pillars(self) -> tuple[Pillar, ...]:
        return self.quotient.pillars

    def split_primes(self, bound: int) -> list[int]:
        return split_primes(self.mod, bound)

    def two_torsion_primes(self, bound: int) -> list[int]:
        """The split primes p <= bound whose ideal class has order at most 2, ascending.

        Those classes are the ambiguous reduced forms (Cohen, GTM 138,
        section 5.6), and a prime p not dividing disc has an ideal in the
        class of a form exactly when the form represents p primitively
        (Cox, Primes of the Form x^2 + ny^2, sections 2 and 7).  So the list
        is the primes up to bound, less those dividing disc, that an
        ambiguous form takes as a value.  With 4a f(x, y) = (2ax + by)^2 +
        |disc| y^2, the values f <= bound lie in |disc| y^2 <= 4a bound and
        |2ax + by| <= isqrt(4a bound - |disc| y^2); a prime value forces
        gcd(x, y) = 1, and f(x, -y) = f(-x, y) leaves y >= 0.
        """
        primes = set(_sieve(bound))
        disc = self.mod.disc
        found: set[int] = set()
        for a, b, c in self.table.twotorsion:
            y = 0
            while -disc * y * y <= 4 * a * bound:
                s = isqrt(4 * a * bound + disc * y * y)
                by, cyy = b * y, c * y * y
                xs = range(-((s + by) // (2 * a)), (s - by) // (2 * a) + 1)
                found.update(primes.intersection((a * x + by) * x + cyy for x in xs))
                y += 1
        return sorted(p for p in found if disc % p)

    def special(self) -> Triple | None:
        """The distinguished element [q, r, 4], which is beta(2); None unless m is 7 or 15.

        q^2 + m*r^2 = 16 with r > 0 needs m <= 16, and r >= 2 would need
        m <= 4; with r = 1 only 16 - 7 = 3^2 and 16 - 15 = 1^2 are squares.
        At both, 2 splits and beta(2) is that element, [3, 1, 4] and [1, 1, 4];
        at any other m nothing is built.
        """
        return self.beta(2).triple if self.mod.m in (7, 15) else None

    def category_of(self, p: int) -> Category:
        return self.beta(p).category

    def exponent_vector(self, p: int) -> tuple[ExpEntry, ...]:
        """Canonical pillar exponents moving the ideal above p into 2-torsion."""
        el = self.beta(p)
        if el.category is Category.TWO_TORSION:
            raise ValueError(f"the class of {p} is 2-torsion; its exponent vector is trivial")
        if el.category is Category.PILLAR:
            raise ValueError(f"{p} is a pillar prime")
        return el.exps

    def beta(self, p: int) -> BasisElement:
        """beta(p), computed once; raises ValueError unless p is a split prime."""
        return self._beta.get(p) or self._compute_beta(splitting_type(self.mod, p))

    def _proven_beta(self, p: int) -> BasisElement:
        """beta(p) for a p already proved prime, which is not proved again."""
        return self._beta.get(p) or self._compute_beta(_split_info(self.mod, p))

    def _squared(self, info: PrimeSplitInfo) -> tuple[tuple[int, int, int], FormClass]:
        """prime_form(p, 2), the conjugate of the square of the chosen ideal over p, and its class.

        That class is the image of p in Cl^2, the square of class_of_prime(p),
        and p is two-torsion exactly when it is the identity.
        """
        own = prime_form(self.mod, info, 2)
        return own, reduce_form(*own)

    def _pillar_form(self, j: int, a: int, conj: bool) -> tuple[int, int, int]:
        """prime_form(pillar j, 2a), b negated for the conjugate; lifted once per (j, a)."""
        f = self._pillar_forms.get((j, a))
        if f is None:
            f = self._pillar_forms[j, a] = prime_form(self.mod, self.pillars[j - 1].info, 2 * a)
        return (f[0], -f[1], f[2]) if conj else f

    def _cofactor(self, image: FormClass) -> Cofactor:
        """The pillar part of every composite beta whose image in Cl^2 is image, built once per class.

        Each quotient coordinate b of the inverse image is folded into
        min(b, h - b) with a conjugate flag when the upper half was taken;
        ties at exactly h/2 prefer the unconjugated pillar.  The canonical
        flags put the product into 2-torsion.  Flipping pillar j moves its
        class by the pillar's class to the power -+2a, which by the
        independence of the pillar images stays 2-torsion iff 2a = h.
        Returns the exponents, the pillar norm prod p_j^a_j and, for each
        admissible conjugation pattern, the unreduced united form of the
        pillar factors prime_form(p_j, 2a_j).
        """
        entry = self._cofactors.get(image)
        if entry is None:
            exps = tuple(
                ExpEntry(pl.index, min(b, pl.order - b), b > pl.order // 2)
                for b, pl in zip(self.quotient.image_coords(image.inverse()), self.pillars)
            )
            choices = [
                [(e.j, e.a, c) for c in ((False, True) if 2 * e.a == pl.order else (e.conj,))]
                for e, pl in zip(exps, self.pillars)
                if e.a
            ]
            forms = tuple(
                reduce(united, (self._pillar_form(*factor) for factor in pattern))
                for pattern in itertools.product(*choices)
            )
            n = prod(pl.p**e.a for e, pl in zip(exps, self.pillars))
            entry = self._cofactors[image] = (exps, n, forms)
        return entry

    def _compute_beta(self, info: PrimeSplitInfo) -> BasisElement:
        """beta(p) from the splitting data of p, stored in the memo.

        One branch per category, each ending in Cornacchia's algorithm.  A
        pillar p, of order h, takes one run on prime_form(p, 2h).  Any other
        p reads its category off one form, prime_form(p, 2), whose class is
        the image of p in Cl^2: the identity for a two-torsion p, which takes
        one run on that form.  A composite p takes the pillar cofactor of
        its image (_cofactor), united with the unreduced prime_form(p, 2),
        and one run per admissible pattern; when a tie 2a = h admits more
        than one, the triple is the smallest, by (a, c), of their generators.
        """
        p = info.p
        if info.kind is not SplitKind.SPLIT:
            raise ValueError(f"{p} does not split: beta({p}) is undefined")
        pillar = self._pillar_of.get(p)
        if pillar is not None:
            k = pillar.order
            triple = _generator_triple(self.mod, prime_form(self.mod, info, 2 * k), p**k)
            el = BasisElement(p, triple, Category.PILLAR, pillar.index)
        else:
            own, image = self._squared(info)
            if image == self.table.identity:
                el = BasisElement(p, _generator_triple(self.mod, own, p), Category.TWO_TORSION)
            else:
                exps, n, forms = self._cofactor(image)
                found = [_generator_triple(self.mod, united(own, f), p * n) for f in forms]
                triple = found[0] if len(found) == 1 else min(found, key=lambda t: (t.a, t.c))
                el = BasisElement(p, triple, Category.COMPOSITE, None, exps)
        return self._beta.setdefault(p, el)

    def elements(self, bound: int) -> list[BasisElement]:
        """beta(p) for every split prime p up to bound, ascending.

        A prime whose beta is kept is not classified again.
        """
        out = []
        for p in _sieve(bound):
            el = self._beta.get(p)
            if el is None:
                info = _split_info(self.mod, p)
                if info.kind is not SplitKind.SPLIT:
                    continue
                el = self._compute_beta(info)
            out.append(el)
        return out

