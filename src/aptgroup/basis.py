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
Cornacchia's algorithm (_generator_triple), which reads only the first
two coefficients (N, B) of the squared ideal's form: each prime-power
factor is carried as the pair (p^k, b) of classgroup.prime_form, and
factors of coprime norms glue by CRT on b (_glue).  A table reads all it
needs of a non-pillar p off one form, prime_form(p, 2), the square of the
ideal over p: reduced, it is the image of p in Cl^2, which gives the
category; unreduced, it is the factor over p.  A pillar's factors read
their root of -m off one lift per pillar (_pillar_factor).  The pillar
exponents and flags of a composite p depend only on that image, so a
table builds the pillar part of the squared ideal once per class of
Cl^2, one glued factor per admissible pattern, and a composite beta costs
one CRT step and one Euclid run per pattern (one, but for a tie at half a
pillar order).  A pillar or two-torsion beta costs one Euclid run.  A
table computes each beta(p) once, from one record of the splitting data
of p: BasisTable.beta proves p prime, while _proven_beta, the one answer
for a prime already proved (by the sieve of elements or by factorize in
decompose), proves none.  It tells what p is to the basis by that record
alone: whether -m has a square root mod p tells whether p splits, and a
p that does not split gets None and is kept nowhere.  two_torsion_primes
classifies no prime one at a time: the primes whose class is 2-torsion
are the prime values of the ambiguous forms, which it enumerates.  The
beta map is the package's only route from ideal factors to a triple.  A
table also multiplies its betas (_product), reading each power off a
ladder of squares it keeps.
The image of beta generates the triple group freely.  For m in {7, 15}
beta(2) is the distinguished [q, r, 4] element, which BasisTable.special
reads off the memo; no other modulus has one.
"""

from __future__ import annotations

import enum
import threading
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from math import gcd, isqrt

from .classgroup import ClassGroupTable, FormClass, Pillar, QuotientData, prime_form, quotient_setup, reduce_form
from .primes import primes_up_to
from .quadfield import Modulus, PrimeSplitInfo, SplitKind, _legendre, _split_info, lift_root, splitting_type
from .triples import Element, Ladder, Triple, mul, normalize, power

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


# a prime-power factor of a squared ideal: the first two coefficients (p^k, b) of its form
Factor = tuple[int, int]

# a composite beta's pillar exponents, pillar norm and glued pillar factors, one per admissible pattern
Cofactor = tuple[tuple[ExpEntry, ...], int, tuple[Factor, ...]]


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


def _glue(f: Factor, g: Factor) -> Factor:
    """The factor of the product of two ideals of coprime norms; (1, disc mod 2) is the unit.

    Gauss composition (classgroup.united; Cohen, GTM 138, Alg. 5.4.7) with
    d = 1 is N = a1 a2 and, by CRT, B = b1 (mod 2 a1) and b2 (mod 2 a2),
    inverting modulo the smaller norm as united does.  Both b have the
    parity of disc, so (b1 - b2) / 2 is exact; pow raises if the norms
    share a prime.
    """
    (a1, b1), (a2, b2) = f, g
    if a1 > a2:
        (a1, b1), (a2, b2) = g, f
    return a1 * a2, b2 + 2 * a2 * ((b1 - b2) // 2 * pow(a2, -1, a1) % a1)


def _generator_triple(mod: Modulus, factor: Factor, n: int) -> Triple:
    """The triple of the generator of I^2, for an ideal product I of norm n whose class is 2-torsion.

    factor holds the first two coefficients (N, B), N = n^2, of the form of
    the conjugate of I^2, glued (_glue) from factors (p^2e, +-b) of
    prime_form(p, 2e); so I^2 = <N, (r + sqrt(-m)) / 2^(1-delta)> with
    r = B / 2^delta.  Cornacchia's algorithm on (N, r), or on (2N, r) for
    4N when delta = 0 (Cohen, GTM 138, Alg. 1.5.2 and 1.5.3), finds the
    generator, or raises NotTwoTorsionError when I^2 is not principal.
    """
    modulus = factor[0] << (1 - mod.delta)
    r = (factor[1] >> mod.delta) % modulus
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

    The class group and quotient presentation are computed once.  Filled
    in lazily and kept as long as the table: each beta(p); one Hensel lift
    (precision, root) of -m per pillar (_pillar_factor), at most 2h (2h + 1
    at a split 2) digits of p; the composite cofactors, at most one per
    class of Cl^2; and the ladders below.  Every memo entry is a complete,
    immutable value stored by one assignment, and a lift is replaced whole,
    by one at least twice as precise.  So concurrent readers are safe: two
    threads may both build the same entry, and a lift may be replaced by a
    shorter one, still exact to its own precision, but no thread sees a
    partial one.

    For each p that _product has powered, the ladder beta(p), beta(p)^2,
    beta(p)^4, ... of triples.power, as far as the largest |n| asked for
    needs, about twice that power in digits.  Ladders are read and written
    only here, and replaced whole, under the table's lock and only by a
    longer tuple, so of two threads extending one at once the longer stays.
    Their keys are primes the table has proved; _proven_primes snapshots
    them by one C-level call, tuple(dict), so a thread adding ladders
    meanwhile cannot change the dict's size under its iteration.
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
        self._pillar_roots: dict[int, tuple[int, int]] = {}
        self._cofactors: dict[FormClass, Cofactor] = {}
        self._ladders: dict[int, Ladder] = {}
        self._ladder_lock = threading.Lock()

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

    def _proven_beta(self, p: int) -> BasisElement | None:
        """beta(p) for a p already proved prime, not proved again; None, and nothing kept, unless p splits.

        A kept beta costs no splitting test, any other p one _split_info.
        """
        el = self._beta.get(p)
        if el is None and (info := _split_info(self.mod, p)).kind is SplitKind.SPLIT:
            el = self._compute_beta(info)
        return el

    def _product(self, terms: Mapping[int, int]) -> Element:
        """prod(beta(p)^s) in Z[sqrt(-m)], as a bare element.

        Each power is read off the ladder of beta(p) that the table keeps,
        so a beta powered before costs no squaring, only popcount(|s|) - 1
        calls of mul, and one more per term after the first.  A first power
        of p builds beta(p), which raises ValueError unless p is a split
        prime; s = 0 builds none.  The content of the product is odd and lies
        only at the pillars where terms on opposite sides cancel.
        """
        m = self.mod.m
        acc = None
        for p, s in sorted(terms.items()):
            if not s:
                continue
            ladder = kept = self._ladders.get(p)
            if ladder is None:
                _, a, b, c = self.beta(p).triple
                ladder = ((a, b, c),)
            x, ladder = power(m, ladder, s)
            if ladder is not kept:
                with self._ladder_lock:
                    if len(ladder) > len(self._ladders.get(p, ())):
                        self._ladders[p] = ladder
            acc = x if acc is None else mul(m, acc, x)
        return acc or (1, 0, 1)

    def _proven_primes(self) -> Iterator[int]:
        """Primes the table has proved: its pillars' and the keys of its ladders, for factorize.

        Every prime of a triple that recombine built on the table is among
        them, or is 2.  The ladders, not the beta memo (39,257 primes after
        elements(10^6)), bound the scan.  A generator, so the keys are
        snapshotted only when factorize needs them.
        """
        yield from self._pillar_of
        yield from tuple(self._ladders)

    def _squared(self, info: PrimeSplitInfo) -> tuple[Factor, FormClass]:
        """The factor of prime_form(p, 2), the conjugate of the square of the chosen ideal over p, and its class.

        That class is the image of p in Cl^2, the square of class_of_prime(p),
        and p is two-torsion exactly when it is the identity.
        """
        a, b, c = prime_form(self.mod, info, 2)
        return (a, b), reduce_form(a, b, c)

    def _pillar_factor(self, pl: Pillar, k: int) -> Factor:
        """The factor (p^k, b) of prime_form(p, k) for a pillar p, read off the lift the table keeps.

        The root of -m mod p^k (2^(k+1) at 2) is the kept lift reduced, as a
        Hensel lift is unique.  A lift too short for it is replaced
        whole by one at least twice as precise, capped at what the pillar's
        own beta needs, so a pillar is lifted O(log h) times in all.
        """
        p, e = pl.p, k + (pl.p == 2)
        prec, root = self._pillar_roots.get(pl.index, (0, 0))
        if prec < e:
            prec = min(max(e, 2 * prec), 2 * pl.order + (p == 2))
            root = lift_root(self.mod, p, pl.info.root, prec)
            self._pillar_roots[pl.index] = (prec, root)
        a, b, _ = prime_form(self.mod, pl.info, k, root % p**e)
        return a, b

    def _cofactor(self, image: FormClass) -> Cofactor:
        """The pillar part of every composite beta whose image in Cl^2 is image, built once per class.

        Each quotient coordinate b of the inverse image is folded into
        min(b, h - b) with a conjugate flag when the upper half was taken;
        ties at exactly h/2 prefer the unconjugated pillar.  The canonical
        flags put the product into 2-torsion.  Flipping pillar j moves its
        class by the pillar's class to the power -+2a, which by the
        independence of the pillar images stays 2-torsion iff 2a = h.
        Returns the exponents, the pillar norm prod p_j^a_j and, for each
        admissible conjugation pattern, in one loop over the pillars, the
        glued pillar factors (p_j^2a_j, +-b_j) of prime_form(p_j, 2a_j).
        """
        entry = self._cofactors.get(image)
        if entry is None:
            exps, n, parts = [], 1, [(1, self.mod.disc % 2)]
            for b, pl in zip(self.quotient.image_coords(image.inverse()), self.pillars):
                a, conj = min(b, pl.order - b), b > pl.order // 2
                exps.append(ExpEntry(pl.index, a, conj))
                if a:
                    n *= pl.p**a
                    q, r = self._pillar_factor(pl, 2 * a)
                    flags = (False, True) if 2 * a == pl.order else (conj,)
                    parts = [_glue(part, (q, -r if c else r)) for part in parts for c in flags]
            entry = self._cofactors[image] = (tuple(exps), n, tuple(parts))
        return entry

    def _compute_beta(self, info: PrimeSplitInfo) -> BasisElement:
        """beta(p) from the splitting data of p, stored in the memo.

        One branch per category, each ending in Cornacchia's algorithm.  A
        pillar p, of order h, takes one run on its factor of prime_form(p,
        2h), read off the table's lift.  Any other p reads its category off
        one form, prime_form(p, 2), whose class is the image of p in Cl^2:
        the identity for a two-torsion p, which takes one run on its factor.
        A composite p glues that factor to each pillar factor of its image's
        cofactor (_cofactor) and takes one run per admissible pattern; when
        a tie 2a = h admits more than one, the triple is the smallest, by
        (a, c), of their generators.
        """
        p = info.p
        if info.kind is not SplitKind.SPLIT:
            raise ValueError(f"{p} does not split: beta({p}) is undefined")
        pillar = self._pillar_of.get(p)
        if pillar is not None:
            k = pillar.order
            triple = _generator_triple(self.mod, self._pillar_factor(pillar, 2 * k), p**k)
            el = BasisElement(p, triple, Category.PILLAR, pillar.index)
        else:
            own, image = self._squared(info)
            if image == self.table.identity:
                el = BasisElement(p, _generator_triple(self.mod, own, p), Category.TWO_TORSION)
            else:
                exps, n, parts = self._cofactor(image)
                found = [_generator_triple(self.mod, _glue(own, f), p * n) for f in parts]
                triple = found[0] if len(found) == 1 else min(found, key=lambda t: (t.a, t.c))
                el = BasisElement(p, triple, Category.COMPOSITE, None, exps)
        return self._beta.setdefault(p, el)

    def elements(self, bound: int) -> list[BasisElement]:
        """beta(p) for every split prime p up to bound, ascending (_proven_beta of each sieved p)."""
        return [el for p in _sieve(bound) if (el := self._proven_beta(p)) is not None]
