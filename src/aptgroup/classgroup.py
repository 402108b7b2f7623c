"""The ideal class group of Q(sqrt(-m)) as reduced binary quadratic forms.

Classes are represented by reduced primitive positive definite forms
A*x^2 + B*x*y + C*y^2 of the field discriminant, composed by Gauss
composition (Cohen, GTM 138, Alg. 5.4.7).  prime_form alone writes a
prime ideal or its power as a form; basis composes those forms, unreduced
by united, into the squared ideal of each beta.  The forms are enumerated by
middle coefficient: for each b, the leading coefficients a are read off the
divisors of (b^2 - disc)/4, and all those values are factored together by
one sieve over the primes at which disc is a square, so enumeration costs
about sqrt|disc| log log|disc| divisions rather than a scan of every (a, b)
pair.  Beyond the bare group this module recovers the 2-torsion subgroup
Cl[2] and the invariant factors.  Cl[2] is read off the shape of the
forms: it is the ambiguous ones, b = 0, b = a or a = c (Gauss's genus
theory; Cohen, GTM 138, section 5.6).  Squaring maps Cl onto its subgroup
of squares Cl^2 with kernel Cl[2], so only the classes of Cl^2 are walked,
each once; for each prime q the counts #{x in Cl^2 : x^(q^k) = 1} fix
the q-parts of the invariant factors of Cl^2, and those of Cl follow from
them and the 2-rank.  The quotient Cl/Cl[2] is presented as Cl^2: a direct
sum in which each cyclic factor is generated by the square of the class of
a chosen split prime ideal (a "pillar"), its powers read off the walks.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .primes import factorize, is_prime, primes_up_to
from .quadfield import Modulus, PrimeSplitInfo, SplitKind, _split_info, lift_root, splitting_type, sqrt_mod

__all__ = [
    "DiscriminantMismatchError",
    "PillarConfigError",
    "FormClass",
    "reduce_form",
    "principal_form",
    "united",
    "compose_forms",
    "prime_form",
    "ClassGroupTable",
    "Pillar",
    "QuotientData",
    "quotient_setup",
]


class DiscriminantMismatchError(ValueError):
    """Form does not have the expected discriminant."""


class PillarConfigError(ValueError):
    """A pillar override does not give a direct-sum decomposition of the quotient."""


class FormClass(namedtuple("FormClass", "a b c")):
    """A reduced form: A > 0, -A < B <= A <= C, B >= 0 when A = C or A = |B|.

    A form is the tuple (a, b, c): equality, hashing and ordering are the
    tuple's, so the dicts and sets keyed by forms compare them in C.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> "FormClass":
        if a <= 0 or not (-a < b <= a <= c) or (b < 0 and (a == c or a == abs(b))):
            raise ValueError(f"form ({a}, {b}, {c}) is not reduced")
        if gcd(gcd(a, abs(b)), c) != 1:
            raise ValueError(f"form ({a}, {b}, {c}) is not primitive")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable) -> "FormClass":
        # _replace builds through here, so it checks as FormClass(...) does
        return cls(*iterable)

    @property
    def disc(self) -> int:
        a, b, c = self
        return b * b - 4 * a * c

    def inverse(self) -> "FormClass":
        """(a, -b, c), or the form itself when it is ambiguous: no reduction needed."""
        if _is_ambiguous(self):
            return self
        a, b, c = self
        return tuple.__new__(FormClass, (a, -b, c))

    def __repr__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def _is_ambiguous(f: FormClass) -> bool:
    """Whether the reduced form f is its own inverse, i.e. lies in Cl[2]."""
    a, b, c = f
    return b == 0 or b == a or a == c


def reduce_form(a: int, b: int, c: int) -> FormClass:
    """Gauss reduction of a primitive positive definite form; idempotent on reduced forms."""
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise ValueError("form must be positive definite")
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return FormClass(a, b, c)


def principal_form(disc: int) -> FormClass:
    if disc % 2 == 0:
        return FormClass(1, 0, -disc // 4)
    return FormClass(1, 1, (1 - disc) // 4)


def united(f, g) -> tuple[int, int, int]:
    """The united form of two forms of one discriminant, unreduced.

    Gauss composition, Cohen, GTM 138, Alg. 5.4.7: the form (a3, b3, c3)
    with a3 = a1 * a2 / d1^2 for d = gcd(a1, a2) and d1 = gcd(d, s),
    s = (b1 + b2) / 2.  Any Bezout coefficients give a form of the product
    class, which reduction makes canonical, so they are read off modular
    inverses: y1, that of a2, is (a2/d)^-1 mod a1/d, and x2, that of s, is
    (s/d1)^-1 mod d/d1.
    """
    a1, b1, c1 = f
    a2, b2, c2 = g
    disc, disc2 = b1 * b1 - 4 * a1 * c1, b2 * b2 - 4 * a2 * c2
    if disc2 != disc:
        raise DiscriminantMismatchError(f"cannot compose discriminants {disc} and {disc2}")
    if a1 > a2:
        (a1, b1, c1), (a2, b2, c2) = g, f
    s = (b1 + b2) // 2
    n = b2 - s
    d = gcd(a1, a2)
    y1 = pow(a2 // d, -1, a1 // d)
    d1 = gcd(s, d)
    x2 = pow(s // d1, -1, d // d1)
    y2 = (x2 * s - d1) // d
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1


def compose_forms(f: FormClass, g: FormClass) -> FormClass:
    """Gauss composition of two forms of one discriminant, reduced."""
    return reduce_form(*united(f, g))


def prime_form(mod: Modulus, info: PrimeSplitInfo, k: int = 1, root: int | None = None) -> tuple[int, int, int]:
    """The unreduced form (p^k, b, c) of the k-th power of the conjugate of the chosen ideal over p.

    The form (a, b, c) stands for the ideal [a, (-b + sqrt(disc))/2]
    (Cohen, GTM 138, section 5.2), so b = r (mod p^k) for a square root r
    of -m above info.root: b = 2r when disc = -4m, and b odd with b = r
    (mod p^k) when disc = -m.  For k = 1 that is <p, -r + sqrt(-m)>, the
    conjugate of the chosen ideal <p, r + sqrt(-m)> of PrimeSplitInfo; b
    negated gives the chosen ideal.  A split 2 has r = 1 (mod 4) and, as
    4a must divide b^2 - disc, one more power.  For k > 1 the root is
    lifted by lift_root, unless the caller passes it, reduced, as root.
    Split or ramified p; a ramified p takes k = 1.
    """
    p = info.p
    a = p**k
    r = root
    if r is None:
        r = info.root if k == 1 else lift_root(mod, p, info.root, k + (p == 2))
    b = 2 * r if mod.delta else r if r % 2 else r + a
    n = b * b - mod.disc
    # over 2, c is a shift; a long division by 2^(k+2) would take time quadratic in k
    return a, b, n >> (k + 2) if p == 2 else n // (4 * a)


def _enumerate_reduced(disc: int) -> list[FormClass]:
    """Every reduced primitive form of discriminant disc, sorted.

    Cohen, GTM 138, section 5.3, with the inner loop over a replaced by
    divisors: a reduced form has |b| <= a <= c, so 3b^2 <= |disc|, and for
    each b = disc (mod 2) the leading coefficients are the divisors a of
    n = (b^2 - disc)/4 with b <= a <= sqrt(n).  All the n are values of one
    quadratic polynomial in b, so they are factored together by the sieving
    step of the quadratic sieve (Pomerance, EUROCRYPT '84): an odd prime q
    divides n exactly when b = +-r (mod q) with r^2 = disc (mod q), so each
    q is divided out, completely, of every second or q-th n alone, and once
    every prime up to sqrt(max n) is out what is left of each n is 1 or a
    prime above sqrt(n), never a candidate a.  That is
    O(sqrt|disc| log log|disc|) divisions, plus one square root mod q for
    each odd prime q up to sqrt(|disc|/3).  The divisors up to sqrt(n) are
    built prime power by prime power over the factors, which ascend, so
    the first factor above sqrt(n) ends the list.
    """
    b0 = disc % 2
    ns = [(b * b - disc) // 4 for b in range(b0, isqrt(-disc // 3) + 1, 2)]
    rest = ns[:]
    factors: list[list[tuple[int, int]]] = [[] for _ in ns]
    for i, x in enumerate(rest):
        e = (x & -x).bit_length() - 1
        if e:
            rest[i] = x >> e
            factors[i].append((2, e))
    for q in primes_up_to(isqrt(ns[-1]))[1:]:  # 2 is out already
        r = sqrt_mod(disc, q)
        if r is None:
            continue
        half = (q + 1) // 2  # the inverse of 2 mod q, as b = b0 + 2i
        for start in {(r - b0) * half % q, (-r - b0) * half % q}:
            for i in range(start, len(ns), q):
                x, e = rest[i] // q, 1
                while x % q == 0:
                    x //= q
                    e += 1
                rest[i] = x
                factors[i].append((q, e))
    out = []
    for i, n in enumerate(ns):
        b = b0 + 2 * i
        top = isqrt(n)
        divisors = [1]
        for q, e in factors[i]:
            if q > top:
                break
            multiples = divisors
            for _ in range(e):
                multiples = [d * q for d in multiples if d * q <= top]
                if not multiples:
                    break
                divisors += multiples
        for a in divisors:
            if a < b:
                continue
            c = n // a
            if gcd(gcd(a, b), c) == 1:
                out.append(FormClass(a, b, c))
                if 0 < b < a < c:
                    out.append(FormClass(a, -b, c))
    out.sort()
    return out


def _cyclic_powers(g: FormClass, ident: FormClass) -> list[FormClass]:
    """[g^0, g^1, ..., g^(n-1)] for g of order n, in about n/2 compositions.

    The walk stops halfway, at the first j where g^j is its own inverse
    (n = 2j) or the inverse of g^(j-1) (n = 2j - 1); the powers past it,
    g^k = (g^(n-k))^-1, are inverses of those before, which cost none.
    """
    if g == ident:
        return [ident]
    powers = [ident, g]  # powers[j] = g^j
    while (inv := powers[-1].inverse()) not in (powers[-1], powers[-2]):
        powers.append(compose_forms(powers[-1], g))
    j = len(powers) - 1
    n = 2 * j if inv == powers[-1] else 2 * j - 1
    return powers + [powers[n - k].inverse() for k in range(j + 1, n)]


def _element_walks(generators, ident: FormClass, size: int) -> dict[FormClass, tuple[list, int]]:
    """x -> (walk, k) for every x in the subgroup of the given size that the generators span.

    Each walk is the powers of a generator g, by _cyclic_powers, and
    x = walk[k] = g^k.  Generators are drawn, lazily, only until all size
    elements are on a walk, so a form met as a power of an earlier one is
    not walked.
    """
    walks = {ident: ([ident], 0)}
    while len(walks) < size:
        g = next(generators)
        if g in walks:
            continue
        powers = _cyclic_powers(g, ident)
        for k, x in enumerate(powers):
            walks[x] = (powers, k)
    return walks


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors, largest first, of the finite abelian group with these element orders.

    For a prime q with q^e exactly dividing the group order, the q-part is
    a sum of cyclic groups of orders q^(a_1) >= q^(a_2) >= ...; the count
    c_k = #{x : ord(x) | q^k} is q^(sum_i min(a_i, k)), so c_k / c_(k-1) is
    q^(r_k) with r_k = #{i : a_i >= k}.  Factor i then holds q^#{k : r_k > i}.
    """
    factors: list[int] = []
    for q, qe in _prime_power_parts(len(orders)):
        ranks, prev, qk = [], 1, q
        while qe % qk == 0:
            count = sum(1 for n in orders if qk % n == 0)
            ratio, rank = count // prev, 0
            while ratio > 1:
                ratio //= q
                rank += 1
            ranks.append(rank)
            prev, qk = count, qk * q
        factors.extend([1] * (ranks[0] - len(factors)))
        for i in range(ranks[0]):
            factors[i] *= q ** sum(1 for r in ranks if r > i)
    return tuple(factors)


class ClassGroupTable:
    """All reduced forms of one field discriminant, with Cl[2] and the walks of Cl^2.

    ``twotorsion`` is the ambiguous forms, ``structure`` holds the
    invariant factors of Cl and ``square_factors`` those of Cl^2, largest
    first.  Only the squares are walked: the forms are squared in ascending
    order until every class of Cl^2 is on a walk, or walked themselves when
    Cl[2] is trivial and Cl^2 = Cl.  Each class of Cl^2 keeps the walk that
    reached it and its index there, and order_of and powers read it off.
    The invariant factors of Cl^2, padded with 1s to the 2-rank r, give
    those of Cl by doubling the first r.  All is fixed at construction but the memo of quotients, one per
    pillar choice, that quotient_setup fills lazily: two threads may both
    build one quotient, and either of the equal results is kept.
    """

    def __init__(self, mod: Modulus):
        self.mod = mod
        self.disc = mod.disc
        self.identity = principal_form(self.disc)
        self.forms: tuple[FormClass, ...] = tuple(_enumerate_reduced(self.disc))
        self.h = len(self.forms)
        self.twotorsion: tuple[FormClass, ...] = tuple(f for f in self.forms if _is_ambiguous(f))
        # a form and its inverse span one cyclic subgroup, and an ambiguous
        # form squares to the identity, so only 0 < b < a < c is drawn
        drawn = (f for f in self.forms if 0 < f.b < f.a < f.c)
        if len(self.twotorsion) > 1:
            drawn = (compose_forms(f, f) for f in drawn)
        self._walks = _element_walks(drawn, self.identity, self.h // len(self.twotorsion))
        rank = len(self.twotorsion).bit_length() - 1
        self.square_factors = _invariant_factors([self.order_of(x) for x in self._walks])
        factors = self.square_factors + (1,) * (rank - len(self.square_factors))
        self.structure: tuple[int, ...] = tuple(2 * n for n in factors[:rank]) + factors[rank:]
        self._quotients: dict[tuple[int, ...] | None, QuotientData] = {}

    def order_of(self, f: FormClass) -> int:
        if f not in self._walks:
            # an element of odd order is a square, so f has even order, twice that of f^2
            return 2 * self.order_of(compose_forms(f, f))
        walk, k = self._walks[f]
        return len(walk) // gcd(len(walk), k)

    def powers(self, x: FormClass) -> list[FormClass]:
        """[x^0, x^1, ...] up to the order of x in Cl^2, read off the walk through x.

        x = g^k on a walk of g of order n, so x^e = g^(k*e mod n).
        """
        walk, k = self._walks[x]
        n = len(walk)
        return [walk[k * e % n] for e in range(n // gcd(n, k))]

    def class_of_prime(self, p: int) -> FormClass:
        """The class of prime_form(p), that of the conjugate <p, -r + sqrt(-m)> of the chosen ideal.

        The chosen ideal <p, r + sqrt(-m)> of PrimeSplitInfo has the inverse
        class.  The pillars, the quotient and basis all use this one.  Inert
        primes lie over <p> itself, which is principal: the identity.
        """
        info = splitting_type(self.mod, p)
        if info.kind is SplitKind.INERT:
            return self.identity
        return reduce_form(*prime_form(self.mod, info))


class Pillar(namedtuple("Pillar", "index p info order")):
    """A split prime whose class image generates one cyclic factor of the quotient.

    index is the 1-based position of that cyclic factor and order its
    size; info is the splitting data of p.
    """

    __slots__ = ()


def _prime_power_parts(n: int) -> list[tuple[int, int]]:
    """[(q, q^k)] over the prime powers in n."""
    return [(q, q**e) for q, e in factorize(n).items()]


def _mul(x: FormClass, y: FormClass, ident: FormClass) -> FormClass:
    """x * y, composing only when neither factor is the identity."""
    if x == ident:
        return y
    if y == ident:
        return x
    return compose_forms(x, y)


def _override_info(mod: Modulus, p: int) -> PrimeSplitInfo:
    """The splitting data of a pillar override p, proved prime and checked to split."""
    if not is_prime(p):
        raise PillarConfigError(f"pillar {p} is not a prime")
    info = _split_info(mod, p)
    if info.kind is not SplitKind.SPLIT:
        raise PillarConfigError(f"pillar prime {p} does not split")
    return info


def _split_prime_infos(mod: Modulus):
    """The splitting data of the split primes, ascending; sieved, so not proved again."""
    bound = 256
    seen = 0
    while bound <= max(1 << 20, 64 * abs(mod.disc)):
        ps = primes_up_to(bound)
        for p in ps[seen:]:
            info = _split_info(mod, p)
            if info.kind is SplitKind.SPLIT:
                yield info
        seen = len(ps)
        bound *= 4
    raise RuntimeError("pillar search exhausted the prime bound")


class QuotientData:
    """A direct-sum presentation of Cl modulo 2-torsion by pillar prime images.

    Squaring maps Cl onto its subgroup of squares with kernel Cl[2], so the
    quotient is presented as that subgroup: the image of a class f is
    f * f, and its size and invariant factors are those of the table's
    walks of Cl^2.  The image of a split prime p is the class of
    prime_form(p, 2), the square of its ideal, so it is reduced, not
    composed.  The pillar primes, an override in the given order (each
    proved prime and checked to split) or the default two-phase choice
    (each with the splitting data it was scanned with), go through one
    construction: it grows the coordinates factor by factor and checks the
    internal direct sum, as |A * B| = |A| |B| exactly when A and B meet
    only in the identity.
    It reads the table only while it is built and keeps no reference to
    it, so a table and the quotients it keeps form no reference cycle and
    are freed as soon as the table is dropped.
    """

    def __init__(self, table: ClassGroupTable, override: tuple[int, ...] | None = None):
        ident = self.identity = table.identity
        self.size = len(table._walks)
        self.invariant_factors: tuple[int, ...] = table.square_factors
        if override is None:
            picks = self._select_default_pillars(table)
        else:
            # lazily, so each pillar is checked only after those before it
            picks = ((_override_info(table.mod, p), None) for p in override)
        coords: dict[FormClass, tuple[int, ...]] = {ident: ()}
        pillars = []
        for j, (info, powers) in enumerate(picks, start=1):
            p = info.p
            if powers is None:
                powers = table.powers(reduce_form(*prime_form(table.mod, info, 2)))
            if len(powers) == 1:
                raise PillarConfigError(f"pillar prime {p} has trivial quotient image")
            grown = {
                _mul(x, y, ident): exps + (e,)
                for x, exps in coords.items()
                for e, y in enumerate(powers)
            }
            if len(grown) != len(coords) * len(powers):
                raise PillarConfigError(f"pillar prime {p} is not independent of the others")
            coords = grown
            pillars.append(Pillar(j, p, info, len(powers)))
        if len(coords) != self.size:
            raise PillarConfigError(
                f"pillar images span {len(coords)} of {self.size} quotient classes"
            )
        self.pillars: tuple[Pillar, ...] = tuple(pillars)
        self._coords = coords

    def _select_default_pillars(self, table: ClassGroupTable) -> list[tuple[PrimeSplitInfo, list[FormClass]]]:
        """The default pillar primes, one per invariant factor, each with the powers of its image.

        Phase one builds a primary skeleton: for every prime-power slot q^k
        of the invariant factors (q ascending, powers descending), the
        smallest split prime whose image (the square of its class) has
        order q^k and whose span meets the skeleton of q so far only in the
        identity.  When q divides one invariant factor alone, the q-part is
        cyclic and any element of order q^k spans it, so the skeleton takes
        one off the table's walks and scans no prime; phase two's targets,
        and so the picks, are the same.  The j-th skeleton images of the q
        dividing factor j (both lists descend) multiply to a generator g of
        that cyclic factor, of order tau.  Phase two picks the smallest split prime
        whose image x = g^s generates it, gcd(s, tau) = 1, which exists by
        Chebotarev density.  Both phases draw the split primes in
        increasing order, so the result is reproducible.  Scanning a prime
        costs no composition: its image is the reduced prime_form(p, 2).
        Every span is read off the table's walks, which costs none.  Each
        pick carries the splitting data it was scanned with, so it is not
        proved prime or split again.
        """
        ident = self.identity
        parts = [_prime_power_parts(tau) for tau in self.invariant_factors]
        slots = sorted((s for ps in parts for s in ps), key=lambda s: (s[0], -s[1]))

        scanned: list[tuple[PrimeSplitInfo, FormClass]] = []  # (splitting data, image of its class)
        stream = _split_prime_infos(table.mod)

        def candidates():
            i = 0
            while True:
                if i == len(scanned):
                    info = next(stream)
                    scanned.append((info, reduce_form(*prime_form(table.mod, info, 2))))
                yield scanned[i]
                i += 1

        # phase one: primary skeleton, the images of each q by descending order
        skeleton: dict[int, list[FormClass]] = {}
        acc_by_q: dict[int, frozenset[FormClass]] = {}
        for pos, (q, qk) in enumerate(slots):
            if sum(1 for s in slots if s[0] == q) == 1:
                # the q-part is cyclic: any element of order q^k spans it, so none is scanned
                walk = next(w for w, _ in table._walks.values() if len(w) % qk == 0)
                skeleton[q] = [walk[len(walk) // qk]]
                continue
            acc = acc_by_q.get(q, frozenset({ident}))
            for _, image in candidates():
                if table.order_of(image) == qk:
                    span = table.powers(image)
                    if acc.isdisjoint(span[1:]):
                        skeleton.setdefault(q, []).append(image)
                        # the span is read only by a later slot of the same q
                        if pos + 1 < len(slots) and slots[pos + 1][0] == q:
                            acc_by_q[q] = frozenset(_mul(x, y, ident) for x in acc for y in span)
                        break

        # phase two: a generator of each invariant factor, then the first exact one
        picks = []
        for j, tau in enumerate(self.invariant_factors):
            g = ident
            for q, _ in parts[j]:
                g = _mul(g, skeleton[q][j], ident)
            target = frozenset(table.powers(g))
            # the targets are distinct subgroups, so no prime is picked twice
            for info, x in candidates():
                if x in target and table.order_of(x) == tau:
                    break
            picks.append((info, table.powers(x)))
        return picks

    def coords(self, f: FormClass) -> tuple[int, ...]:
        """Exponents of the image of f over the pillar images, one per factor."""
        return self._coords[compose_forms(f, f)]

    def image_coords(self, x: FormClass) -> tuple[int, ...]:
        """Exponents of x, a class of Cl^2, over the pillar images, one per factor."""
        return self._coords[x]


def quotient_setup(
    table: ClassGroupTable, pillars: tuple[int, ...] | list[int] | None = None
) -> QuotientData:
    """Quotient presentation of Cl modulo 2-torsion with chosen pillar primes.

    With pillars=None the deterministic default rule applies; otherwise the
    given primes are used in order and validated.  When every class is
    2-torsion the pillar list is empty, and only an empty override passes.
    """
    key = tuple(pillars) if pillars is not None else None
    got = table._quotients.get(key)
    if got is None:
        got = table._quotients[key] = QuotientData(table, key)
    return got
