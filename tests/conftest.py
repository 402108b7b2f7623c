import itertools
import os
from math import gcd, isqrt

import pytest

from aptgroup import BasisTable, Modulus, Triple
from aptgroup.basis import BasisElement, Category, ExpEntry, NotTwoTorsionError
from aptgroup.classgroup import ClassGroupTable, FormClass, compose_forms
from aptgroup.primes import factorize, is_prime
from aptgroup.quadfield import PrimeSplitInfo, SplitKind, kronecker, lift_root, splitting_type
from aptgroup.triples import add, identity, normalize

# The Hypothesis tests keep no example database (database=None); Hypothesis
# would still cache the constants of the source under .hypothesis/, so its
# storage is pointed at a path that cannot be created, and nothing is written.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(os.devnull, "hypothesis"))

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


def oracle_add(t1: Triple, t2: Triple) -> Triple:
    """The group law written out, normalized at once: the oracle for triples.add."""
    m = t1.m
    return normalize(m, t1.a * t2.a - m * t1.b * t2.b, t1.a * t2.b + t2.a * t1.b, t1.c * t2.c)


def double_and_add(n: int, t: Triple) -> Triple:
    """n * t by double-and-add, every step normalized.

    The oracle for triples.scalar_mul, which powers a + b*sqrt(-m) and
    normalizes once.
    """
    if n < 0:
        n, t = -n, -t
    acc = identity(t.m)
    base = t
    while n:
        if n & 1:
            acc = oracle_add(acc, base)
        if n > 1:
            base = oracle_add(base, base)
        n >>= 1
    return acc


def termwise_recombine(basis: BasisTable, terms, special_coeff: int = 0) -> Triple:
    """sum(s * beta(p)) + special_coeff * [q, r, 4], one normalized term at a time.

    The oracle for decompose.recombine, which takes one product in
    Z[sqrt(-m)] over all the terms and normalizes it once.
    """
    acc = identity(basis.mod.m)
    for p, s in sorted(terms.items()):
        acc = oracle_add(acc, double_and_add(s, basis.beta(p).triple))
    if special_coeff:
        acc = oracle_add(acc, double_and_add(special_coeff, basis.special()))
    return acc


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0, by the extended Euclidean algorithm."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Solve x = r1 (mod m1), x = r2 (mod m2); return (x, lcm(m1, m2)).

    Raises ValueError when the congruences are incompatible.
    """
    g, s, _ = xgcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible congruences")
    l = m1 // g * m2
    x = (r1 + (r2 - r1) // g * s % (m2 // g) * m1) % l
    return x, l


def crt_two_torsion_triple(mod: Modulus, factors) -> Triple:
    """The triple of the generator of I^2, for the product I of (split info, exponent, conjugate) factors.

    The oracle for the triples of BasisTable.beta, which glues the middle
    coefficients of the factors' forms (basis._glue) and runs its own
    Cornacchia step; this one shares neither.  I^2 = <N, (r + sqrt(-m))
    / 2^(1-delta)> with N = n^2 and r a square root of -m modulo 4N /
    2^(2 delta), built by CRT from the Newton-lifted roots of the factors;
    oracle_generator finds the generator or raises NotTwoTorsionError when
    the class of I is not 2-torsion.  Raises ValueError unless the factors
    are distinct split primes with exponents at least 1.  The empty
    product gives the identity.
    """
    factors = list(factors)
    n = 1
    r, modulus = (0, 1) if mod.delta else (1, 2)  # r is odd when delta = 0
    for info, e, conj in factors:
        p = info.p
        if info.kind is not SplitKind.SPLIT or e < 1:
            raise ValueError(f"{p}^{e} is not a power of a split prime with exponent at least 1")
        n *= p**e
        # above 2 the root = 1 (mod 4), as in <2, (1 + sqrt(-m))/2>, needs one more power
        k = 2 * e + (p == 2)
        root = lift_root(mod, p, info.root, k)
        r, modulus = crt(r, modulus, -root if conj else root, p**k)
    if n == 1:
        return Triple(mod.m, 1, 0, 1)
    if modulus != n * n << (1 - mod.delta):
        raise ValueError("each prime may appear in only one factor")
    return oracle_generator(mod, r, n)


def oracle_generator(mod: Modulus, r: int, n: int) -> Triple:
    """The triple of the generator of I^2 = <N, (r + sqrt(-m)) / 2^(1-delta)>, N = n^2, r reduced.

    Cornacchia's algorithm on (N, r), or on (2N, r) for 4N when delta = 0;
    raises NotTwoTorsionError when I^2 has no generator of norm N.
    """
    modulus = n * n << (1 - mod.delta)
    norm = modulus << (1 - mod.delta)
    a, b, limit = modulus, r, isqrt(norm)
    while b > limit:
        a, b = b, a % b
    y2, rest = divmod(norm - b * b, mod.m)
    y = isqrt(y2)
    if rest or y * y != y2 or ((b - r * y) % modulus and (b + r * y) % modulus):
        raise NotTwoTorsionError("ideal product has no generator of the required norm")
    return normalize(mod.m, b, y, n << (1 - mod.delta))


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


def class_route_beta(basis: BasisTable, p: int) -> BasisElement:
    """beta(p) through the class of p in Cl: class_of_prime, QuotientData.coords, crt_two_torsion_triple.

    The oracle for BasisTable.beta, which reads the category and the
    coordinates off the one form prime_form(p, 2) and composes the pillar
    factors onto it itself.  Same rule: a class in Cl[2] is two-torsion, a
    pillar takes its order as exponent, and a composite p folds each
    coordinate of the inverse class b into min(b, h - b), flagged when
    b > h/2; the triple is the smallest, by (a, c), over the admissible
    conjugation patterns.
    """
    mod, table, quotient = basis.mod, basis.table, basis.quotient
    info = splitting_type(mod, p)
    fp = table.class_of_prime(p)
    pillar = next((pl for pl in quotient.pillars if pl.p == p), None)
    if fp in table.twotorsion:
        cat, own, exps = Category.TWO_TORSION, (info, 1, False), ()
    elif pillar is not None:
        cat, own, exps = Category.PILLAR, (info, pillar.order, False), ()
    else:
        cat, own = Category.COMPOSITE, (info, 1, False)
        exps = tuple(
            ExpEntry(pl.index, min(b, pl.order - b), b > pl.order // 2)
            for b, pl in zip(quotient.coords(fp.inverse()), quotient.pillars)
        )
    choices = [
        [(pl.info, e.a, conj) for conj in ((False, True) if 2 * e.a == pl.order else (e.conj,))]
        for e, pl in zip(exps, quotient.pillars)
        if e.a
    ]
    found = [crt_two_torsion_triple(mod, [own, *pattern]) for pattern in itertools.product(*choices)]
    triple = min(found, key=lambda t: (t.a, t.c))
    return BasisElement(p, triple, cat, pillar.index if pillar else None, exps)


def two_phase_pillars(table: ClassGroupTable) -> list[int]:
    """The default pillar primes by the full two-phase rule, every image the square of class_of_prime.

    The oracle for the default choice of QuotientData, which scans no prime
    in phase one for a cyclic q-part and reduces prime_form(p, 2) for an
    image.  Phase one scans the split primes, ascending, for every slot q^k
    of the invariant factors of Cl^2 (q ascending, powers descending): the
    first image of order q^k whose span meets the skeleton of q so far only
    in the identity.  Phase two multiplies the j-th skeleton images into a
    generator g of factor j and takes the first scanned image of the
    factor's order in the span of g.
    """
    ident = table.identity
    slots = sorted(
        ((q, q**e) for tau in table.square_factors for q, e in factorize(tau).items()),
        key=lambda s: (s[0], -s[1]),
    )
    split = (p for p in itertools.count(2) if is_prime(p) and kronecker(table.mod, p) == 1)
    scanned = []

    def candidates():
        for i in itertools.count():
            if i == len(scanned):
                p = next(split)
                f = table.class_of_prime(p)
                scanned.append((p, compose_forms(f, f)))
            yield scanned[i]

    skeleton: dict[int, list[FormClass]] = {}
    acc_by_q: dict[int, set[FormClass]] = {}
    for q, qk in slots:
        acc = acc_by_q.get(q, {ident})
        for _, image in candidates():
            if table.order_of(image) == qk:
                span = table.powers(image)
                if acc.isdisjoint(span[1:]):
                    skeleton.setdefault(q, []).append(image)
                    acc_by_q[q] = {compose_forms(x, y) for x in acc for y in span}
                    break
    picks = []
    for j, tau in enumerate(table.square_factors):
        g = ident
        for q in factorize(tau):
            g = compose_forms(g, skeleton[q][j])
        target = set(table.powers(g))
        picks.append(next(p for p, x in candidates() if x in target and table.order_of(x) == tau))
    return picks


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


_CATEGORY_RANK = {Category.COMPOSITE: 0, Category.PILLAR: 1, Category.TWO_TORSION: 2}


def descent(basis: BasisTable, t: Triple):
    """Coordinates of t by descent on its third component, one unit at a time.

    The oracle for decompose, which reads every coefficient off one
    factorization instead.  While some prime q of the third component is
    left, t - beta(q) lowers the power of q when t and beta(q) lie over the
    same prime ideal at q (q^2 divides the cross term), and t + beta(q)
    does otherwise.  Composite primes go first (their basis triples bring
    in only pillars and 2), then pillars, then 2-torsion primes; for
    m in {7, 15} a step at 2 counts for the [q, r, 4] element.  Returns the
    coefficients, the special coefficient and the steps, as
    (triple, prime, sign) with the sign the step contributes.
    """
    special = basis.special()
    coeffs: dict[int, int] = {}
    special_coeff = 0
    steps = []
    cur = t
    while not cur.is_identity():
        fac = factorize(cur.c)
        if steps:
            q = steps[-1][1]
            assert fac.get(q, 0) < valuation(steps[-1][0].c, q), f"descent stalled at prime {q} on {cur}"
        # an inert 2 may divide c once when -m = 1 (mod 4); it belongs to no prime ideal
        ranked = [(_CATEGORY_RANK[basis.beta(p).category], p) for p in fac if p != 2 or kronecker(basis.mod, 2) == 1]
        _, q = min(ranked)
        step = basis.beta(q).triple
        sign = 1 if (cur.a * step.b - step.a * cur.b) % (q * q) == 0 else -1
        steps.append((cur, q, sign))
        cur = add(cur, -step if sign == 1 else step)
        if special is not None and q == 2:
            special_coeff += sign
        else:
            coeffs[q] = coeffs.get(q, 0) + sign
    return {p: s for p, s in coeffs.items() if s}, special_coeff, steps
