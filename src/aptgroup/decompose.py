"""Exact decomposition of triples over the beta basis.

Any primitive triple is an integer combination of basis triples, and its
coordinates are read off one factorization of its third component c.  At
a split prime q the triple lies over one of the two prime ideals above
q, with exponent v_q(c) (v_2(c) - 1 at a split 2, where the element of
the maximal order is (a + b*sqrt(-m)) / 2), and the signed exponent,
positive on the side of beta(q), is additive in the group.
beta(q) has signed exponent 1 at q, a pillar's beta its order h, and no
basis triple other than beta(q) has q in its third component unless q
is a pillar.  So each composite and 2-torsion coefficient is the signed
exponent of t, one residue telling the side, and each pillar coefficient
is the signed exponent of t less those of the composite terms, divided
by h.  The result is verified before it is returned: the product of the
basis powers it names must be proportional to a + b*sqrt(-m), which is
checked by one exact cross-multiplication.  For m in {7, 15} beta(2) is
the distinguished [q, r, 4] element (BasisTable.special), so the
coefficient at 2 is reported separately, as that element's.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping

from .basis import BasisTable
from .primes import _divide_out, factorize
from .quadfield import Modulus, SplitKind, _legendre, _split_info
from .triples import Triple, mul, normalize, power

__all__ = [
    "DecompositionError",
    "PrimeIdealRef",
    "Decomposition",
    "ideal_valuations",
    "decompose",
    "recombine",
]


class DecompositionError(RuntimeError):
    """Internal inconsistency: a prime outside L or a failed recombination check."""


class PrimeIdealRef(namedtuple("PrimeIdealRef", "p root conj")):
    """A degree-one prime ideal <p, root + sqrt(-m)> over an odd split p.

    conj is set when root is the non-canonical square root p - r.
    """

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", "m input terms special_coeff verified", defaults=(0, False))):
    """The coordinates of input over the basis of modulus m.

    terms holds the (prime, coefficient) pairs, primes ascending, with no
    zero coefficient; special_coeff is that of [q, r, 4] for m in {7, 15}.
    verified is set once the coefficients have been checked to reproduce
    input.  It is the tuple of those fields, compared and hashed as a tuple.
    """

    __slots__ = ()

    def coefficients(self) -> dict[int, int]:
        return dict(self.terms)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "input": [self.input.a, self.input.b, self.input.c],
            "terms": [{"p": p, "coeff": s} for p, s in self.terms],
            "special": self.special_coeff,
            "verified": self.verified,
        }


def ideal_valuations(mod: Modulus, t: Triple) -> dict[PrimeIdealRef, int]:
    """Prime-ideal factorization of <a - b*sqrt(-m)> at the odd primes.

    Every odd prime dividing c splits, and coprimality of (a, b) forces the
    whole valuation 2 * v_q(c) onto exactly one of the two ideals over q:
    a - b*sqrt(-m) lies in the chosen ideal <q, r + sqrt(-m)> of
    PrimeSplitInfo exactly when q divides a + b*r, and otherwise in its
    conjugate <q, -r + sqrt(-m)>, the ideal of classgroup.prime_form and
    class_of_prime, which is reported with conj set.  All exponents are
    even and the ideal norms multiply to the square of the odd part of c.
    The 2-adic part (present only when -m = 1 mod 4 and c is even) is
    carried by the triple itself and is not reported here.
    """
    if t.m != mod.m:
        raise ValueError("triple does not belong to this modulus")
    out: dict[PrimeIdealRef, int] = {}
    for q, e in factorize(t.c).items():
        if q == 2:
            continue
        info = _split_info(mod, q)
        if info.kind is not SplitKind.SPLIT:
            raise ValueError(f"prime {q} divides the third component but does not split")
        if (t.a + t.b * info.root) % q == 0:
            out[PrimeIdealRef(q, info.root, False)] = 2 * e
        else:
            out[PrimeIdealRef(q, q - info.root, True)] = 2 * e
    return out


def _signed(x: Triple, ref: Triple, q: int, v: int) -> int:
    """v when x and ref lie over the same prime ideal at q, else -v.

    They do exactly when q^2 divides a_x * b_ref - a_ref * b_x (q alone
    would do for odd q; q^2 also covers a split 2).
    """
    return v if (x.a * ref.b - ref.a * x.b) % (q * q) == 0 else -v


def decompose(basis: BasisTable, t: Triple) -> Decomposition:
    """Express t as an integer combination of basis triples, exactly.

    Factors t.c once and reads each coefficient off it, as the module
    docstring sets out.  Basis elements are computed on demand, a pillar's
    only when its coefficient is not 0, and factorize's primes are not
    proved prime again, nor tested for splitting when their beta is
    already built.  The returned decomposition has been verified: the one
    product of the basis powers it names, unreduced, is compared with t by
    cross-multiplication, which is exact because the norm fixes c.  Only
    a failure reduces it, for the error text.
    """
    mod = basis.mod
    if t.m != mod.m:
        raise ValueError("triple does not belong to this basis")
    fac = factorize(t.c)
    vals: dict[int, int] = {}  # split prime q -> exponent of the ideal over q that t lies on
    coeffs: dict[int, int] = {}
    composites = []  # (coefficient, basis element) of each composite term
    pillar_primes = {pl.p for pl in basis.pillars}
    for q, e in fac.items():
        # only split primes enter the table's memo of betas
        if q not in basis._beta and _legendre(mod, q) != 1:
            if q == 2:
                # a single factor 2 may ride along when -m = 1 (mod 4)
                # even though 2 is inert; it belongs to no prime ideal
                continue
            raise DecompositionError(f"prime {q} divides the third component but is outside L")
        vals[q] = e - (q == 2)
        if q in pillar_primes:
            continue
        el = basis._proven_beta(q)
        coeffs[q] = s = _signed(t, el.triple, q, vals[q])
        if el.exps:
            composites.append((s, el))
    for pl in basis.pillars:
        j = pl.index - 1
        # the exponents at the pillar of t and of the composite terms taken off it
        parts = [(-s, el.triple, el.exps[j].a) for s, el in composites if el.exps[j].a]
        if pl.p in vals:
            parts.append((1, t, vals[pl.p]))
        if not parts:
            continue
        ref = parts[0][1]  # signs are taken on the side of one of them
        rest = sum(s * _signed(x, ref, pl.p, a) for s, x, a in parts)
        if not rest:
            continue
        # beta(p) has exponent h on its own side; recombination checks the quotient
        coeffs[pl.p] = _signed(basis._proven_beta(pl.p).triple, ref, pl.p, rest) // pl.order

    a, b, c = _product(basis, coeffs)
    # t and the product are the same class exactly when (a, b) is proportional to (t.a, t.b)
    if a * t.b != b * t.a:
        raise DecompositionError(f"recombination produced {normalize(mod.m, a, b, c)}, expected {t}")
    special_coeff = coeffs.pop(2, 0) if basis.special() is not None else 0
    terms = tuple(sorted((p, s) for p, s in coeffs.items() if s))
    return Decomposition(mod.m, t, terms, special_coeff, verified=True)


def _product(basis: BasisTable, terms: Mapping[int, int]) -> tuple[int, int, int]:
    """prod(beta(p)^s) in Z[sqrt(-m)], as a bare element.

    Its content is odd and lies only at the pillars where terms on
    opposite sides cancel; mul has taken out every factor 2.
    """
    m = basis.mod.m
    acc = None
    for p, s in sorted(terms.items()):
        if s:
            t = basis.beta(p).triple
            x = power(m, (t.a, t.b, t.c), s)
            acc = x if acc is None else mul(m, acc, x)
    return acc or (1, 0, 1)


def recombine(basis: BasisTable, terms: Mapping[int, int], special_coeff: int = 0) -> Triple:
    """Evaluate sum(s * beta(p)) + special_coeff * [q, r, 4] in the group.

    [q, r, 4] exists for m in {7, 15} only, and is beta(2) there, so
    special_coeff adds to the coefficient of 2; elsewhere a nonzero one
    raises ValueError.  The sum is one product of powers in Z[sqrt(-m)].
    Its content is divided out at the odd pillars only, where alone it can
    lie, without a gcd; Triple(...) still checks the equation and
    primitivity of the result.
    """
    if special_coeff:
        if basis.special() is None:
            raise ValueError("no [q, r, 4] element exists for this modulus")
        terms = {**terms, 2: terms.get(2, 0) + special_coeff}
    a, b, c = _product(basis, terms)
    for pl in basis.pillars:
        q = pl.p
        if q == 2 or a % q or c % q:
            continue
        # the content at q is min(v_q(a), v_q(c)), as q does not divide m
        a1, k = _divide_out(a, q)
        c1, r = divmod(c, q**k)
        if r:  # v_q(c) < v_q(a), so the content is v_q(c)
            c1, k = _divide_out(c, q)
            a1 = a // q**k
        a, b, c = a1, b // q**k, c1
    if a < 0:
        a, b = -a, -b
    return Triple(basis.mod.m, a, b, c)
