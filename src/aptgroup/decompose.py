"""Exact decomposition of triples over the beta basis.

Any primitive triple is an integer combination of basis triples.  The
coefficients are recovered by descent on the third component: while some
prime q of it remains, t - beta(q) strictly lowers the power of q when t
and beta(q) lie over the same prime ideal at q, and t + beta(q) does
otherwise; one residue mod q^2 tells which, and the sign taken
contributes the coefficient.
Composite primes are cleared first (their basis triples re-inject only
pillar primes and 2), then pillars, then the ideal-wise 2-torsion primes,
each prime's category read off its cached basis element beta(q);
for m in {7, 15} a residual power of 2 is cleared by the distinguished
[q, r, 4] element, whose coefficient is reported separately.  The result
is verified by exact recombination before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .basis import BasisTable, Category
from .primes import factorize
from .quadfield import Modulus, SplitKind, _legendre, _split_info
from .triples import Triple, add, identity, scalar_mul

__all__ = [
    "DecompositionError",
    "PrimeIdealRef",
    "Decomposition",
    "ideal_valuations",
    "decompose",
    "recombine",
]


class DecompositionError(RuntimeError):
    """Internal inconsistency: the descent stalled or recombination failed."""


@dataclass(frozen=True, order=True)
class PrimeIdealRef:
    """A degree-one prime ideal <p, root + sqrt(-m)> over an odd split p.

    conj is set when root is the non-canonical square root p - r.
    """

    p: int
    root: int
    conj: bool


@dataclass(frozen=True)
class Decomposition:
    m: int
    input: Triple
    terms: tuple[tuple[int, int], ...]  # (prime, coefficient), primes ascending
    special_coeff: int = 0
    verified: bool = False

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
    a - b*sqrt(-m) lies in <q, r + sqrt(-m)> exactly when q divides a + b*r,
    and otherwise in the conjugate.  All exponents are even and
    the ideal norms multiply to the square of the odd part of c.  The
    2-adic part (present only when -m = 1 mod 4 and c is even) is carried
    by the triple itself and is not reported here.
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


_CATEGORY_RANK = {Category.COMPOSITE: 0, Category.PILLAR: 1, Category.TWO_TORSION: 2}


def decompose(basis: BasisTable, t: Triple) -> Decomposition:
    """Express t as an integer combination of basis triples, exactly.

    Basis elements are computed on demand.  The returned decomposition has
    been verified by recombination.
    """
    mod = basis.mod
    if t.m != mod.m:
        raise ValueError("triple does not belong to this basis")
    special = basis.special()
    coeffs: dict[int, int] = {}
    special_coeff = 0
    cur = t
    q = None  # the last step's prime, whose power must have dropped since
    while not cur.is_identity():
        fac = factorize(cur.c)
        if q is not None and fac.get(q, 0) >= v0:
            raise DecompositionError(f"descent stalled at prime {q} on {cur}")
        ranked = []
        for p in fac:
            if _legendre(mod, p) != 1:
                if p == 2:
                    # a single factor 2 may ride along when -m = 1 (mod 4)
                    # even though 2 is inert; it vanishes with the odd part
                    continue
                raise DecompositionError(
                    f"prime {p} divides the third component but is outside L"
                )
            ranked.append((_CATEGORY_RANK[basis.beta(p).category], p))
        if not ranked:
            raise DecompositionError(
                f"residual third component {cur.c} admits no basis prime"
            )
        cat, q = min(ranked)
        step = basis.beta(q).triple
        v0 = fac[q]
        # both lie over the same ideal at q exactly when q^2 divides the
        # cross term (q alone would do for odd q; q^2 also covers a split 2)
        if (cur.a * step.b - step.a * cur.b) % (q * q) == 0:
            cur, sign = add(cur, -step), 1
        else:
            cur, sign = add(cur, step), -1
        if special is not None and q == 2:
            special_coeff += sign
        else:
            coeffs[q] = coeffs.get(q, 0) + sign

    terms = tuple(sorted((p, s) for p, s in coeffs.items() if s))
    result = Decomposition(mod.m, t, terms, special_coeff, verified=False)
    check = recombine(basis, result)
    if check != t:
        raise DecompositionError(f"recombination produced {check}, expected {t}")
    return Decomposition(mod.m, t, terms, special_coeff, verified=True)


def recombine(
    basis: BasisTable,
    terms: Decomposition | Mapping[int, int],
    special_coeff: int = 0,
) -> Triple:
    """Evaluate sum(s * beta(p)) + special_coeff * [q, r, 4] in the group."""
    if isinstance(terms, Decomposition):
        special_coeff = terms.special_coeff
        items = terms.terms
    else:
        items = sorted(terms.items())
    acc = identity(basis.mod)
    for p, s in items:
        if s:
            acc = add(acc, scalar_mul(s, basis.beta(p).triple))
    if special_coeff:
        sp = basis.special()
        if sp is None:
            raise ValueError("no [q, r, 4] element exists for this modulus")
        acc = add(acc, scalar_mul(special_coeff, sp))
    return acc
