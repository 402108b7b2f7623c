"""Known-good worked examples for m = 35, 23, 974 and the m = 7, 15 specials.

These drive the verify-paper command: every entry recomputes a published
value and compares exactly.  Each run of the fixtures builds its basis
tables from scratch, once per modulus and pillar choice, shares them
among that run's checks and drops them when it ends; nothing is kept
between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .basis import BasisTable, special_four_element
from .decompose import PrimeIdealRef, decompose, ideal_valuations
from .quadfield import Modulus, SplitKind, kronecker, splitting_type
from .triples import Triple, add

__all__ = ["Fixture", "FIXTURES", "run_fixtures"]


@dataclass(frozen=True)
class Fixture:
    name: str
    m: int
    # called with tables(m, pillars=None), which returns the run's basis table
    check: Callable[[Callable[..., BasisTable]], tuple[bool, str]]


SPLIT35_151 = [3, 11, 13, 17, 29, 47, 71, 73, 79, 83, 97, 103, 109, 149, 151]
SPLIT23_197 = [2, 3, 13, 29, 31, 41, 47, 59, 71, 73, 101, 127, 131, 139, 151, 163, 167, 173, 179, 193, 197]
SPLIT974_163 = [3, 5, 11, 13, 31, 37, 41, 43, 59, 71, 73, 89, 97, 101, 103, 109, 127, 131, 137, 149, 163]

BETA35 = {
    71: (1, 12, 71),
    73: (17, 12, 73),
    83: (43, 12, 83),
    149: (131, 12, 149),
    3: (1, 1, 6),
    11: (13, 3, 22),
    13: (19, 3, 26),
    17: (29, 3, 34),
    29: (23, 9, 58),
    47: (31, 15, 94),
    79: (157, 3, 158),
}
BETA23_TT = {59: (13, 12, 59), 101: (83, 12, 101), 167: (121, 24, 167), 173: (11, 36, 173)}
BETA23_PILLAR2 = {2: (7, 3, 16), 3: (11, 1, 12), 13: (29, 9, 52), 29: (91, 15, 116)}
BETA23_PILLAR3 = {3: (19, 4, 27), 2: (11, 1, 12), 13: (7, 8, 39), 29: (41, 16, 87)}
BETA974 = {
    5: (14651, 174, 15625),
    41: (61129, 1020, 68921),
    3: (359, 16, 615),
    37: (3167, 108, 4625),
    937: (37, 30, 937),
    983: (965, 6, 983),
}


def _expect(got, want) -> tuple[bool, str]:
    if got == want:
        return True, ""
    return False, f"got {got!r}, expected {want!r}"


def _beta_check(m: int, values: dict[int, tuple[int, int, int]], pillars=None):
    def check(tables):
        bt = tables(m, pillars)
        for p, (a, b, c) in sorted(values.items()):
            t = bt.beta(p).triple
            if (t.a, t.b, t.c) != (a, b, c):
                return False, f"beta({p}) = {t}, expected [{a}, {b}, {c}]"
        return True, ""

    return check


def _m35_class(tables):
    bt = tables(35)
    ok, msg = _expect(bt.table.h, 2)
    if not ok:
        return ok, msg
    return _expect(list(bt.table.structure), [2])


def _m35_L(tables):
    return _expect(tables(35).split_primes(151), SPLIT35_151)


def _m35_all_two_torsion(tables):
    bt = tables(35)
    return _expect(bt.two_torsion_primes(151), bt.split_primes(151))


def _m23_class(tables):
    bt = tables(23)
    if bt.table.h != 3:
        return False, f"h = {bt.table.h}"
    return _expect(len(bt.table.twotorsion), 1)


def _m23_L(tables):
    return _expect(tables(23).split_primes(197), SPLIT23_197)


def _m23_two_torsion_primes(tables):
    return _expect(tables(23).two_torsion_primes(180), [59, 101, 167, 173])


def _m974_class(tables):
    bt = tables(974)
    if bt.table.h != 36:
        return False, f"h = {bt.table.h}"
    orders = list(bt.table.structure)
    if orders != [12, 3]:
        return False, f"Cl structure {orders}"
    if list(bt.quotient.invariant_factors) != [6, 3]:
        return False, f"quotient structure {bt.quotient.invariant_factors}"
    return _expect([(pl.p, pl.order) for pl in bt.pillars], [(5, 6), (41, 3)])


def _m974_L(tables):
    return _expect(tables(974).split_primes(163), SPLIT974_163)


def _m974_two_torsion_primes(tables):
    return _expect(tables(974).two_torsion_primes(983), [937, 983])


def _m974_identity(tables):
    m = 974
    lhs = add(Triple(m, 4141, 66, 4625), Triple(m, 14651, 174, 15625))
    return _expect(lhs, Triple(m, 3167, 108, 4625))


def _m974_ideal_square(tables):
    mod = Modulus(974)
    vals = ideal_valuations(mod, Triple(974, 359, 16, 615))
    want = {
        PrimeIdealRef(3, 1, False): 2,
        PrimeIdealRef(5, 1, False): 2,
        PrimeIdealRef(41, 16, False): 2,
    }
    return _expect(vals, want)


def _m974_decompose(tables):
    bt = tables(974)
    d = decompose(bt, Triple(974, 4141, 66, 4625))
    return _expect((dict(d.terms), d.special_coeff, d.verified), ({37: 1, 5: -1}, 0, True))


def _m974_exponents(tables):
    bt = tables(974)
    e3 = [(e.a, e.conj) for e in bt.exponent_vector(3)]
    if e3 != [(1, False), (1, False)]:
        return False, f"exponents of 3: {e3}"
    e37 = [(e.a, e.conj) for e in bt.exponent_vector(37)]
    return _expect(e37, [(3, False), (0, False)])


def _specials(tables):
    got7 = special_four_element(Modulus(7))
    if got7 != Triple(7, 3, 1, 4):
        return False, f"m=7 special {got7}"
    got15 = special_four_element(Modulus(15))
    if got15 != Triple(15, 1, 1, 4):
        return False, f"m=15 special {got15}"
    return _expect(special_four_element(Modulus(23)), None)


def _m35_symbols(tables):
    if kronecker(Modulus(35), 71) != 1:
        return False, "kronecker(-35, 71) != 1"
    return _expect(kronecker(Modulus(35), 5), 0)


def _m23_symbols(tables):
    if kronecker(Modulus(23), 2) != 1:
        return False, "kronecker(-23, 2) != 1"
    return _expect(kronecker(Modulus(23), 5), -1)


def _m974_splitting(tables):
    i41 = splitting_type(Modulus(974), 41)
    if (i41.kind, i41.root) != (SplitKind.SPLIT, 16):
        return False, f"splitting of 41: {i41}"
    i5 = splitting_type(Modulus(974), 5)
    return _expect((i5.kind, i5.root), (SplitKind.SPLIT, 1))


FIXTURES: tuple[Fixture, ...] = (
    Fixture("m35.classgroup", 35, _m35_class),
    Fixture("m35.split-primes", 35, _m35_L),
    Fixture("m35.all-two-torsion", 35, _m35_all_two_torsion),
    Fixture("m35.beta", 35, _beta_check(35, BETA35)),
    Fixture("m23.classgroup", 23, _m23_class),
    Fixture("m23.split-primes", 23, _m23_L),
    Fixture("m23.two-torsion-primes", 23, _m23_two_torsion_primes),
    Fixture("m23.beta.two-torsion", 23, _beta_check(23, BETA23_TT)),
    Fixture("m23.beta.pillar2", 23, _beta_check(23, BETA23_PILLAR2, pillars=(2,))),
    Fixture("m23.beta.pillar3", 23, _beta_check(23, BETA23_PILLAR3, pillars=(3,))),
    Fixture("m974.classgroup", 974, _m974_class),
    Fixture("m974.split-primes", 974, _m974_L),
    Fixture("m974.two-torsion-primes", 974, _m974_two_torsion_primes),
    Fixture("m974.beta", 974, _beta_check(974, BETA974)),
    Fixture("m974.group-identity", 974, _m974_identity),
    Fixture("m974.ideal-square", 974, _m974_ideal_square),
    Fixture("m974.decompose", 974, _m974_decompose),
    Fixture("m974.exponents", 974, _m974_exponents),
    Fixture("specials.m7-m15", 7, _specials),
    Fixture("m35.symbols", 35, _m35_symbols),
    Fixture("m23.symbols", 23, _m23_symbols),
    Fixture("m974.splitting", 974, _m974_splitting),
)


def run_fixtures(only_m: int | None = None) -> list[tuple[Fixture, bool, str]]:
    built: dict[tuple[int, tuple[int, ...] | None], BasisTable] = {}

    def tables(m: int, pillars: tuple[int, ...] | None = None) -> BasisTable:
        if (m, pillars) not in built:
            built[m, pillars] = BasisTable(Modulus(m), pillars)
        return built[m, pillars]

    results = []
    for fx in FIXTURES:
        if only_m is not None and fx.m != only_m:
            continue
        try:
            ok, msg = fx.check(tables)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, msg = False, f"{type(exc).__name__}: {exc}"
        results.append((fx, ok, msg))
    return results
