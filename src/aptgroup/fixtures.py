"""Known-good worked examples for m = 35, 23, 974 and the m = 7, 15 specials.

These drive the verify-paper command.  Each fixture is a name, a modulus,
a function that recomputes values, and the published values as data;
run_fixtures is the one comparator and writes the one failure text, "got
X, expected Y" (a fixture that raises fails with the exception's text).
The specials are read off BasisTable.special, which is beta(2) at m = 7
and 15.  Each run builds one class group per modulus and, on it, one
basis table per pillar choice (the class group keeps each choice's
quotient), shares them among that run's fixtures and drops them when it
ends; nothing is kept between runs.
"""

from __future__ import annotations

from collections import namedtuple

from .basis import BasisTable
from .classgroup import ClassGroupTable
from .decompose import PrimeIdealRef, decompose, ideal_valuations
from .quadfield import Modulus, SplitKind, kronecker, splitting_type
from .triples import Triple, add

__all__ = ["Fixture", "FIXTURES", "run_fixtures"]


class Fixture(namedtuple("Fixture", "name m compute expected")):
    """A worked example: compute is called with tables(m, pillars=None), which returns the run's basis table."""

    __slots__ = ()


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


def _classgroup(bt: BasisTable) -> tuple:
    """h, Cl's invariant factors, the size of Cl[2], the quotient's invariant factors, the pillars."""
    table = bt.table
    return (table.h, list(table.structure), len(table.twotorsion), list(bt.quotient.invariant_factors),
            [(pl.p, pl.order) for pl in bt.pillars])


def _abc(bt: BasisTable, p: int) -> tuple[int, int, int]:
    t = bt.beta(p).triple
    return t.a, t.b, t.c


def _betas(m: int, values: dict[int, tuple[int, int, int]], pillars=None):
    return lambda tables: {p: _abc(tables(m, pillars), p) for p in values}


def _exponents(bt: BasisTable, p: int) -> list[tuple[int, bool]]:
    return [(e.a, e.conj) for e in bt.exponent_vector(p)]


def _decompose(bt: BasisTable, a: int, b: int, c: int) -> tuple[dict[int, int], int, bool]:
    d = decompose(bt, Triple(bt.mod.m, a, b, c))
    return dict(d.terms), d.special_coeff, d.verified


def _split(m: int, p: int) -> tuple[SplitKind, int | None]:
    info = splitting_type(Modulus(m), p)
    return info.kind, info.root


FIXTURES: tuple[Fixture, ...] = (
    Fixture("m35.classgroup", 35, lambda tables: _classgroup(tables(35)), (2, [2], 2, [], [])),
    Fixture("m35.split-primes", 35, lambda tables: tables(35).split_primes(151), SPLIT35_151),
    Fixture("m35.all-two-torsion", 35, lambda tables: tables(35).two_torsion_primes(151), SPLIT35_151),
    Fixture("m35.beta", 35, _betas(35, BETA35), BETA35),
    Fixture("m23.classgroup", 23, lambda tables: _classgroup(tables(23)), (3, [3], 1, [3], [(2, 3)])),
    Fixture("m23.split-primes", 23, lambda tables: tables(23).split_primes(197), SPLIT23_197),
    Fixture("m23.two-torsion-primes", 23, lambda tables: tables(23).two_torsion_primes(180),
            [59, 101, 167, 173]),
    Fixture("m23.beta.two-torsion", 23, _betas(23, BETA23_TT), BETA23_TT),
    Fixture("m23.beta.pillar2", 23, _betas(23, BETA23_PILLAR2, (2,)), BETA23_PILLAR2),
    Fixture("m23.beta.pillar3", 23, _betas(23, BETA23_PILLAR3, (3,)), BETA23_PILLAR3),
    Fixture("m974.classgroup", 974, lambda tables: _classgroup(tables(974)),
            (36, [12, 3], 2, [6, 3], [(5, 6), (41, 3)])),
    Fixture("m974.split-primes", 974, lambda tables: tables(974).split_primes(163), SPLIT974_163),
    Fixture("m974.two-torsion-primes", 974, lambda tables: tables(974).two_torsion_primes(983), [937, 983]),
    Fixture("m974.beta", 974, _betas(974, BETA974), BETA974),
    Fixture("m974.group-identity", 974,
            lambda tables: add(Triple(974, 4141, 66, 4625), Triple(974, 14651, 174, 15625)),
            Triple(974, 3167, 108, 4625)),
    Fixture("m974.ideal-square", 974,
            lambda tables: ideal_valuations(Modulus(974), Triple(974, 359, 16, 615)),
            {PrimeIdealRef(3, 1, False): 2, PrimeIdealRef(5, 1, False): 2, PrimeIdealRef(41, 16, False): 2}),
    Fixture("m974.decompose", 974, lambda tables: _decompose(tables(974), 4141, 66, 4625),
            ({37: 1, 5: -1}, 0, True)),
    Fixture("m974.exponents", 974, lambda tables: (_exponents(tables(974), 3), _exponents(tables(974), 37)),
            ([(1, False), (1, False)], [(3, False), (0, False)])),
    Fixture("specials.m7-m15", 7, lambda tables: [tables(m).special() for m in (7, 15, 23)],
            [Triple(7, 3, 1, 4), Triple(15, 1, 1, 4), None]),
    Fixture("m35.symbols", 35, lambda tables: (kronecker(Modulus(35), 71), kronecker(Modulus(35), 5)), (1, 0)),
    Fixture("m23.symbols", 23, lambda tables: (kronecker(Modulus(23), 2), kronecker(Modulus(23), 5)), (1, -1)),
    Fixture("m974.splitting", 974, lambda tables: (_split(974, 41), _split(974, 5)),
            ((SplitKind.SPLIT, 16), (SplitKind.SPLIT, 1))),
)


def run_fixtures(only_m: int | None = None) -> list[tuple[Fixture, bool, str]]:
    groups: dict[int, ClassGroupTable] = {}
    built: dict[tuple[int, tuple[int, ...] | None], BasisTable] = {}

    def tables(m: int, pillars: tuple[int, ...] | None = None) -> BasisTable:
        if (m, pillars) not in built:
            mod = Modulus(m)
            if m not in groups:
                groups[m] = ClassGroupTable(mod)
            built[m, pillars] = BasisTable(mod, pillars, table=groups[m])
        return built[m, pillars]

    results = []
    for fx in FIXTURES:
        if only_m is not None and fx.m != only_m:
            continue
        try:
            got = fx.compute(tables)
        except Exception as exc:  # a crash is a failure, not an abort
            results.append((fx, False, f"{type(exc).__name__}: {exc}"))
            continue
        ok = got == fx.expected
        results.append((fx, ok, "" if ok else f"got {got!r}, expected {fx.expected!r}"))
    return results
