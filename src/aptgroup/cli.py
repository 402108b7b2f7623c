"""Command line interface.

Commands: classgroup, generators, beta, decompose, verify-paper.
Machine output (--json, and decompose always) is canonical JSON with
sorted keys.  Every command accepts and ignores --cache-dir.  Exit codes
are 0 success and 1 a failing verify-paper fixture; the handlers raise
every other failure, and main alone prints it and picks its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .basis import MAX_BOUND, BasisTable, BoundTooLargeError
from .decompose import DecompositionError, decompose
from .fixtures import run_fixtures
from .primes import FactoringBudgetError
from .quadfield import Modulus, splitting_type
from .triples import NotASolutionError, normalize, parse_triple

__all__ = ["main"]

# The first match picks the exit code: 3 input not a solution, 4 failed decomposition
# check, 2 any other invalid input or configuration, or a third component rho cannot split.
_EXIT_CODES = {NotASolutionError: 3, DecompositionError: 4, ValueError: 2, FactoringBudgetError: 2}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _structure_str(orders) -> str:
    return " x ".join(f"C{o}" for o in orders) if orders else "C1"


@contextlib.contextmanager
def _any_int_length():
    """Print ints beyond Python's 4300-digit limit; input is parsed outside, under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _get_table(args, mod: Modulus) -> BasisTable:
    return BasisTable(mod, tuple(args.pillar) if args.pillar else None)


def _pillar_arg(text: str) -> int:
    # accepts both "2" and "p=2"
    return int(text.partition("=")[2] or text)


def _add_cache_dir(sub):
    # kept so that scripts which pass it still parse
    sub.add_argument("--cache-dir", default=None, help="ignored; nothing is cached on disk")


def _add_common(sub):
    sub.add_argument("-m", type=int, required=True, help="square-free modulus, 3 < m <= 10^10")
    sub.add_argument("--pillar", type=_pillar_arg, action="append", default=None,
                     metavar="P", help="override pillar primes (repeatable, ordered; 'p=2' also accepted)")
    sub.add_argument("--json", action="store_true", help="canonical JSON output")
    _add_cache_dir(sub)


def cmd_classgroup(args) -> int:
    bt = _get_table(args, Modulus(args.m))
    table, quot = bt.table, bt.quotient
    if args.json:
        doc = {
            "m": bt.mod.m,
            "disc": bt.mod.disc,
            "h": table.h,
            "structure": list(table.structure),
            "two_torsion": len(table.twotorsion),
            "quotient": list(quot.invariant_factors),
            "pillars": [{"p": pl.p, "h": pl.order, "root": pl.info.root} for pl in bt.pillars],
        }
        print(_canonical(doc))
        return 0
    print(f"m = {bt.mod.m}   disc = {bt.mod.disc}")
    print(f"h = {table.h}")
    print(f"Cl(K) = {_structure_str(table.structure)}")
    print(f"two-torsion classes: {len(table.twotorsion)}")
    print(f"Cl(K) mod two-torsion = {_structure_str(quot.invariant_factors)}")
    if bt.pillars:
        print("pillars: " + ", ".join(f"p={pl.p} (h={pl.order})" for pl in bt.pillars))
    else:
        print("pillars: none (E = Cl)")
    return 0


def _element_json(el) -> dict:
    t = el.triple
    return {
        "p": el.p,
        "triple": [t.a, t.b, t.c],
        "category": el.category.value,
        "exps": [{"j": e.j, "a": e.a, "conj": e.conj} for e in el.exps],
    }


def _element_line(el) -> str:
    extra = ""
    if el.category.value == "pillar":
        extra = f"  (factor {el.pillar_index})"
    elif el.exps:
        shown = ", ".join(f"a_{e.j}={e.a}{'*' if e.conj else ''}" for e in el.exps)
        extra = f"  ({shown})"
    return f"beta({el.p}) = {el.triple}   {el.category.value}{extra}"


def cmd_generators(args) -> int:
    if args.bound < 2:
        raise ValueError("--bound must be at least 2")
    if args.bound > MAX_BOUND:
        # before the class group, which takes seconds for m near its limit
        raise BoundTooLargeError(args.bound)
    bt = _get_table(args, Modulus(args.m))
    elements = bt.elements(args.bound)
    with _any_int_length():
        if args.json:
            print(_canonical({"m": bt.mod.m, "bound": args.bound,
                              "basis": [_element_json(el) for el in elements]}))
            return 0
        for el in elements:
            print(_element_line(el))
    return 0


def cmd_beta(args) -> int:
    mod = Modulus(args.m)
    splitting_type(mod, args.p)  # a p that is not prime exits before the class group; beta proves it again
    el = _get_table(args, mod).beta(args.p)
    with _any_int_length():
        print(_canonical(_element_json(el)) if args.json else _element_line(el))
    return 0


def cmd_decompose(args) -> int:
    mod = Modulus(args.m)
    if len(args.triple) == 1:
        t = parse_triple(mod.m, args.triple[0])
    elif len(args.triple) == 3:
        t = normalize(mod.m, *(int(x) for x in args.triple))
    else:
        raise ValueError("give a triple as three integers or one 'a,b,c'")
    print(_canonical(decompose(_get_table(args, mod), t).to_json_dict()))
    return 0


def cmd_verify_paper(args) -> int:
    results = run_fixtures(args.m)
    for fx, ok, msg in results:
        print(f"PASS  {fx.name}" if ok else f"FAIL  {fx.name}: {msg}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} fixtures passed")
    return 0 if results and passed == len(results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it names no handler."""
    parser = argparse.ArgumentParser(
        prog="aptgroup",
        description="Free bases and exact decomposition for the group of "
        "primitive triples solving x^2 + m*y^2 = z^2",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classgroup", help="class group, 2-torsion and quotient report")
    _add_common(p)

    p = subs.add_parser("generators", help="basis triples beta(p) for p up to a bound")
    _add_common(p)
    p.add_argument("--bound", type=int, required=True,
                   help="largest prime to include, 2 <= BOUND <= 10^6")

    p = subs.add_parser("beta", help="one basis triple")
    _add_common(p)
    p.add_argument("p", type=int, help="a split prime (Kronecker symbol 1)")

    p = subs.add_parser("decompose", help="decompose a triple over the basis (JSON output)")
    _add_common(p)
    p.add_argument("triple", nargs="+", help="a b c as three arguments, or one 'a,b,c'; "
                   "write one that starts with '-' as '-- -a,b,c' or '[-a,b,c]'")

    p = subs.add_parser("verify-paper", help="recompute the published worked examples")
    p.add_argument("--m", dest="m", type=int, default=None, help="restrict to one modulus")
    _add_cache_dir(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so that a rebound cmd_<command> is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
