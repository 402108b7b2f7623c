"""Command line interface.

Commands: classgroup, generators, beta, decompose, verify-paper.
Machine output (--json, and decompose always) is canonical JSON with
sorted keys; exit codes are 0 success, 1 a failing verify-paper fixture,
2 invalid modulus or configuration, 3 input not a solution, 4 decomposition
verification failure.  Every command accepts and ignores --cache-dir.
"""

from __future__ import annotations

import argparse
import json
import sys

from .basis import BasisTable
from .classgroup import PillarConfigError
from .decompose import DecompositionError, decompose
from .fixtures import run_fixtures
from .quadfield import InvalidModulusError, Modulus
from .triples import NotASolutionError, normalize, parse_triple

__all__ = ["main"]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _structure_str(orders) -> str:
    return " x ".join(f"C{o}" for o in orders) if orders else "C1"


def _get_table(args) -> BasisTable:
    return BasisTable(Modulus(args.m), tuple(args.pillar) if args.pillar else None)


def _pillar_arg(text: str) -> int:
    # accepts both "2" and "p=2"
    return int(text.partition("=")[2] or text)


def _add_cache_dir(sub):
    # kept so that scripts which pass it still parse
    sub.add_argument("--cache-dir", default=None, help="ignored; nothing is cached on disk")


def _add_common(sub):
    sub.add_argument("-m", type=int, required=True, help="square-free modulus m > 3")
    sub.add_argument("--pillar", type=_pillar_arg, action="append", default=None,
                     metavar="P", help="override pillar primes (repeatable, ordered; 'p=2' also accepted)")
    sub.add_argument("--json", action="store_true", help="canonical JSON output")
    _add_cache_dir(sub)


def cmd_classgroup(args) -> int:
    bt = _get_table(args)
    table, quot = bt.table, bt.quotient
    if args.json:
        doc = {
            "m": bt.mod.m,
            "disc": bt.mod.disc,
            "h": table.h,
            "structure": [o for _, o in table.structure],
            "two_torsion": len(table.twotorsion),
            "quotient": list(quot.invariant_factors),
            "pillars": [{"p": pl.p, "h": pl.order, "root": pl.info.root} for pl in bt.pillars],
        }
        print(_canonical(doc))
        return 0
    print(f"m = {bt.mod.m}   disc = {bt.mod.disc}")
    print(f"h = {table.h}")
    print(f"Cl(K) = {_structure_str([o for _, o in table.structure])}")
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
        print("error: --bound must be at least 2", file=sys.stderr)
        return 2
    bt = _get_table(args)
    elements = bt.elements(args.bound)
    if args.json:
        print(_canonical({"m": bt.mod.m, "bound": args.bound,
                          "basis": [_element_json(el) for el in elements]}))
        return 0
    for el in elements:
        print(_element_line(el))
    return 0


def cmd_beta(args) -> int:
    bt = _get_table(args)
    try:
        el = bt.beta(args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_canonical(_element_json(el)))
    else:
        print(_element_line(el))
    return 0


def cmd_decompose(args) -> int:
    bt = _get_table(args)
    try:
        if len(args.triple) == 1:
            t = parse_triple(bt.mod, args.triple[0])
        elif len(args.triple) == 3:
            t = normalize(bt.mod, *(int(x) for x in args.triple))
        else:
            print("error: give a triple as three integers or one 'a,b,c'", file=sys.stderr)
            return 2
    except NotASolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        d = decompose(bt, t)
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(_canonical(d.to_json_dict()))
    return 0


def cmd_verify_paper(args) -> int:
    results = run_fixtures(args.m)
    failures = 0
    for fx, ok, msg in results:
        if ok:
            print(f"PASS  {fx.name}")
        else:
            failures += 1
            print(f"FAIL  {fx.name}: {msg}")
    print(f"{len(results) - failures}/{len(results)} fixtures passed")
    return 0 if failures == 0 and results else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aptgroup",
        description="Free bases and exact decomposition for the group of "
        "primitive triples solving x^2 + m*y^2 = z^2",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classgroup", help="class group, 2-torsion and quotient report")
    _add_common(p)
    p.set_defaults(func=cmd_classgroup)

    p = subs.add_parser("generators", help="basis triples beta(p) for p up to a bound")
    _add_common(p)
    p.add_argument("--bound", type=int, required=True, help="largest prime to include")
    p.set_defaults(func=cmd_generators)

    p = subs.add_parser("beta", help="one basis triple")
    _add_common(p)
    p.add_argument("p", type=int, help="a split prime (Kronecker symbol 1)")
    p.set_defaults(func=cmd_beta)

    p = subs.add_parser("decompose", help="decompose a triple over the basis (JSON output)")
    _add_common(p)
    p.add_argument("triple", nargs="+", help="a b c as three arguments, or one 'a,b,c'")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("verify-paper", help="recompute the published worked examples")
    p.add_argument("--m", dest="m", type=int, default=None, help="restrict to one modulus")
    _add_cache_dir(p)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidModulusError, PillarConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
