"""Print sixteen SHA-256 digests over the class groups, quotients and betas of many moduli.

Run as `python tools/same_output.py` from any directory; it imports the
package from this checkout's src/.  Two checkouts that print the same
first digest agree on, for every square-free 5 <= m < 3000: the invariant
factors, the quotient size, the pillars, the coordinates of every form and
beta(p) for every split p <= 200; on the outcome (pillars and coordinates,
or the error text) of a fixed list of pillar overrides; and on the default
pillars of four large class groups.  The same second digest means the same
sorted forms and invariant factors of those four and of m = 510510, whose
discriminant has seven prime factors.  The same third digest means the
same stdout and exit code of `verify-paper`, `verify-paper --m M` for
m = 35, 23, 974, and `classgroup -m M --json` for the four, all run in
this process.  The same fourth digest means the same stdout and exit code
of `generators -m 35 --bound 100000 --json` and `beta -m 100000007 2
--json`, and the same category_of and exponent_vector (or error text) of
every 2 <= p <= 200 at m = 974, 23 and 35.  The same fifth digest means
the same invariant factors, number of 2-torsion classes and order of every
form, for every square-free 5 <= m < 3000, for m = 30030, 510510 and
9699690, whose groups have 2-rank 5 to 7, and for the four.  The same
sixth digest means the same default coordinates of every form of the
four, among whose cyclic factors are the composite orders 1275 = 3 * 5^2 *
17 and 1748 = 2^2 * 19 * 23.  The same seventh digest means the same
decomposition (as JSON) and the same prime-ideal factorization of t and
-t for 20 seeded recombinations t of up to 3 split primes <= 200 with
coefficients in -5..5 (and of the special element, when there is one),
at m = 7, 15, 23, 35, 614, 974 and every fifth square-free m < 600.  The
same eighth digest means the same decomposition of 20 seeded
recombinations per modulus with coefficients in -100..100, on every
pillar, on a split 2 or (for m = 7, 15) the special element, and on up to
3 split primes <= 200, at m = 7, 15, 23, 35, 974 and 614.  The same ninth
digest means the same outcome of the glue and Cornacchia steps that build
every beta (prime_form, basis._glue and basis._generator_triple), the
triple or the class of the error (ValueError for a repeated prime), on
70,164 factor lists: at every square-free m < 400
and at m = 974, one split p <= 60 with exponent 1 to 3 and either
conjugate flag, and up to two pillar factors with exponent 1 to 3 and
either flag.  The same tenth digest means the same scalar_mul(n, t) for
three seeded n in -5000..-1 and 1..5000 per triple t, over the 110
triples beta(p), p <= 200, at m = 7, 15, 23, 35 and 974 (the special
element among them, as beta(2), at m = 7 and 15).  The same eleventh
digest means the same exit code, stdout and stderr of CLI_CALLS, run in
this process: the commands of bench/data/cli_mix.json and an error path
of every subcommand.  The same twelfth digest means the same recombine
and decomposition of 40 seeded vectors per modulus at m = 7 and 15, each
with a coefficient at 2, where beta(2) is the [q, r, 4] element, and a
special coefficient given together, up to 30 in size.  The same
thirteenth digest means the same two_torsion_primes(1000) for every
square-free 5 <= m < 3000 and for the four.  The same fourteenth digest
means the same recombine and decomposition of seeded vectors whose first
two terms lie on opposite sides of an odd pillar, so that their product
has content there: 20 vectors with coefficients up to 60 at m = 974, 6
up to 20 at m = 10000019 (pillar 3, of order 1275) and 3 up to 30 at
every 20th square-free m < 3000 that has an odd pillar.  The same
fifteenth digest means the same beta(p), with its category, pillar index
and exponents, for every split p <= 60 at m = 10000019 (pillar 3, of order
1275) and 10^8 + 7 (pillar 2, of order 7253).  The same sixteenth digest
means the same decomposition of 20 seeded vectors per modulus, each
decomposed on the table that built it, over two split primes whose
coefficients are up to 3 and up to two split primes <= 200 with
coefficients up to 20: at m = 35 the two lie just above 10^6, at m = 974
in (1000, 5000), so c keeps a composite part that trial division leaves.
It takes about six seconds.  tests/test_same_output.py loads this file by
path and pins all sixteen digests.
"""

import contextlib
import hashlib
import io
import itertools
import random
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aptgroup.basis import BasisTable, NotTwoTorsionError, _generator_triple, _glue  # noqa: E402
from aptgroup.classgroup import ClassGroupTable, PillarConfigError, prime_form, quotient_setup  # noqa: E402
from aptgroup.cli import main as cli_main  # noqa: E402
from aptgroup.decompose import decompose, ideal_valuations, recombine  # noqa: E402
from aptgroup.primes import is_prime, is_squarefree  # noqa: E402
from aptgroup.quadfield import Modulus, kronecker, splitting_type  # noqa: E402
from aptgroup.triples import scalar_mul  # noqa: E402

OVERRIDES = [
    (23, (2,)),
    (23, (3,)),
    (974, (5, 41)),
    (974, (5, 31)),
    (974, (37,)),
    (974, (7,)),
    (974, (4,)),
    (974, ()),
    (3000010, (11, 181)),
    (3000010, (181, 11)),
    (3000010, (11,)),
]
LARGE = [2000002, 3000010, 10000019, 30000001]
COMMANDS = [
    ["verify-paper"],
    *(["verify-paper", "--m", str(m)] for m in (35, 23, 974)),
    *(["classgroup", "-m", str(m), "--json"] for m in LARGE),
]
BASIS_COMMANDS = [
    ["generators", "-m", "35", "--bound", "100000", "--json"],
    ["beta", "-m", "100000007", "2", "--json"],
]
# the commands of bench/data/cli_mix.json, then the error paths, exits 1 to 3 and argparse's
CLI_CALLS = [shlex.split(line) for line in """
beta -m 35 5
beta -m 35 x
verify-paper
beta -m 23 59
beta -m 35 79
beta -m 974 7
beta -m 974 37
beta -m 974 193
classgroup -m 3
classgroup -m 12
classgroup -m 23
classgroup -m 35
classgroup -m 974
verify-paper --m 23
verify-paper --m 35
beta -m 974 5 --json
verify-paper --m 974
beta -m 35 149 --json
classgroup -m 2000002
decompose -m 23 2,1,3
decompose -m 35 1 2 3
classgroup -m 35 --json
classgroup -m 974 --json
decompose -m 974 4141 66
generators -m 35 --bound 1
generators -m 35 --bound 17
classgroup -m 3000010 --json
generators -m 23 --bound 200
generators -m 614 --bound 50
decompose -m 974 4141 66 4625
decompose -m 974 4141,66,4625
generators -m 974 --bound 200
beta -m 23 13 --pillar 3 --json
generators -m 35 --bound 200 --json
generators -m 974 --bound 50 --json
generators -m 23 --bound 3 --pillar 3
generators -m 23 --bound 10 --pillar 59
generators -m 23 --bound 50 --pillar p=3 --json
generators -m 974 --bound 100 --pillar 5 --pillar 41
classgroup -m 0
classgroup -m -35
classgroup -m 10000000019
classgroup -m 100000000000000000000000000000000000000000000003
classgroup -m 974 --pillar 7
classgroup -m 974 --pillar 4
classgroup -m 974 --pillar 1
classgroup -m 974 --pillar 0
classgroup -m 974 --pillar =-5
classgroup -m 974 --pillar 5 --pillar 31
classgroup -m 974 --pillar 37
classgroup -m 35 --pillar 4
classgroup -m 35 --pillar 3 --json
classgroup -m 3000010 --pillar 11
generators -m 35 --bound 0
generators -m 35 --bound -7
generators -m 35 --bound 1000001
generators -m 35 --bound 1000000000000000000
generators -m 12 --bound 10
generators -m 35 --bound 17 --pillar 3
generators -m 35 --bound x
beta -m 23 5
beta -m 35 2
beta -m 35 4
beta -m 35 1001
beta -m 35 -3
beta -m 12 11
beta -m 974 41 --pillar 97
decompose -m 974 4141 66 4625 1
decompose -m 974 1,2
decompose -m 974 a,b,c
decompose -m 974 x y z
decompose -m 974 4141,66
decompose -m 974 [-4141,66,4625]
decompose -m 974 -- -4141,66,4625
decompose -m 974 -4141 -66 4625
decompose -m 23 1 1 5
decompose -m 23 1,1,5
decompose -m 974 4141 66 4624
decompose -m 12 1 0 1
decompose -m 974 1 0 1 --pillar 7
decompose -m 35 906413495341,-71425202196,1000070001221
verify-paper --m 5
verify-paper --m x
classgroup
""".strip().splitlines()] + [
    [],
    ["decompose", "-m", "974", "1" * 5000, "1", "1"],
    ["decompose", "-m", "974", ",".join(["1" * 5000] * 3)],
    ["beta", "-m", "1" * 5000, "2"],
]


def pillars(table, q):
    return [(pl.index, pl.p, pl.order, pl.info, table.class_of_prime(pl.p)) for pl in q.pillars]


def records():
    for m in range(5, 3000):
        if not is_squarefree(m):
            continue
        bt = BasisTable(Modulus(m))
        q = bt.quotient
        yield m, q.invariant_factors, q.size, pillars(bt.table, q)
        yield [(f, q.coords(f)) for f in bt.table.forms]
        for p in bt.split_primes(200):
            el = bt.beta(p)
            yield p, el.triple, el.category, el.pillar_index, el.exps
    for m, override in OVERRIDES:
        table = ClassGroupTable(Modulus(m))
        try:
            q = quotient_setup(table, override)
        except PillarConfigError as exc:
            yield m, override, str(exc)
        else:
            yield m, override, pillars(table, q), [(f, q.coords(f)) for f in table.forms]
    for m in LARGE:
        table = ClassGroupTable(Modulus(m))
        yield m, pillars(table, quotient_setup(table))


def large_records():
    for m in LARGE + [510510]:
        table = ClassGroupTable(Modulus(m))
        yield m, table.forms, table.structure


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_records(commands):
    for argv in commands:
        code, out, _ = run_cli(argv)
        yield argv, code, out


def cli_call_records():
    for argv in CLI_CALLS:
        yield argv, *run_cli(argv)


def outcome(f, p):
    try:
        return f(p)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def basis_records():
    yield from cli_records(BASIS_COMMANDS)
    for m in (974, 23, 35):
        bt = BasisTable(Modulus(m))
        for p in range(2, 201):
            yield m, p, outcome(bt.category_of, p), outcome(bt.exponent_vector, p)


def order_records():
    for m in [*range(5, 3000), 30030, 510510, 9699690, *LARGE]:
        if not is_squarefree(m):
            continue
        table = ClassGroupTable(Modulus(m))
        yield m, table.structure, len(table.twotorsion), [table.order_of(f) for f in table.forms]


def coord_records():
    for m in LARGE:
        table = ClassGroupTable(Modulus(m))
        q = quotient_setup(table)
        yield m, [(f, q.coords(f)) for f in table.forms]


def decompose_records():
    squarefree = [m for m in range(5, 600) if is_squarefree(m)]
    for m in [7, 15, 23, 35, 614, 974, *squarefree[::5]]:
        bt = BasisTable(Modulus(m))
        primes = bt.split_primes(200)
        rng = random.Random(m)
        for _ in range(20):
            vec = {p: rng.randint(-5, 5) for p in rng.sample(primes, rng.randint(1, min(3, len(primes))))}
            special = rng.randint(-5, 5) if bt.special() is not None else 0
            t = recombine(bt, vec, special)
            yield m, decompose(bt, t).to_json_dict()
            yield sorted(ideal_valuations(bt.mod, t).items()), sorted(ideal_valuations(bt.mod, -t).items())


def large_coefficient_records():
    for m in (7, 15, 23, 35, 974, 614):
        bt = BasisTable(Modulus(m))
        primes = bt.split_primes(200)
        # every pillar and a split 2 (for m = 7 and 15, the special element) in every vector
        always = {pl.p for pl in bt.pillars} | ({2} & set(primes) if bt.special() is None else set())
        rng = random.Random(m)
        for _ in range(20):
            support = sorted(always | set(rng.sample(primes, min(3, len(primes)))))
            vec = {p: rng.randint(-100, 100) for p in support}
            special = rng.randint(-100, 100) if bt.special() is not None else 0
            yield m, decompose(bt, recombine(bt, vec, special)).to_json_dict()


def two_torsion_records():
    for m in [*(m for m in range(5, 400) if is_squarefree(m)), 974]:
        mod = Modulus(m)
        bt = BasisTable(mod)
        options = [[(pl.info, a, conj) for a in (1, 2, 3) for conj in (False, True)] for pl in bt.pillars]
        tails = [t for k in range(3) for opts in itertools.combinations(options, k) for t in itertools.product(*opts)]
        for p in bt.split_primes(60):
            info = splitting_type(mod, p)
            for e, conj, tail in itertools.product((1, 2, 3), (False, True), tails):
                factors = [(info, e, conj), *tail]
                yield factors, two_torsion_outcome(mod, factors)


def two_torsion_outcome(mod, factors):
    """The triple of the squared product of factors, glued and solved as beta does, or the error's class name.

    factors lists (split info, exponent, conjugate); the primes must be
    distinct, or the outcome is a ValueError.
    """
    if len({info.p for info, _, _ in factors}) != len(factors):
        return "ValueError"
    n, factor = 1, (1, mod.disc % 2)
    for info, e, conj in factors:
        n *= info.p**e
        a, b, _ = prime_form(mod, info, 2 * e)
        factor = _glue(factor, (a, -b if conj else b))
    try:
        return _generator_triple(mod, factor, n)
    except NotTwoTorsionError:
        return "NotTwoTorsionError"


def scalar_mul_records():
    for m in (7, 15, 23, 35, 974):
        bt = BasisTable(Modulus(m))
        rng = random.Random(m)
        # elements includes the special element, as beta(2), at m = 7 and 15
        for el in bt.elements(200):
            for _ in range(3):
                n = rng.choice((-1, 1)) * rng.randint(1, 5000)
                t = scalar_mul(n, el.triple)
                # hex: the components run past the int-to-decimal limit
                yield m, el.p, n, hex(t.a), hex(t.b), hex(t.c)


def special_records():
    for m in (7, 15):
        bt = BasisTable(Modulus(m))
        primes = bt.split_primes(200)
        rng = random.Random(m)
        for _ in range(40):
            vec = {p: rng.randint(-30, 30) for p in rng.sample(primes, rng.randint(1, 3))}
            vec[2] = rng.choice((-1, 1)) * rng.randint(1, 30)
            special = rng.choice((-1, 1)) * rng.randint(1, 30)
            t = recombine(bt, vec, special)
            yield m, sorted(vec.items()), special, t, decompose(bt, t).to_json_dict()


def two_torsion_prime_records():
    for m in [*range(5, 3000), *LARGE]:
        if is_squarefree(m):
            yield m, BasisTable(Modulus(m)).two_torsion_primes(1000)


def odd_pillar_records():
    squarefree = [m for m in range(5, 3000) if is_squarefree(m)]
    odd = [m for m in squarefree if any(pl.p != 2 for pl in BasisTable(Modulus(m)).pillars)]
    for m, count, smax in [(974, 20, 60), (10000019, 6, 20), *((m, 3, 30) for m in odd[::20])]:
        bt = BasisTable(Modulus(m))
        primes = bt.split_primes(200)
        rng = random.Random(m)
        for _ in range(count):
            q = rng.choice([pl.p for pl in bt.pillars if pl.p != 2])
            p1, p2 = rng.sample([p for p in primes if bt.beta(p).triple.c % q == 0], 2)
            x, y = bt.beta(p1).triple, bt.beta(p2).triple
            sign = rng.choice((-1, 1))
            s1 = sign * rng.randint(1, smax)
            if (x.a * y.b - y.a * x.b) % q == 0:  # the same side at q: the signs differ
                sign = -sign
            s2 = sign * rng.randint(1, smax)
            vec = {p1: s1, p2: s2}
            vec.setdefault(rng.choice(primes), rng.randint(-smax, smax))
            t = recombine(bt, vec)
            doc = decompose(bt, t).to_json_dict()
            # hex: the components run past the int-to-decimal limit
            doc["input"] = [hex(n) for n in doc["input"]]
            yield m, q, sorted(vec.items()), doc


def large_beta_records():
    for m in (10000019, 10**8 + 7):
        for el in BasisTable(Modulus(m)).elements(60):
            t = el.triple
            # hex: linear time, where decimal conversion is quadratic in the digits
            yield m, el.p, hex(t.a), hex(t.b), hex(t.c), el.category, el.pillar_index, el.exps


def warm_large_records():
    for m, lo, hi in ((35, 10**6, 10**6 + 2000), (974, 1000, 5000)):
        bt = BasisTable(Modulus(m))
        large = [p for p in range(lo + 1, hi, 2) if is_prime(p) and kronecker(bt.mod, p) == 1]
        small = bt.split_primes(200)
        rng = random.Random(m)
        for _ in range(20):
            # two large primes, so that c keeps a composite part past trial division
            vec = {p: rng.choice((-1, 1)) * rng.randint(1, 3) for p in rng.sample(large, 2)}
            vec.update((p, rng.randint(-20, 20)) for p in rng.sample(small, rng.randint(0, 2)))
            t = recombine(bt, vec)
            yield m, sorted(vec.items()), decompose(bt, t).to_json_dict()


def digest(recs):
    sha = hashlib.sha256()
    for rec in recs:
        sha.update(repr(rec).encode())
        sha.update(b"\n")
    return sha.hexdigest()


# the record streams of the sixteen digests, in order
DIGESTS = (
    records,
    large_records,
    lambda: cli_records(COMMANDS),
    basis_records,
    order_records,
    coord_records,
    decompose_records,
    large_coefficient_records,
    two_torsion_records,
    scalar_mul_records,
    cli_call_records,
    special_records,
    two_torsion_prime_records,
    odd_pillar_records,
    large_beta_records,
    warm_large_records,
)


def main():
    for recs in DIGESTS:
        print(digest(recs()))


if __name__ == "__main__":
    main()
