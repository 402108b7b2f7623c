"""The three workloads: inputs made from a seed, one op per case, output checks.

Each workload hands out its cases in rounds.  A round has a fixed make-up
(how many cases of each kind), and the seed picks the members, so every
seed measures the same mix; the timed loop always runs whole rounds.  Round
i of a seed is the same in every run, which lets the traced run repeat a
round with and without tracing.

Checks return one of three outcomes:
  "ok"        the output is right;
  "failed"    a case that already failed on the commit the expected outputs
              were recorded from (the recorded commit) failed again; it
              counts in the failure share, not as a wrong answer;
  "mismatch"  the output contradicts a recorded seed value or an invariant,
              or a case that worked on the recorded commit raised or exited
              with the wrong code.  Any mismatch makes the run exit nonzero.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import shutil
import tempfile
from dataclasses import dataclass, field

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

BASIS_BOUND = 200
# The worked examples, the slowest modulus that finishes on the recorded commit
# (614), and three whose pillar beta does not finish (719, 761, 4001).
NAMED_BASIS = (35, 23, 974, 614, 719, 761, 4001)
# The first split primes of m = 35 above 10^6.  A triple built from two of
# them has a third component that trial division cannot factor.
LARGE_35 = (1000033, 1000037, 1000099)


def squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def cliff_set() -> list[int]:
    """Square-free m < 3000 with m = 5 (mod 7), the sweep ROADMAP item 1 names."""
    return [m for m in range(5, 3000, 7) if squarefree(m)]


def load_data(name: str) -> dict:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Case:
    label: str  # printed in the case list
    args: dict = field(default_factory=dict)
    known_bad: bool = False  # failed on the recorded commit


def _triple_key(t) -> list[int]:
    return [t.a, t.b, t.c]


class Workload:
    name: str
    deadline_s: float  # per-op limit
    # Fixed per workload: a percentile inside the slowest group of ops that
    # succeed on the recorded commit, below the failures (which count at the
    # deadline), with at least ten samples beyond it in a 30 s run.
    tail_pct: float
    setup_repeats = 5
    cycle = 1  # the timed loop runs a multiple of this many rounds
    traced_rounds = 1  # rounds run untraced, then traced, by --trace 1

    def setup(self, pkg, seed: int) -> None:
        """Everything before the first timed op: inputs and warm-up."""
        self.pkg, self.seed = pkg, seed
        self.api = self.entry_points(pkg)

    def entry_points(self, pkg) -> dict:
        """Package functions the benchmark itself calls (wrapped when tracing)."""
        return {}

    def start_round(self, i: int) -> list[Case]:
        raise NotImplementedError

    def end_round(self) -> None:
        pass

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out) -> tuple[str, str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- basis-cold


class BasisCold(Workload):
    """Fresh class group, quotient, basis table and every beta(p), p <= 200.

    The cliff set is stratified by the length of the norm-equation scans its
    betas need (scan_steps, recorded with the expected betas).  Below 2e5 steps
    a case takes under ~80 ms, from 2e5 to 8e5 0.1-0.25 s, from 5e6 up 1.4 s or
    more.  The 14 moduli from 8e5 to 5e6 steps take 0.25-1.4 s, within about
    2.5x of the deadline either way, so whether they time out would depend on
    the machine's speed at that moment; they are left out, and every op that
    is kept finishes or times out the same way in every run.  The fast
    stratum is cut into pairs of moduli next to each other in scan_steps,
    the middle one into single moduli and the cliff stratum into 2 groups.
    Round i takes member i % size of each group (in a seeded order), plus
    the named moduli, so a cycle of two rounds covers the fast stratum once
    and the middle one twice; the timed loop runs whole cycles.  Of the 102
    ops of a round, 84 are fast, 12 middle and 6 time out (614 does too, at
    this deadline), so the median op falls well inside the fast group and
    p91 inside the slower part of the middle one (0.13-0.25 s).
    """

    name = "basis-cold"
    setup_repeats = 15
    cycle = 2
    deadline_s = 0.6
    tail_pct = 91.0
    # (lowest scan_steps, end, moduli per group).  The gap from 8e5 to 5e6
    # steps holds the moduli that take about the deadline.
    STRATA = ((0, 2 * 10**5, 2), (2 * 10**5, 8 * 10**5, 1), (5 * 10**6, None, 40))

    def setup(self, pkg, seed):
        super().setup(pkg, seed)
        doc = load_data("basis_cold.json")
        self.expected = {int(m): rec for m, rec in doc["moduli"].items()}
        cliff = cliff_set()
        missing = [m for m in (*cliff, *NAMED_BASIS) if m not in self.expected]
        if missing:
            raise RuntimeError(f"no recorded data for m in {missing[:5]}")
        rng = random.Random(seed)
        self.groups = []
        for lo, hi, size in self.STRATA:
            members = sorted(
                (m for m in cliff if self.expected[m]["scan_steps"] >= lo
                 and (hi is None or self.expected[m]["scan_steps"] < hi)),
                key=lambda m: (self.expected[m]["scan_steps"], m),
            )
            count = len(members) // size
            for g in range(count):
                group = members[g * len(members) // count:(g + 1) * len(members) // count]
                self.groups.append(rng.sample(group, len(group)))
        fx = pkg.fixtures
        self.fixture_betas = {35: fx.BETA35, 23: {**fx.BETA23_TT, **fx.BETA23_PILLAR2}, 974: fx.BETA974}

    def entry_points(self, pkg):
        return {"quotient_setup": pkg.classgroup.quotient_setup, "split_primes": pkg.basis.split_primes}

    def start_round(self, i):
        picks = [group[i % len(group)] for group in self.groups]
        cases = [Case(f"m={m}", {"m": m}, self.expected[m]["status"] == "exception")
                 for m in (*NAMED_BASIS, *picks)]
        random.Random(f"{self.seed}:{i}").shuffle(cases)
        return cases

    def run(self, case):
        pkg = self.pkg
        mod = pkg.quadfield.Modulus(case.args["m"])
        table = pkg.classgroup.ClassGroupTable(mod)
        self.api["quotient_setup"](table)
        bt = pkg.basis.BasisTable(mod, table=table)
        return bt, [bt.beta(p) for p in self.api["split_primes"](mod, BASIS_BOUND)]

    def check(self, case, out):
        bt, elements = out
        m = case.args["m"]
        got = [[el.p, *_triple_key(el.triple), el.category.value] for el in elements]
        rec = self.expected[m]
        if rec["status"] == "ok" and got != rec["betas"]:
            diff = [(g, r) for g, r in zip(got, rec["betas"]) if g != r] or [(len(got), len(rec["betas"]))]
            return "mismatch", f"m={m}: got {diff[0][0]}, recorded seed value {diff[0][1]}"
        for p, want in self.fixture_betas.get(m, {}).items():
            el = next((el for el in elements if el.p == p), None)
            if p <= BASIS_BOUND and (el is None or tuple(_triple_key(el.triple)) != want):
                return "mismatch", f"m={m}: beta({p}) differs from the worked example {want}"
        pillar_primes = {pl.p for pl in bt.pillars}
        for el in elements:
            t = el.triple
            try:
                self.pkg.triples.Triple(m, t.a, t.b, t.c)
            except ValueError as exc:
                return "mismatch", f"m={m}: beta({el.p}) = {t} is not a valid triple: {exc}"
            c = t.c
            for q in (el.p, 2, *pillar_primes):
                while c % q == 0:
                    c //= q
            if t.b == 0 or c != 1 or t.c % el.p:
                return "mismatch", f"m={m}: beta({el.p}) = {t} is not built from {el.p}, the pillars and 2"
        return "ok", ""


# ------------------------------------------------------------ decompose-warm


class DecomposeWarm(Workload):
    """recombine a seeded coefficient dict, then decompose the triple back.

    Each round has 15 ordinary ops (6 on m = 974, 4 on 23, 3 on 35, 2 on 15)
    over 1 to 4 split primes <= 200, and one op on m = 35 over two primes
    just above 10^6.  |coeff| is log-uniform on 1..100, stratified across
    the round's coefficient slots so every round has the same spread of
    sizes.  Every op on m = 15 also carries a coefficient on the special
    [q, r, 4] element.
    """

    name = "decompose-warm"
    deadline_s = 3.0
    tail_pct = 88.0
    traced_rounds = 4
    MIX = (974,) * 6 + (23,) * 4 + (35,) * 3 + (15,) * 2

    def setup(self, pkg, seed):
        super().setup(pkg, seed)
        Modulus, BasisTable = pkg.quadfield.Modulus, pkg.basis.BasisTable
        self.tables = {m: BasisTable(Modulus(m)) for m in (974, 23, 35, 15)}
        self.primes = {}
        for m, bt in self.tables.items():
            # for m = 15, beta(2) is the special element and is reported as such
            self.primes[m] = [p for p in bt.split_primes(BASIS_BOUND) if not (p == 2 and bt.special())]
            for p in self.primes[m]:
                bt.beta(p)
        for p in LARGE_35:
            self.tables[35].beta(p)
        fx = pkg.fixtures
        worked = [(974, None, fx.BETA974), (35, None, fx.BETA35), (23, None, fx.BETA23_TT),
                  (23, None, fx.BETA23_PILLAR2), (23, (3,), fx.BETA23_PILLAR3)]
        for m, pillars, values in worked:
            bt = self.tables[m] if pillars is None else BasisTable(Modulus(m), pillars)
            for p, want in values.items():
                if tuple(_triple_key(bt.beta(p).triple)) != want:
                    raise RuntimeError(f"m={m}: beta({p}) = {bt.beta(p).triple}, worked example {want}")
        if self.tables[15].special() is None:
            raise RuntimeError("m=15 has no special [q, r, 4] element")

    def entry_points(self, pkg):
        return {"recombine": pkg.decompose.recombine, "decompose": pkg.decompose.decompose}

    def start_round(self, i):
        rng = random.Random(f"{self.seed}:{i}")
        sizes = [1 + j % 4 for j in range(len(self.MIX))]
        rng.shuffle(sizes)
        slots = sum(sizes)
        mags = [int(101 ** ((j + rng.random()) / slots)) for j in range(slots)]
        rng.shuffle(mags)
        cases = []
        for m, k in zip(self.MIX, sizes):
            coeffs = {p: rng.choice((-1, 1)) * mags.pop() for p in rng.sample(self.primes[m], k)}
            special = rng.choice((-1, 1)) * rng.randint(1, 9) if m == 15 else 0
            cases.append(Case(f"m={m} {coeffs} special={special}", {"m": m, "coeffs": coeffs, "special": special}))
        coeffs = {p: rng.choice((-2, -1, 1, 2)) for p in rng.sample(LARGE_35, 2)}
        cases.append(Case(f"m=35 {coeffs} special=0", {"m": 35, "coeffs": coeffs, "special": 0}, known_bad=True))
        rng.shuffle(cases)
        return cases

    def run(self, case):
        bt = self.tables[case.args["m"]]
        t = self.api["recombine"](bt, case.args["coeffs"], case.args["special"])
        return t, self.api["decompose"](bt, t)

    def check(self, case, out):
        t, d = out
        try:
            self.pkg.triples.Triple(t.m, t.a, t.b, t.c)
        except ValueError as exc:
            return "mismatch", f"recombine built an invalid triple {t}: {exc}"
        got = (d.coefficients(), d.special_coeff, d.verified, d.input)
        want = (case.args["coeffs"], case.args["special"], True, t)
        if got != want:
            return "mismatch", f"decompose({t}) gave {got[:3]}, expected {want[:3]}"
        return "ok", ""


# ------------------------------------------------------------------- cli-mix


def _decompose_stdout(m: int, t: list[int], coeffs: dict[int, int]) -> str:
    doc = {"m": m, "input": t, "special": 0, "verified": True,
           "terms": [{"p": p, "coeff": s} for p, s in sorted(coeffs.items()) if s]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# Commands whose exit code and stdout are recorded from the recorded commit,
# grouped by the slot of a round they can fill.
CLI_POOL = {
    "974": ["generators -m 974 --bound 50 --json", "beta -m 974 37",
            "beta -m 974 5 --json", "beta -m 974 193", "decompose -m 974 4141 66 4625",
            "decompose -m 974 4141,66,4625", "classgroup -m 974", "classgroup -m 974 --json",
            "generators -m 974 --bound 100 --pillar 5 --pillar 41"],
    "35": ["generators -m 35 --bound 17", "generators -m 35 --bound 200 --json", "beta -m 35 79",
           "beta -m 35 149 --json", "classgroup -m 35", "classgroup -m 35 --json", "verify-paper --m 35"],
    "23": ["generators -m 23 --bound 3 --pillar 3", "generators -m 23 --bound 200", "beta -m 23 59",
           "beta -m 23 13 --pillar 3 --json", "classgroup -m 23", "generators -m 23 --bound 50 --pillar p=3 --json",
           "verify-paper --m 23"],
    "verify": ["verify-paper", "verify-paper --m 974"],
    "invalid": ["classgroup -m 12", "classgroup -m 3", "generators -m 35 --bound 1", "beta -m 35 5",
                "beta -m 974 7", "decompose -m 35 1 2 3", "decompose -m 974 4141 66",
                "generators -m 23 --bound 10 --pillar 59", "beta -m 35 x", "decompose -m 23 2,1,3"],
    "fixed": ["generators -m 974 --bound 200", "classgroup -m 2000002", "classgroup -m 3000010 --json",
              "generators -m 614 --bound 50"],
}
# recombine(BasisTable(35), {1000033: 1, 1000037: 1}); factorize cannot split its c.
LARGE_35_TRIPLE = [906413495341, -71425202196, 1000070001221]
LARGE_35_COEFFS = {1000033: 1, 1000037: 1}
# One round.  A slot named after a pool takes that pool's next command in a
# seeded order, so a run cycles through each pool; "decompose" takes a seeded
# triple (two on m = 974, then one on 35 or 23).  The order of the slots is
# fixed, so each modulus is read from the empty cache first and warm after,
# the same way in every round.  The round opens with every beta(p), p <= 200,
# of m = 974, so each later m = 974 command re-validates the same cache file
# (25-50 ms).  With five cheap commands (m = 35 and 23, invalid input: under
# 5 ms), ten on m = 974 and four heavy ones, the median op falls inside the
# m = 974 group rather than on the edge between two groups.
CLI_ROUND = ("generators -m 974 --bound 200", "classgroup -m 2000002", "35", "974", "decompose", "invalid",
             "verify", "generators -m 614 --bound 50", "974", "23", "974", "classgroup -m 3000010 --json",
             "decompose", "decompose-large", "974", "invalid", "verify", "decompose", "974")
PRE_ROUNDS = 64


class CliMix(Workload):
    """One aptgroup.cli.main(argv) call per op; each round gets an empty --cache-dir."""

    name = "cli-mix"
    setup_repeats = 7
    deadline_s = 8.0
    tail_pct = 84.0

    def setup(self, pkg, seed):
        super().setup(pkg, seed)
        self.expected = load_data("cli_mix.json")["commands"]
        missing = [c for cmds in CLI_POOL.values() for c in cmds if c not in self.expected]
        if missing:
            raise RuntimeError(f"no recorded output for {missing[:3]}")
        # seeded decompose inputs, checked against the coefficients that built them
        tables = {m: pkg.basis.BasisTable(pkg.quadfield.Modulus(m)) for m in (974, 35, 23)}
        rng = random.Random(seed)
        self.decompose_inputs = []
        for _ in range(PRE_ROUNDS):
            triples = []  # for the round's three "decompose" slots, in order
            for m in (974, 974, rng.choice((35, 23))):
                bt = tables[m]
                ps = rng.sample(bt.split_primes(BASIS_BOUND), rng.randint(1, 3))
                coeffs = {p: rng.choice((-1, 1)) * rng.randint(1, 20) for p in ps}
                t = _triple_key(pkg.decompose.recombine(bt, coeffs))
                triples.append((m, t, coeffs))
            self.decompose_inputs.append(triples)
        self.pool_order = {k: rng.sample(cmds, len(cmds)) for k, cmds in CLI_POOL.items()}
        os.makedirs(WORK, exist_ok=True)
        self.cache_dir = None

    def entry_points(self, pkg):
        return {"main": pkg.cli.main}

    def start_round(self, i):
        self.end_round()
        self.cache_dir = tempfile.mkdtemp(prefix="cli-cache-", dir=WORK)
        rng = random.Random(f"{self.seed}:{i}")
        triples = iter(self.decompose_inputs[i % PRE_ROUNDS])
        used = dict.fromkeys(CLI_POOL, 0)
        cases = []
        for slot in CLI_ROUND:
            if slot in CLI_POOL:
                order = self.pool_order[slot]
                cmd = order[(CLI_ROUND.count(slot) * i + used[slot]) % len(order)]
                used[slot] += 1
                cases.append(Case(cmd, {"cmd": cmd, "want": self.expected[cmd]}))
            elif slot == "decompose":
                m, t, coeffs = next(triples)
                cmd = f"decompose -m {m} " + rng.choice((" ", ",")).join(map(str, t))
                cases.append(Case(cmd, {"cmd": cmd, "want": {"code": 0, "stdout": _decompose_stdout(m, t, coeffs)}}))
            elif slot == "decompose-large":
                cmd = "decompose -m 35 " + ",".join(map(str, LARGE_35_TRIPLE))
                want = {"code": 0, "stdout": _decompose_stdout(35, LARGE_35_TRIPLE, LARGE_35_COEFFS)}
                cases.append(Case(cmd, {"cmd": cmd, "want": want}, known_bad=True))
            else:
                cases.append(Case(slot, {"cmd": slot, "want": self.expected[slot]}))
        return cases

    def end_round(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def close(self):
        self.end_round()

    def run(self, case):
        return run_cli(self.api["main"], case.args["cmd"], self.cache_dir)

    def check(self, case, out):
        code, stdout = out
        want = case.args["want"]
        if code == want["code"] and stdout == want["stdout"]:
            return "ok", ""
        if case.known_bad and code != 0:
            return "failed", f"exit code {code}"
        return "mismatch", f"{case.args['cmd']!r}: exit {code}, stdout {stdout[:200]!r}; expected exit {want['code']}"


def run_cli(main, cmd: str, cache_dir: str) -> tuple[int, str]:
    """main(argv) with stdout and stderr captured; argparse exits become exit codes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(shlex.split(cmd) + ["--cache-dir", cache_dir])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (BasisCold, DecomposeWarm, CliMix)}
