"""Record the expected outputs the benchmark checks against.

Run from the root of a checkout whose src/ is the commit to record:

    python3 bench/record.py      # about 7 minutes

It writes bench/data/basis_cold.json (per modulus: the norm-scan length its
betas need, and the betas at bound 200 when they finish within RECORD_LIMIT_S)
and bench/data/cli_mix.json (exit code and stdout of every pooled command).
The files in bench/data were recorded this way from the commit that added
the benchmark (the recorded commit).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from math import isqrt

from harness import load_package, run_op
from workloads import BASIS_BOUND, CLI_POOL, DATA, NAMED_BASIS, WORK, BasisCold, Case, cliff_set, run_cli

# Per-modulus limit for basis-cold.  It decides which moduli get recorded
# betas, so the data in bench/data holds only for this value.
RECORD_LIMIT_S = 5.0


def scan_steps(pkg, m: int) -> int:
    """Sum of isqrt(N // m) + 1 over the norm-equation scans beta(p), p <= 200, needs.

    Worked out from the pillar data alone, so it is known even for moduli
    whose scans do not finish.
    """
    Category = pkg.basis.Category
    bt = pkg.basis.BasisTable(pkg.quadfield.Modulus(m))
    total = 0
    for p in bt.split_primes(BASIS_BOUND):
        cat = bt.category_of(p)
        if cat is Category.TWO_TORSION:
            n = p
        elif cat is Category.PILLAR:
            n = p ** next(pl.order for pl in bt.pillars if pl.p == p)
        else:
            n = p
            for e, pl in zip(bt.exponent_vector(p), bt.pillars):
                n *= pl.p**e.a
        norms = (4 * n * n, n * n) if bt.mod.delta == 0 else (n * n,)
        total += sum(isqrt(N // m) + 1 for N in norms)
    return total


def record_basis(pkg) -> dict:
    wl = BasisCold()
    wl.pkg, wl.api = pkg, wl.entry_points(pkg)
    moduli = {}
    for m in sorted(set(cliff_set()) | set(NAMED_BASIS)):
        kind, value, elapsed = run_op(lambda: wl.run(Case(f"m={m}", {"m": m})), RECORD_LIMIT_S)
        rec = {"scan_steps": scan_steps(pkg, m), "status": "ok" if kind == "done" else kind}
        if kind == "done":
            rec["betas"] = [[el.p, el.triple.a, el.triple.b, el.triple.c, el.category.value] for el in value[1]]
        moduli[str(m)] = rec
        print(f"m={m} {rec['status']} {elapsed:.3f}s steps={rec['scan_steps']}", flush=True)
    return {"bound": BASIS_BOUND, "limit_s": RECORD_LIMIT_S, "moduli": moduli}


def record_cli(pkg) -> dict:
    commands = {}
    os.makedirs(WORK, exist_ok=True)
    for cmd in sorted({c for cmds in CLI_POOL.values() for c in cmds}):
        cache_dir = tempfile.mkdtemp(prefix="record-", dir=WORK)
        try:
            code, stdout = run_cli(pkg.cli.main, cmd, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        commands[cmd] = {"code": code, "stdout": stdout}
        print(f"{cmd!r}: exit {code}", flush=True)
    return {"commands": commands}


def write(name: str, doc: dict) -> None:
    """JSON with one line per entry of the document's single mapping field."""
    (key, entries), = ((k, v) for k, v in doc.items() if isinstance(v, dict))
    head = {k: v for k, v in doc.items() if k != key}
    lines = [json.dumps(k) + ":" + json.dumps(v, sort_keys=True, separators=(",", ":"))
             for k, v in sorted(entries.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
        fields = json.dumps(head, sort_keys=True)[1:-1]
        fh.write("{" + (fields + ", " if fields else "") + f'"{key}": {{\n' + ",\n".join(lines) + "\n}}\n")


def main() -> None:
    pkg = load_package()
    write("cli_mix.json", record_cli(pkg))
    write("basis_cold.json", record_basis(pkg))


if __name__ == "__main__":
    main()
