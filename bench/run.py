"""Benchmark for aptgroup: three seeded workloads, timed end to end and per layer.

    python3 bench/run.py --workload basis-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs a fixed number of rounds untraced and then the same rounds traced, and
prints the per-layer metrics.  Every op's output is checked.  The last line
of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Times are rescaled to a reference machine speed (see harness.Speed).
Exit status: 0 when every output was right, 1 on a wrong output or a failed
set-up check, 2 when there is no package source to load.  See bench/README.md.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from harness import MissingSource, Speed, load_package, median, percentile, run_op  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402

# A run stops starting ops, even inside a round, once it has run this long
# past its --seconds, so that a very slow commit still exits within 180 s.
OVERRUN_S = 90
# An op that runs this long is rescaled by the mean of the speed factors
# measured just before and just after it.
LONG_OP_S = 0.05


class Results:
    """Outcomes of the ops of one pass.  Times are rescaled (see harness.Speed)."""

    def __init__(self, workload, speed):
        self.wl, self.speed = workload, speed
        self.latencies = []  # seconds; a failed op counts at the deadline
        self.slot_times = []  # seconds per op slot, in the order of log
        self.outcomes = {"ok": 0, "timeout": 0, "failed": 0, "mismatch": 0}
        self.mismatches = []
        self.log = []
        self.round_rates = []  # ok ops per second of each whole round
        self.time = 0.0  # all op slots so far: op, check and the collection before it

    def execute(self, case, round_no, tracer=None, op_id=None):
        wl = self.wl
        factor = self.speed.update()
        slot_start = perf_counter()
        # Tables built by one op hold reference cycles; freeing them here, not
        # at some point inside a later op, keeps latency and peak memory steady.
        gc.collect()
        if tracer is not None:
            tracer.begin_op(op_id)
        # the deadline, like every time, is at the reference speed (but never
        # stretched past twice its wall time, so that a run still ends in time)
        kind, value, elapsed = run_op(lambda: wl.run(case), wl.deadline_s / max(factor, 0.5))
        if tracer is not None:
            tracer.end_op("completed" if kind == "done" else kind)
        if kind == "done":
            outcome, detail = wl.check(case, value)
        elif kind == "timeout":
            outcome, detail = "timeout", f"over {wl.deadline_s} s"
        else:
            outcome = "failed" if case.known_bad else "mismatch"
            detail = f"{type(value).__name__}: {value}"
        slot = perf_counter() - slot_start
        if elapsed >= LONG_OP_S:
            # the machine's speed may have changed while the op ran
            factor = (factor + self.speed.update(force=True)) / 2
        self.slot_times.append(slot * factor)
        self.time += slot * factor
        self.outcomes[outcome] += 1
        if outcome == "mismatch":
            self.mismatches.append(f"{case.label}: {detail}")
        # a timeout, an exception or a wrong output counts at the deadline
        self.latencies.append(elapsed * factor if outcome == "ok" else wl.deadline_s)
        self.log.append({"round": round_no, "case": case.label, "outcome": outcome,
                         "wall_ms": round(elapsed * 1e3, 3), "speed": round(factor, 4), "detail": detail})

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.attempted - self.outcomes["ok"]


def run_rounds(wl, results, rounds=None, seconds=None, tracer=None):
    """Run whole rounds: a fixed number, or whole cycles until `seconds` have passed."""
    start = perf_counter()
    i = 0
    cut = False
    while not cut and (rounds is None or i < rounds):
        time_before, ok_before = results.time, results.outcomes["ok"]
        for j, case in enumerate(wl.start_round(i)):
            if seconds is not None and perf_counter() - start > seconds + OVERRUN_S:
                print(f"warning: round {i} cut at {seconds + OVERRUN_S} s", file=sys.stderr)
                cut = True
                break
            results.execute(case, i, tracer, f"{i}:{j}")
        wl.end_round()
        results.round_rates.append((results.outcomes["ok"] - ok_before) / (results.time - time_before))
        i += 1
        if seconds is not None and perf_counter() - start >= seconds and i % wl.cycle == 0:
            break
    return perf_counter() - start, i


def write_log(name, results_list):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, name)
    with open(path, "w", encoding="utf-8") as fh:
        for res in results_list:
            for entry in res.log:
                fh.write(json.dumps(entry) + "\n")
    return os.path.relpath(path)


def timed(args, cls):
    speed = Speed()
    setup_s = []
    for r in range(cls.setup_repeats):
        t0 = PROCESS_START if r == 0 else perf_counter()
        wl = cls()
        wl.setup(load_package(), args.seed)
        setup_s.append((perf_counter() - t0) * speed.update(force=True))
        if r + 1 < cls.setup_repeats:
            wl.close()
    res = Results(wl, speed)
    try:
        wall, rounds = run_rounds(wl, res, seconds=args.seconds)
    finally:
        wl.close()
    n = res.attempted
    lat_ms = [x * 1e3 for x in res.latencies]
    beyond = sum(x > percentile(lat_ms, wl.tail_pct) for x in lat_ms)
    metrics = {
        "ops_per_s": (median(res.round_rates), "1/s"),
        "p50_ms": (median(lat_ms), "ms"),
        "tail_ms": (percentile(lat_ms, wl.tail_pct), "ms"),
        "ok_share": (res.outcomes["ok"] / n, "ratio"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    log = write_log(f"{wl.name}-seed{args.seed}-cases.jsonl", [res])
    o = res.outcomes
    print(f"workload {wl.name}  seed {args.seed}  {rounds} rounds  {n} ops  wall {wall:.3f} s  "
          f"deadline {wl.deadline_s} s  case list: {log}")
    print(f"times are rescaled to the reference speed; this run's speed factor: median "
          f"{median(speed.factors):.4f} of {len(speed.factors)} (1 = reference, below 1 = slower)")
    notes = {
        "ops_per_s": f"median over {len(res.round_rates)} rounds; {o['ok']} ok ops in {res.time:.3f} s in all",
        "p50_ms": f"median of {n} ops",
        "tail_ms": f"p{wl.tail_pct:g} of {n} ops, {beyond} beyond it",
        "ok_share": f"fail_share {res.failed / n:.4f} = {res.failed} of {n} attempted: {o['timeout']} timeout, "
                    f"{o['failed']} known failures, {o['mismatch']} wrong",
        "setup_s": f"median of {len(setup_s)} set-ups: " + " ".join(f"{s:.3f}" for s in setup_s),
        "peak_rss_mb": "peak resident set of this process",
    }
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{wl.tail_pct:g}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<12} {value:>12.4f} {unit:<6} ({notes[name]})")
    return [res], metrics


def overhead_ms(plain, with_trace):
    """Traced minus untraced slot time, over the ops that timed out in neither pass.

    A timed-out op ends at the deadline in both passes, which would hide what
    tracing cost inside it.
    """
    pairs = zip(plain.log, plain.slot_times, with_trace.log, with_trace.slot_times)
    return 1e3 * sum(t - u for a, u, b, t in pairs
                     if a["case"] == b["case"] and "timeout" not in (a["outcome"], b["outcome"]))


def traced(args, cls):
    tracer = Tracer()
    wl = cls()
    pkg = load_package()
    tracer.install(pkg, {})
    tracer.begin_op("setup")
    wl.setup(pkg, args.seed)
    tracer.end_op("completed", group="setup")
    tracer.uninstall()
    speed = Speed()
    plain, with_trace = Results(wl, speed), Results(wl, speed)
    try:
        run_rounds(wl, plain, rounds=cls.traced_rounds)
        tracer.install(pkg, wl.api)
        try:
            run_rounds(wl, with_trace, rounds=cls.traced_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    layer = tracer.metrics("ops", [op for op in tracer.status if op != "setup"])
    setup = tracer.metrics("setup", ["setup"])
    layer["setup.norm_scan_steps"] = setup["basis.norm_scan_steps"]
    layer["setup.basis_self_ms"] = setup["basis.self_ms"]
    layer["trace.overhead_ms"] = overhead_ms(plain, with_trace)
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace.json")
    tracer.dump(trace_path, {"workload": wl.name, "seed": args.seed, "rounds": cls.traced_rounds})
    log = write_log(f"{wl.name}-seed{args.seed}-traced-cases.jsonl", [plain, with_trace])
    print(f"workload {wl.name}  seed {args.seed}  {cls.traced_rounds} rounds untraced then traced  "
          f"{with_trace.attempted} ops each  untraced {plain.time:.3f} s  traced {with_trace.time:.3f} s  "
          f"spans: {os.path.relpath(trace_path)}  case list: {log}")
    metrics = {}
    for name, value in layer.items():
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
        print(f"{name:<34} {value:>14.3f} {unit}")
    return [plain, with_trace], metrics


def main():
    ap = argparse.ArgumentParser(description="aptgroup benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs (whole rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cls = WORKLOADS[args.workload]
    try:
        passes, metrics = (traced if args.trace else timed)(args, cls)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mismatches = [m for res in passes for m in res.mismatches]
    for m in mismatches[:20]:
        print(f"WRONG OUTPUT: {m}", file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
