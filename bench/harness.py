"""Loading the package from source, running one op under a deadline, statistics."""

from __future__ import annotations

import importlib
import os
import signal
import sys
import types
from math import isqrt
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("quadfield", "primes", "classgroup", "triples", "basis", "decompose", "cache", "fixtures", "cli")


class MissingSource(RuntimeError):
    """The checkout holds no src/aptgroup to benchmark."""


def load_package() -> types.SimpleNamespace:
    """Import aptgroup afresh from src/ and return its modules by short name.

    Any aptgroup modules already imported are dropped first, so module-level
    state (such as the shared table dict in basis) starts empty.
    """
    if not os.path.isfile(os.path.join(SRC, "aptgroup", "__init__.py")):
        raise MissingSource(f"no package source at {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "aptgroup" or n.startswith("aptgroup.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("aptgroup")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "aptgroup"):
        raise MissingSource(f"aptgroup was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"aptgroup.{m}") for m in MODULES})


class Deadline(BaseException):
    """Raised by SIGALRM when an op passes its limit.

    A BaseException, so that the package's own ``except Exception`` blocks
    (cache validation, the fixture runner) cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


signal.signal(signal.SIGALRM, _on_alarm)

# After the first alarm, keep re-raising at this interval until the op has
# unwound, in case some frame catches and drops the first one.
_REARM_S = 0.05


def run_op(fn, limit_s: float):
    """Call fn() under a wall-clock limit.

    Returns (kind, value, elapsed_s) where kind is "done" (value is fn's
    result), "timeout" (value None) or "exception" (value is the exception).
    """
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s, _REARM_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return "timeout", None, perf_counter() - start
    except Exception as exc:  # the op's failure is a measured outcome
        return "exception", exc, perf_counter() - start
    return "done", value, perf_counter() - start


# The machine this runs on may be shared, and its speed then drifts by up to
# ~1.6x over stretches of seconds to minutes.  So every time the benchmark
# reports is rescaled to one reference speed: a fixed pure-Python loop is timed
# (best of three) at most every CALIBRATE_EVERY_S, and a time t measured after
# it is reported as t * REFERENCE_S / (the loop's time).  REFERENCE_S is the
# loop's time on a quiet 2-vCPU Xeon at 2.1 GHz, so the numbers read as times
# on that machine.
REFERENCE_S = 0.0020
CALIBRATE_EVERY_S = 0.5
_M521 = (1 << 521) - 1


def _reference_loop() -> int:
    # big-integer and small-integer arithmetic, dict stores and a builtin
    # call: the mix the package's own code runs
    x, acc, seen = 3, 0, {}
    for i in range(1500):
        x = x * x % _M521
        seen[i & 255] = x & 0xFFFF
        acc += isqrt(i * i + 7)
    return acc


class Speed:
    """The machine's current speed, as a factor that rescales measured times."""

    def __init__(self):
        self.factor = 1.0
        self.factors = []
        self._last = float("-inf")

    def update(self, force: bool = False) -> float:
        if force or perf_counter() - self._last >= CALIBRATE_EVERY_S:
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                _reference_loop()
                best = min(best, perf_counter() - start)
            self.factor = REFERENCE_S / best
            self.factors.append(self.factor)
            self._last = perf_counter()
        return self.factor


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sequence (pct in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
