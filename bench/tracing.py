"""Spans and counters around the package's layers, installed from outside.

The layers are the package modules.  Nothing under src/ knows about this:
``Tracer.install`` rebinds, for the length of the traced pass,

  * every name a module imported from another package module (the call
    ``decompose`` makes to ``factorize`` goes through
    ``aptgroup.decompose.factorize``), as a span named after the callee,
    e.g. ``primes.factorize``;
  * the methods other layers call on the package's table classes, and the
    cli subcommand handlers, as spans;
  * three calls inside a layer as counters without a span: composition
    of forms, the norm-equation scan and triple addition;
  * the package functions the benchmark itself calls.

Spans have a name, start and end (ns), parent span and op id; they are kept
in memory and written as JSON at exit.  Counters are kept per op and added to the totals
only when the op completes, so the counts of a seeded run repeat exactly.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import defaultdict
from math import isqrt
from time import perf_counter_ns

LAYERS = ("classgroup", "basis", "primes", "triples", "decompose", "quadfield", "cache", "cli")
CLI_COMMANDS = ("classgroup", "generators", "beta", "decompose", "verify_paper")

# Arithmetic helpers called inside form composition, tens of thousands of
# times per large class group; their time stays in classgroup's self time.
UNWRAPPED = {("classgroup", "crt"), ("classgroup", "xgcd")}

# (module, class, method) spans; the span is named <module>.<method>.
METHODS = (
    ("classgroup", "ClassGroupTable", "__init__", "classgroup.table"),
    ("classgroup", "ClassGroupTable", "class_of_prime", "classgroup.class_of_prime"),
    ("classgroup", "QuotientData", "__init__", "classgroup.quotient"),
    ("classgroup", "QuotientData", "coords", "classgroup.coords"),
    ("basis", "BasisTable", "__init__", "basis.table"),
    ("basis", "BasisTable", "beta", "basis.beta"),
    ("basis", "BasisTable", "category_of", "basis.category_of"),
    ("basis", "BasisTable", "special", "basis.special"),
    ("basis", "BasisTable", "split_primes", "basis.split_primes"),
    ("basis", "BasisTable", "elements", "basis.elements"),
)


def _layer(name: str) -> str:
    return name.partition(".")[0]


def _on_table(counters, args, result, dur):
    counters["classgroup.forms"] += args[0].h


def _on_beta(counters, args, result, dur):
    counters[f"basis.beta_{result.category.name.lower()}_ms"] += dur / 1e6


def _on_warm(counters, args, result, dur):
    counters["cache.hits"] += bool(result)


HOOKS = {"classgroup.table": _on_table, "basis.beta": _on_beta, "cache.warm_from_cache": _on_warm}


class Tracer:
    def __init__(self):
        # one span per index; flat columns, so that millions of spans are no
        # work for the garbage collector
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.ops: list = []
        self.stack: list[int] = []
        self.unwound = None  # (exception, names of the spans it was raised inside)
        self.op = None
        self.op_counters = defaultdict(float)
        self.totals: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.status: dict = {}  # op id -> "completed" / "timeout" / ...
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.stack.clear()
        self.unwound = None
        self.op_counters = defaultdict(float)

    def end_op(self, status: str, group: str = "ops") -> None:
        """status "completed" adds the op's counters to the group's totals."""
        totals = self.totals[group]
        if status == "completed":
            for k, v in self.op_counters.items():
                totals[k] += v
        elif status == "timeout" and self.unwound and "basis.beta" in self.unwound[1]:
            totals["basis.beta_timeouts"] += 1
        self.status[self.op] = status
        self.stack.clear()
        self.op = None

    def span(self, name: str, fn):
        names, starts, ends, parents, ops = self.names, self.starts, self.ends, self.parents, self.ops
        stack, hook = self.stack, HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if self.unwound is None or self.unwound[0] is not exc:  # innermost span sees it first
                    self.unwound = (exc, [names[i] for i in stack])
                raise
            finally:
                ends[idx] = perf_counter_ns()
                while stack and stack.pop() != idx:
                    pass
            if hook is not None:
                hook(self.op_counters, args, result, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn, steps=None):
        def counted(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counters = self.op_counters
                counters[name + "_calls"] += 1
                counters[name + "_ms"] += (perf_counter_ns() - start) / 1e6
                if steps is not None:
                    counters[name + "_steps"] += steps(*args)

        counted.__wrapped__ = fn
        return counted

    # ---- installing

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pkg, api: dict) -> None:
        """Wrap the layer boundaries of pkg, and the entries of api in place."""
        for short in vars(pkg):
            module = getattr(pkg, short)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("aptgroup."):
                    continue
                callee = obj.__module__.split(".")[1]
                # fixtures is not a layer: verify-paper's fixture code counts as cli time
                if callee != short and callee != "fixtures" and (short, attr) not in UNWRAPPED:
                    self._patch(module, attr, self.span(f"{callee}.{attr}", obj))
        for short, cls, meth, name in METHODS:
            owner = getattr(getattr(pkg, short), cls)
            self._patch(owner, meth, self.span(name, getattr(owner, meth)))
        for cmd in CLI_COMMANDS:
            self._patch(pkg.cli, f"cmd_{cmd}", self.span(f"cli.{cmd}", getattr(pkg.cli, f"cmd_{cmd}")))
        self._patch(pkg.classgroup, "compose_forms", self.counter("classgroup.compose", pkg.classgroup.compose_forms))
        self._patch(pkg.basis, "solve_norm_equation", self.counter(
            "basis.norm_scan", pkg.basis.solve_norm_equation, lambda mod, n: isqrt(n // mod.m) + 1))
        self._patch(pkg.triples, "add", self.counter("triples.internal_add", pkg.triples.add))
        for key, fn in list(api.items()):
            self._patches.append((api, key, fn))
            api[key] = self.span(f"{fn.__module__.split('.')[1]}.{fn.__name__}", fn)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # ---- reporting

    def metrics(self, group: str, ops) -> dict[str, float]:
        """Per-layer metrics over the completed ops among ``ops``."""
        ops = {op for op in ops if self.status.get(op) == "completed"}
        c = self.totals[group]
        ms = defaultdict(float)  # span name -> total ms
        calls = defaultdict(int)
        self_ns = dict.fromkeys(LAYERS, 0)
        descent = 0
        count = 0
        for i, op in enumerate(self.ops):
            if op not in ops:
                continue
            name, dur, parent = self.names[i], self.ends[i] - self.starts[i], self.parents[i]
            count += 1
            ms[name] += dur / 1e6
            calls[name] += 1
            self_ns[_layer(name)] += dur
            if parent >= 0:
                pname = self.names[parent]
                self_ns[_layer(pname)] -= dur
                descent += name == "primes.factorize" and pname == "decompose.decompose"
        warm_calls = calls["cache.warm_from_cache"]
        out = {
            "basis.norm_scan_calls": c["basis.norm_scan_calls"],
            "basis.norm_scan_steps": c["basis.norm_scan_steps"],
            "basis.beta_pillar_ms": c["basis.beta_pillar_ms"],
            "basis.beta_composite_ms": c["basis.beta_composite_ms"],
            "basis.beta_two_torsion_ms": c["basis.beta_two_torsion_ms"],
            "basis.beta_timeouts": c["basis.beta_timeouts"],
            "classgroup.table_ms": ms["classgroup.table"],
            "classgroup.forms": c["classgroup.forms"],
            "classgroup.compose_calls": c["classgroup.compose_calls"],
            "classgroup.compose_ms": c["classgroup.compose_ms"],
            "classgroup.quotient_ms": ms["classgroup.quotient"],
            "primes.factorize_calls": calls["primes.factorize"],
            "primes.factorize_ms": ms["primes.factorize"],
            "decompose.descent_steps": descent,
            "decompose.decompose_ms": ms["decompose.decompose"],
            "decompose.recombine_ms": ms["decompose.recombine"],
            "triples.add_calls": calls["triples.add"] + c["triples.internal_add_calls"],
            "triples.add_ms": ms["triples.add"] + c["triples.internal_add_ms"],
            "quadfield.ideal_valuation_calls": calls["quadfield.ideal_valuation"],
            "cache.warm_calls": warm_calls,
            "cache.warm_ms": ms["cache.warm_from_cache"],
            "cache.save_ms": ms["cache.save_to_cache"],
            "cache.hit_ratio": c["cache.hits"] / warm_calls if warm_calls else 0.0,
        }
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_ms"] = ms[f"cli.{cmd}"]
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6
        out["trace.spans"] = count
        return out

    def dump(self, path: str, meta: dict) -> None:
        doc = {"meta": meta, "ops": {str(k): v for k, v in self.status.items()},
               "counters": {g: dict(c) for g, c in self.totals.items()},
               "spans": {"name": self.names, "start_ns": list(self.starts), "end_ns": list(self.ends),
                         "parent": list(self.parents), "op": self.ops}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
