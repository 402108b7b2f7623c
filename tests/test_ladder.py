"""Powers of betas read off the ladders a BasisTable keeps.

A product of basis powers (BasisTable._product, behind recombine and
decompose) reads beta(p)^s off the ladder beta(p), beta(p)^2, beta(p)^4, ...
that the table keeps and extends.  These tests pin the multiplications
that saves, check that a warm table gives the same raw elements as a cold
one, and that two threads extending the same ladders get the
single-thread results.  About 0.6 s together.
"""

import importlib
import random
import re
import sys
import threading
import time

import pytest
from conftest import termwise_recombine

from aptgroup import BasisTable, Modulus, recombine
from aptgroup.classgroup import ClassGroupTable

triples_module = importlib.import_module("aptgroup.triples")
basis_module = importlib.import_module("aptgroup.basis")


def spy_on_mul(monkeypatch, calls, pause=False):
    """Route every call of triples.mul through a spy that records (x, y); pause yields the GIL first."""
    real_mul = triples_module.mul

    def spy(m, x, y):
        calls.append((x, y))
        if pause:
            time.sleep(0)
        return real_mul(m, x, y)

    monkeypatch.setattr(triples_module, "mul", spy)
    monkeypatch.setattr(basis_module, "mul", spy)


def exact_product(bt: BasisTable, terms) -> tuple[int, int, int]:
    """prod(beta(p)^s) multiplied out one factor at a time, then divided by its full power of 2.

    The oracle for BasisTable._product; it shares no code with triples.mul or power.
    """
    m = bt.mod.m
    a, b, c = 1, 0, 1
    for p, s in terms.items():
        t = bt.beta(p).triple if s else None
        for _ in range(abs(s)):
            y = t.b if s > 0 else -t.b
            a, b, c = a * t.a - m * b * y, a * y + b * t.a, c * t.c
    low = a | b | c
    k = (low & -low).bit_length() - 1
    return a >> k, b >> k, c >> k


class TestOperationCount:
    # m = 974: pillars 5 and 41, the rest composite; one zero coefficient
    VECTORS = [
        {5: 2, 41: -1, 37: 3, 11: -5},
        {37: 100, 11: -64, 3: 63},
        {13: -1, 37: 17, 41: 0},
        {3: -127, 5: 1, 43: 31},
    ]

    def test_second_recombine_squares_nothing(self, monkeypatch):
        bt = BasisTable(Modulus(974))
        calls = []
        spy_on_mul(monkeypatch, calls)
        counts = []
        for _ in range(2):
            calls.clear()
            for vec in self.VECTORS:
                recombine(bt, vec)
            counts.append(len(calls))
        # popcount(|s|) - 1 per power, one per term after the first
        want = sum(
            sum(bin(s).count("1") - 1 for s in vec.values() if s) + sum(1 for s in vec.values() if s) - 1
            for vec in self.VECTORS
        )
        # the first pass also squares each ladder once per bit of its largest |s|, less one: 23 squarings
        assert counts == [51, 28] and want == 28
        assert all(x is not y and x != y for x, y in calls)


class TestWarmEqualsCold:
    EXPONENTS = sorted({e * n for e in (1, -1) for k in range(1, 8) for n in (2**k, 2**k - 1, 100)})

    # each modulus with up to four split primes <= 60, pillars among them at 23 and 974
    CASES = [(7, (2, 11, 23)), (15, (17, 19, 23)), (23, (2, 3, 13, 59)), (35, (3, 11, 13)),
             (974, (3, 5, 37, 41)), (10000019, (13, 19))]

    @pytest.mark.parametrize("m, primes", CASES, ids=[str(m) for m, _ in CASES])
    def test_long_ladders_give_the_cold_product(self, m, primes):
        mod = Modulus(m)
        group = ClassGroupTable(mod)
        warm = BasisTable(mod, table=group)
        for p in primes:
            warm._product({p: 256})  # nine entries, one more than any exponent here needs
        rng = random.Random(m)
        special = m in (7, 15)
        for i, n in enumerate(self.EXPONENTS):
            vec = {primes[i % len(primes)]: n, primes[(i + 1) % len(primes)]: rng.choice(self.EXPONENTS)}
            cold = BasisTable(mod, table=group)
            want = cold._product(vec)
            assert warm._product(vec) == want == exact_product(cold, vec), (m, vec)
            s = rng.choice(self.EXPONENTS) if special else 0
            assert recombine(warm, vec, s) == termwise_recombine(cold, vec, s), (m, vec, s)
        assert all(len(warm._ladders[p]) == 9 for p in primes)

    def test_keys_without_a_beta(self):
        bt = BasisTable(Modulus(23))
        bt._product({3: 256})
        for p in (15, 5):  # composite, and inert at 23
            with pytest.raises(ValueError) as raised:
                bt.beta(p)
            with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
                recombine(bt, {3: 5, p: 1})
            assert p not in bt._ladders

    def test_no_beta_for_a_zero_coefficient(self):
        bt = BasisTable(Modulus(974))
        built = []
        compute = bt._compute_beta

        def spy(info):
            built.append(info.p)
            return compute(info)

        bt._compute_beta = spy
        recombine(bt, {3: 0, 5: 0, 37: 9})
        assert built == [37] and list(bt._ladders) == [37]


class TestConcurrentLadders:
    # overlapping primes, exponents that extend the same ladders at different points
    VECTORS = (
        [{37: 100, 11: -3, 5: 7}, {37: 5, 11: 127, 3: -2}, {11: 1, 3: 64}],
        [{37: -64, 11: 33}, {11: -2, 37: 127, 5: -100}, {3: 31, 5: 2}],
    )

    def test_two_threads_get_single_thread_results(self, monkeypatch):
        mod = Modulus(974)
        group = ClassGroupTable(mod)
        alone = BasisTable(mod, table=group)
        want = [[recombine(alone, vec) for vec in vecs] for vecs in self.VECTORS]
        square = triples_module.mul
        spy_on_mul(monkeypatch, [], pause=True)  # a thread switch may come at every mul
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                bt = BasisTable(mod, table=group)
                start = threading.Barrier(2, timeout=10)
                got = [None, None]

                def work(i):
                    start.wait()
                    got[i] = [recombine(bt, vec) for vec in self.VECTORS[i]]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert got == want
                # every kept ladder is whole, beta(p) and then each entry the square of the one
                # before, and the longest built: 7 entries, for exponents up to 127
                for p, ladder in bt._ladders.items():
                    _, a, b, c = bt.beta(p).triple
                    assert ladder[0] == (a, b, c) and len(ladder) == 7, p
                    assert all(y == square(974, x, x) for x, y in zip(ladder, ladder[1:])), p
        finally:
            sys.setswitchinterval(interval)
