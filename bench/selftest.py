"""Self-test of the benchmark harness: deadlines and output checks.

    python3 bench/selftest.py

Run from the root of a checkout.  Takes a few seconds.
"""

from __future__ import annotations

import unittest
from time import perf_counter

from harness import load_package, run_op
from workloads import BasisCold, Case, CliMix, DecomposeWarm

LIMIT_S = 0.5
SLACK_S = 0.2


class DeadlineTest(unittest.TestCase):
    def test_pillar_beta_719_times_out(self):
        # beta(2) for m = 719 scans u^2 + m v^2 = N for N near 2^62; it runs
        # for minutes on the recorded commit
        pkg = load_package()
        bt = pkg.basis.BasisTable(pkg.quadfield.Modulus(719))
        self.assertIs(bt.category_of(2), pkg.basis.Category.PILLAR)
        kind, _, elapsed = run_op(lambda: bt.beta(2), LIMIT_S)
        self.assertEqual(kind, "timeout")
        self.assertGreaterEqual(elapsed, LIMIT_S)
        self.assertLess(elapsed, LIMIT_S + SLACK_S)

    def test_swallowed_alarm_is_raised_again(self):
        def stubborn():
            try:
                while True:
                    pass
            except BaseException:
                pass
            while True:
                pass

        start = perf_counter()
        kind, _, _ = run_op(stubborn, LIMIT_S)
        self.assertEqual(kind, "timeout")
        self.assertLess(perf_counter() - start, LIMIT_S + SLACK_S)

    def test_exception_and_result(self):
        self.assertEqual(run_op(lambda: 1 // 0, LIMIT_S)[0], "exception")
        self.assertEqual(run_op(lambda: 42, LIMIT_S)[:2], ("done", 42))


class CheckTest(unittest.TestCase):
    """A wrong output is a mismatch, not a pass."""

    def test_basis_cold_flags_changed_beta(self):
        wl = BasisCold()
        wl.setup(load_package(), 0)
        case = Case("m=974", {"m": 974})
        out = wl.run(case)
        self.assertEqual(wl.check(case, out)[0], "ok")
        wl.expected[974]["betas"][0][1] += 1
        self.assertEqual(wl.check(case, out)[0], "mismatch")

    def test_decompose_warm_flags_wrong_coefficients(self):
        wl = DecomposeWarm()
        wl.setup(load_package(), 0)
        case = next(c for c in wl.start_round(0) if not c.known_bad)
        out = wl.run(case)
        self.assertEqual(wl.check(case, out)[0], "ok")
        p = next(iter(case.args["coeffs"]))
        case.args["coeffs"][p] += 1
        self.assertEqual(wl.check(case, out)[0], "mismatch")

    def test_cli_mix_flags_wrong_stdout_and_exit_code(self):
        wl = CliMix()
        wl.setup(load_package(), 0)
        wl.start_round(0)  # makes the round's cache directory
        cmd = "classgroup -m 12"
        case = Case(cmd, {"cmd": cmd, "want": wl.expected[cmd]})
        self.assertEqual(wl.check(case, wl.run(case))[0], "ok")
        self.assertEqual(wl.check(case, (0, ""))[0], "mismatch")
        self.assertEqual(wl.check(case, (2, "extra\n"))[0], "mismatch")
        wl.close()


if __name__ == "__main__":
    unittest.main()
