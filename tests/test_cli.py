import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aptgroup
from aptgroup import BasisTable, DecompositionError, Modulus, Triple, cli, fixtures, recombine
from aptgroup.basis import BoundTooLargeError
from aptgroup.classgroup import PillarConfigError
from aptgroup.cli import build_parser, main
from aptgroup.primes import FactoringBudgetError
from aptgroup.quadfield import InvalidModulusError
from aptgroup.triples import NotASolutionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassgroupCommand:
    def test_human_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classgroup", "-m", "974", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "h = 36" in out
        assert "Cl(K) = C12 x C3" in out
        assert "Cl(K) mod two-torsion = C6 x C3" in out
        assert "p=5 (h=6), p=41 (h=3)" in out

    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classgroup", "-m", "23", "--json", "--cache-dir", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == 3 and doc["two_torsion"] == 1
        assert doc["pillars"] == [{"p": 2, "h": 3, "root": 1}]

    def test_invalid_modulus_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "classgroup", "-m", "12", "--cache-dir", str(tmp_path))
        assert code == 2 and "square-free" in err

    def test_bad_pillar_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "classgroup", "-m", "974", "--pillar", "7",
                           "--cache-dir", str(tmp_path))
        assert code == 2 and "pillar" in err

    @pytest.mark.parametrize("pillar", ["4", "1", "0", "=-5"])
    def test_non_prime_pillar_exit_2(self, capsys, pillar):
        code, _, err = run(capsys, "classgroup", "-m", "974", "--pillar", pillar)
        assert code == 2 and err.startswith("error:") and "pillar" in err
        assert "Traceback" not in err

    def test_pillar_on_trivial_quotient_exit_2(self, capsys):
        # m = 35 has Cl = Cl[2], so no prime can be a pillar
        code, out, err = run(capsys, "classgroup", "-m", "35", "--pillar", "4")
        assert (code, out, err) == (2, "", "error: pillar 4 is not a prime\n")
        code, out, err = run(capsys, "generators", "-m", "35", "--bound", "17", "--pillar", "3")
        assert (code, out) == (2, "")
        assert err == "error: pillar prime 3 has trivial quotient image\n"

    def test_huge_modulus_exit_2(self):
        # 10^47 + 3 is over the size limit: refused before m is factored
        src = str(Path(aptgroup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "aptgroup.cli", "classgroup", "-m",
             "100000000000000000000000000000000000000000000003"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "10^10" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deterministic_output(self, capsys, tmp_path):
        _, out1, _ = run(capsys, "classgroup", "-m", "974", "--json", "--cache-dir", str(tmp_path))
        _, out2, _ = run(capsys, "classgroup", "-m", "974", "--json", "--cache-dir", str(tmp_path))
        assert out1 == out2


class TestGeneratorsCommand:
    def test_m35(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generators", "-m", "35", "--bound", "17",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert "[1, 1, 6]" in lines[0] and "[29, 3, 34]" in lines[3]

    def test_m23_pillar_variants(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generators", "-m", "23", "--bound", "3", "--pillar", "3",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert "beta(2) = [11, 1, 12]" in out and "beta(3) = [19, 4, 27]" in out
        code, out, _ = run(capsys, "generators", "-m", "23", "--bound", "3", "--pillar", "2",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert "beta(2) = [7, 3, 16]" in out and "beta(3) = [11, 1, 12]" in out

    def test_small_bound_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "generators", "-m", "35", "--bound", "1",
                           "--cache-dir", str(tmp_path))
        assert code == 2 and "bound" in err

    def test_bound_over_limit_exit_2(self, capsys, monkeypatch):
        # refused before the class group is built
        monkeypatch.setattr(cli, "_get_table", lambda args: pytest.fail("table built"))
        code, out, err = run(capsys, "generators", "-m", "9999999967", "--bound", "1000001")
        assert code == 2 and out == "" and err.startswith("error:") and "10^6" in err

    def test_library_bound_over_limit(self, tables):
        with pytest.raises(BoundTooLargeError, match="10\\^6"):
            tables[35].elements(1000001)

    def test_huge_bound_exit_2(self):
        # refused before the sieve of 10^18 bytes is allocated
        src = str(Path(aptgroup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "aptgroup.cli", "generators", "-m", "35",
             "--bound", "1000000000000000000"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "10^6" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generators", "-m", "974", "--bound", "5", "--json",
                           "--cache-dir", str(tmp_path))
        doc = json.loads(out)
        assert [e["p"] for e in doc["basis"]] == [3, 5]
        assert doc["basis"][1] == {"p": 5, "triple": [14651, 174, 15625],
                                   "category": "pillar", "exps": []}


class TestParserReuse:
    # one cached parser serves every main() call in a process

    def test_pillar_override_does_not_leak(self, capsys):
        argv = ["generators", "-m", "974", "--bound", "100"]
        code, default, _ = run(capsys, *argv)
        assert code == 0 and "beta(41) = [61129, 1020, 68921]   pillar  (factor 2)" in default
        for first, second in (("5", "41"), ("5", "97")):
            code, out, _ = run(capsys, *argv, "--pillar", first, "--pillar", second)
            assert code == 0 and (out == default) == (second == "41")
            assert run(capsys, *argv) == (0, default, "")

    def test_rebound_handler_is_called(self, capsys, monkeypatch):
        assert run(capsys, "beta", "-m", "974", "37")[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_beta", lambda args: seen.append(args.p) or 7)
        assert main(["beta", "-m", "974", "37"]) == 7 and seen == [37]


class TestExitCodes:
    # every handler raises; main alone prints the error and picks the exit code
    COMMANDS = [
        ["classgroup", "-m", "23"],
        ["generators", "-m", "23", "--bound", "10"],
        ["beta", "-m", "23", "2"],
        ["decompose", "-m", "23", "1", "0", "1"],
        ["verify-paper"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("exc,want", [
        (NotASolutionError("not a solution"), 3),
        (DecompositionError("check failed"), 4),
        (ValueError("bad input"), 2),
        (InvalidModulusError("bad modulus"), 2),
        (PillarConfigError("bad pillar"), 2),
        (FactoringBudgetError(10**40), 2),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_every_command_maps_an_error_alike(self, capsys, monkeypatch, argv, exc, want):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "_get_table", fail)
        monkeypatch.setattr(cli, "run_fixtures", fail)
        assert run(capsys, *argv) == (want, "", f"error: {exc}\n")

    def test_bound_checks_come_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_get_table", lambda args: pytest.fail("table built"))
        for bound in ("1", "-5"):
            assert run(capsys, "generators", "-m", "23", "--bound", bound) == (
                2, "", "error: --bound must be at least 2\n")

    @pytest.mark.parametrize("triple", [["4141", "66"], ["1", "2", "3", "4"], ["1,2"], ["a", "b", "c"]])
    def test_decompose_parse_errors_exit_2(self, capsys, triple):
        code, out, err = run(capsys, "decompose", "-m", "974", *triple)
        assert (code, out) == (2, "") and err.startswith("error:") and "Traceback" not in err


class TestInputBeforeClassGroup:
    # a malformed triple or a non-prime p exits before the class group is built
    @pytest.mark.parametrize("argv,want", [
        (["decompose", "-m", "9996032471", "a,b,c"], (2, "error: invalid literal for int() with base 10: 'a'\n")),
        (["beta", "-m", "9996032471", "4"], (2, "error: 4 is not prime\n")),
        (["decompose", "-m", "9996032471", "1,1,1"],
         (3, "error: (1, 1, 1) does not solve x^2 + 9996032471y^2 = z^2\n")),
        # a bad pillar and a bad triple together: the triple is reported
        (["decompose", "-m", "974", "1,1,1", "--pillar", "7"],
         (3, "error: (1, 1, 1) does not solve x^2 + 974y^2 = z^2\n")),
    ], ids=["malformed-triple", "non-prime-p", "not-a-solution", "bad-pillar-and-triple"])
    def test_no_class_group(self, capsys, monkeypatch, argv, want):
        built = []
        monkeypatch.setattr(aptgroup.basis, "ClassGroupTable", lambda mod: built.append(mod))
        code, out, err = run(capsys, *argv)
        assert (code, err) == want and out == "" and built == []

    def test_modulus_errors_still_come_first(self, capsys):
        assert run(capsys, "decompose", "-m", "12", "a,b,c") == (
            2, "", "error: modulus must be square-free, got 12\n")
        assert run(capsys, "beta", "-m", "12", "4") == (2, "", "error: modulus must be square-free, got 12\n")


class TestBetaCommand:
    def test_single_value(self, capsys, tmp_path):
        code, out, _ = run(capsys, "beta", "-m", "974", "37", "--cache-dir", str(tmp_path))
        assert code == 0 and "beta(37) = [3167, 108, 4625]" in out

    def test_pillar_of_order_31(self, capsys):
        # the pillar 2 of m = 719 generates Cl of order 31: c = 2 * 2^31
        code, out, _ = run(capsys, "beta", "-m", "719", "2")
        assert code == 0
        assert out == "beta(2) = [1370212735, 151805367, 4294967296]   pillar  (factor 1)\n"
        assert 1370212735**2 + 719 * 151805367**2 == 2**64

    def test_composite_with_large_pillar_power(self, capsys):
        # beta(5) over m = 4001 moves 5 by the 16th power of the conjugate pillar 3
        code, out, _ = run(capsys, "beta", "-m", "4001", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["triple"] == [165053443, 2183924, 215233605]
        assert doc["exps"] == [{"a": 16, "conj": True, "j": 1}]
        assert 215233605 == 5 * 3**16
        assert 165053443**2 + 4001 * 2183924**2 == 215233605**2

    def test_prime_outside_L(self, capsys, tmp_path):
        code, _, err = run(capsys, "beta", "-m", "23", "5", "--cache-dir", str(tmp_path))
        assert code == 2 and "split" in err


class TestLongOutput:
    def test_beta_of_a_large_pillar_prints(self):
        # m = 10^9 + 7: h = 26629, so beta(2) has a third component 2^26630
        # of 8017 digits, beyond Python's default int -> str limit of 4300
        src = str(Path(aptgroup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "aptgroup.cli", "beta", "-m", "1000000007", "2"],
            capture_output=True, env=env, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr[-300:]
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "56cfe221f9666310a27eb2b18f1cf2e6b8646555afa13c2351265872dbf15ed2"
        )
        assert proc.stdout.endswith(b"   pillar  (factor 1)\n")
        assert elapsed < 20

    def test_limit_is_restored(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "beta", "-m", "974", "37", "--json")[0] == 0
        assert run(capsys, "generators", "-m", "974", "--bound", "5")[0] == 0
        assert sys.get_int_max_str_digits() == limit

    def test_long_input_still_refused(self, capsys):
        code, out, err = run(capsys, "decompose", "-m", "974", "1" * 5000, "1", "1")
        assert (code, out) == (2, "") and err.startswith("error:") and "4300" in err
        code, out, err = run(capsys, "decompose", "-m", "974", ",".join(["1" * 5000] * 3))
        assert (code, out) == (2, "") and "4300" in err
        with pytest.raises(SystemExit) as exc:
            main(["beta", "-m", "1" * 5000, "2"])
        assert exc.value.code == 2


class TestDecomposeCommand:
    def test_worked_example(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "-m", "974", "4141", "66", "4625",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == [{"coeff": -1, "p": 5}, {"coeff": 1, "p": 37}]
        assert doc["verified"] is True

    def test_identity(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "-m", "23", "1", "0", "1",
                           "--cache-dir", str(tmp_path))
        assert code == 0 and json.loads(out)["terms"] == []

    def test_special(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "-m", "7", "1", "3", "8",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["special"] in (2, -2) and doc["terms"] == []

    def test_comma_syntax(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "-m", "974", "4141,66,4625",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["terms"] == [{"coeff": -1, "p": 5}, {"coeff": 1, "p": 37}]

    def test_comma_triple_with_leading_minus(self, capsys):
        # argparse reads a bare "-4141,66,4625" as an option; these two spellings are positional
        _, want, _ = run(capsys, "decompose", "-m", "974", "4141,-66,4625")
        for argv in (["--", "-4141,66,4625"], ["[-4141,66,4625]"]):
            code, out, err = run(capsys, "decompose", "-m", "974", *argv)
            assert (code, out, err) == (0, want, ""), argv
        assert json.loads(want)["terms"] == [{"coeff": 1, "p": 5}, {"coeff": -1, "p": 37}]

    def test_not_a_solution_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "decompose", "-m", "23", "1", "1", "5",
                           "--cache-dir", str(tmp_path))
        assert code == 3 and "solve" in err

    def test_unnormalized_input_accepted(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "-m", "974", "-4141", "-66", "4625",
                           "--cache-dir", str(tmp_path))
        assert code == 0 and json.loads(out)["input"] == [4141, 66, 4625]

    def test_primes_above_trial_division(self, capsys):
        # beta(1000033) + beta(1000037) over m = 35
        code, out, _ = run(capsys, "decompose", "-m", "35", "906413495341,-71425202196,1000070001221")
        assert code == 0
        assert out == ('{"input":[906413495341,-71425202196,1000070001221],"m":35,"special":0,'
                       '"terms":[{"coeff":1,"p":1000033},{"coeff":1,"p":1000037}],"verified":true}\n')

    def test_factoring_budget_exit_2(self):
        # beta(p) + beta(q) over m = 35 for the two largest split primes below
        # 7 * 10^14: rho would need tens of millions of steps to split its
        # 30-digit third component, and stops at the budget instead
        p, q = 699999999999889, 699999999999863
        t = recombine(BasisTable(Modulus(35)), {p: 1, q: 1})
        assert t == Triple(35, 347418591370504474490232017767, 58407514773348987000234208704,
                           489999999999826400000000015207) and t.c == p * q
        src = str(Path(aptgroup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "aptgroup.cli", "decompose", "-m", "35", f"{t.a},{t.b},{t.c}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: factoring budget exceeded") and "Traceback" not in proc.stderr
        assert elapsed < 30


class TestVerifyPaperCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("fixtures passed")

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--m", "35")
        assert code == 0
        names = [l.split()[1] for l in out.splitlines() if l.startswith("PASS")]
        assert names and all(n.startswith("m35") for n in names)

    def test_failure_exit_1(self, capsys, monkeypatch):
        first = fixtures.FIXTURES[0]
        monkeypatch.setattr(fixtures, "FIXTURES", (first._replace(expected=(3,)), first))
        assert run(capsys, "verify-paper") == (1, (
            "FAIL  m35.classgroup: got (2, [2], 2, [], []), expected (3,)\n"
            "PASS  m35.classgroup\n"
            "1/2 fixtures passed\n"), "")

    def test_no_fixture_for_the_modulus_exit_1(self, capsys):
        assert run(capsys, "verify-paper", "--m", "5") == (1, "0/0 fixtures passed\n", "")

    def test_corrupted_cache_is_ignored(self, capsys, tmp_path):
        # verify-paper recomputes; a corrupt cache must not break other commands
        (tmp_path / "m23-default.json").write_text("{not json", encoding="utf-8")
        code, out, _ = run(capsys, "verify-paper", "--m", "23")
        assert code == 0
        code, out, _ = run(capsys, "classgroup", "-m", "23", "--cache-dir", str(tmp_path))
        assert code == 0 and "h = 3" in out


@pytest.mark.parametrize("argv", [
    ["classgroup", "-m", "23"],
    ["generators", "-m", "23", "--bound", "29"],
    ["beta", "-m", "974", "37"],
    ["decompose", "-m", "974", "4141", "66", "4625"],
    ["verify-paper", "--m", "23"],
])
def test_cache_dir_accepted_and_nothing_written(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("HOME", str(tmp_path))
    code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "cache"))
    assert code == 0 and out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["classgroup", "-m", "3000010", "--json"],
    ["generators", "-m", "974", "--bound", "100", "--pillar", "5", "--pillar", "97"],
    ["verify-paper"],
])
def test_command_leaves_nothing_for_the_collector(argv):
    enabled = gc.isenabled()
    gc.disable()
    try:
        build_parser()  # argparse leaves cycles behind while it builds the parser, once per process
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_unimported_package_is_freed():
    # nothing outside the package (such as a typing cache) may keep its classes alive
    script = (
        "import gc, io, sys, weakref, contextlib\n"
        "import aptgroup.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    aptgroup.cli.main(['verify-paper'])\n"
        "refs = [weakref.ref(aptgroup.classgroup.FormClass), weakref.ref(aptgroup.basis.BasisTable)]\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'aptgroup']:\n"
        "    del sys.modules[name]\n"
        "del aptgroup\n"
        "gc.collect()\n"
        "print([ref() is None for ref in refs])\n"
    )
    src = str(Path(aptgroup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True]\n"
