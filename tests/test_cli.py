import json

import pytest

from aptgroup.cli import main


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

    def test_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generators", "-m", "974", "--bound", "5", "--json",
                           "--cache-dir", str(tmp_path))
        doc = json.loads(out)
        assert [e["p"] for e in doc["basis"]] == [3, 5]
        assert doc["basis"][1] == {"p": 5, "triple": [14651, 174, 15625],
                                   "category": "pillar", "exps": []}


class TestBetaCommand:
    def test_single_value(self, capsys, tmp_path):
        code, out, _ = run(capsys, "beta", "-m", "974", "37", "--cache-dir", str(tmp_path))
        assert code == 0 and "beta(37) = [3167, 108, 4625]" in out

    def test_prime_outside_L(self, capsys, tmp_path):
        code, _, err = run(capsys, "beta", "-m", "23", "5", "--cache-dir", str(tmp_path))
        assert code == 2 and "split" in err


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
