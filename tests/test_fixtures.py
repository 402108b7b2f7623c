from collections import Counter

import pytest

from aptgroup import fixtures


@pytest.fixture
def built(monkeypatch):
    """The (m, pillars) of every BasisTable the fixtures build."""
    seen = []
    real = fixtures.BasisTable

    def spy(mod, pillars=None, table=None):
        seen.append((mod.m, pillars))
        return real(mod, pillars, table=table)

    monkeypatch.setattr(fixtures, "BasisTable", spy)
    return seen


@pytest.fixture
def groups(monkeypatch):
    """The m of every ClassGroupTable the fixtures build."""
    seen = []
    real = fixtures.ClassGroupTable

    def spy(mod):
        seen.append(mod.m)
        return real(mod)

    monkeypatch.setattr(fixtures, "ClassGroupTable", spy)
    return seen


def test_one_table_per_modulus_and_pillars_per_run(built):
    results = fixtures.run_fixtures()
    assert len(results) == 22 and all(ok for _, ok, _ in results)
    # the specials fixture reads [q, r, 4] off the tables of 7 and 15
    want = {(35, None): 1, (23, None): 1, (23, (2,)): 1, (23, (3,)): 1, (974, None): 1,
            (7, None): 1, (15, None): 1}
    assert Counter(built) == want
    fixtures.run_fixtures()
    assert Counter(built) == {key: 2 for key in want}


def test_one_class_group_per_modulus_per_run(built, groups):
    # the three pillar choices of 23 share one class group, which keeps each choice's quotient
    results = fixtures.run_fixtures()
    assert all(ok for _, ok, _ in results)
    assert sorted(groups) == [7, 15, 23, 35, 974]
    fixtures.run_fixtures(23)
    assert sorted(groups) == [7, 15, 23, 23, 35, 974]


def test_one_table_for_one_modulus(built):
    results = fixtures.run_fixtures(974)
    assert len(results) == 9 and all(ok for _, ok, _ in results)
    assert built == [(974, None)]


def test_every_fixture_compares_its_value(monkeypatch):
    # each expected value replaced: every fixture fails with the one failure text
    wrong = object()
    monkeypatch.setattr(fixtures, "FIXTURES", tuple(
        fx._replace(expected=wrong) for fx in fixtures.FIXTURES))
    results = fixtures.run_fixtures()
    assert len(results) == 22
    for fx, ok, msg in results:
        assert not ok and msg.startswith("got ") and msg.endswith(f", expected {wrong!r}"), fx.name


def test_a_wrong_value_and_a_crash_fail(monkeypatch):
    def crash(tables):
        raise ZeroDivisionError("boom")

    first, second = fixtures.FIXTURES[:2]
    monkeypatch.setattr(fixtures, "FIXTURES", (
        first._replace(expected=(2, [2], 2, [], [(3, 2)])),
        second._replace(compute=crash),
    ))
    assert fixtures.run_fixtures() == [
        (fixtures.FIXTURES[0], False, "got (2, [2], 2, [], []), expected (2, [2], 2, [], [(3, 2)])"),
        (fixtures.FIXTURES[1], False, "ZeroDivisionError: boom"),
    ]
