"""The value types are named tuples that keep the contract of frozen dataclasses.

Each compares and hashes as the tuple of its fields, refuses assignment,
survives pickle and copy, and keeps its repr and its defaults; the
command line imports neither dataclasses nor inspect nor typing.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from aptgroup.basis import BasisElement, Category, ExpEntry
from aptgroup.classgroup import FormClass
from aptgroup.decompose import Decomposition, PrimeIdealRef, decompose, ideal_valuations
from aptgroup.fixtures import Fixture
from aptgroup.quadfield import InvalidModulusError, Modulus, PrimeSplitInfo, SplitKind, splitting_type
from aptgroup.triples import NotASolutionError, Triple, scalar_mul

ROOT = Path(__file__).resolve().parents[1]
T = Triple(974, 4141, 66, 4625)

# name: (a sample, made from the m = 974 table; its fields; those that equality
# and hashing covered; its repr, as the frozen dataclass printed it)
VALUES = {
    "Triple": (lambda bt: T, "m a b c", "m a b c", "[4141, 66, 4625]"),
    "Modulus": (lambda bt: bt.mod, "m delta disc", "m", "Modulus(m=974, delta=1, disc=-3896)"),
    "PrimeSplitInfo": (
        lambda bt: splitting_type(bt.mod, 41), "p kind root", "p kind root",
        "PrimeSplitInfo(p=41, kind=<SplitKind.SPLIT: 'split'>, root=16)",
    ),
    "ExpEntry": (lambda bt: ExpEntry(2, 1, True), "j a conj", "j a conj", "ExpEntry(j=2, a=1, conj=True)"),
    "BasisElement": (
        lambda bt: bt.beta(3), "p triple category pillar_index exps", "p triple category pillar_index exps",
        "BasisElement(p=3, triple=[359, 16, 615], category=<Category.COMPOSITE: 'composite'>, "
        "pillar_index=None, exps=(ExpEntry(j=1, a=1, conj=False), ExpEntry(j=2, a=1, conj=False)))",
    ),
    "Pillar": (
        lambda bt: bt.pillars[0], "index p info order", "index p info order",
        "Pillar(index=1, p=5, info=PrimeSplitInfo(p=5, kind=<SplitKind.SPLIT: 'split'>, root=1), order=6)",
    ),
    "PrimeIdealRef": (
        lambda bt: PrimeIdealRef(41, 16, False), "p root conj", "p root conj",
        "PrimeIdealRef(p=41, root=16, conj=False)",
    ),
    "Decomposition": (
        lambda bt: decompose(bt, T), "m input terms special_coeff verified", "m input terms special_coeff verified",
        "Decomposition(m=974, input=[4141, 66, 4625], terms=((5, -1), (37, 1)), special_coeff=0, verified=True)",
    ),
    "Fixture": (
        lambda bt: Fixture("probe", 35, abs, (1, 0)), "name m compute expected", "name m compute expected",
        "Fixture(name='probe', m=35, compute=<built-in function abs>, expected=(1, 0))",
    ),
}


@pytest.fixture(params=list(VALUES))
def value(request, tables):
    make, fields, compared, text = VALUES[request.param]
    x = make(tables[974])
    assert type(x).__name__ == request.param
    return x, fields.split(), compared.split(), text


def test_fields_and_repr(value):
    x, fields, _, text = value
    assert x._fields == tuple(fields)
    assert repr(x) == text


def test_fields_are_read_only(value):
    x, fields, _, _ = value
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1


def test_equality_and_hash_are_those_of_the_fields(value):
    x, fields, compared, _ = value
    key = tuple(getattr(x, f) for f in compared)
    rebuilt = type(x)(*key)
    assert rebuilt == x and not rebuilt != x
    assert hash(rebuilt) == hash(x)
    # a frozen dataclass hashed the tuple of its compared fields; Modulus
    # compared m alone, and now also hashes delta and disc, which m fixes
    assert hash(x) == hash(tuple(x) if compared != fields else key)


@pytest.mark.parametrize("xs", [
    [T, -T, Triple(974, 3167, 108, 4625), Triple(35, 1, 0, 1), Triple(974, 1, 0, 1)],
    [Modulus(974), Modulus(35), Modulus(23), Modulus(9999999967)],
    list(ideal_valuations(Modulus(974), Triple(974, 359, 16, 615))) + [PrimeIdealRef(3, 2, True)],
], ids=["Triple", "Modulus", "PrimeIdealRef"])
def test_ordering_is_that_of_the_fields(xs):
    fields = {"Triple": "m a b c", "Modulus": "m", "PrimeIdealRef": "p root conj"}[type(xs[0]).__name__].split()
    assert sorted(xs) == sorted(xs, key=lambda x: tuple(getattr(x, f) for f in fields))


def test_pickle_and_copy_round_trip(value):
    x = value[0]
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and type(y) is type(x)


def test_defaults():
    assert PrimeSplitInfo(7, SplitKind.INERT).root is None
    el = BasisElement(3, T, Category.TWO_TORSION)
    assert (el.pillar_index, el.exps) == (None, ())
    d = Decomposition(974, T, ((37, 1),))
    assert (d.special_coeff, d.verified) == (0, False)
    assert d.coefficients() == {37: 1}
    assert d.to_json_dict() == {"m": 974, "input": [4141, 66, 4625], "terms": [{"p": 37, "coeff": 1}],
                                "special": 0, "verified": False}


def test_a_triple_times_an_int_is_an_error():
    with pytest.raises(TypeError):
        T * 3
    with pytest.raises(TypeError):
        T * T
    assert 3 * T == scalar_mul(3, T) == T + T + T


@pytest.mark.parametrize("make,args,error,message", [
    (Triple, (23, -13, 12, 59), NotASolutionError, "not canonical: (-13, 12, 59)"),
    (Triple, (23, 0, 0, 0), NotASolutionError, "not canonical: (0, 0, 0)"),
    (Triple, (23, 13, 12, -59), NotASolutionError, "not canonical: (13, 12, -59)"),
    (Triple, (23, 1, 1, 5), NotASolutionError, "(1, 1, 5) does not solve x^2 + 23y^2 = z^2"),
    (Triple, (23, 26, 24, 118), NotASolutionError, "not primitive: (26, 24, 118)"),
    (Modulus, (3,), InvalidModulusError, "modulus must exceed 3, got 3"),
    (Modulus, (-7,), InvalidModulusError, "modulus must exceed 3, got -7"),
    (Modulus, (10**10 + 1,), InvalidModulusError, "modulus must not exceed 10^10, got 10000000001"),
    (Modulus, (10**47 + 4,), InvalidModulusError, f"modulus must not exceed 10^10, got {10**47 + 4}"),
    (Modulus, (12,), InvalidModulusError, "modulus must be square-free, got 12"),
    (Modulus, (950625,), InvalidModulusError, "modulus must be square-free, got 950625"),
])
def test_bad_input_raises_as_before(make, args, error, message):
    with pytest.raises(error) as info:
        make(*args)
    assert type(info.value) is error and str(info.value) == message


def test_modulus_takes_m_alone():
    with pytest.raises(TypeError):
        Modulus(974, 1, -3896)


def test_replace_checks_as_the_constructor_does():
    assert T._replace(b=-66) == -T
    with pytest.raises(NotASolutionError, match="does not solve"):
        T._replace(a=4142)
    assert Modulus(974)._replace(m=35) == Modulus(35)
    with pytest.raises(ValueError):
        Modulus(974)._replace(delta=0)  # derived, as dataclasses.replace refused it
    with pytest.raises(InvalidModulusError, match="square-free"):
        Modulus(974)._replace(m=12)
    assert FormClass(2, 1, 3)._replace(b=-1) == FormClass(2, -1, 3)
    with pytest.raises(ValueError, match="not reduced"):
        FormClass(2, 1, 3)._replace(b=5)  # discriminant 1


def test_the_command_line_imports_no_dataclasses_inspect_or_typing():
    # a fresh interpreter that imports only the package and the standard library
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import aptgroup.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
