"""tools/same_output.py's cheap digests, pinned: the outputs a change must keep.

The values are those recorded in CHANGES.md.  A change that alters one of
these outputs on purpose updates its digest here and lists it there.
Digests 1, 5, 9, 10, 13 and 14 take seconds each and stay in the tool.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"

PINNED = {
    2: "de2474313ec363f71721776c0a282558340bb19019acf2aa2910ad955360165d",
    3: "cc15d2190dd4e1ad704506623828e725c4b8bf3e8c52d2f638b5ce2a0689acb5",
    4: "3d0a98386ac6d63822739eff714725963cac6c1389cb22cb960ddf21809ca269",
    6: "268d84c5f722ac8647d17238ed2f187f313055bd357b1d4da5a61a8e2314defb",
    7: "e2adfb11ccb35951c27e4ff9df0748d47b24c8f93d6c8f86300959bb3f7f944b",
    8: "5f8e2de6f5b5310a9f89bc2c0245559989770233698e8074429bf60f1f8104e0",
    11: "ef7546a3bd5f56cf011ed87b2475642f7e5596f60d51c6010dc68eb186b241a1",
    12: "292bfefeac6049eb1a057d59f796ae7d3cf78a47afd91fda8aa2686f7bb73f43",
}


@pytest.fixture(scope="module")
def same_output():
    spec = importlib.util.spec_from_file_location("same_output", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", sorted(PINNED))
def test_digest(same_output, n):
    assert same_output.digest(same_output.DIGESTS[n - 1]()) == PINNED[n]
