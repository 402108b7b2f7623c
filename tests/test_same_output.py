"""tools/same_output.py's sixteen digests, pinned: the outputs a change must keep.

The values are those recorded in CHANGES.md.  A change that alters one of
these outputs on purpose updates its digest here and lists it there.
Digest 14, about 0.4 s, hashes recombine and decompose where content lies
at an odd pillar; digest 15, about 0.07 s, the betas p <= 60 at
m = 10000019 and 10^8 + 7, whose class numbers are 1275 and 7253;
digest 16, about 0.03 s, warm round trips whose c keeps two primes above
the trial-division bound; digest 9, about 0.7 s, the glue and Cornacchia
outcome of 70,164 factor lists, more than the betas themselves build.
The four slowest, on a 2-vCPU Xeon: digest 1 (every modulus below 3000)
1.3-1.5 s, digest 10 (scalar_mul) 1.2 s, digest 13 (two_torsion_primes)
0.5 s and digest 5 (form orders) 0.4 s; all sixteen take about 6 s.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"

PINNED = {
    1: "9a3f1dfc04c64671dd719333c51967900adf0d866bab9eb96fac09f8d603c395",
    2: "de2474313ec363f71721776c0a282558340bb19019acf2aa2910ad955360165d",
    3: "cc15d2190dd4e1ad704506623828e725c4b8bf3e8c52d2f638b5ce2a0689acb5",
    4: "3d0a98386ac6d63822739eff714725963cac6c1389cb22cb960ddf21809ca269",
    5: "9b78249619508c2eae331afe84baaf9a4b128822a1bf4a0639335b0dc77169c5",
    6: "268d84c5f722ac8647d17238ed2f187f313055bd357b1d4da5a61a8e2314defb",
    7: "e2adfb11ccb35951c27e4ff9df0748d47b24c8f93d6c8f86300959bb3f7f944b",
    8: "5f8e2de6f5b5310a9f89bc2c0245559989770233698e8074429bf60f1f8104e0",
    9: "63e6c0f19a2d819b65f0110be4820f812454f27654cd8d5438d90cd209da2207",
    10: "4e20ed297d4ecf43f8fb49563e99bfc392ee35cf31d9be6e1db03faa4ced4661",
    11: "ef7546a3bd5f56cf011ed87b2475642f7e5596f60d51c6010dc68eb186b241a1",
    12: "292bfefeac6049eb1a057d59f796ae7d3cf78a47afd91fda8aa2686f7bb73f43",
    13: "db4fbaefd83de2a627c37e0c746d9b42fc30ef673b5700b595f310ae438f9cba",
    14: "ccaa3cb862b69d12a817ecaf100e98a799cb3c4e577ed25bdfefea0a4576cfe7",
    15: "5527de7c5744f416def832a33a08645bef37d628da0305b4ae3aa726c4690afe",
    16: "04fbf2ba4e647babd21ad89a1b3eb5dbbe8c5a353f9434215d34e4da75d9ce9a",
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
