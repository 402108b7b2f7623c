"""Free bases for the group of primitive triples solving x^2 + m*y^2 = z^2.

For a square-free modulus m > 3 the projective classes of primitive
solutions form a torsion-free abelian group under the law induced by
complex multiplication.  This package computes the ideal class group of
Q(sqrt(-m)) as reduced binary quadratic forms, builds from it a free
generating set indexed by the split primes, and decomposes arbitrary
triples over that basis with exact verification.

The submodules (quadfield, classgroup, triples, basis, decompose) expose
the layers of that pipeline; the names below are the documented API and
the errors behind the command line's exit codes.
"""

from .basis import BasisTable
from .classgroup import PillarConfigError
from .decompose import DecompositionError, decompose, recombine
from .quadfield import InvalidModulusError, Modulus
from .triples import NotASolutionError, Triple

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BasisTable",
    "Modulus",
    "Triple",
    "decompose",
    "recombine",
    # exit code 2
    "InvalidModulusError",
    "PillarConfigError",
    # exit code 3
    "NotASolutionError",
    # exit code 4
    "DecompositionError",
]
