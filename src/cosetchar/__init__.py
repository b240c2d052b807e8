"""Exact characters and fusion rings for Virasoro minimal models and affine osp(1|2).

The package is organized in layers:

- series: truncated exact q-series with fractional exponents and int
  coefficients, the theta sums and Euler products every character is built
  from, and the one character assembly (theta times one combined Euler
  product over q^(1/24) or q^(1/8), one integer pass, cached per character)
- minimal: Kac tables, su(2) x su(2) fusion rules and irreducible characters
  of the rational Virasoro models
- affine: osp(1|2) and sl2 affine characters and the parity branching that
  ties them together
- coset: coefficientwise verification of the c = 8/35 coset decomposition of
  the level-1 tensor square
- extension: module census and fusion ring of the simple-current extension
  V(1,1) + V(6,1) of the (10,7) model
- cli: all of the above as deterministic JSON/CSV/text commands

Each submodule's ``__all__`` is its one list of public names; the package
re-exports those of the first five and does not import cli.
"""

from .affine import *
from .coset import *
from .extension import *
from .minimal import *
from .series import *

__version__ = "0.1.0"
