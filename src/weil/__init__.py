"""Exact kernels for classical and quantum covariant Weil algebras.

Everything is computed over the rationals: no floats, no tolerances.
The main entry points are `builtin` / `load_algebra_file` for algebra
data; `ClassicalAlgebra(lie, rep)` and `QuantumAlgebra(lie, rep)`, the
two kinds of `WeilAlgebra`, for elements, operators and curvature; and
`flat` for truncated-degree subspace computations, which take such a
value.
"""

from .linalg import Matrix, format_scalar, kernel, parse_scalar, rank
from .lie import (
    AlgebraDef,
    BilinearForm,
    LieData,
    RepData,
    adjoint_rep,
    builtin,
    load_algebra_file,
    trivial_rep,
    validate_form,
    validate_lie,
    validate_rep,
)

from .element import WeilAlgebra
from .classical import ClassicalAlgebra
from .quantum import QuantumAlgebra

# context string ("--classical" / "--quantum") -> the algebra's class
ALGEBRAS = {"classical": ClassicalAlgebra, "quantum": QuantumAlgebra}

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAS",
    "AlgebraDef",
    "BilinearForm",
    "ClassicalAlgebra",
    "LieData",
    "Matrix",
    "QuantumAlgebra",
    "RepData",
    "WeilAlgebra",
    "adjoint_rep",
    "builtin",
    "format_scalar",
    "kernel",
    "load_algebra_file",
    "parse_scalar",
    "rank",
    "trivial_rep",
    "validate_form",
    "validate_lie",
    "validate_rep",
]
