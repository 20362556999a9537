"""Exact kernels for classical and quantum covariant Weil algebras.

Everything is computed over the rationals: no floats, no tolerances.
The main entry points are `builtin` / `load_algebra_file` for algebra
data, the `classical` and `quantum` modules for elements and operators,
and `flat` for truncated-degree subspace computations.
"""

from .linalg import Matrix, Scalar, format_scalar, kernel, parse_scalar, rank
from .lie import (
    AlgebraDef,
    BilinearForm,
    LieData,
    RepData,
    adjoint_rep,
    builtin,
    builtin_names,
    load_algebra_file,
    trivial_rep,
    validate_form,
    validate_lie,
    validate_rep,
)

from . import classical, quantum

# context string -> the module holding that algebra's element class,
# operators and curvature under the same names
ALGEBRAS = {"classical": classical, "quantum": quantum}

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAS",
    "AlgebraDef",
    "BilinearForm",
    "LieData",
    "Matrix",
    "RepData",
    "Scalar",
    "adjoint_rep",
    "builtin",
    "builtin_names",
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
