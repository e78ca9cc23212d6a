"""brlab: certified lower bounds on the border rank of 3-tensors.

Builds wedge-power flattenings of sparse exact tensors (in particular the
matrix multiplication tensor and its projection through binary-form
multiplication), computes their ranks over Q or prime fields, and packages
the results as auditable bound certificates cross-validated against
representation-theoretic kernel formulas.
"""

from .bounds import (
    BoundCertificate,
    bound_classical,
    bound_formula_theorem1,
    bound_koszul,
    bound_matmul_restricted,
    compare_table,
    lickteig_square,
)
from .binaryforms import (
    dual_surjectivity_check,
    restricted_koszul,
)
from .errors import BrlabError
from .exterior import (
    KoszulMatrix,
    koszul_flattening,
)
from .rank_engine import (
    ExactQ,
    MultiPrime,
    RankResult,
    SparseMatrix,
    rank_certified,
    rank_exact_q,
    rank_mod_p,
)
from .repcomb import (
    IsotypicSummand,
    cauchy_wedge,
    conjugate,
    dim_schur,
    kernel_dim_formula,
    kernel_dim_pieri,
    kernel_modules,
    pieri_add_box,
)
from .scalars import (
    DEFAULT_CERTIFICATION_PRIMES,
    FieldTag,
    certification_primes,
)
from .tensor import (
    Tensor3,
    add_tensors,
    load_tensor,
    matmul_tensor,
    rank_one_tensor,
    save_tensor,
    scale_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "BrlabError",
    "DEFAULT_CERTIFICATION_PRIMES",
    "ExactQ",
    "FieldTag",
    "IsotypicSummand",
    "KoszulMatrix",
    "MultiPrime",
    "RankResult",
    "SparseMatrix",
    "Tensor3",
    "add_tensors",
    "bound_classical",
    "bound_formula_theorem1",
    "bound_koszul",
    "bound_matmul_restricted",
    "cauchy_wedge",
    "certification_primes",
    "compare_table",
    "conjugate",
    "dim_schur",
    "dual_surjectivity_check",
    "kernel_dim_formula",
    "kernel_dim_pieri",
    "kernel_modules",
    "koszul_flattening",
    "lickteig_square",
    "load_tensor",
    "matmul_tensor",
    "pieri_add_box",
    "rank_certified",
    "rank_exact_q",
    "rank_mod_p",
    "rank_one_tensor",
    "restricted_koszul",
    "save_tensor",
    "scale_tensor",
]
