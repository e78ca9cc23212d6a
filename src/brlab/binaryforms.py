"""The binary-form multiplication projection onto the top summand.

A form of degree d is represented by its d + 1 coefficients on the monomial
basis x^d, x^{d-1}y, ..., y^d.  The projection of the mn-dimensional first
factor of the matrix multiplication tensor onto the (m+n-1)-dimensional
space of degree-(m+n-2) forms is plain monomial multiplication, a 0/1
matrix: composing it with the wedge-power flattening at p = n-1 yields a
map that is injective for all n <= m, which is what turns the column count
into a border-rank bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import OrderViolation
from .exterior import KoszulMatrix, koszul_flattening
from .rank_engine import rank_mod_p
from .scalars import FieldTag, certification_primes
from .tensor import FactorMap, Tensor3, matmul_tensor, project_factor_A


@dataclass(frozen=True)
class RestrictedSetup:
    """The multiplication projection from the mn-dimensional factor.

    dim_u = n and dim_m = m are the coefficient-space dimensions of the two
    form spaces; the projector sends basis vector (alpha, s), flat index
    alpha*n + s, to degree index alpha + s in the (m+n-1)-dimensional target.
    """

    m: int
    n: int
    dim_u: int
    dim_m: int
    dim_target: int
    projector: FactorMap


def restriction_projector(m: int, n: int) -> RestrictedSetup:
    """Monomial-multiplication projection, (m+n-1) x (mn), full row rank."""
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    if n < 1:
        raise OrderViolation(f"need n >= 1, got n={n}")
    rows = [[0] * (m * n) for _ in range(m + n - 1)]
    for alpha in range(m):
        for s in range(n):
            rows[alpha + s][alpha * n + s] = 1
    projector = FactorMap(m * n, m + n - 1, tuple(tuple(r) for r in rows))
    return RestrictedSetup(m, n, n, m, m + n - 1, projector)


def restrict_matmul(m: int, n: int, l: int, field: FieldTag | None = None) -> Tensor3:
    """Matrix multiplication tensor with its first factor projected;
    dims (m+n-1, nl, ml)."""
    setup = restriction_projector(m, n)
    return project_factor_A(matmul_tensor(m, n, l, field), setup.projector)


def restricted_koszul(m: int, n: int, l: int, p: int | None = None,
                      field: FieldTag | None = None) -> KoszulMatrix:
    """Wedge-power flattening of the projected matrix multiplication tensor.

    Defaults to p = n - 1, where the map has full column rank
    nl * C(m+n-1, n-1) for every n <= m.
    """
    if p is None:
        p = n - 1
    return koszul_flattening(restrict_matmul(m, n, l, field), p)


def dual_surjectivity_check(m: int, n: int, prime: int | None = None) -> bool:
    """Check that the transpose of the restricted map at p = n-1 is onto.

    Computes the transpose rank over a certification prime; reaching the
    full target dimension n * C(m+n-1, n-1) there already implies
    surjectivity over Q.
    """
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    if prime is None:
        prime = certification_primes()[0]
    km = restricted_koszul(m, n, 1, n - 1)
    target_dim = n * comb(m + n - 1, n - 1)
    result = rank_mod_p(km.matrix.transpose(), prime)
    return result.rank == target_dim
