"""The binary-form multiplication projection onto the top summand.

A form of degree d is represented by its d + 1 coefficients on the monomial
basis x^d, x^{d-1}y, ..., y^d.  The projection of the mn-dimensional first
factor of the matrix multiplication tensor onto the (m+n-1)-dimensional
space of degree-(m+n-2) forms is plain monomial multiplication: it sends
basis vector (alpha, s) to degree index alpha + s.  Composing it with the
wedge-power flattening at p = n-1 yields a map that is injective for all
n <= m, which is what turns the column count into a border-rank bound.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidDimension, OrderViolation
from .exterior import KoszulMatrix, koszul_flattening
from .rank_engine import rank_mod_p
from .scalars import DEFAULT_CERTIFICATION_PRIMES, FieldTag
from .tensor import Tensor3


def restrict_matmul(m: int, n: int, l: int, field: FieldTag | None = None) -> Tensor3:
    """Matrix multiplication tensor with its first factor projected;
    dims (m+n-1, nl, ml).

    Entry (alpha*n + s, s*l + t, t*m + alpha) of `matmul_tensor` becomes
    (alpha + s, s*l + t, t*m + alpha), written in `matmul_tensor`'s order.
    The second and third indices give back (alpha, s, t), so no two entries
    share a cell and nothing accumulates.
    """
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    if n < 1:
        raise OrderViolation(f"need n >= 1, got n={n}")
    if l < 1:
        raise InvalidDimension(f"need l >= 1, got l={l}")
    field = field if field is not None else FieldTag.rationals()
    entries = [
        (alpha + s, s * l + t, t * m + alpha, 1)
        for alpha in range(m) for s in range(n) for t in range(l)
    ]
    return Tensor3((m + n - 1, n * l, m * l), entries, field)


def restricted_koszul(m: int, n: int, l: int) -> KoszulMatrix:
    """Wedge-power flattening of the projected matrix multiplication tensor
    at p = n - 1, where the map has full column rank nl * C(m+n-1, n-1) for
    every n <= m."""
    return koszul_flattening(restrict_matmul(m, n, l), n - 1)


def dual_surjectivity_check(m: int, n: int) -> bool:
    """Check that the transpose of the restricted map at p = n-1 is onto.

    Computes the transpose rank over the first certification prime; reaching
    the full target dimension n * C(m+n-1, n-1) there already implies
    surjectivity over Q.
    """
    km = restricted_koszul(m, n, 1)
    target_dim = n * comb(m + n - 1, n - 1)
    result = rank_mod_p(km.matrix.transpose(), DEFAULT_CERTIFICATION_PRIMES[0])
    return result.rank == target_dim
