"""Partition combinatorics and representation-theoretic rank predictions.

Partitions are plain tuples of weakly decreasing positive ints; () is the
zero partition.  Schur-module dimensions come from the hook-content
formula in exact integer arithmetic.  The kernel dimension of the
wedge-power flattening of matrix multiplication is computed two
independent ways (module-by-module via one-box sums, and as an alternating
binomial sum from an Euler characteristic) so each validates the other.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import FormatError, InvalidDimension, OrderViolation

Partition = tuple[int, ...]


def check_partition(pi) -> Partition:
    """Validate and normalize to a tuple; raises FormatError when invalid."""
    pi = tuple(pi)
    if any(not isinstance(x, int) or x < 1 for x in pi):
        raise FormatError(f"parts must be positive ints, got {pi}")
    if any(pi[i] < pi[i + 1] for i in range(len(pi) - 1)):
        raise FormatError(f"parts must be weakly decreasing, got {pi}")
    return pi


def conjugate(pi: Partition) -> Partition:
    """Transpose of the Young diagram."""
    pi = check_partition(pi)
    if not pi:
        return ()
    return tuple(sum(1 for part in pi if part > i) for i in range(pi[0]))


def dim_schur(pi: Partition, v: int) -> int:
    """Dimension of the Schur module S_pi(C^v) by the hook-content formula.

    Zero when the diagram has more than v rows.  Exact integers throughout:
    the content product is divisible by the hook product.
    """
    pi = check_partition(pi)
    if v < 0:
        raise InvalidDimension(f"negative dimension {v}")
    if len(pi) > v:
        return 0
    conj = conjugate(pi)
    num = 1
    den = 1
    for i, row_len in enumerate(pi):
        for j in range(row_len):
            num *= v + j - i
            den *= (row_len - j) + (conj[j] - i) - 1
    return num // den


def pieri_add_box(pi: Partition, v: int) -> list[Partition]:
    """All partitions obtained from pi by adding one box, kept to <= v rows.

    Ordered top row first; a new bottom row comes last.
    """
    pi = check_partition(pi)
    out = []
    for i in range(len(pi)):
        if i == 0 or pi[i] < pi[i - 1]:
            out.append(pi[:i] + (pi[i] + 1,) + pi[i + 1:])
    if len(pi) < v:
        out.append(pi + (1,))
    return out


def partitions_in_box(size: int, max_part: int, max_rows: int):
    """Partitions of `size` with parts <= max_part and <= max_rows rows,
    in reverse-lexicographic order (largest first part first)."""
    if size == 0:
        yield ()
        return
    if size < 0 or max_part < 1 or max_rows < 1:
        return
    for first in range(min(size, max_part), 0, -1):
        for rest in partitions_in_box(size - first, first, max_rows - 1):
            yield (first,) + rest


class IsotypicSummand(namedtuple("IsotypicSummand", "pi_m pi_u multiplicity dimension")):
    """One (S_piM M) (x) (S_piU U) block with its multiplicity and dimension."""

    __slots__ = ()


def cauchy_wedge(p: int, m: int, n: int) -> list[IsotypicSummand]:
    """Isotypic decomposition of the p-th wedge power of a product of an
    m- and an n-dimensional space: one (pi, pi') block per partition pi of
    p fitting in m rows and n columns, multiplicity one throughout."""
    if not (0 <= p <= m * n):
        raise InvalidDimension(f"need 0 <= p <= mn, got p={p}, mn={m * n}")
    out = []
    for pi in partitions_in_box(p, n, m):
        conj = conjugate(pi)
        dim = dim_schur(pi, m) * dim_schur(conj, n)
        out.append(IsotypicSummand(pi, conj, 1, dim))
    return out


def kernel_modules(m: int, n: int, p: int) -> list[tuple[Partition, Partition]]:
    """Diagram pairs (pi', pi+(1)) labeling the kernel blocks of the
    wedge-power flattening of matrix multiplication.

    One pair per partition nu of p - m with nu_1 <= m and at most n-1 rows,
    where pi = (m, nu); empty when p < m.
    """
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    out = []
    for nu in partitions_in_box(p - m, m, n - 1):
        pi = (m,) + nu
        out.append((conjugate(pi), (m + 1,) + nu))
    return out


def kernel_dim_pieri(m: int, n: int, p: int, l: int) -> int:
    """Kernel dimension summed block-by-block over kernel_modules."""
    total = 0
    for pi_prime, pi_plus in kernel_modules(m, n, p):
        total += dim_schur(pi_prime, m) * dim_schur(pi_plus, n)
    return l * total


def kernel_dim_formula(m: int, n: int, p: int, l: int) -> int:
    """Kernel dimension as an alternating sum of binomial products:

      l * sum_{j=0}^{p-m} (-1)^j C(mn, p-m-j) C(m+j-1, j) C(m+n+j, m+j+1)

    Validated against kernel_dim_pieri inside the range
    p <= ceil(mn/2) - 1 (see formula_range_validated); computed regardless.
    """
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    total = 0
    for j in range(p - m + 1):
        term = comb(m * n, p - m - j) * comb(m + j - 1, j) * comb(m + n + j, m + j + 1)
        total += -term if j % 2 else term
    return l * total


def formula_range_validated(m: int, n: int, p: int) -> bool:
    """True when (m, n, p) lies in the range where the alternating-sum
    kernel formula is cross-validated: n <= m and p <= ceil(mn/2) - 1."""
    return n <= m and p <= (m * n + 1) // 2 - 1
