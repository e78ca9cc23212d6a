"""Independent reference implementations used to validate the fast paths.

Everything here is deliberately naive: textbook row reduction on dense
Fraction rows, a wedge flattening built cell by cell from its definition,
and a brute-force tableau counter.  These never share code with the
library's elimination, flattening or hook-content routines.
"""

from fractions import Fraction
from itertools import combinations


def dense_rows(matrix):
    """SparseMatrix -> dense list-of-lists (field values as given)."""
    rows = [[0] * matrix.cols for _ in range(matrix.rows)]
    for r, c, v in matrix.items():
        rows[r][c] = v
    return rows


def stored(x):
    """The entries of a SparseMatrix or Tensor3 as a dict from index tuple
    to value; an index it lacks holds 0."""
    return {cell[:-1]: cell[-1] for cell in x.items()}


def rank_gauss_fractions(rows):
    """Rank by plain Gaussian elimination over Fraction, no pivoting tricks."""
    rows = [[Fraction(x) for x in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, nrows):
            if rows[r][c] != 0:
                f = rows[r][c] / prow[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_gauss_mod_p(rows, p):
    """Rank by plain Gaussian elimination over F_p on dense int rows."""
    rows = [[int(x) % p for x in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, p)
        for r in range(rank + 1, nrows):
            if rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def colex_tuples(a, p):
    """The p-subsets of range(a) as increasing tuples, in colex order
    (compared from the largest element down)."""
    return sorted(combinations(range(a), p), key=lambda s: s[::-1])


def wedge_flattening(t, p):
    """The p-th wedge flattening of t from its definition, by brute force.

    Returns (cells, row_labels, col_labels).  The p- and (p+1)-subsets of
    range(a) come from itertools.combinations, put in colex order (compared
    from the largest element down).  row_labels[r] = (k, S') with
    r = colex(S')*c + k, and col_labels[q] = (j, S) with q = colex(S)*b + j.
    Each tensor entry (i, j, k, v), in storage order, and each p-subset S
    avoiding i, in colex order, give one cell (r, q, sign*v) at
    S' = S u {i}, with sign = (-1)^#{s in S : s < i}; over F_p, -v is
    reduced mod p.
    """
    a, b, c = t.dims
    small, big = colex_tuples(a, p), colex_tuples(a, p + 1)
    row_labels = [(k, s) for s in big for k in range(c)]
    col_labels = [(j, s) for s in small for j in range(b)]
    row_at = {label: r for r, label in enumerate(row_labels)}
    cells = []
    for (i, j, k), v in t._cells.items():
        neg = -v if t.field.is_q else (-v) % t.field.p
        for q, s in enumerate(small):
            if i in s:
                continue
            sign_flip = sum(x < i for x in s) % 2
            cells.append((row_at[(k, tuple(sorted(s + (i,))))], q * b + j,
                          neg if sign_flip else v))
    return cells, row_labels, col_labels


def count_ssyt(shape, v):
    """Number of semistandard fillings of `shape` with entries in 1..v.

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Pure backtracking; fine for |shape| <= 6 and v <= 4.
    """
    shape = tuple(shape)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]

    def rec(idx, filling):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        total = 0
        for value in range(lo, v + 1):
            filling[(r, c)] = value
            total += rec(idx + 1, filling)
        filling.pop((r, c), None)
        return total

    return rec(0, {})
