"""The wedge-power flattening, and the classical flattenings as its p = 0 case.

Basis vectors of the p-th exterior power of the first tensor factor are
labeled by strictly increasing index subsets, enumerated in
*colexicographic* order.  For each first-factor index that occurs in the
tensor, an insertion table of subset positions spreads each tensor entry
over its cells without any subset search, so the tables follow the
entries, not the declared dimension.  The tables are flat machine-integer
arrays, grouped by the weight of the subset under a grading of the tensor,
so that the cells of one weight space of the flattening are written alone:
`koszul_weight_spaces` streams them one weight at a time, and
`koszul_flattening` is its one-weight case, the whole flattening.

The sign convention wedges the incoming vector on the left,
a_i ^ (a_{s1} ^ ... ^ a_{sp}); any consistent convention yields the same
ranks, but certificates must be bit-reproducible, so this one is fixed.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from functools import partial
from math import comb

from .errors import InvalidDimension
from .rank_engine import SparseMatrix
from .tensor import Tensor3


class WedgeRangeWarning(UserWarning):
    """p exceeds ceil(a/2) - 1: the flattening duplicates a complementary one."""


def _colex_tuples(a: int, p: int):
    if p == 0:
        yield ()
        return
    for top in range(p - 1, a):
        for rest in _colex_tuples(top, p - 1):
            yield rest + (top,)


@dataclass(frozen=True)
class KoszulMatrix:
    """Wedge-power flattening as an explicit sparse matrix.

    Row index of (k, S') is colex(S')*c + k; column index of (j, S) is
    colex(S)*b + j.  At p = 0 this reproduces the classical mode-B
    flattening including its row order.
    """

    matrix: SparseMatrix

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols


def redundancy_cap(a: int) -> int:
    """Largest p giving an essentially new flattening: ceil(a/2) - 1."""
    return (a + 1) // 2 - 1


def check_wedge_power(a: int, p: int) -> None:
    """Reject p outside 0..a-1 (InvalidDimension); warn with
    WedgeRangeWarning, on behalf of the caller's caller, when p exceeds
    redundancy_cap(a)."""
    if not (0 <= p <= a - 1):
        raise InvalidDimension(f"need 0 <= p <= a-1, got p={p}, a={a}")
    if p > redundancy_cap(a):
        warnings.warn(
            f"p={p} exceeds ceil(a/2)-1={redundancy_cap(a)}; "
            "the bound is still valid but duplicates a smaller power",
            WedgeRangeWarning,
            stacklevel=3,
        )


def _mirror_map(subset_pairs, wb: dict[int, int], b: int) -> dict[int, int] | None:
    """sigma: weight -> mirror weight of the columns (j, S) whose j occurs,
    from the distinct (sum wA(S), sum wA(rho S)) pairs; None when one
    weight has two mirror weights."""
    sigma: dict[int, int] = {}
    for w, w_rho in subset_pairs:
        for j, wj in wb.items():
            m = wb[b - 1 - j] + w_rho
            if sigma.setdefault(wj + w, m) != m:
                return None
    return sigma


class WeightSpaces:
    """One part of a wedge flattening, as a stream of its weight spaces.

    Each iteration writes the cells of one weight at a time into a
    `SparseMatrix` of the flattening's full shape and yields that matrix,
    which no other reference holds.  The flattening is block diagonal over
    the weights (see `koszul_weight_spaces`), so each yielded matrix is a
    union of row blocks of the whole one.
    """

    def __init__(self, rows: int, cols: int, field, weights: list[int], write):
        self.rows, self.cols, self.field = rows, cols, field
        self.weights = weights
        self._write = write

    def __iter__(self):
        for w in self.weights:
            yield SparseMatrix(self.rows, self.cols, self._write(w), self.field)


def _insertion_tables(t: Tensor3, p: int, wa: list[int] | None):
    """Insertion tables of the first-factor indices that occur in t, grouped
    by the weight sum wA(S) of the p-subset S (all 0 when wa is None).

    Returns (used, bucket, rows_of, cols_of, offsets, subset_pairs).  For the
    x-th used index i, rows_of[x] and cols_of[x] hold one cell per p-subset
    S avoiding i: the row offset c*colex(S u {i}), bitwise negated when the
    wedge sign is -1, and the column offset b*colex(S).  The cells run over
    the subsets grouped by weight, in colex order within a weight, and those
    of the g-th weight (bucket[u] = g) lie in offsets[x][g]:offsets[x][g+1].
    subset_pairs holds the distinct (sum wA(S), sum wA(rho S)).
    """
    a, b, c = t.dims
    used = sorted({i for i, _, _ in t._cells})
    # Flat machine-integer arrays, unless the shape overflows them (a first
    # factor far larger than any table, say).
    fits = max(c * comb(a, p + 1), b * comb(a, p)) < 1 << 63
    new = partial(array, "q") if fits else list
    rows_of, cols_of, offsets = ([new() for _ in used] for _ in range(3))
    if wa is None:
        subsets = ((0, q, s) for q, s in enumerate(_colex_tuples(a, p)))
    else:
        # Grouped by weight; ties keep colex order.
        subsets = sorted((sum(map(wa.__getitem__, s)), q, s)
                         for q, s in enumerate(_colex_tuples(a, p)))
        wa_rho = wa[::-1]
    bucket, subset_pairs = {}, set()
    # The colex position of a subset s_0 < s_1 < ... is sum_j C(s_j, j+1).
    # Inserting i at place pos keeps the terms below pos (low), adds
    # C(i, pos+1), and moves each term from pos on one place up (high), so
    # no table of (p+1)-subsets is built.
    for u, q, s in subsets:
        if u not in bucket:
            bucket[u] = len(bucket)
            for off, rows in zip(offsets, rows_of):
                off.append(len(rows))
        subset_pairs.add((u, 0 if wa is None else sum(map(wa_rho.__getitem__, s))))
        col = q * b
        low, high, pos = 0, sum(comb(x, j + 2) for j, x in enumerate(s)), 0
        for i, rows, cols in zip(used, rows_of, cols_of):
            while pos < p and s[pos] < i:
                x = s[pos]
                low += comb(x, pos + 1)
                high -= comb(x, pos + 2)
                pos += 1
            if pos < p and s[pos] == i:
                continue
            row = (low + comb(i, pos + 1) + high) * c
            rows.append(~row if pos % 2 else row)
            cols.append(col)
    for off, rows in zip(offsets, rows_of):
        off.append(len(rows))
    return used, bucket, rows_of, cols_of, offsets, subset_pairs


def koszul_weight_spaces(t: Tensor3, p: int,
                         grading) -> tuple[tuple[WeightSpaces, int], ...]:
    """The p-th wedge flattening of t as (WeightSpaces, count) parts whose
    ranks add up with the counts, written one weight at a time when each
    part is iterated; grading is `mirror_grading(t)`, or None for the whole
    flattening as one weight space.

    The cells are those of `koszul_flattening`.  Column (j, S) gets the
    weight w = wB(j) + sum wA(S), and the grading makes the flattening
    block diagonal over w: the entry's row (k, S u {i}) has weight
    sum wA(S u {i}) - wC(k) = w.  Its mirror weight w' is the weight of the
    column rho(j, S) = (b-1-j, {a-1-s}).  Reversing the first factor changes
    sign(i, S) by (-1)^p, so the flattening takes the cell at (rho(row),
    rho(col)) to +-1 times the cell at (row, col), one sign for all cells.
    When w' is one value sigma(w) on every column of weight w, rho
    therefore maps the block of weight w onto that of weight sigma(w) by a
    signed row and column permutation, and the two blocks have equal ranks
    over every field.  The parts are then the weights w < sigma(w), to be
    counted twice, and w = sigma(w), counted once; the others are their
    mirror images and are never written.  When sigma is not a function of
    w, or every weight is its own mirror, the one part holds every weight,
    counted once: there are two parts exactly when some weight was paired.
    """
    check_wedge_power(t.dims[0], p)
    a, b, c = t.dims
    wb = grading[1] if grading is not None else {}
    # At p = 0 the one subset is empty: no A weight is read, and a may be
    # far larger than any table.
    wa = [grading[0].get(x, 0) for x in range(a)] if grading is not None and p else None
    used, bucket, rows_of, cols_of, offsets, subset_pairs = _insertion_tables(t, p, wa)

    # Entry (i, j, k) and subset S fix the cell, and the cell gives back
    # S, j, k and i = S' \ S, so every cell is written at most once and
    # holds +-v: nothing accumulates and no stored zero can arise.
    # SparseMatrix still rejects duplicates, so a broken table fails loudly.
    # Each weight's cells are written entry by entry in storage order, and
    # each entry's in colex order of S, so every row keeps its entries in
    # the order of the tensor's.
    p_mod = None if t.field.is_q else t.field.p
    index = {i: x for x, i in enumerate(used)}
    entries = [(index[i], j, k, v, -v if p_mod is None else p_mod - v, wb.get(j, 0))
               for (i, j, k), v in t._cells.items()]

    def write(w: int):
        for x, j, k, v, neg_v, wj in entries:
            g = bucket.get(w - wj)
            if g is None:
                continue
            off = offsets[x]
            start, stop = off[g], off[g + 1]
            for row, col in zip(rows_of[x][start:stop], cols_of[x][start:stop]):
                if row >= 0:
                    yield row + k, col + j, v
                else:
                    yield ~row + k, col + j, neg_v

    weights = sorted({u + wj for u in bucket for wj in set(wb.values()) or (0,)})
    rows, cols = c * comb(a, p + 1), b * comb(a, p)
    sigma = _mirror_map(subset_pairs, wb, b) if grading is not None else None
    if sigma is None or all(w == m for w, m in sigma.items()):
        return ((WeightSpaces(rows, cols, t.field, weights, write), 1),)
    paired = [w for w in weights if w < sigma[w]]
    fixed = [w for w in weights if w == sigma[w]]
    return ((WeightSpaces(rows, cols, t.field, paired, write), 2),
            (WeightSpaces(rows, cols, t.field, fixed, write), 1))


def koszul_flattening(t: Tensor3, p: int) -> KoszulMatrix:
    """Flatten t against p-fold wedges of the first factor.

    For each tensor entry (i, j, k, v) and each p-subset S avoiding i, the
    value sign(i, S) * v lands at row (k, S u {i}), column (j, S).  Shape is
    c*C(a, p+1) rows by b*C(a, p) columns.  The matrix is the one weight
    space of `koszul_weight_spaces` with no grading.
    """
    ((spaces, _),) = koszul_weight_spaces(t, p, None)
    (matrix,) = spaces
    return KoszulMatrix(matrix)


def classical_tensor(t: Tensor3, mode: str) -> Tensor3:
    """t with the chosen factor moved to the second place, the other two
    keeping their (A, B, C) order, so that its p = 0 wedge flattening is the
    classical flattening of t for that factor:
      mode "A": (b*c) x a, entry at row j*c + k, column i (first two factors swapped)
      mode "B": (a*c) x b, entry at row i*c + k, column j (t itself)
      mode "C": (a*b) x c, entry at row i*b + j, column k (last two factors swapped)
    """
    a, b, c = t.dims
    cells = t._cells.items()
    if mode == "A":
        return Tensor3((b, a, c), ((j, i, k, v) for (i, j, k), v in cells), t.field)
    if mode == "C":
        return Tensor3((a, c, b), ((i, k, j, v) for (i, j, k), v in cells), t.field)
    if mode != "B":
        raise InvalidDimension(f"mode must be A, B or C, got {mode!r}")
    return t

